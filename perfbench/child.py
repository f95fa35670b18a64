"""One benchmark process: set up a workload, run it once, report.

Run by ``run.py``, never by hand.  The parent passes the monotonic time at
which it started this process (``--t0``).  The record goes to ``--out`` as
JSON:

    setup_s       CPU seconds of this process up to the first timed call
    setup_wall_s  seconds from ``--t0`` to the first timed call
    import_s      seconds to import the library
    wall_s, cpu_s elapsed and CPU seconds of the timed call
    reference_s   CPU seconds of a fixed loop, mean of one run just before
                  and one just after the timed call
    reference_wall_s  elapsed seconds of both reference loops
    process_cpu_s CPU seconds of the whole process, reference loops excluded
    rss_mb        peak resident set of the process
    output        what the parent checks
    trace         per-layer summary (with --trace)

Modes:
    grow   grow_quadrangulations from the relabelled K4 seed, in memory
    audit  load_corpus_instances -> run_campaign -> aggregate_report over
           the relabelled committed corpus
    cli    the o1ppg command line, with the arguments after ``--``
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import relabel
import tracing

GROW_N_MAX = 10
REFERENCE_LOOPS = 2_000_000


def reference():
    """CPU and elapsed seconds of a fixed pure-Python loop: how fast the CPU
    runs this process at the moment, for comparing runs on a host whose
    speed drifts."""
    t, cpu = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.process_time() - cpu, time.perf_counter() - t


def _cpu_seconds():
    """User plus system CPU time of this process since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_library(src):
    t = time.perf_counter()
    import o1ppg.cli  # noqa: F401  (imports every module the CLI uses)
    import o1ppg.connectivity  # noqa: F401
    import o1ppg.fixtures  # noqa: F401
    elapsed = time.perf_counter() - t
    import o1ppg
    if not os.path.abspath(o1ppg.__file__).startswith(src + os.sep):
        raise SystemExit(f"o1ppg imported from {o1ppg.__file__}, "
                         f"not from {src}")
    return elapsed


def prepare_grow(args):
    from o1ppg import srsio
    from o1ppg.fixtures import fix_k4
    from o1ppg.generator import grow_quadrangulations
    from o1ppg.surface import EmbeddedGraph

    text = relabel.relabel(srsio.dumps(fix_k4().srs), args.seed)
    seed = EmbeddedGraph(srsio.loads(text))

    def run():
        return grow_quadrangulations([seed], n_max=GROW_N_MAX)

    return run, summarise_grow


def summarise_grow(corpus):
    """Class counts per order, and how many are polyhedral for n >= 9."""
    from o1ppg.errors import NotPolyhedral
    from o1ppg.model import validate_quadrangulation
    from o1ppg.surface import EmbeddedGraph

    polyhedral = {}
    for n, members in corpus.items():
        if n < 9:
            continue
        count = 0
        for _key, srs in members:
            if min(len(r) for r in srs.rotations) < 3:
                continue        # below degree 3 is never polyhedral
            try:
                validate_quadrangulation(EmbeddedGraph(srs))
            except NotPolyhedral:
                continue
            count += 1
        polyhedral[str(n)] = count
    return {"classes": {str(n): len(v) for n, v in corpus.items()},
            "polyhedral": polyhedral,
            "items": sum(len(v) for v in corpus.values())}


def write_relabelled_corpus(data, dest, seed):
    """Copy the committed corpus to ``dest`` with every rotation started at
    a seeded dart; names and manifest rows stay as committed.

    Vertex and edge ids are kept because the audit's work depends on them:
    T1.3 takes the lexicographically smaller diagonal per face and, when
    that selection is not 4-connected, searches selections in face order,
    which follows the edge ids.  Full relabelling changes the campaign's
    time several-fold from seed to seed (see README.md).
    """
    os.makedirs(dest)
    shutil.copyfile(os.path.join(data, "manifest.tsv"),
                    os.path.join(dest, "manifest.tsv"))
    with open(os.path.join(data, "manifest.tsv")) as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()[1:]]
    for row in rows:
        sub = f"q{row[0]}"
        os.makedirs(os.path.join(dest, sub), exist_ok=True)
        name = os.path.join(sub, f"{row[1]}.srs")
        with open(os.path.join(data, name)) as fh:
            text = relabel.relabel(fh.read(), seed, ids=False)
        with open(os.path.join(dest, name), "w", newline="\n") as fh:
            fh.write(text)


def prepare_audit(args):
    from o1ppg.generator import load_corpus_instances
    from o1ppg.verify import AuditConfig, aggregate_report, run_campaign

    corpus = os.path.join(args.work, "corpus")
    write_relabelled_corpus(args.data, corpus, args.seed)
    instances = load_corpus_instances(corpus)
    config = AuditConfig(seed=args.seed)
    counts = {}
    for inst in instances:
        counts[inst.n] = counts.get(inst.n, 0) + 1

    def run():
        results = run_campaign(instances, config, workers=1)
        return aggregate_report(results, counts, config)

    return run, lambda report: {"report": report}


def prepare_cli(args):
    from o1ppg.cli import main

    def run():
        return main(args.cli_args)

    return run, lambda rc: {"returncode": rc}


PREPARE = {"grow": prepare_grow, "audit": prepare_audit, "cli": prepare_cli}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=sorted(PREPARE), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data")
    ap.add_argument("--work")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("cli_args", nargs="*")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    record = {"import_s": _import_library(src)}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run, summarise = PREPARE[args.mode](args)
    record["setup_wall_s"] = time.monotonic() - args.t0
    record["setup_s"] = _cpu_seconds()
    result = None
    refs = []
    if not args.setup_only:
        refs.append(reference())
        t, cpu = time.perf_counter(), time.process_time()
        result = run()
        record["wall_s"] = time.perf_counter() - t
        record["cpu_s"] = time.process_time() - cpu
        refs.append(reference())
        record["reference_s"] = sum(c for c, _w in refs) / 2
        record["reference_wall_s"] = sum(w for _c, w in refs)
        if tracer is not None:
            record["trace"] = tracer.summary()
        record["output"] = summarise(result)
    record["process_cpu_s"] = _cpu_seconds() - sum(c for c, _w in refs)
    record["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return result if args.mode == "cli" else 0


if __name__ == "__main__":
    sys.exit(main())
