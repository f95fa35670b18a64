"""End-to-end and per-layer benchmark of o1ppg.

Run from the root of a source checkout (the library is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    grow-n10      grow_quadrangulations([fix_k4()], n_max=10), in memory
    audit-n12     load_corpus_instances -> run_campaign -> aggregate_report
                  over the 16 committed instances with n <= 12
    pipeline-n10  `o1ppg generate --max-n 10` then `o1ppg verify` on its
                  output, as two command-line processes

Every timed iteration runs in a fresh child process, one at a time (a
closed loop with one client and one worker).  The seed relabels the inputs
(seed 0 is the identity; see README.md for what each workload relabels) and
is passed to the audit as ``AuditConfig.seed``.  Each iteration's output is
checked against ``expected.json``.

With ``--trace 0`` the run repeats set-up alone a few times, then timed
iterations until ``--seconds`` is spent, and prints the end-to-end metrics:
medians of the set-up CPU time, of the timed work's CPU time over that of a
fixed reference loop, and of peak memory, with CPU and elapsed times and
per-stage figures on the lines before the JSON.
With ``--trace 1`` it runs one untraced and one traced iteration and prints
the per-layer metrics, including the tracing overhead.  Either way the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts child processes and ``failed`` those that exited
non-zero or whose output was wrong, so their ratio is the run's fail_frac.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CORPUS = os.path.join(HERE, "corpus-n12")
SETUP_REPS = 4          # set-up-only processes per untraced run
RUN_LIMIT_S = 170.0     # a run must end within 180 s

with open(os.path.join(HERE, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


class Failure(Exception):
    """A child process failed or produced a wrong output."""


class Run:
    """Child processes of one benchmark run, with their shared settings."""

    def __init__(self, root, seed, work):
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, O1PPG_WORKERS="1")
        self._count = 0

    def fresh_dir(self):
        self._count += 1
        path = os.path.join(self.work, f"it{self._count}")
        os.makedirs(path)
        return path

    def spawn(self, mode, work, trace=False, setup_only=False, cli_args=()):
        """Run one child; returns (record, stdout, seconds from spawn to
        exit).  Raises Failure when it exits non-zero."""
        out = os.path.join(work, f"record-{self.attempted}.json")
        cmd = [sys.executable, CHILD, "--mode", mode, "--out", out,
               "--src", self.src, "--seed", str(self.seed),
               "--data", CORPUS, "--work", work]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Failure("run time limit reached")
        self.attempted += 1
        t0 = time.monotonic()
        cmd += ["--t0", repr(t0), "--", *cli_args]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, env=self.env)
        except subprocess.TimeoutExpired:
            self.failed += 1
            raise Failure(f"{mode} child timed out after {timeout:.0f} s")
        elapsed = time.monotonic() - t0
        if proc.returncode != 0:
            self.failed += 1
            raise Failure(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
        with open(out) as fh:
            return json.load(fh), proc.stdout, elapsed

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            raise Failure(f"wrong output: {what}")


# -- workloads ---------------------------------------------------------------
#
# An iteration returns a sample: setup_s and setup_wall_s, wall_s, cpu_s,
# generate_s / verify_s (None where the workload has no such stage),
# classes, results, rss_mb, import_s, and the child trace summaries.


def _sample(record, **stages):
    return {"setup_s": record["setup_s"],
            "setup_wall_s": record["setup_wall_s"],
            "wall_s": record["wall_s"], "cpu_s": record["cpu_s"],
            "reference_s": record["reference_s"],
            "rss_mb": record["rss_mb"],
            "import_s": record["import_s"],
            "generate_s": None, "verify_s": None, "classes": 0,
            "results": 0, **stages}


def grow_iteration(run, trace):
    expected = EXPECTED["grow-n10"]
    record, _out, _el = run.spawn("grow", run.fresh_dir(), trace=trace)
    got = record["output"]
    run.check(got["classes"] == expected["classes"],
              f"class counts per order {got['classes']}")
    run.check(got["polyhedral"] == expected["polyhedral"],
              f"polyhedral counts {got['polyhedral']}")
    return _sample(record, generate_s=record["wall_s"],
                   classes=got["items"],
                   traces={"generate_s": record.get("trace")})


_RESULT = re.compile(r"^result instance=(\S+) theorem=(\S+) verdict=(\S+)")
_T16 = re.compile(r"extendable=(\d+) cert_i=(\d+) cert_ii=(\d+)")


def parse_report(text):
    """Verdicts, T1.6 counts and summary/totals lines of a verify report."""
    verdicts, t16, summary = {}, {}, []
    for line in text.splitlines():
        m = _RESULT.match(line)
        if m:
            inst, theorem, verdict = m.groups()
            verdicts.setdefault(inst, {})[theorem] = verdict
            counts = _T16.search(line)
            if theorem == "T1.6" and counts:
                t16[inst] = [int(c) for c in counts.groups()]
        elif line.startswith(("summary ", "totals ")):
            summary.append(line)
    return verdicts, t16, summary


def audit_iteration(run, trace):
    expected = EXPECTED["audit-n12"]
    record, _out, _el = run.spawn("audit", run.fresh_dir(), trace=trace)
    verdicts, t16, summary = parse_report(record["output"]["report"])
    run.check(verdicts == expected["verdicts"], "verdicts")
    run.check(t16 == expected["t16"], f"T1.6 counts {t16}")
    run.check(summary == expected["summary"], "summary lines")
    results = sum(len(v) for v in verdicts.values())
    return _sample(record, verify_s=record["wall_s"], results=results,
                   traces={"verify_s": record.get("trace")})


_GENERATED = re.compile(r"^n=(\d+) quadrangulations=(\d+) polyhedral=(\d+)$")


def pipeline_iteration(run, trace):
    """`o1ppg generate` then `o1ppg verify`, timed from the first spawn
    to the last exit, start-up included, as a shell user sees them (less
    the benchmark's own reference loops)."""
    expected = EXPECTED["pipeline-n10"]
    work = run.fresh_dir()
    corpus = os.path.join(work, "corpus")
    report = os.path.join(work, "verify.report")
    gen, out, gen_elapsed = run.spawn(
        "cli", work, trace=trace,
        cli_args=["generate", "--max-n", str(expected["max_n"]),
                  "--out", corpus])
    levels = {m.group(1): [int(m.group(2)), int(m.group(3))]
              for m in map(_GENERATED.match, out.splitlines()) if m}
    run.check(levels == expected["levels"], f"generate output {levels}")
    with open(os.path.join(corpus, "manifest.tsv")) as fh:
        rows = len(fh.read().splitlines()) - 1
    files = sum(len(os.listdir(os.path.join(corpus, d)))
                for d in os.listdir(corpus) if d.startswith("q"))
    classes = sum(c for c, _p in levels.values())
    run.check(rows == files == classes, f"{rows} manifest rows, "
                                        f"{files} files, {classes} classes")
    ver, _out, ver_elapsed = run.spawn(
        "cli", work, trace=trace,
        cli_args=["verify", "--corpus", corpus, "--report", report,
                  "--seed", str(run.seed)])
    with open(report) as fh:
        verdicts, _t16, summary = parse_report(fh.read())
    run.check(summary == expected["summary"], "summary lines")
    shutil.rmtree(work)
    generate_s = gen_elapsed - gen["reference_wall_s"]
    verify_s = ver_elapsed - ver["reference_wall_s"]
    return {"setup_s": gen["setup_s"], "setup_wall_s": gen["setup_wall_s"],
            "wall_s": generate_s + verify_s,
            "cpu_s": gen["process_cpu_s"] + ver["process_cpu_s"],
            "reference_s": (gen["reference_s"] + ver["reference_s"]) / 2,
            "generate_s": generate_s, "verify_s": verify_s,
            "rss_mb": max(gen["rss_mb"], ver["rss_mb"]),
            "import_s": gen["import_s"] + ver["import_s"],
            "classes": classes,
            "results": sum(len(v) for v in verdicts.values()),
            "traces": {"generate_s": gen.get("trace"),
                       "verify_s": ver.get("trace")}}


WORKLOADS = {
    "grow-n10": ("grow", grow_iteration),
    "audit-n12": ("audit", audit_iteration),
    "pipeline-n10": ("cli", pipeline_iteration),
}


# -- metrics -----------------------------------------------------------------


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _cpu_vs_ref(sample):
    return sample["cpu_s"] / sample["reference_s"]


def end_to_end(samples, setup):
    """Every end-to-end figure (None where not applicable)."""
    gen = _median(s["generate_s"] for s in samples)
    ver = _median(s["verify_s"] for s in samples)
    classes = samples[0]["classes"]
    results = samples[0]["results"]
    return {
        "setup_s": (_median(s["setup_s"] for s in setup), "s"),
        "setup_wall_s": (_median(s["setup_wall_s"] for s in setup), "s"),
        "cpu_vs_ref": (_median(map(_cpu_vs_ref, samples)), "ratio"),
        "cpu_s": (_median(s["cpu_s"] for s in samples), "s"),
        "wall_s": (_median(s["wall_s"] for s in samples), "s"),
        "generate_s": (gen, "s"),
        "verify_s": (ver, "s"),
        "classes_per_s": (classes / gen if gen and classes else None, "1/s"),
        "results_per_s": (results / ver if ver and results else None, "1/s"),
        "peak_rss_mb": (_median(s["rss_mb"] for s in samples), "MB"),
    }


def _merge_traces(traces):
    layers, absent = {}, set()
    for t in traces:
        if t is None:
            continue
        absent.update(t["absent"])
        for name, st in t["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "truthy": 0,
                                           "raised": 0, "amount": 0,
                                           "self_s": 0.0, "total_s": 0.0,
                                           "durations": []})
            for key in ("calls", "truthy", "raised", "amount", "self_s",
                        "total_s"):
                acc[key] += st[key]
            acc["durations"] += st["durations"]
    return layers, sorted(absent)


def _percentile_us(durations, q):
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e6 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(traced, untraced):
    """Per-layer metrics of one traced iteration."""
    layers, absent = _merge_traces(traced["traces"].values())
    empty = {"calls": 0, "truthy": 0, "raised": 0, "amount": 0,
             "self_s": 0.0, "total_s": 0.0, "durations": []}
    metrics = {}
    for name, _path, stats in tracing.TARGETS:
        st = layers.get(name, empty)
        calls = st["calls"]
        values = {
            "calls": calls, "self_s": st["self_s"],
            "total_s": st["total_s"],
            "p50_us": _percentile_us(st["durations"], 0.50),
            "p99_us": _percentile_us(st["durations"], 0.99),
            "true_ratio": st["truthy"] / calls if calls else 0.0,
            "accept_ratio": (calls - st["raised"]) / calls if calls else 0.0,
            "bytes": st["amount"], "cuts": st["amount"],
        }
        for stat in stats:
            metrics[f"{name}.{stat}"] = (values[stat], tracing.UNITS[stat])
    encodes = layers.get("generator.canonical_key", empty)["calls"]
    metrics["generator.new_class_ratio"] = (
        traced["classes"] / encodes if encodes else 0.0, "ratio")
    metrics["cli.import_s"] = (traced["import_s"], "s")
    metrics["trace.overhead_frac"] = (
        _cpu_vs_ref(traced) / _cpu_vs_ref(untraced) - 1.0, "ratio")
    return metrics, layers, absent


def machine_facts():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numba": importlib.util.find_spec("numba") is not None,
            "numpy": numpy,
            "loadavg": os.getloadavg()}


def declared_names(root, key):
    """Metric names BENCHMARK.json lists under ``key``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


# -- driver ------------------------------------------------------------------


def measure(run, workload, seconds):
    mode, iteration = WORKLOADS[workload]
    setup = []
    for _ in range(SETUP_REPS):
        record, _out, _el = run.spawn(mode, run.fresh_dir(), setup_only=True)
        setup.append(record)
    samples = []
    spent = []
    while not samples or sum(spent) + _median(spent) <= seconds:
        t = time.monotonic()
        samples.append(iteration(run, trace=False))
        spent.append(time.monotonic() - t)
        setup.append(samples[-1])
    return samples, setup


def report_end_to_end(run, samples, setup):
    figures = end_to_end(samples, setup)
    print(f"samples: {len(samples)} timed iterations, "
          f"{len(setup)} set-up measurements")
    for key, rows in (("cpu_s", samples), ("reference_s", samples),
                      ("wall_s", samples),
                      ("setup_s", setup), ("setup_wall_s", setup)):
        print(f"  {key} of each: "
              + " ".join(f"{r[key]:.3f}" for r in rows))
    for name, (value, unit) in figures.items():
        shown = "n/a" if value is None else f"{value:.4f} {unit}"
        print(f"  {name:14s} {shown}")
    print(f"  {'fail_frac':14s} {run.failed / run.attempted:.4f} "
          f"({run.failed} of {run.attempted} child runs)")
    return figures


def report_per_layer(traced, untraced):
    metrics, _layers, absent = per_layer(traced, untraced)
    if absent:
        print(f"absent layers: {', '.join(absent)}")
    for stage, trace in traced["traces"].items():
        layers, _absent = _merge_traces([trace])
        denom = traced[stage]
        print(f"largest self times, as a share of traced {stage} "
              f"{denom:.3f} s:")
        top = sorted(((st["self_s"], name) for name, st in layers.items()),
                     reverse=True)
        for self_s, name in top[:5]:
            print(f"  {name:40s} {self_s:8.3f} s {self_s / denom:6.1%}")
        checks = sorted(((st["total_s"], name)
                         for name, st in layers.items()
                         if name.startswith("verify.check.")), reverse=True)
        if checks and checks[0][0]:
            print(f"largest theorem checks, total time as a share of "
                  f"{stage}:")
            for total_s, name in checks[:3]:
                print(f"  {name:40s} {total_s:8.3f} s "
                      f"{total_s / denom:6.1%}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:48s} {value:.6g} {unit}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "o1ppg", "__init__.py")):
        print("run from the root of an o1ppg checkout: src/o1ppg is missing",
              file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_facts()))
    work = os.path.join(root, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    run = Run(root, args.seed, work)
    try:
        if args.trace:
            _mode, iteration = WORKLOADS[args.workload]
            untraced = iteration(run, trace=False)
            traced = iteration(run, trace=True)
            figures = report_per_layer(traced, untraced)
        else:
            samples, setup = measure(run, args.workload, args.seconds)
            figures = report_end_to_end(run, samples, setup)
    except Failure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass        # another run still uses it
    declared = declared_names(root, "per_layer" if args.trace
                              else "end_to_end")
    missing = [n for n in declared if figures.get(n, (None,))[0] is None]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": figures[name][0], "unit": figures[name][1]}
               for name in declared}
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
