"""Digest of the theorem audit of a corpus, for checking that a change to
the audit keeps its report byte for byte and for naming the layer that
moved.

    python scripts/audit_digest.py --corpus perfbench/corpus-n12 --runs 5

prints the sha256 of the report ``o1ppg verify`` writes for the corpus, the
CPU seconds of each theorem's check in the full audit, least over the runs,
and the kernel counts of one more run: perfect-matching tables built,
Hamiltonian-path searches, pattern maps tried (the candidate maps that
reach the encoding test) and accepted, region boundary traces (calls to
``surface._trace_boundaries``) and the cycles the short-cycle search
yields.  A count's function is wrapped in every ``o1ppg`` module that
binds it.  A check's seconds include the shared intermediates it is the
first to read, as in the audit itself.  A count whose function the tree
does not have prints as ``absent``.
"""

import argparse
import contextlib
import hashlib
import pathlib
import sys
import time
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from o1ppg import graphs, matching, structures, surface, verify
from o1ppg.generator import load_corpus_instances

#: (name, module, function, amount one call adds): each count is the sum
#: over the calls the audit makes to ``module.function``
COUNTS = (
    ("pm_tables", verify, "perfect_matching_table", lambda _out: 1),
    ("hamiltonian_searches", matching, "hamiltonian_path", lambda _out: 1),
    ("pattern_maps_tried", structures, "_candidate_maps", len),
    ("pattern_maps_accepted", structures, "match_pattern", len),
    ("boundary_traces", surface, "_trace_boundaries", lambda _out: 1),
    ("cycles_enumerated", graphs, "enumerate_cycles", len),
)


def _audit(corpus, config, cpu):
    """The report of one audit of ``corpus``, instance by instance in
    ``THEOREM_IDS`` order like ``run_campaign``, with each theorem's CPU
    seconds added to ``cpu``."""
    instances = load_corpus_instances(corpus)
    results = []
    for inst in instances:
        audit = verify._InstanceAudit(inst)
        for theorem in config.theorems:
            t = time.process_time()
            results += audit.run((theorem,))
            cpu[theorem] += time.process_time() - t
    counts = {}
    for inst in instances:
        counts[inst.n] = counts.get(inst.n, 0) + 1
    return verify.aggregate_report(results, counts, config)


def _counted(amount, fn, total, name):
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        total[name] += amount(out)
        return out

    return counted


def _binders(target, fn):
    """The loaded ``o1ppg`` modules whose name ``fn`` is ``target``."""
    return [module for name, module in sorted(sys.modules.items())
            if name.partition(".")[0] == "o1ppg"
            and getattr(module, fn, None) is target]


def audit_digest(corpus, runs=1):
    """``(report sha256, {theorem: least CPU seconds over runs}, {count
    name: count or None when absent})`` of the audit of ``corpus``."""
    config = verify.AuditConfig()
    seconds = {}
    for _ in range(runs):
        cpu = dict.fromkeys(config.theorems, 0.0)
        report = _audit(corpus, config, cpu)
        seconds = {t: min(s, seconds.get(t, s)) for t, s in cpu.items()}
    totals = {}
    with contextlib.ExitStack() as patches:
        for name, module, fn, amount in COUNTS:
            if hasattr(module, fn):
                totals[name] = 0
                target = getattr(module, fn)
                counted = _counted(amount, target, totals, name)
                for binder in _binders(target, fn):
                    patches.enter_context(
                        mock.patch.object(binder, fn, counted))
        _audit(corpus, config, dict.fromkeys(config.theorems, 0.0))
    counts = {name: totals.get(name) for name, *_rest in COUNTS}
    return hashlib.sha256(report.encode()).hexdigest(), seconds, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--corpus", required=True,
                    help="corpus directory, as for o1ppg verify")
    ap.add_argument("--runs", type=int, default=3,
                    help="timed audits; each theorem keeps its least")
    args = ap.parse_args(argv)
    sha, seconds, counts = audit_digest(args.corpus, args.runs)
    print(f"report_sha256\t{sha}")
    for theorem, s in seconds.items():
        print(f"cpu_s\t{theorem}\t{s:.4f}")
    print(f"cpu_s\ttotal\t{sum(seconds.values()):.4f}")
    for name, count in counts.items():
        print(f"{name}\t{'absent' if count is None else count}")


if __name__ == "__main__":
    main()
