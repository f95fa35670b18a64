"""Command-line front door.

Exit codes: 0 = success and zero check failures; 1 = usage or I/O error;
2 = mathematical trouble found (theorem failure, validation rejection),
with any report still written.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

from . import srsio
from .errors import O1ppgError, UnknownTheorem
from .generator import load_corpus_instances, short_key, write_corpus
from .matching import k_extendability
from .model import build_o1ppg, validate_quadrangulation
from .structures import barrier_cycles, find_projective_bowties
from .surface import EmbeddedGraph, representativity
from .verify import (THEOREM_IDS, AuditConfig, _InstanceAudit,
                     aggregate_report, audit_instance, result_line,
                     run_campaign)


def _load_instance(path, allow_small=False):
    q = validate_quadrangulation(EmbeddedGraph(srsio.load(path)))
    return build_o1ppg(q, allow_small=allow_small)


def _reject(exc):
    """Report an input that fails validation; its exit code, 2."""
    print(f"reject: {type(exc).__name__}: {exc}")
    return 2


def cmd_generate(args):
    rows = write_corpus(args.out, args.max_n)
    by_n = {}
    for (n, _k, poly, _b, _c) in rows:
        a, b = by_n.get(n, (0, 0))
        by_n[n] = (a + 1, b + (poly == "1"))
    for n in sorted(by_n):
        total, poly = by_n[n]
        print(f"n={n} quadrangulations={total} polyhedral={poly}")
    print(f"manifest: {os.path.join(args.out, 'manifest.tsv')}")
    return 0


def cmd_validate(args):
    try:
        srs = srsio.load(args.input)
        q = validate_quadrangulation(EmbeddedGraph(srs),
                                     require_polyhedral=not args.lenient)
    except O1ppgError as exc:
        return _reject(exc)
    print(f"accept: n={q.vertex_count} polyhedral={q.polyhedral} "
          f"bipartite={q.bipartite} key={short_key(q.embedding.srs)}")
    return 0


_ANALYZE_CHECKS = ("euler", "faces", "representativity", "connectivity",
                   "bowtie", "barrier4", "barrier6", "extend1", "extend2",
                   "extend3")


def cmd_analyze(args):
    checks = (args.checks.split(",") if args.checks != "all"
              else list(_ANALYZE_CHECKS))
    bad = [c for c in checks if c not in _ANALYZE_CHECKS]
    if bad:
        print(f"unknown checks: {','.join(bad)}", file=sys.stderr)
        return 1
    try:
        inst = _load_instance(args.input, allow_small=args.allow_small)
    except O1ppgError as exc:
        return _reject(exc)
    emb = inst.quad.embedding
    audit = _InstanceAudit(inst)     # the audit's shared intermediates
    for check in checks:
        if check == "euler":
            print(f"check=euler result={emb.euler_char}")
        elif check == "faces":
            print(f"check=faces result={len(emb.faces)}")
        elif check == "representativity":
            print(f"check=representativity result={representativity(emb)}")
        elif check == "connectivity":
            print(f"check=connectivity result={audit.conn}")
        elif check == "bowtie":
            bows = find_projective_bowties(emb)
            print(f"check=bowtie result={len(bows)}")
        elif check in ("barrier4", "barrier6"):
            bars = barrier_cycles(audit.regions, int(check[-1]))
            print(f"check={check} result={len(bars)}")
        elif check.startswith("extend"):
            k = int(check[-1])
            if inst.n % 2:
                print(f"check={check} result=inapplicable(odd)")
                continue
            ok, witness = k_extendability(inst, audit.sweep(k))
            if ok:
                print(f"check={check} result=true")
            else:
                pairs = ",".join(f"{u}-{v}"
                                 for (u, v) in witness.sorted_pairs(inst))
                print(f"check={check} result=false witness={pairs}")
    return 0


def _campaign_config(args):
    wanted = (THEOREM_IDS if args.theorems == "all"
              else args.theorems.split(","))
    try:
        return AuditConfig(theorems=tuple(wanted))
    except UnknownTheorem as exc:
        raise SystemExit(str(exc)) from None


def _workers():
    raw = os.environ.get("O1PPG_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise SystemExit(
            f"O1PPG_WORKERS must be a positive integer, not {raw!r}")
    return workers


def cmd_verify(args):
    t0 = time.time()
    workers = _workers()
    instances = load_corpus_instances(args.corpus, max_n=args.max_n)
    config = _campaign_config(args)
    results = run_campaign(instances, config, workers=workers)
    counts = {}
    for inst in instances:
        counts[inst.n] = counts.get(inst.n, 0) + 1
    report = aggregate_report(results, counts, config)
    if args.report:
        with open(args.report, "w", newline="\n") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    fails = sum(1 for r in results if r.verdict == "fail")
    # ru_maxrss is in KiB on Linux; the pool's workers, reaped when it
    # closed, count under RUSAGE_CHILDREN
    peak_mb = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    print(f"instances={len(instances)} results={len(results)} fails={fails} "
          f"runtime={time.time() - t0:.1f}s peak_rss_mb={peak_mb:.1f}",
          file=sys.stderr)
    return 2 if fails else 0


def cmd_replay(args):
    instances = load_corpus_instances(args.corpus)
    matches = [i for i in instances if i.key == args.instance]
    if not matches:
        print(f"instance {args.instance} not found", file=sys.stderr)
        return 1
    config = AuditConfig(theorems=(args.theorem,))
    results = audit_instance(matches[0], config)
    for r in results:
        print(result_line(r))
    return 2 if any(r.verdict == "fail" for r in results) else 0


def export_dot(inst, highlight_edges=frozenset()):
    """DOT text for an instance: solid quadrangulation edges, dashed
    diagonals, highlighted edges in red."""
    lines = ["graph o1ppg {", "  layout=neato;"]
    for v in range(inst.n):
        lines.append(f"  {v} [shape=circle];")
    for e, (u, v) in enumerate(inst.edges):
        attrs = []
        if inst.is_crossing_edge(e):
            attrs.append("style=dashed")
        if (min(u, v), max(u, v)) in highlight_edges:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        suffix = f" [{','.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args):
    try:
        inst = _load_instance(args.input, allow_small=True)
    except O1ppgError as exc:
        return _reject(exc)
    highlight = set()
    if args.witness:
        for tok in args.witness.split(","):
            try:
                u, v = map(int, tok.split("-"))
            except ValueError:
                print(f"--witness token {tok!r} is not <int>-<int>",
                      file=sys.stderr)
                return 1
            if not (0 <= u < inst.n and 0 <= v < inst.n
                    and inst.adj[u] >> v & 1):
                print(f"--witness token {tok!r} is not an edge of the "
                      f"instance", file=sys.stderr)
                return 1
            highlight.add((min(u, v), max(u, v)))
    dot = export_dot(inst, highlight_edges=highlight)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="o1ppg",
        description="Optimal 1-embedded graphs on the projective plane: "
                    "generate corpora, validate and analyze instances, and "
                    "machine-verify the structure theorems.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="grow a quadrangulation corpus")
    g.add_argument("--max-n", type=int, default=10)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    v = sub.add_parser("validate", help="validate a .srs quadrangulation")
    v.add_argument("--in", dest="input", required=True)
    v.add_argument("--lenient", action="store_true",
                   help="accept non-polyhedral quadrangulations")
    v.set_defaults(fn=cmd_validate)

    a = sub.add_parser("analyze", help="run named checks on one instance")
    a.add_argument("--in", dest="input", required=True)
    a.add_argument("--checks", default="all",
                   help=f"comma list from: {','.join(_ANALYZE_CHECKS)}")
    a.add_argument("--allow-small", action="store_true")
    a.set_defaults(fn=cmd_analyze)

    w = sub.add_parser("verify", help="run the theorem audit campaign")
    w.add_argument("--corpus", required=True)
    w.add_argument("--theorems", default="all")
    w.add_argument("--report", default=None)
    w.add_argument("--max-n", type=int, default=None)
    w.add_argument("--seed", type=int, default=0,
                   help="ignored: the audit is not random (accepted so "
                        "existing scripts keep working)")
    w.set_defaults(fn=cmd_verify)

    r = sub.add_parser("replay", help="re-run one check in isolation")
    r.add_argument("--corpus", required=True)
    r.add_argument("--instance", required=True)
    r.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    r.set_defaults(fn=cmd_replay)

    d = sub.add_parser("export-dot", help="DOT export, optionally with a "
                                          "highlighted witness")
    d.add_argument("--in", dest="input", required=True)
    d.add_argument("--out", default=None)
    d.add_argument("--witness", default=None,
                   help="edge list like 0-3,2-7")
    d.set_defaults(fn=cmd_export_dot)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except O1ppgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
