"""In-memory span tracing of the o1ppg layers, installed from outside.

The library has no trace points of its own.  ``install`` wraps named
functions and class methods after the package is imported: each call
records a span (name, start, end, parent span) in flat arrays.  A layer's
self time is its spans' duration minus the part covered by child spans.

Rules that keep the trace working while the library changes under it:

- a function is replaced in every ``o1ppg`` module namespace that bound it
  (``from .generator import canonical_key`` makes a second binding);
- methods are wrapped on their class, never the class itself, so
  ``isinstance`` checks keep working;
- a target that no longer exists is reported as absent, not as an error;
- no numba-path names are targeted.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

CHECK_GROUPS = (
    ("DegreeFacts", "check_DegreeFacts"), ("P2.1", "check_P21"),
    ("T1.3", "check_T13"), ("T1.4", "check_T14"), ("C1.5", "check_C15"),
    ("T1.6", "check_T16"), ("NoThreeExt", "check_NoThreeExt"),
    ("cut-lemmas", "check_cut_lemmas"), ("T3.1", "check_T31"),
    ("L3.3", "check_L33"), ("T3.4", "check_T34"), ("L3.5", "check_L35"),
    ("L4.2", "check_L42"),
)

# (layer name, "module:qualname", stats reported).  Stats: calls, self_s,
# total_s, p50_us/p99_us (per-call duration), true_ratio (calls returning a
# true value), accept_ratio (calls that did not raise), and named amounts
# summed by the measure functions below.
TARGETS = (
    ("generator.canonical_key", "o1ppg.generator:canonical_key",
     ("calls", "self_s", "p50_us", "p99_us")),
    ("generator.vertex_split", "o1ppg.generator:vertex_split",
     ("calls", "self_s")),
    ("generator.short_key", "o1ppg.generator:short_key", ("calls",)),
    ("generator.write_corpus", "o1ppg.generator:write_corpus", ("self_s",)),
    ("generator.load_corpus_instances",
     "o1ppg.generator:load_corpus_instances", ("self_s",)),
    ("surface.SignedRotationSystem.init",
     "o1ppg.surface:SignedRotationSystem.__init__", ("calls", "self_s")),
    ("surface.SignedRotationSystem.is_simple",
     "o1ppg.surface:SignedRotationSystem.is_simple", ("calls", "self_s")),
    ("surface.EmbeddedGraph.init", "o1ppg.surface:EmbeddedGraph.__init__",
     ("calls", "self_s")),
    ("srsio.dump", "o1ppg.srsio:dump", ("calls", "self_s", "bytes")),
    ("srsio.load", "o1ppg.srsio:load", ("calls", "self_s")),
    ("model.validate_quadrangulation",
     "o1ppg.model:validate_quadrangulation",
     ("calls", "self_s", "accept_ratio")),
    ("model.build_o1ppg", "o1ppg.model:build_o1ppg", ("calls", "self_s")),
) + tuple(
    (f"verify.check.{group}", f"o1ppg.verify:_InstanceAudit.{method}",
     ("self_s", "total_s"))
    for group, method in CHECK_GROUPS
) + (
    ("verify.aggregate_report", "o1ppg.verify:aggregate_report", ("self_s",)),
) + tuple(
    (f"matching.{fn}", f"o1ppg.matching:{fn}", ("calls", "self_s"))
    for fn in ("spanning_triangulation", "hamiltonian_path", "is_extendable",
               "k_extendability", "find_blocker")
) + (
    ("graphs.vertex_connectivity_flow",
     "o1ppg.graphs:vertex_connectivity_flow", ("calls", "self_s")),
    ("graphs.enumerate_cycles", "o1ppg.graphs:enumerate_cycles", ("self_s",)),
    ("kernels.pm_exists", "o1ppg._kernels:pm_exists",
     ("calls", "self_s", "true_ratio")),
    ("structures.diagnose_3matching", "o1ppg.structures:diagnose_3matching",
     ("calls", "self_s")),
    ("structures.CertificateContext.build",
     "o1ppg.structures:CertificateContext.build", ("calls", "self_s")),
    ("structures.barrier_cycles", "o1ppg.structures:barrier_cycles",
     ("self_s",)),
    ("structures.find_projective_bowties",
     "o1ppg.structures:find_projective_bowties", ("self_s",)),
    ("connectivity.vertex_connectivity",
     "o1ppg.connectivity:vertex_connectivity", ("calls", "self_s")),
    ("connectivity.audit_cut_lemmas", "o1ppg.connectivity:audit_cut_lemmas",
     ("calls", "self_s")),
    ("connectivity.enumerate_cuts", "o1ppg.connectivity:enumerate_cuts",
     ("calls", "self_s", "cuts")),
)

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "p50_us": "us",
         "p99_us": "us", "true_ratio": "ratio", "accept_ratio": "ratio",
         "bytes": "B", "cuts": "count"}


def _file_bytes(args, _out):
    return os.stat(args[1]).st_size


def _list_len(_args, out):
    return len(out)


MEASURES = {"bytes": _file_bytes, "cuts": _list_len}


class Tracer:
    """Spans in flat arrays plus per-layer outcome counters."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.truthy = []
        self.raised = []
        self.amount = []
        self.stats = []
        self.absent = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]

    def wrap(self, name, fn, stats=()):
        nid = len(self.names)
        for counters in (self.calls, self.truthy, self.raised, self.amount):
            counters.append(0)
        self.names.append(name)
        self.stats.append(stats)
        measure = next((MEASURES[s] for s in stats if s in MEASURES), None)
        truthy = "true_ratio" in stats
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, calls, raised = self._stack, self.calls, self.raised
        hits, amount = self.truthy, self.amount
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            calls[nid] += 1
            stack.append(idx)
            try:
                starts[idx] = clock()
                out = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if truthy and out:
                hits[nid] += 1
            if measure is not None:
                amount[nid] += measure(args, out)
            return out

        return traced

    def summary(self):
        """Per layer: calls, outcomes, self and total seconds, and the
        per-call durations of layers that report percentiles."""
        count = len(self.span_name)
        child = array("d", bytes(8 * count))
        nn = len(self.names)
        total = [0.0] * nn
        own = [0.0] * nn
        durations = {i: [] for i, stats in enumerate(self.stats)
                     if "p50_us" in stats}
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(count - 1, -1, -1):
            d = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
            nid = names[i]
            total[nid] += d
            own[nid] += d - child[i]
            if nid in durations:
                durations[nid].append(d)
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": self.calls[nid], "truthy": self.truthy[nid],
                         "raised": self.raised[nid],
                         "amount": self.amount[nid],
                         "self_s": own[nid], "total_s": total[nid],
                         "durations": durations.get(nid, [])}
        return {"layers": out, "absent": list(self.absent)}


def _resolve(path):
    """(owner, attribute) for "module:qual.name", or None when absent."""
    modname, _, qual = path.partition(":")
    owner = sys.modules.get(modname)
    parts = qual.split(".")
    for part in parts[:-1]:
        if owner is None:
            return None
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    return owner, parts[-1]


def install(tracer):
    """Wrap every target that exists; record the others as absent.

    Call after every o1ppg module the workload uses is imported.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "o1ppg"
                                     or name.startswith("o1ppg."))]
    for name, path, stats in TARGETS:
        found = _resolve(path)
        raw = None
        if found is not None:
            owner, attr = found
            raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) \
            else raw
        if not callable(fn):
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, fn, stats)
        if isinstance(owner, type):
            setattr(owner, attr, type(raw)(wrapped)
                    if raw is not fn else wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
