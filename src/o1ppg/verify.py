"""Theorem-audit harness: every statement as an executable check per
instance, with machine-readable deterministic reports.

A check failure is a first-class output (exit code 2 at the CLI), not an
exception: the harness exists to surface statement-level trouble, including
the corrected reading of the 2-extendability characterization (see the
report's ``note`` line).

Every theorem in ``THEOREM_IDS`` has one check, and the checks of one
instance share their intermediates through ``_InstanceAudit``, which
computes each on first use: the vertex connectivity, the minimal
separators and the cuts; the short-walk regions of
``surface.short_walk_regions``, which T1.4's barrier cycles and T1.6's
length-6 regions filter; T1.3's spanning triangulation; and one
``matching.perfect_matching_table``, read by the k-matching sweeps of
``matching.matching_sweep`` that T1.3 (k = 1), T1.4 and C1.5 (k = 2),
T1.6 and NoThreeExt (k = 3) and L4.2 (k = 2 and 3) read.
So a theorem audited alone, as ``o1ppg replay`` and ``o1ppg verify
--theorems`` do, gets the record it gets in the full audit.
``AuditConfig`` keeps the selected ids in ``THEOREM_IDS`` order, each
once, and the report header lists them so.

The audit object owns all of these and nothing outlives it: no check
stores anything on the instance or its embedding, apart from the
embedding's lazy face tables, so a campaign holds one instance's audit
state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from .connectivity import (_contains_separating_trivial_4cycle,
                           audit_cut_lemmas, classify_cut_shape,
                           enumerate_cuts, vertex_connectivity)
from .errors import (EmptyCorpus, NoBlockerFound, NoHamPath,
                     SearchBudgetExceeded, UnknownTheorem)
from .matching import (Matching, find_blocker, is_extendable,
                       k_extendability, matching_sweep,
                       matching_via_hamiltonian_path, perfect_matching_table,
                       spanning_triangulation)
from .model import link
from .structures import (barrier_cycles, find_projective_bowties,
                         sweep_three_matchings)
from .surface import short_walk_regions, signed_cycles

THEOREM_IDS = (
    "DegreeFacts", "P2.1", "T1.3", "T1.4", "C1.5", "T1.6", "NoThreeExt",
    "L2.2", "L2.3", "L2.4", "L2.5", "L3.2", "L3.3", "T3.1", "T3.4", "L3.5",
    "L4.2",
)

#: checks whose hypotheses need an even order / 5-connectedness
_EVEN_ONLY = {"T1.3", "T1.4", "C1.5", "T1.6", "NoThreeExt", "L4.2"}
_FIVE_CONN = {"C1.5", "T1.6", "L3.2", "L3.3", "T3.4", "L3.5"}

#: largest vertex-cut size the cut lemmas enumerate
CUT_MAX = 7

CORRECTED_T14_NOTE = ("T1.4 audited in the corrected reading: "
                      "2-extendable iff no barrier 4-cycle")
CORRECTED_T16_NOTE = ("T1.6 certificate (i) audited in the corrected "
                      "reading: the region must keep an odd number of "
                      "vertices uncovered by the matching")


@dataclass(frozen=True)
class TheoremCheckResult:
    theorem_id: str
    instance_key: str
    verdict: str          # pass | fail | inapplicable
    detail: str = ""
    witness: str = ""


@dataclass
class AuditConfig:
    """The theorems to audit, kept in ``THEOREM_IDS`` order, each once, so
    the same selection always writes the same report; an id outside
    ``THEOREM_IDS`` raises UnknownTheorem."""

    theorems: tuple = THEOREM_IDS
    seed: int = 0   # inert: no check is random; perfbench still passes one

    def __post_init__(self):
        unknown = [t for t in self.theorems if t not in THEOREM_IDS]
        if unknown:
            raise UnknownTheorem(f"unknown theorem ids: {','.join(unknown)}")
        self.theorems = tuple(t for t in THEOREM_IDS if t in self.theorems)

    def header_fields(self):
        return f"theorems={','.join(self.theorems)} cut_max={CUT_MAX}"


def _edges_str(inst, edge_ids):
    return ",".join(f"{u}-{v}"
                    for (u, v) in sorted(inst.sorted_edge(e)
                                         for e in edge_ids))


def _pairs_str(pairs):
    return ",".join(f"{u}-{v}" for (u, v) in sorted(pairs))


def _walk_str(walk):
    return ">".join(map(str, walk))


def _set_str(vertices):
    return ",".join(map(str, sorted(vertices)))


def _pass(detail="", witness=""):
    return "pass", detail, witness


def _fail(detail, witness=""):
    return "fail", detail, witness


def _check_method(theorem):
    """Name of the ``_InstanceAudit`` method that checks ``theorem``."""
    return "check_" + theorem.replace(".", "")


class _InstanceAudit:
    """All per-instance checks, sharing the expensive intermediates.

    Each check returns its record as ``(verdict, detail, witness)``.  An
    intermediate is computed by the first check that reads it and kept for
    the others, so no check depends on which checks ran before it; all of
    them go with the audit object.
    """

    def __init__(self, inst):
        self.inst = inst
        self.sweeps = {}

    def inapplicable(self, theorem):
        """Why ``theorem``'s hypotheses fail on this instance, or None."""
        if theorem in _EVEN_ONLY and self.inst.n % 2:
            return "odd order"
        if theorem in _FIVE_CONN and self.conn < 5:
            return f"connectivity {self.conn} < 5"
        return None

    def run(self, theorems):
        """One record per theorem of ``theorems``, in their order."""
        results = []
        for theorem in theorems:
            reason = self.inapplicable(theorem)
            if reason is None:
                verdict, detail, witness = getattr(
                    self, _check_method(theorem))()
            else:
                verdict, detail, witness = "inapplicable", reason, ""
            results.append(TheoremCheckResult(
                theorem_id=theorem, instance_key=self.inst.key or "?",
                verdict=verdict, detail=detail, witness=witness))
        return results

    # -- shared intermediates ----------------------------------------------

    @cached_property
    def conn(self):
        """Vertex connectivity of the instance, capped at 8."""
        return vertex_connectivity(self.inst, 8)

    @cached_property
    def pm_table(self):
        """The instance's perfect-matching table, read by every sweep."""
        return perfect_matching_table(self.inst.n, self.inst.adj)

    def sweep(self, k):
        """``matching_sweep(inst, k)``, built once on the shared table."""
        if k not in self.sweeps:
            self.sweeps[k] = matching_sweep(self.inst, k, self.pm_table)
        return self.sweeps[k]

    @cached_property
    def cuts(self):
        return enumerate_cuts(
            self.inst, range(self.conn, min(CUT_MAX, self.inst.n - 2) + 1))

    @cached_property
    def cut_audits(self):
        # non-minimal cuts read "inapplicable" for L2.3's and L3.2's clauses
        return [(ca, audit_cut_lemmas(ca, self.conn)) for ca in self.cuts]

    @cached_property
    def ext2(self):
        """``k_extendability`` of 2-matchings, shared by T1.4, C1.5 and
        L4.2."""
        return k_extendability(self.inst, self.sweep(2))

    @cached_property
    def triangulation(self):
        """T1.3's spanning triangulation, shared by every edge's matching."""
        return spanning_triangulation(self.inst)

    @cached_property
    def regions(self):
        """The short-walk regions, filtered by T1.4 and T1.6."""
        return short_walk_regions(self.inst.quad.embedding)

    @cached_property
    def barriers(self):
        return barrier_cycles(self.regions, 4)

    @cached_property
    def barrier_matchings(self):
        """Each barrier 4-cycle's opposite edges, as a 2-matching."""
        inst = self.inst
        return [Matching(frozenset([inst.edge_id(a, b), inst.edge_id(c, d)]))
                for (a, b, c, d), _region in self.barriers]

    @cached_property
    def nonext_2matchings(self):
        """The sweep's non-extendable 2-matching, then the barriers'; none
        on a 2-extendable instance."""
        ext2, witness = self.ext2
        return [] if ext2 else [witness, *self.barrier_matchings]

    # -- individual checks -------------------------------------------------

    def check_DegreeFacts(self):
        inst = self.inst
        n = inst.n
        problems = []
        if inst.edge_count != 4 * n - 4:
            problems.append(f"|E|={inst.edge_count}")
        if inst.q_edge_count != 2 * n - 2:
            problems.append(f"|E_Q|={inst.q_edge_count}")
        if inst.quad.embedding.face_count != n - 1:
            problems.append(f"|F_Q|={inst.quad.embedding.face_count}")
        qdeg = [inst.quad.embedding.srs.degree(v) for v in range(n)]
        gdeg = [inst.degree(v) for v in range(n)]
        if min(qdeg) < 3:
            problems.append("min Q-degree < 3")
        if min(gdeg) < 6:
            problems.append("min degree < 6")
        if any(g != 2 * q for g, q in zip(gdeg, qdeg)):
            problems.append("degree doubling broken")
        if any(d % 2 for d in gdeg):
            problems.append("not Eulerian")
        if 6 not in gdeg:
            problems.append("no vertex of degree exactly 6")
        if n < 9:
            problems.append(f"n={n} < 9")
        seen = set()
        for (u, v) in inst.edges:
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                problems.append("not simple")
                break
            seen.add(key)
        # round trip: non-crossing edges of G rebuild the stored Q
        q_edges = sorted(inst.sorted_edge(e)
                         for e in range(inst.q_edge_count))
        stored = sorted(
            (min(u, v), max(u, v))
            for (u, v, _s) in inst.quad.embedding.srs.edges)
        if q_edges != stored:
            problems.append("quadrangular subgraph round-trip broken")
        for v in range(n):
            lk = link(inst, v)
            if len(lk) != 2 * qdeg[v]:
                problems.append(f"link length at {v}")
                break
        if problems:
            return _fail(";".join(problems))
        return _pass(f"n={n} |E|={inst.edge_count} conn={self.conn}")

    def check_P21(self):
        ess_parities = set()
        count = 0
        for cyc, sign in signed_cycles(self.inst.quad.embedding.srs, 8):
            count += 1
            if sign != 1:
                ess_parities.add(len(cyc) % 2)
            elif len(cyc) % 2:
                return _fail("odd trivial cycle", _walk_str(cyc))
        if len(ess_parities) > 1:
            return _fail("essential cycles of both parities")
        return _pass(f"cycles<=8 checked={count}")

    def check_T13(self):
        inst = self.inst
        sweep = self.sweep(1)
        cycles = {}     # Hamiltonian cycles of the triangulation, by edge
        for e in range(inst.edge_count):
            witness = _edges_str(inst, [e])
            if not is_extendable(inst, Matching(frozenset([e])), sweep):
                return _fail("single edge not extendable", witness)
            try:
                mh = matching_via_hamiltonian_path(
                    inst, e, self.triangulation, cycles)
            except (NoHamPath, SearchBudgetExceeded) as exc:
                return _fail(f"hamiltonian-path construction: {exc}",
                             witness)
            if e not in mh.edges or mh.k != inst.n // 2:
                return _fail("constructed matching wrong", witness)
        return _pass(f"edges={inst.edge_count}")

    def check_T14(self):
        inst = self.inst
        barriers = self.barriers
        ext2, witness = self.ext2
        # corrected reading: 2-extendable iff no barrier 4-cycle
        if ext2 == bool(barriers):
            return _fail(f"2-extendable={ext2} but "
                         f"{len(barriers)} barrier 4-cycles",
                         _walk_str(barriers[0][0]) if barriers
                         else _pairs_str(witness.sorted_pairs(inst)))
        # the easy direction, constructively: opposite edges of a barrier
        # 4-cycle form a non-extendable 2-matching
        for (walk, _region), m in zip(barriers, self.barrier_matchings):
            if is_extendable(inst, m, self.sweep(2)):
                return _fail("barrier 4-cycle with extendable "
                             "opposite-edge 2-matching", _walk_str(walk))
        return _pass(f"2-extendable={ext2} barrier4={len(barriers)}")

    def check_C15(self):
        ext2, witness = self.ext2
        if ext2:
            return _pass()
        return _fail("5-connected even instance not 2-extendable",
                     _pairs_str(witness.sorted_pairs(self.inst)))

    def check_T16(self):
        counts, counterexample = sweep_three_matchings(
            self.inst, self.sweep(3), self.regions)
        if counterexample is not None:
            combo, detail = counterexample
            return _fail(f"oracle/certificate disagreement: "
                         f"extendable={detail['extendable']} "
                         f"certificate={detail['certificate']}",
                         _edges_str(self.inst, combo))
        return _pass(f"exhaustive extendable={counts['extendable']} "
                     f"cert_i={counts['cert_i']} "
                     f"cert_ii={counts['cert_ii']}")

    def check_NoThreeExt(self):
        # reads the 3-matching sweep that T1.6 made, when T1.6 applied
        ok3, witness = k_extendability(self.inst, self.sweep(3))
        if ok3:
            return _fail("instance is 3-extendable")
        return _pass(witness=_pairs_str(witness.sorted_pairs(self.inst)))

    def _cut_lemma(self, *clauses):
        total = 0
        for ca, audit in self.cut_audits:
            for clause in clauses:
                verdict = audit[clause]
                if verdict == "fail":
                    return _fail(f"clause {clause}", _set_str(ca.S))
                if verdict == "pass":
                    total += 1
        return _pass(f"clause checks={total}")

    def check_L22(self):
        return self._cut_lemma("separation")

    def check_L23(self):
        return self._cut_lemma("min_degree_2")

    def check_L24(self):
        return self._cut_lemma("ineq_q3", "ineq_q4")

    def check_L25(self):
        return self._cut_lemma("edge_bound_k1", "edge_bound_k2")

    def check_L32(self):
        return self._cut_lemma("five_conn_i", "five_conn_ii",
                               "five_conn_iii")

    def check_T31(self):
        if self.conn < 4:
            return _fail(f"connectivity {self.conn} < 4")
        four_cuts = [ca for ca in self.cuts if len(ca.S) == 4]
        for ca in four_cuts:
            if not _contains_separating_trivial_4cycle(self.inst, ca):
                return _fail("4-cut without separating trivial "
                             "4-cycle in Q[S]", _set_str(ca.S))
        return _pass(f"connectivity={self.conn} "
                     f"four_cuts={len(four_cuts)}")

    def check_L33(self):
        five_cuts = [ca for ca in self.cuts if len(ca.S) == 5]
        for ca in five_cuts:
            shape = classify_cut_shape(self.inst, ca)
            if shape != "bowtie":
                return _fail(f"5-cut shaped {shape}", _set_str(ca.S))
        return _pass(f"five_cuts={len(five_cuts)}")

    def check_T34(self):
        bows = find_projective_bowties(self.inst.quad.embedding)
        detail = f"connectivity={self.conn} bowties={len(bows)}"
        if (self.conn >= 6) == (len(bows) == 0):
            return _pass(detail)
        w = ""
        if bows:
            p1, a, b = bows[0]
            w = f"{p1};{_set_str(a)};{_set_str(b)}"
        return _fail(detail, w)

    def check_L35(self):
        shapes = {}
        for ca in self.cuts:
            if len(ca.S) != 6 or not ca.is_minimal:
                continue
            shape = classify_cut_shape(self.inst, ca)
            if shape not in ("I", "II", "III", "IV"):
                return _fail(f"minimal 6-cut shaped {shape}",
                             _set_str(ca.S))
            shapes[shape] = shapes.get(shape, 0) + 1
        return _pass("shapes=" + ",".join(
            f"{k}:{v}" for k, v in sorted(shapes.items())))

    def check_L42(self):
        inst = self.inst
        # every non-extendable 3-matching of T1.6's sweep, which applies
        # on 5-connected instances only
        threes = ([Matching(frozenset(combo))
                   for combo in self.sweep(3).nonextendable]
                  if self.conn >= 5 else [])
        checked = 0
        for k, matchings in ((1, self.nonext_2matchings), (2, threes)):
            seen = set()
            for m in matchings:
                if m.edges in seen:
                    continue
                seen.add(m.edges)
                try:
                    blk = find_blocker(inst, m, k, self.sweep(k + 1))
                except NoBlockerFound as exc:
                    return _fail(f"k={k}: {exc}",
                                 _pairs_str(m.sorted_pairs(inst)))
                if len(blk.S) != blk.odd_components + 2 * k:
                    return _fail(f"k={k}: size identity", _set_str(blk.S))
                if not m.vertex_set(inst) <= set(blk.S):
                    return _fail(f"k={k}: containment", _set_str(blk.S))
                if k == 2 and len(blk.S) not in (6, 7):
                    return _fail(f"k=2 blocker size {len(blk.S)} "
                                 "outside {6,7}", _set_str(blk.S))
                checked += 1
        return _pass(f"blockers={checked}")


def audit_instance(inst, config: AuditConfig = None):
    """Run every requested theorem check on one instance."""
    config = config or AuditConfig()
    return _InstanceAudit(inst).run(config.theorems)


def result_line(r: TheoremCheckResult) -> str:
    """The report's record of one result."""
    rec = (f"result instance={r.instance_key} theorem={r.theorem_id} "
           f"verdict={r.verdict}")
    if r.detail:
        rec += f" detail={r.detail!r}"
    if r.witness:
        rec += f" witness={r.witness!r}"
    return rec


def aggregate_report(all_results, corpus_counts, config: AuditConfig) -> str:
    """Deterministic text report: one record per result plus a summary."""
    if not all_results:
        raise EmptyCorpus("no audited instances")
    lines = ["o1ppg-verify-report v1",
             f"config {config.header_fields()}",
             f"note {CORRECTED_T14_NOTE}",
             f"note {CORRECTED_T16_NOTE}"]
    for n in sorted(corpus_counts):
        lines.append(f"corpus n={n} count={corpus_counts[n]}")
    flat = sorted(all_results,
                  key=lambda r: (r.instance_key,
                                 THEOREM_IDS.index(r.theorem_id)))
    lines.extend(map(result_line, flat))
    for tid in config.theorems:
        sub = [r for r in flat if r.theorem_id == tid]
        lines.append(
            f"summary theorem={tid} "
            f"pass={sum(1 for r in sub if r.verdict == 'pass')} "
            f"fail={sum(1 for r in sub if r.verdict == 'fail')} "
            f"inapplicable="
            f"{sum(1 for r in sub if r.verdict == 'inapplicable')}")
    fails = sum(1 for r in flat if r.verdict == "fail")
    lines.append(f"totals results={len(flat)} fails={fails}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def run_campaign(instances, config: AuditConfig = None, workers=1):
    """Audit many instances, optionally with process-level parallelism
    (at most one worker per instance).  Results come instance by instance,
    each instance's in ``THEOREM_IDS`` order, for any worker count."""
    audit = partial(audit_instance, config=config or AuditConfig())
    workers = min(workers, len(instances))
    if workers <= 1:
        chunks = map(audit, instances)
    else:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            chunks = pool.map(audit, instances)
    return [r for chunk in chunks for r in chunk]
