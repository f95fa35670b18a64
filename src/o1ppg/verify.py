"""Theorem-audit harness: every statement as an executable check per
instance, with machine-readable deterministic reports.

A check failure is a first-class output (exit code 2 at the CLI), not an
exception: the harness exists to surface statement-level trouble, including
the corrected reading of the 2-extendability characterization (see the
report's ``note`` line).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .connectivity import (audit_cut_lemmas, enumerate_cuts,
                           vertex_connectivity)
from .errors import (EmptyCorpus, NoBlockerFound, NoHamPath,
                     SearchBudgetExceeded)
from .graphs import enumerate_cycles
from .matching import (Matching, find_blocker, is_extendable,
                       k_extendability, matching_via_hamiltonian_path,
                       matchings_of_size)
from .model import link
from .structures import (CertificateContext, barrier_cycles,
                         diagnose_3matching, find_projective_bowties)

THEOREM_IDS = (
    "DegreeFacts", "P2.1", "T1.3", "T1.4", "C1.5", "T1.6", "NoThreeExt",
    "L2.2", "L2.3", "L2.4", "L2.5", "L3.2", "L3.3", "T3.1", "T3.4", "L3.5",
    "L4.2",
)

#: checks whose hypotheses need an even order / 5-connectedness
_EVEN_ONLY = {"T1.3", "T1.4", "C1.5", "T1.6", "NoThreeExt"}
_FIVE_CONN = {"C1.5", "T1.6", "L3.2", "L3.3", "T3.4", "L3.5"}

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
    theorems: tuple = THEOREM_IDS
    threematch_full_max_edges: int = 40
    sample_cap: int = 100_000
    seed: int = 0
    cut_max: int = 7

    def header_fields(self):
        return (f"theorems={','.join(self.theorems)} "
                f"threematch_full_max_edges={self.threematch_full_max_edges} "
                f"sample_cap={self.sample_cap} seed={self.seed} "
                f"cut_max={self.cut_max}")


def _edges_str(inst, edge_ids):
    return ",".join(f"{u}-{v}"
                    for (u, v) in sorted(inst.sorted_edge(e)
                                         for e in edge_ids))


def _pairs_str(pairs):
    return ",".join(f"{u}-{v}" for (u, v) in sorted(pairs))


def _walk_str(walk):
    return ">".join(map(str, walk))


class _InstanceAudit:
    """All per-instance checks, sharing the expensive intermediates."""

    def __init__(self, inst, config: AuditConfig):
        self.inst = inst
        self.config = config
        self.results = []
        self.conn = vertex_connectivity(inst, 8)
        self.even = inst.n % 2 == 0
        self._cuts = None
        self._ctx = None
        self.nonext_2matchings = []
        self.nonext_3matchings = []

    def cuts(self):
        if self._cuts is None:
            self._cuts = []
            for k in range(self.conn, self.config.cut_max + 1):
                if k >= self.inst.n - 1:
                    break
                self._cuts.extend(enumerate_cuts(self.inst, k))
        return self._cuts

    def ctx(self):
        if self._ctx is None:
            self._ctx = CertificateContext.build(self.inst)
        return self._ctx

    def emit(self, theorem, verdict, detail="", witness=""):
        self.results.append(TheoremCheckResult(
            theorem_id=theorem, instance_key=self.inst.key or "?",
            verdict=verdict, detail=detail, witness=witness))

    def skip_if_inapplicable(self, theorem):
        if theorem in _EVEN_ONLY and not self.even:
            self.emit(theorem, "inapplicable", detail="odd order")
            return True
        if theorem in _FIVE_CONN and self.conn < 5:
            self.emit(theorem, "inapplicable",
                      detail=f"connectivity {self.conn} < 5")
            return True
        return False

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
            self.emit("DegreeFacts", "fail", detail=";".join(problems))
        else:
            self.emit("DegreeFacts", "pass",
                      detail=f"n={n} |E|={inst.edge_count} conn={self.conn}")

    def check_P21(self):
        emb = self.inst.quad.embedding
        srs = emb.srs
        qadj = [0] * self.inst.n
        for (u, v, _s) in srs.edges:
            qadj[u] |= 1 << v
            qadj[v] |= 1 << u
        ess_parities = set()
        bad = None
        count = 0
        for cyc in enumerate_cycles(self.inst.n, qadj, 8):
            count += 1
            sign = 1
            for i in range(len(cyc)):
                e = self.inst.edge_id(cyc[i], cyc[(i + 1) % len(cyc)])
                sign *= srs.edges[e][2]
            if sign == 1:
                if len(cyc) % 2:
                    bad = cyc
                    break
            else:
                ess_parities.add(len(cyc) % 2)
        if bad is not None:
            self.emit("P2.1", "fail", detail="odd trivial cycle",
                      witness=_walk_str(bad))
        elif len(ess_parities) > 1:
            self.emit("P2.1", "fail",
                      detail="essential cycles of both parities")
        else:
            self.emit("P2.1", "pass",
                      detail=f"cycles<=8 checked={count}")

    def check_T13(self):
        if self.skip_if_inapplicable("T1.3"):
            return
        inst = self.inst
        for e in range(inst.edge_count):
            m = Matching(frozenset([e]))
            if not is_extendable(inst, m):
                self.emit("T1.3", "fail", detail="single edge not extendable",
                          witness=_edges_str(inst, [e]))
                return
            try:
                mh = matching_via_hamiltonian_path(inst, e)
            except (NoHamPath, SearchBudgetExceeded) as exc:
                self.emit("T1.3", "fail",
                          detail=f"hamiltonian-path construction: {exc}",
                          witness=_edges_str(inst, [e]))
                return
            if e not in mh.edges or mh.k != inst.n // 2:
                self.emit("T1.3", "fail", detail="constructed matching wrong",
                          witness=_edges_str(inst, [e]))
                return
        self.emit("T1.3", "pass", detail=f"edges={inst.edge_count}")

    def check_T14(self):
        if self.skip_if_inapplicable("T1.4"):
            return
        inst = self.inst
        barriers = barrier_cycles(inst, 4)
        ext2, witness = k_extendability(inst, 2)
        if not ext2:
            self.nonext_2matchings.append(witness)
        # corrected reading: 2-extendable iff no barrier 4-cycle
        if ext2 == bool(barriers):
            self.emit("T1.4", "fail",
                      detail=f"2-extendable={ext2} but "
                             f"{len(barriers)} barrier 4-cycles",
                      witness=(_walk_str(barriers[0].boundary_walk)
                               if barriers else
                               _pairs_str(witness.sorted_pairs(inst))))
            return
        # the easy direction, constructively: opposite edges of a barrier
        # 4-cycle form a non-extendable 2-matching
        for b in barriers:
            a, bb, c, d = b.boundary_walk
            m = Matching(frozenset([inst.edge_id(a, bb),
                                    inst.edge_id(c, d)]))
            self.nonext_2matchings.append(m)
            if is_extendable(inst, m):
                self.emit("T1.4", "fail",
                          detail="barrier 4-cycle with extendable "
                                 "opposite-edge 2-matching",
                          witness=_walk_str(b.boundary_walk))
                return
        self.emit("T1.4", "pass",
                  detail=f"2-extendable={ext2} barrier4={len(barriers)}")

    def check_C15(self):
        if self.skip_if_inapplicable("C1.5"):
            return
        ext2, witness = k_extendability(self.inst, 2)
        if ext2:
            self.emit("C1.5", "pass")
        else:
            self.emit("C1.5", "fail",
                      detail="5-connected even instance not 2-extendable",
                      witness=_pairs_str(witness.sorted_pairs(self.inst)))

    def _three_matchings(self):
        inst = self.inst
        full = inst.edge_count <= self.config.threematch_full_max_edges
        if full:
            yield from matchings_of_size(inst, 3)
            return
        # exhaustive over matchings touching a minimum-degree vertex, plus a
        # seeded uniform sample of the rest
        low = {v for v in range(inst.n) if inst.degree(v) == 6}
        rest = []
        for m in matchings_of_size(inst, 3):
            if any(u in low or v in low
                   for (u, v) in (inst.edges[e] for e in m.edges)):
                yield m
            else:
                rest.append(m)
        rng = random.Random(self.config.seed)
        if len(rest) > self.config.sample_cap:
            rest = rng.sample(rest, self.config.sample_cap)
        yield from rest

    def check_T16(self):
        if self.skip_if_inapplicable("T1.6"):
            return
        inst = self.inst
        full = inst.edge_count <= self.config.threematch_full_max_edges
        counts = {"extendable": 0, "cert_i": 0, "cert_ii": 0}
        ctx = self.ctx()
        for m in self._three_matchings():
            verdict, detail = diagnose_3matching(
                inst, m, ctx=ctx, connectivity=self.conn)
            if verdict == "counterexample":
                self.emit("T1.6", "fail",
                          detail=f"oracle/certificate disagreement: "
                                 f"extendable={detail['extendable']} "
                                 f"certificate={detail['certificate']}",
                          witness=_pairs_str(detail["matching"]))
                return
            counts[verdict] += 1
            if verdict != "extendable":
                self.nonext_3matchings.append(m)
        mode = ("exhaustive" if full
                else f"sampled(seed={self.config.seed})")
        self.emit("T1.6", "pass",
                  detail=f"{mode} extendable={counts['extendable']} "
                         f"cert_i={counts['cert_i']} "
                         f"cert_ii={counts['cert_ii']}")

    def check_NoThreeExt(self):
        if self.skip_if_inapplicable("NoThreeExt"):
            return
        ok3, witness = k_extendability(self.inst, 3)
        if ok3:
            self.emit("NoThreeExt", "fail",
                      detail="instance is 3-extendable")
        else:
            self.emit("NoThreeExt", "pass",
                      witness=_pairs_str(witness.sorted_pairs(self.inst)))

    def _cut_lemma(self, theorem, clauses, minimal_only=False,
                   applicable=True):
        if not applicable:
            return
        total = 0
        for ca in self.cuts():
            if minimal_only and not ca.is_minimal:
                continue
            audit = audit_cut_lemmas(self.inst, ca, connectivity=self.conn)
            for clause in clauses:
                verdict = audit.get(clause, "inapplicable")
                if verdict == "fail":
                    self.emit(theorem, "fail",
                              detail=f"clause {clause}",
                              witness=",".join(map(str, sorted(ca.S))))
                    return
                if verdict == "pass":
                    total += 1
        self.emit(theorem, "pass", detail=f"clause checks={total}")

    def check_cut_lemmas(self):
        self._cut_lemma("L2.2", ("separation",))
        self._cut_lemma("L2.3", ("min_degree_2",), minimal_only=True)
        self._cut_lemma("L2.4", ("ineq_q3", "ineq_q4"))
        self._cut_lemma("L2.5", ("edge_bound_k1", "edge_bound_k2"))
        if not self.skip_if_inapplicable("L3.2"):
            self._cut_lemma(
                "L3.2", ("five_conn_i", "five_conn_ii", "five_conn_iii"),
                minimal_only=True)

    def check_T31(self):
        inst = self.inst
        if self.conn < 4:
            self.emit("T3.1", "fail",
                      detail=f"connectivity {self.conn} < 4")
            return
        four_cuts = [ca for ca in self.cuts() if len(ca.S) == 4]
        from .connectivity import _contains_separating_trivial_4cycle
        for ca in four_cuts:
            if not _contains_separating_trivial_4cycle(inst, ca.qs):
                self.emit("T3.1", "fail",
                          detail="4-cut without separating trivial "
                                 "4-cycle in Q[S]",
                          witness=",".join(map(str, sorted(ca.S))))
                return
        self.emit("T3.1", "pass",
                  detail=f"connectivity={self.conn} "
                         f"four_cuts={len(four_cuts)}")

    def check_L33(self):
        if self.skip_if_inapplicable("L3.3"):
            return
        five_cuts = [ca for ca in self.cuts() if len(ca.S) == 5]
        for ca in five_cuts:
            if ca.shape != "bowtie":
                self.emit("L3.3", "fail",
                          detail=f"5-cut shaped {ca.shape}",
                          witness=",".join(map(str, sorted(ca.S))))
                return
        self.emit("L3.3", "pass", detail=f"five_cuts={len(five_cuts)}")

    def check_T34(self):
        if self.skip_if_inapplicable("T3.4"):
            return
        bows = find_projective_bowties(self.inst.quad)
        six = self.conn >= 6
        if six == (len(bows) == 0):
            self.emit("T3.4", "pass",
                      detail=f"connectivity={self.conn} "
                             f"bowties={len(bows)}")
        else:
            w = ""
            if bows:
                p1, a, b = bows[0]
                w = f"{p1};{','.join(map(str, sorted(a)))};" \
                    f"{','.join(map(str, sorted(b)))}"
            self.emit("T3.4", "fail",
                      detail=f"connectivity={self.conn} "
                             f"bowties={len(bows)}", witness=w)

    def check_L35(self):
        if self.skip_if_inapplicable("L3.5"):
            return
        minimal6 = [ca for ca in self.cuts()
                    if len(ca.S) == 6 and ca.is_minimal]
        for ca in minimal6:
            if ca.shape not in ("I", "II", "III", "IV"):
                self.emit("L3.5", "fail",
                          detail=f"minimal 6-cut shaped {ca.shape}",
                          witness=",".join(map(str, sorted(ca.S))))
                return
        shapes = {}
        for ca in minimal6:
            shapes[ca.shape] = shapes.get(ca.shape, 0) + 1
        self.emit("L3.5", "pass",
                  detail="shapes=" + ",".join(
                      f"{k}:{v}" for k, v in sorted(shapes.items())))

    def check_L42(self):
        inst = self.inst
        if not self.even:
            self.emit("L4.2", "inapplicable", detail="odd order")
            return
        checked = 0
        for k, matchings in ((1, self.nonext_2matchings),
                             (2, self.nonext_3matchings)):
            seen = set()
            for m in matchings:
                if m.edges in seen:
                    continue
                seen.add(m.edges)
                try:
                    blk = find_blocker(inst, m, k)
                except NoBlockerFound as exc:
                    self.emit("L4.2", "fail",
                              detail=f"k={k}: {exc}",
                              witness=_pairs_str(m.sorted_pairs(inst)))
                    return
                if len(blk.S) != blk.odd_components + 2 * k:
                    self.emit("L4.2", "fail", detail=f"k={k}: size identity",
                              witness=",".join(map(str, sorted(blk.S))))
                    return
                if not m.vertex_set(inst) <= set(blk.S):
                    self.emit("L4.2", "fail", detail=f"k={k}: containment",
                              witness=",".join(map(str, sorted(blk.S))))
                    return
                if k == 2 and len(blk.S) not in (6, 7):
                    self.emit("L4.2", "fail",
                              detail=f"k=2 blocker size {len(blk.S)} "
                                     "outside {6,7}",
                              witness=",".join(map(str, sorted(blk.S))))
                    return
                checked += 1
        self.emit("L4.2", "pass", detail=f"blockers={checked}")

    def run(self, theorems):
        order = [
            ("DegreeFacts", self.check_DegreeFacts),
            ("P2.1", self.check_P21),
            ("T1.3", self.check_T13),
            ("T1.4", self.check_T14),
            ("C1.5", self.check_C15),
            ("T1.6", self.check_T16),
            ("NoThreeExt", self.check_NoThreeExt),
            ("cut-lemmas", self.check_cut_lemmas),
            ("T3.1", self.check_T31),
            ("L3.3", self.check_L33),
            ("T3.4", self.check_T34),
            ("L3.5", self.check_L35),
            ("L4.2", self.check_L42),
        ]
        wanted = set(theorems)
        cut_ids = {"L2.2", "L2.3", "L2.4", "L2.5", "L3.2"}
        for name, fn in order:
            if name == "cut-lemmas":
                if cut_ids & wanted:
                    fn()
                    self.results = [
                        r for r in self.results
                        if r.theorem_id not in cut_ids - wanted]
                continue
            if name in wanted:
                fn()
        return self.results


def audit_instance(inst, config: AuditConfig = None):
    """Run every requested theorem check on one instance."""
    config = config or AuditConfig()
    audit = _InstanceAudit(inst, config)
    return audit.run(config.theorems)


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
    for r in flat:
        rec = (f"result instance={r.instance_key} theorem={r.theorem_id} "
               f"verdict={r.verdict}")
        if r.detail:
            rec += f" detail={r.detail!r}"
        if r.witness:
            rec += f" witness={r.witness!r}"
        lines.append(rec)
    for tid in THEOREM_IDS:
        if tid not in config.theorems:
            continue
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


def _audit_worker(args):
    key, srs_text, config = args
    from . import srsio
    from .model import build_o1ppg, validate_quadrangulation
    from .surface import EmbeddedGraph
    srs = srsio.loads(srs_text)
    q = validate_quadrangulation(EmbeddedGraph(srs))
    inst = build_o1ppg(q, key=key)
    return audit_instance(inst, config)


def run_campaign(instances, config: AuditConfig = None, workers=1):
    """Audit many instances, optionally with process-level parallelism
    (at most one worker per instance); the merged result order is
    deterministic."""
    config = config or AuditConfig()
    workers = min(workers, len(instances))
    if workers <= 1:
        results = []
        for inst in instances:
            results.extend(audit_instance(inst, config))
    else:
        import multiprocessing as mp

        from . import srsio
        payload = [(inst.key, srsio.dumps(inst.quad.embedding.srs), config)
                   for inst in instances]
        with mp.Pool(workers) as pool:
            chunks = pool.map(_audit_worker, payload)
        results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.instance_key,
                                THEOREM_IDS.index(r.theorem_id)))
    return results
