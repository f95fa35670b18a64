"""Vertex cuts of instances: enumeration, the embedded induced subgraph
Q[S], shape classification, and the cut-lemma audits."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .generator import canonical_key
from .graphs import component_masks, vertex_connectivity_flow
from .structures import get_pattern
from .surface import SignedRotationSystem, region_decompose


def vertex_connectivity(inst, cap=8):
    """Vertex connectivity of the full graph, truncated at ``cap``."""
    return vertex_connectivity_flow(inst.n, inst.adj, cap)


@dataclass
class QSubgraph:
    """The induced subgraph Q[S] with its inherited embedding data."""

    vertices: tuple              # host vertex ids, sorted
    edges: tuple                 # host edge ids of Q(G) inside S, sorted
    region_walks: list           # boundary walks of its regions (host labels)
    region_count: int
    region_chis: tuple
    is_two_cell_embedding: bool  # every region a 2-cell
    srs: SignedRotationSystem    # restricted rotation system, relabelled
    regions: list = field(default_factory=list)

    @property
    def edge_count(self):
        return len(self.edges)

    def degree_in_s(self, host_vertex):
        i = self.vertices.index(host_vertex)
        return len(self.srs.rotations[i])


def q_induced_subgraph(inst, S) -> QSubgraph:
    """Q(G)[S] with rotations and signs restricted from the host."""
    emb = inst.quad.embedding
    srs = emb.srs
    sset = set(S)
    verts = tuple(sorted(sset))
    idx = {v: i for i, v in enumerate(verts)}
    q_edges = [e for e, (u, v, _s) in enumerate(srs.edges)
               if u in sset and v in sset]
    eidx = {e: i for i, e in enumerate(q_edges)}
    edges = [(idx[srs.edges[e][0]], idx[srs.edges[e][1]], srs.edges[e][2])
             for e in q_edges]
    keep = set()
    for e in q_edges:
        keep.add(2 * e)
        keep.add(2 * e + 1)
    rotations = []
    for v in verts:
        rot = []
        for d in srs.rotations[v]:
            if d in keep:
                rot.append(2 * eidx[d >> 1] + (d & 1))
        rotations.append(rot)
    sub = SignedRotationSystem(len(verts), edges, rotations)
    if q_edges:
        dec = region_decompose(emb, set(q_edges))
        walks = [w for r in dec.regions for w in r.boundary_walks]
        return QSubgraph(
            vertices=verts,
            edges=tuple(q_edges),
            region_walks=walks,
            region_count=dec.region_count,
            region_chis=tuple(r.euler_char for r in dec.regions),
            is_two_cell_embedding=all(r.is_two_cell for r in dec.regions),
            srs=sub,
            regions=dec.regions,
        )
    return QSubgraph(
        vertices=verts, edges=(), region_walks=[], region_count=0,
        region_chis=(), is_two_cell_embedding=False, srs=sub, regions=[])


@dataclass
class CutAnalysis:
    S: frozenset
    components: tuple            # sorted tuples of vertex ids
    odd_count: int
    even_count: int
    is_minimal: bool
    qs: QSubgraph
    shape: str


_SHAPE_KEYS = None


def _shape_keys():
    global _SHAPE_KEYS
    if _SHAPE_KEYS is None:
        _SHAPE_KEYS = {}
        for pid in ("bowtie", "I", "II", "III", "IV"):
            _SHAPE_KEYS[canonical_key(get_pattern(pid).embedding)] = pid
    return _SHAPE_KEYS


def classify_cut_shape(inst, qs: QSubgraph) -> str:
    """Match Q[S] against the fixed shapes; "trivial4cycle-bearing" when it
    contains a separating trivial 4-cycle of the full graph; else "other".
    """
    if qs.edges:
        key = canonical_key(qs.srs)
        label = _shape_keys().get(key)
        if label is not None:
            return label
    if _contains_separating_trivial_4cycle(inst, qs):
        return "trivial4cycle-bearing"
    return "other"


def _contains_separating_trivial_4cycle(inst, qs: QSubgraph):
    emb = inst.quad.embedding
    srs = emb.srs
    sub_adj = {v: set() for v in qs.vertices}
    for e in qs.edges:
        u, v, _s = srs.edges[e]
        sub_adj[u].add(v)
        sub_adj[v].add(u)
    verts = list(qs.vertices)
    full = (1 << inst.n) - 1
    for quad in combinations(verts, 4):
        for per in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
            cyc = [quad[i] for i in per]
            if all(cyc[(i + 1) % 4] in sub_adj[cyc[i]] for i in range(4)):
                sign = 1
                for i in range(4):
                    u, v = cyc[i], cyc[(i + 1) % 4]
                    e = inst.edge_id(u, v)
                    sign *= srs.edges[e][2]
                if sign != 1:
                    continue       # essential, not trivial
                mask = full
                for v in cyc:
                    mask ^= 1 << v
                if len(component_masks(inst.adj, mask)) > 1:
                    return True
    return False


def enumerate_cuts(inst, k, minimal_only=False):
    """Every k-subset S with G - S disconnected, fully analyzed.

    Exhaustive over subsets; desk scale only.
    """
    full = (1 << inst.n) - 1
    out = []
    cut_cache = {}

    def is_cut(subset):
        key = frozenset(subset)
        hit = cut_cache.get(key)
        if hit is None:
            mask = full
            for v in key:
                mask ^= 1 << v
            hit = mask != 0 and len(component_masks(inst.adj, mask)) > 1
            cut_cache[key] = hit
        return hit

    for subset in combinations(range(inst.n), k):
        if not is_cut(subset):
            continue
        minimal = True
        for r in range(1, k):
            for sub in combinations(subset, r):
                if is_cut(sub):
                    minimal = False
                    break
            if not minimal:
                break
        if minimal_only and not minimal:
            continue
        mask = full
        for v in subset:
            mask ^= 1 << v
        comps = component_masks(inst.adj, mask)
        comp_sets = []
        for c in comps:
            vs = []
            m = c
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                vs.append(v)
            comp_sets.append(tuple(vs))
        odd = sum(1 for c in comp_sets if len(c) % 2 == 1)
        qs = q_induced_subgraph(inst, subset)
        ca = CutAnalysis(
            S=frozenset(subset),
            components=tuple(sorted(comp_sets)),
            odd_count=odd,
            even_count=len(comp_sets) - odd,
            is_minimal=minimal,
            qs=qs,
            shape="",
        )
        ca.shape = classify_cut_shape(inst, qs)
        out.append(ca)
    return out


def audit_cut_lemmas(inst, ca: CutAnalysis, chi=1, connectivity=None):
    """Literal evaluation of the cut lemmas on one analyzed cut.

    Returns {clause: verdict} with verdicts "pass", "fail", or
    "inapplicable"; any "fail" is a reportable finding.
    """
    qs = ca.qs
    out = {}

    # separation: each region of Q[S] contains at most one component
    if qs.edges:
        verdict = "pass"
        per_region = [0] * len(qs.regions)
        for comp in ca.components:
            hits = {ri for ri, region in enumerate(qs.regions)
                    if set(comp) & set(region.interior_vertices)}
            if len(hits) != 1:
                verdict = "fail"
                continue
            per_region[hits.pop()] += 1
        if any(c > 1 for c in per_region):
            verdict = "fail"
        out["separation"] = verdict
    else:
        out["separation"] = "fail" if len(ca.components) > 1 else "pass"

    # minimal cuts: minimum degree of Q[S] at least 2
    if ca.is_minimal:
        degs = [len(r) for r in qs.srs.rotations]
        out["min_degree_2"] = "pass" if degs and min(degs) >= 2 else "fail"
    else:
        out["min_degree_2"] = "inapplicable"

    # face-count inequalities, instantiated maximally for q in {3, 4}
    E = qs.edge_count
    F = qs.region_count
    S = len(ca.S)
    region_lengths = []
    if qs.edges:
        for region in qs.regions:
            region_lengths.append(sum(w.length for w in region.boundary_walks))
    for q in (3, 4):
        p = sum(1 for L in region_lengths if L >= 2 * q)
        ok_i = E >= 2 * F + (q - 2) * p
        ok_ii = S - chi + (2 - q) * p >= F
        out[f"ineq_q{q}"] = "pass" if (ok_i and ok_ii) else "fail"

    # edge bound under the blocker hypothesis, k in {1, 2}
    for k in (1, 2):
        if S <= ca.odd_count + 2 * k:
            ok = 2 * F + 2 * k - chi >= E
            out[f"edge_bound_k{k}"] = "pass" if ok else "fail"
        else:
            out[f"edge_bound_k{k}"] = "inapplicable"

    # 5-connected minimal cuts of size 5 or 6
    conn = (vertex_connectivity(inst, 6) if connectivity is None
            else connectivity)
    if conn >= 5 and ca.is_minimal and S in (5, 6):
        out["five_conn_i"] = "pass" if E >= 2 * F + 2 else "fail"
        if not qs.is_two_cell_embedding:
            ok = (S == 6 and sorted(w.length for w in qs.region_walks)
                  == [6, 6] and qs.edge_count == 6
                  and all(len(r) == 2 for r in qs.srs.rotations)
                  and sorted(qs.region_chis) == [0, 1])
            out["five_conn_ii"] = "pass" if ok else "fail"
        else:
            out["five_conn_ii"] = "inapplicable"
        if S == 6:
            ok = False
            for region in qs.regions:
                if region.is_two_cell:
                    w = region.boundary_walks[0]
                    if w.length == 6 and w.is_cycle:
                        ok = True
            out["five_conn_iii"] = "pass" if ok else "fail"
        else:
            out["five_conn_iii"] = "inapplicable"
    else:
        out["five_conn_i"] = "inapplicable"
        out["five_conn_ii"] = "inapplicable"
        out["five_conn_iii"] = "inapplicable"
    return out
