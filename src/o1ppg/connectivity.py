"""Vertex cuts of instances: enumeration, the embedded induced subgraph
Q[S], shape classification, and the cut-lemma audits."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .generator import canonical_key
from .graphs import (component_masks, is_connected_mask,
                     vertex_connectivity_flow)
from .structures import get_pattern
from .surface import (SignedRotationSystem, region_decompose,
                      restricted_system, signed_cycles)


#: Euler characteristic of the projective plane, the host surface of
#: every instance; the cut lemmas read it as chi.
P2_EULER_CHAR = 1


def vertex_connectivity(inst, cap=8):
    """Vertex connectivity of the full graph, truncated at ``cap``."""
    return vertex_connectivity_flow(inst.n, inst.adj, cap)


@dataclass
class QSubgraph:
    """The induced subgraph Q[S] with its inherited embedding data."""

    vertices: tuple              # host vertex ids, sorted
    edges: tuple                 # host edge ids of Q(G) inside S, sorted
    srs: SignedRotationSystem    # restricted rotation system, relabelled
    regions: list                # host regions cut along `edges`; [] if none


def q_induced_subgraph(inst, S) -> QSubgraph:
    """Q(G)[S] with rotations and signs restricted from the host."""
    emb = inst.quad.embedding
    srs = emb.srs
    sset = set(S)
    verts = tuple(sorted(sset))
    q_edges = [e for e, (u, v, _s) in enumerate(srs.edges)
               if u in sset and v in sset]
    regions = region_decompose(emb, set(q_edges)).regions if q_edges else []
    return QSubgraph(vertices=verts, edges=tuple(q_edges),
                     srs=restricted_system(srs, verts, q_edges),
                     regions=regions)


@dataclass
class CutAnalysis:
    S: frozenset
    components: tuple            # sorted tuples of vertex ids
    odd_count: int
    even_count: int
    is_minimal: bool
    qs: QSubgraph


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
    Every shape is connected, so only a connected Q[S] is keyed.
    """
    if qs.srs.is_connected():
        key = canonical_key(qs.srs)
        label = _shape_keys().get(key)
        if label is not None:
            return label
    if _contains_separating_trivial_4cycle(inst, qs):
        return "trivial4cycle-bearing"
    return "other"


def _contains_separating_trivial_4cycle(inst, qs: QSubgraph):
    """Whether Q[S] holds a two-sided (sign product +1) 4-cycle whose four
    host vertices separate the full graph."""
    full = (1 << inst.n) - 1
    for cycle, _ids, sign in signed_cycles(qs.srs, 4):
        if len(cycle) != 4 or sign != 1:
            continue           # a triangle, or essential, not trivial
        mask = full
        for v in cycle:
            mask ^= 1 << qs.vertices[v]
        if not is_connected_mask(inst.adj, mask):
            return True
    return False


def enumerate_cuts(inst, k):
    """Every k-subset S with G - S disconnected, fully analyzed.

    S is minimal (no proper subset is a cut) iff every component of G - S
    has a neighbour at every vertex of S: a component with no neighbour at
    s stays cut off from s by S - {s}, and a vertex of S that every
    component sees joins them all.  Exhaustive over subsets; desk scale
    only.
    """
    adj = inst.adj
    full = (1 << inst.n) - 1
    out = []
    for subset in combinations(range(inst.n), k):
        smask = 0
        for v in subset:
            smask |= 1 << v
        comps = component_masks(adj, full ^ smask)
        if len(comps) < 2:
            continue
        minimal = True
        comp_sets = []
        for c in comps:
            vs = []
            seen = 0
            m = c
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                vs.append(v)
                seen |= adj[v]
            comp_sets.append(tuple(vs))
            minimal = minimal and (seen & smask) == smask
        odd = sum(1 for c in comp_sets if len(c) % 2 == 1)
        out.append(CutAnalysis(
            S=frozenset(subset),
            components=tuple(sorted(comp_sets)),
            odd_count=odd,
            even_count=len(comp_sets) - odd,
            is_minimal=minimal,
            qs=q_induced_subgraph(inst, subset),
        ))
    return out


def audit_cut_lemmas(ca: CutAnalysis, connectivity):
    """Literal evaluation of the cut lemmas on one analyzed cut of an
    instance whose vertex connectivity is ``connectivity``.

    Returns {clause: verdict} with verdicts "pass", "fail", or
    "inapplicable"; any "fail" is a reportable finding.
    """
    qs = ca.qs
    regions = qs.regions
    out = {}

    # separation: each region of Q[S] contains at most one component
    if qs.edges:
        verdict = "pass"
        per_region = [0] * len(regions)
        for comp in ca.components:
            hits = {ri for ri, region in enumerate(regions)
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
    chi = P2_EULER_CHAR
    E = len(qs.edges)
    F = len(regions)
    S = len(ca.S)
    region_lengths = [sum(w.length for w in region.boundary_walks)
                      for region in regions]
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
    if connectivity >= 5 and ca.is_minimal and S in (5, 6):
        out["five_conn_i"] = "pass" if E >= 2 * F + 2 else "fail"
        # an empty Q[S] has no regions and counts as not 2-cell
        if not (regions and all(r.is_two_cell for r in regions)):
            walk_lengths = sorted(w.length for r in regions
                                  for w in r.boundary_walks)
            ok = (S == 6 and walk_lengths == [6, 6] and E == 6
                  and all(len(r) == 2 for r in qs.srs.rotations)
                  and sorted(r.euler_char for r in regions) == [0, 1])
            out["five_conn_ii"] = "pass" if ok else "fail"
        else:
            out["five_conn_ii"] = "inapplicable"
        if S == 6:
            ok = False
            for region in regions:
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
