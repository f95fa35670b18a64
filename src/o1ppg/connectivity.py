"""Vertex cuts of instances: enumeration, the embedded induced subgraph
Q[S], shape classification, and the cut-lemma audits."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


@cache
def _shape_keys():
    return {canonical_key(get_pattern(pid).embedding): pid
            for pid in ("bowtie", "I", "II", "III", "IV")}


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


def minimal_separators(inst):
    """Every minimal separator of the instance graph, as vertex masks in
    order of size, then of the sorted vertex tuple.

    A minimal separator is a vertex set S with two components of G - S
    that each see every vertex of S.  They are generated by the closure of
    Berry, Bordat & Cogis ("Generating all the minimal separators of a
    graph", IJFCS 11, 2000): start with N(C) for every component C of
    G - N[v], then add N(C) for every component C of G - (S + N(x)), for
    every separator S found and every x in S.  Computed once per instance
    and stored on it.
    """
    if inst._minimal_separators is not None:
        return inst._minimal_separators
    adj = inst.adj
    full = (1 << inst.n) - 1
    found = set()
    todo = []
    for v in range(inst.n):
        for comp in component_masks(adj, full & ~(adj[v] | 1 << v)):
            sep = _border(adj, comp)
            if sep not in found:
                found.add(sep)
                todo.append(sep)
    for sep in todo:            # grows while new separators turn up
        for x in _members(sep):
            for comp in component_masks(adj, full & ~(sep | adj[x])):
                new = _border(adj, comp)
                if new not in found:
                    found.add(new)
                    todo.append(new)
    inst._minimal_separators = tuple(sorted(
        found, key=lambda sep: (sep.bit_count(), _members(sep))))
    return inst._minimal_separators


def _border(adj, comp):
    """N(comp): the vertices outside ``comp`` with a neighbour in it."""
    seen = 0
    m = comp
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        seen |= adj[v]
    return seen & ~comp


def _members(mask):
    """The vertices of ``mask``, ascending."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def enumerate_cuts(inst, k):
    """Every k-subset S with G - S disconnected, fully analyzed, in the
    order of ``itertools.combinations(range(n), k)``.

    Every cut contains a minimal separator: a minimal separator between
    two components of G - S lies inside S.  So the k-cuts are the
    k-supersets of the minimal separators of at most k vertices
    (``minimal_separators``) that leave G disconnected.

    S is minimal (no proper subset is a cut) iff every component of G - S
    has a neighbour at every vertex of S: a component with no neighbour at
    s stays cut off from s by S - {s}, and a vertex of S that every
    component sees joins them all.
    ``o1ppg.oracles.enumerate_cuts_by_subsets`` scans every k-subset
    instead.
    """
    n = inst.n
    adj = inst.adj
    full = (1 << n) - 1
    candidates = set()
    for sep in minimal_separators(inst):
        size = sep.bit_count()
        if size > k:
            break
        for extra in combinations(_members(full ^ sep), k - size):
            mask = sep
            for v in extra:
                mask |= 1 << v
            candidates.add(mask)
    out = []
    for subset, smask in sorted((_members(m), m) for m in candidates):
        comps = component_masks(adj, full ^ smask)
        if len(comps) < 2:
            continue
        comp_sets = [_members(c) for c in comps]
        minimal = all(_border(adj, c) == smask for c in comps)
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
