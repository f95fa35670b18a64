"""Vertex cuts of instances: enumeration, one flat record per cut
(``CutAnalysis``, built by ``analyze_cut``) holding its components, the
embedded induced subgraph Q[S] and the host's regions cut along Q[S],
shape classification, and the cut-lemma audits."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations

from .graphs import (component_masks, is_connected_mask, mask_vertices,
                     vertex_connectivity_flow, vertex_mask)
from .structures import get_pattern
from .surface import (SignedRotationSystem, _encode_from, _encoder_tables,
                      region_decompose, restricted_system, signed_cycles)


#: Euler characteristic of the projective plane, the host surface of
#: every instance; the cut lemmas read it as chi.
P2_EULER_CHAR = 1

#: the shapes ``classify_cut_shape`` names, all connected
CUT_SHAPES = ("bowtie", "I", "II", "III", "IV")


def vertex_connectivity(inst, cap=8):
    """Vertex connectivity of the full graph, truncated at ``cap``."""
    return vertex_connectivity_flow(inst.n, inst.adj, cap)


@dataclass
class CutAnalysis:
    """One vertex cut S of an instance, with the induced subgraph Q[S] of
    its quadrangulation and the regions of the host cut along Q[S].

    ``regions`` is the one region decomposition every cut clause reads,
    ``surface.region_decompose`` of ``q_edges``, or [] when Q[S] has no
    edge: its facts (faces, boundary lengths, interior vertices, Euler
    characteristics, 2-cells) come with it, and its boundary walks are
    traced only where a clause reads them.  Q[S]'s rotation system is read
    only on the 4-, 5- and minimal 6-cuts, by T3.1's separating 4-cycles
    and the cut shapes, so it is built on first access.
    """

    S: tuple                     # host vertex ids, sorted
    components: tuple            # of G - S: sorted tuples of vertex ids
    odd_count: int               # components of odd order
    is_minimal: bool
    q_edges: tuple               # host edge ids of Q(G) inside S, sorted
    q_degrees: tuple             # per vertex of ``S``: degree in Q[S]
    regions: list                # the host's regions cut along ``q_edges``
    _host: SignedRotationSystem = field(repr=False, compare=False)

    @cached_property
    def srs(self):
        """Q[S]'s rotation system restricted from the host, relabelled:
        vertex i is ``S[i]`` and edge j is ``q_edges[j]``."""
        return restricted_system(self._host, self.S, self.q_edges)


def analyze_cut(inst, S, components, is_minimal) -> CutAnalysis:
    """The record of the vertex set ``S`` of ``inst`` whose removal leaves
    ``components``, minimal or not as the caller found: Q(G)[S] over the
    host quadrangulation's embedding, and the host's regions cut along
    it."""
    emb = inst.quad.embedding
    smask = vertex_mask(S)
    q_edges = []
    deg = [0] * inst.n
    for e, (u, v, _s) in enumerate(emb.srs.edges):
        if smask >> u & 1 and smask >> v & 1:
            q_edges.append(e)
            deg[u] += 1
            deg[v] += 1
    S = mask_vertices(smask)
    return CutAnalysis(
        S=S, components=tuple(sorted(components)),
        odd_count=sum(len(c) % 2 for c in components),
        is_minimal=is_minimal, q_edges=tuple(q_edges),
        q_degrees=tuple(deg[v] for v in S),
        regions=region_decompose(emb, q_edges) if q_edges else [],
        _host=emb.srs)


@cache
def _shape_encodings():
    """Every start-state encoding of every cut shape, mapped to the shape."""
    table = {}
    for pid in CUT_SHAPES:
        srs = get_pattern(pid).embedding.srs
        tables = _encoder_tables(srs)
        for d in range(2 * srs.edge_count):
            for side in (1, -1):
                table[tuple(_encode_from(*tables, d, side)[0])] = pid
    return table


def classify_cut_shape(inst, ca: CutAnalysis) -> str:
    """Match Q[S] against the fixed shapes; "trivial4cycle-bearing" when it
    contains a separating trivial 4-cycle of the full graph; else "other".

    Growth's repeat test (``generator._new_class``) names the shape: a
    connected Q[S], which is simple, is embedded-isomorphic to a shape iff
    its encoding from one start state, dart 0 on side +1, is one of the
    shape's start-state encodings.  The encoding labels every vertex iff
    Q[S] is connected, and every shape is.
    """
    srs = ca.srs
    if srs.edges:
        enc, order = _encode_from(*_encoder_tables(srs), 0, 1)
        if len(order) == srs.vertex_count:
            label = _shape_encodings().get(tuple(enc))
            if label is not None:
                return label
    if _contains_separating_trivial_4cycle(inst, ca):
        return "trivial4cycle-bearing"
    return "other"


def _contains_separating_trivial_4cycle(inst, ca: CutAnalysis):
    """Whether Q[S] holds a two-sided (sign product +1) 4-cycle whose four
    host vertices separate the full graph."""
    full = (1 << inst.n) - 1
    for cycle, sign in signed_cycles(ca.srs, 4):
        if len(cycle) != 4 or sign != 1:
            continue           # a triangle, or essential, not trivial
        mask = full
        for v in cycle:
            mask ^= 1 << ca.S[v]
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
    every separator S found and every x in S.
    """
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
        for x in mask_vertices(sep):
            for comp in component_masks(adj, full & ~(sep | adj[x])):
                new = _border(adj, comp)
                if new not in found:
                    found.add(new)
                    todo.append(new)
    return sorted(found,
                  key=lambda sep: (sep.bit_count(), mask_vertices(sep)))


def _border(adj, comp):
    """N(comp): the vertices outside ``comp`` with a neighbour in it."""
    seen = 0
    m = comp
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        seen |= adj[v]
    return seen & ~comp


def enumerate_cuts(inst, sizes):
    """Every vertex set S of a size in ``sizes`` with G - S disconnected,
    fully analyzed, by size in the order of ``sizes`` and then in the
    order of ``itertools.combinations(range(n), k)``.

    Every cut contains a minimal separator: a minimal separator between
    two components of G - S lies inside S.  So the k-cuts are the
    k-supersets of the minimal separators of at most k vertices
    (``minimal_separators``, found once per call) that leave G
    disconnected.

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
    separators = minimal_separators(inst)
    out = []
    for k in sizes:
        candidates = set()
        for sep in separators:
            size = sep.bit_count()
            if size > k:
                break
            for extra in combinations(mask_vertices(full ^ sep), k - size):
                candidates.add(sep | vertex_mask(extra))
        for subset, smask in sorted((mask_vertices(m), m)
                                    for m in candidates):
            comps = component_masks(adj, full ^ smask)
            if len(comps) < 2:
                continue
            out.append(analyze_cut(
                inst, subset, [mask_vertices(c) for c in comps],
                all(_border(adj, c) == smask for c in comps)))
    return out


def audit_cut_lemmas(ca: CutAnalysis, connectivity):
    """Literal evaluation of the cut lemmas on one analyzed cut of an
    instance whose vertex connectivity is ``connectivity``.

    Returns {clause: verdict} with verdicts "pass", "fail", or
    "inapplicable"; any "fail" is a reportable finding.
    """
    regions = ca.regions
    out = {}

    # separation: each region of Q[S] contains at most one component
    if ca.q_edges:
        verdict = "pass"
        per_region = [0] * len(regions)
        for comp in ca.components:
            hits = {ri for ri, r in enumerate(regions)
                    if not r.interior_vertices.isdisjoint(comp)}
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
        out["min_degree_2"] = "pass" if min(ca.q_degrees) >= 2 else "fail"
    else:
        out["min_degree_2"] = "inapplicable"

    # face-count inequalities, instantiated maximally for q in {3, 4}
    chi = P2_EULER_CHAR
    E = len(ca.q_edges)
    F = len(regions)
    S = len(ca.S)
    for q in (3, 4):
        p = sum(1 for r in regions if r.boundary_length >= 2 * q)
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

    # 5-connected minimal cuts of size 5 or 6; walks are traced only
    # where the cheaper facts leave the verdict open
    if connectivity >= 5 and ca.is_minimal and S in (5, 6):
        out["five_conn_i"] = "pass" if E >= 2 * F + 2 else "fail"
        # an empty Q[S] has no regions and counts as not 2-cell
        if not (regions and all(r.is_two_cell for r in regions)):
            ok = (S == 6 and E == 6
                  and all(d == 2 for d in ca.q_degrees)
                  and sorted(r.euler_char for r in regions) == [0, 1]
                  and sorted(w.length for r in regions
                             for w in r.boundary_walks) == [6, 6])
            out["five_conn_ii"] = "pass" if ok else "fail"
        else:
            out["five_conn_ii"] = "inapplicable"
        if S == 6:
            # a 2-cell has one boundary walk, as long as its boundary
            ok = any(r.is_two_cell and r.boundary_length == 6
                     and r.boundary_walks[0].is_cycle for r in regions)
            out["five_conn_iii"] = "pass" if ok else "fail"
        else:
            out["five_conn_iii"] = "inapplicable"
    else:
        out["five_conn_i"] = "inapplicable"
        out["five_conn_ii"] = "inapplicable"
        out["five_conn_iii"] = "inapplicable"
    return out
