"""Vertex cuts of instances: enumeration, one flat record per cut
(``CutAnalysis``, built by ``analyze_cut``) holding S and its components
as vertex masks, the embedded induced subgraph Q[S] and the host's
regions cut along Q[S], shape classification, and the cut-lemma audits.

The clauses read the regions' mask facts (``surface.Region``) and trace
no boundary walk: a component of G - S lies in a region iff it meets the
region's interior mask, two boundary walks of length 6 are two regions
of boundary length 6, and a 2-cell of boundary length 6 is bounded by a
6-cycle iff its boundary mask has 6 vertices."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations

from .graphs import (component_masks, is_connected_mask, mask_vertices,
                     vertex_mask)
from .structures import get_pattern
from .surface import (SignedRotationSystem, _encode_from, _encoder_tables,
                      region_decompose, restricted_system, signed_cycles)


#: Euler characteristic of the projective plane, the host surface of
#: every instance; the cut lemmas read it as chi.
P2_EULER_CHAR = 1

#: the shapes ``classify_cut_shape`` names, all connected
CUT_SHAPES = ("bowtie", "I", "II", "III", "IV")


def vertex_connectivity(inst, cap=8, separators=None):
    """Vertex connectivity of the full graph, truncated at ``cap``, read
    off ``separators``, its ``minimal_separators`` (found here when not
    given): a least vertex cut is a minimal separator, so the connectivity
    is the size of the first, or n - 1 when there is none, which only a
    complete graph has.  ``graphs.vertex_connectivity_flow`` computes it
    without the list."""
    if separators is None:
        separators = minimal_separators(inst)
    return min(cap, separators[0].bit_count() if separators else inst.n - 1)


@dataclass
class CutAnalysis:
    """One vertex cut S of an instance, with the induced subgraph Q[S] of
    its quadrangulation and the regions of the host cut along Q[S].

    S and the components of G - S are vertex masks, so a clause reads a
    component inside a region as ``interior_mask & component``; S's sorted
    vertices, which label Q[S] and name the cut in reports, and Q[S]'s
    degrees are listed on first access.  ``regions`` is the one region
    decomposition every cut clause reads, ``surface.region_decompose`` of
    ``q_edges``, or [] when Q[S] has no edge, as records of facts (face,
    interior and boundary masks, boundary lengths, Euler characteristics,
    2-cells); no clause reads a boundary walk.  Q[S]'s rotation system
    is read only on the 4-, 5- and minimal 6-cuts, by T3.1's separating
    4-cycles and the cut shapes, so it is built on first access.
    """

    s_mask: int                  # the vertices of S
    components: tuple            # of G - S: vertex masks, by least vertex
    odd_count: int               # components of odd order
    is_minimal: bool
    q_edges: tuple               # host edge ids of Q(G) inside S, sorted
    regions: list                # the host's regions cut along ``q_edges``
    _host: SignedRotationSystem = field(repr=False, compare=False)

    @cached_property
    def S(self):
        """S's host vertex ids, sorted."""
        return mask_vertices(self.s_mask)

    @cached_property
    def q_degrees(self):
        """Per vertex of ``S``, its degree in Q[S]."""
        deg = dict.fromkeys(self.S, 0)
        for e in self.q_edges:
            u, v, _s = self._host.edges[e]
            deg[u] += 1
            deg[v] += 1
        return tuple(deg.values())

    @cached_property
    def srs(self):
        """Q[S]'s rotation system restricted from the host, relabelled:
        vertex i is ``S[i]`` and edge j is ``q_edges[j]``."""
        return restricted_system(self._host, self.S, self.q_edges)


def analyze_cut(inst, s_mask, components, is_minimal) -> CutAnalysis:
    """The record of the vertex mask ``s_mask`` of ``inst`` whose removal
    leaves the vertex masks ``components``, in order of their least
    vertex, minimal or not as the caller found: Q(G)[S] over the host
    quadrangulation's embedding, and the host's regions cut along it."""
    emb = inst.quad.embedding
    q_edges = tuple([e for e, ends in enumerate(emb.face_masks().edge_ends)
                     if ends & s_mask == ends])
    return CutAnalysis(
        s_mask=s_mask, components=tuple(components),
        odd_count=sum([c.bit_count() & 1 for c in components]),
        is_minimal=is_minimal, q_edges=q_edges,
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


def enumerate_cuts(inst, sizes, separators):
    """Every vertex set S of a size in ``sizes`` with G - S disconnected,
    fully analyzed, by size in the order of ``sizes`` and then in the
    order of ``itertools.combinations(range(n), k)``.

    Every cut contains a minimal separator: a minimal separator between
    two components of G - S lies inside S.  So the k-cuts are the
    k-supersets of the minimal separators of at most k vertices
    (``separators``, the instance's ``minimal_separators``) that leave G
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
    out = []
    for k in sizes:
        candidates = set()
        for sep in separators:
            size = sep.bit_count()
            if size > k:
                break
            for extra in combinations(mask_vertices(full ^ sep), k - size):
                candidates.add(sep | vertex_mask(extra))
        cuts = []
        for smask in candidates:
            comps = component_masks(adj, full ^ smask)
            if len(comps) > 1:
                cuts.append((mask_vertices(smask), smask, comps))
        cuts.sort()
        for _vertices, smask, comps in cuts:
            out.append(analyze_cut(
                inst, smask, comps,
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

    # separation: each region of Q[S] contains at most one component, and
    # each component lies in the interior of exactly one region
    if ca.q_edges:
        verdict = "pass"
        holding = 0             # the regions that hold a component
        for comp in ca.components:
            hits = [ri for ri, r in enumerate(regions)
                    if r.interior_mask & comp]
            if len(hits) != 1 or holding >> hits[0] & 1:
                verdict = "fail"
                break
            holding |= 1 << hits[0]
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
    S = ca.s_mask.bit_count()
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

    # 5-connected minimal cuts of size 5 or 6
    if connectivity >= 5 and ca.is_minimal and S in (5, 6):
        out["five_conn_i"] = "pass" if E >= 2 * F + 2 else "fail"
        # an empty Q[S] has no regions and counts as not 2-cell
        if not (regions and all(r.is_two_cell for r in regions)):
            # two boundary walks of length 6, read off the lengths (a
            # region's is the sum of its walks'): with S = E = 6 and Q[S]
            # 2-regular, Q[S] is a 6-cycle or two disjoint triangles, and
            # characteristics {0, 1} leave two regions, each with a walk.
            # On P^2 a two-sided curve bounds a disc and leaves a Moebius
            # band, and two one-sided curves meet (Mohar & Thomassen,
            # 2001): two triangles leaving two regions are a two-sided and
            # a one-sided one, lengths {3, 9}, and such a 6-cycle is
            # two-sided, one 6-walk per region: the two readings agree.
            ok = (S == 6 and E == 6
                  and all(d == 2 for d in ca.q_degrees)
                  and sorted(r.euler_char for r in regions) == [0, 1]
                  and sorted(r.boundary_length for r in regions) == [6, 6])
            out["five_conn_ii"] = "pass" if ok else "fail"
        else:
            out["five_conn_ii"] = "inapplicable"
        if S == 6:
            # a 2-cell has one boundary walk, as long as its boundary,
            # which is a cycle iff it visits 6 vertices
            ok = any(r.is_two_cell and r.boundary_length == 6
                     and r.boundary_mask.bit_count() == 6 for r in regions)
            out["five_conn_iii"] = "pass" if ok else "fail"
        else:
            out["five_conn_iii"] = "inapplicable"
    else:
        out["five_conn_i"] = "inapplicable"
        out["five_conn_ii"] = "inapplicable"
        out["five_conn_iii"] = "inapplicable"
    return out
