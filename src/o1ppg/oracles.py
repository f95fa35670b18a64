"""Brute-force oracles for the fast paths of the production modules.

Each function here decides, by exhaustive search, what a production
routine decides quickly; the tests compare the two at desk scale.  This
module may import the production modules, but none of them imports it.

- ``canonical_key_oracle``: a simple connected system encoded from all of
  its darts (against ``generator.canonical_key``).
- ``vertex_split_by_lists``: a split built on copied edge and rotation
  lists, its tables built afresh (against the patched tables growth
  encodes and materialises, ``generator._patched_split``).
- ``grow_quadrangulations_bruteforce``: every split of every class, built
  by ``vertex_split_by_lists`` and keyed by ``canonical_key`` (against
  ``generator.grow_quadrangulations``).
- ``delete_vertex_by_lists``: a vertex and its edges removed from copied
  edge and rotation lists (the closure under degree-2 deletion that
  growth's canonical-parent rule rests on).
- ``max_matching_size``: bitmask DP over all vertex subsets, and
  ``pm_exists_by_memo``: a top-down search with a memo of its own
  (both against ``matching.perfect_matching_table``).
- ``is_extendable_bruteforce``: exhaustive perfect-matching search on
  G - V(M) (against ``matching.is_extendable``).
- ``matching_masks``: every k-matching in lexicographic order with its
  covered mask, by backtracking over the edge ids (against the counts of
  ``matching.perfect_matching_table`` and ``matching.mask_matchings``).
- ``k_extendability_in_order``: every k-matching in that order, each
  decided by a perfect-matching test, stopping at the first that does not
  extend (against ``matching.k_extendability``, which reads the sweep by
  covered masks, ``matching.matching_sweep``).
- ``vertex_connectivity_bruteforce``: subset enumeration (against
  ``graphs.vertex_connectivity_flow``).
- ``is_minimal_cut_bruteforce``: every proper subset of a cut (against
  the component rule of ``connectivity.enumerate_cuts``).
- ``enumerate_cuts_by_subsets``: every k-subset of the vertices (against
  ``connectivity.enumerate_cuts``, which extends the minimal separators).
- ``spanning_triangulation_by_selections``: every diagonal selection in
  binary order, each checked by a 4-connectivity flow (against the
  triangle-clause search of ``matching.spanning_triangulation``).
- ``hamiltonian_path_by_plain_dfs``: DFS in vertex order with a
  connectivity prune only (against ``matching.hamiltonian_path``).
- ``representativity_bruteforce`` (over ``radial_corners``): every cycle
  of the radial graph (against ``surface.representativity``).
- ``representativity_by_double_cover`` (over ``double_cover``): BFS
  between the two lifts of each vertex in the radial graph of the
  orientation double cover, built as an embedded graph (against
  ``surface.representativity``).
- ``is_orientable``: BFS vertex potentials that must agree on every edge
  (against the Euler-characteristic rule of ``EmbeddedGraph.is_p2``).
- ``odd_regions_by_face_merge``: every connected face subset (against
  ``structures.find_odd_weighted_regions``).
- ``_walk_regions`` (over ``_closed_walks_upto``): every closed walk of at
  most ``max_len`` vertices, cut one at a time (against
  ``surface.short_walk_regions``, which cuts only the edge sets of
  the short-cycle shapes it lists, up to 6 vertices, and the filters of
  ``structures`` over it).
- ``cycle_sign`` and ``is_essential`` (over ``_cycle_edges``): the sign
  product of one given vertex cycle, looked up edge by edge (against the
  products ``surface.signed_cycles`` yields for every short cycle).
- ``is_essential_by_regions``: the region count of the cut along a cycle
  (against ``is_essential``).
- ``certificate_by_sets``: the Theorem-1.6 certificate scan on vertex
  sets (against the inverted index ``structures.CertificateContext``
  builds, ``certificates``).
- ``sweep_three_matchings_in_order``: every 3-matching in lexicographic
  order, its mask decided on first sight (against
  ``structures.sweep_three_matchings``, which decides each covered mask of
  the 3-matching sweep once, with its multiplicity).
- ``embeds_by_flips``: every vertex flip of a pattern map's image,
  rotations and signs checked directly (against the encoding test of
  ``structures.match_pattern``).
- ``pattern_maps_by_edges``: every injective map sending pattern edges to
  host edges, signs ignored (against the sign-pruned
  ``structures._candidate_maps``).
- ``bowties_by_triangle_pairs``: every pair of triangles sharing one
  vertex, kept when the cut along their edges leaves two hexagonal walks
  (against ``structures.find_projective_bowties``, which reads the bowties
  off the maps of the bowtie pattern).
- ``region_decompose_reference``: face merging by union-find calls and
  state sets, with each walk's swept corners collected and mapped to
  regions afterwards, and a 2-cell read as one walk of characteristic 1
  (against ``surface.region_decompose``, which reads the characteristic
  alone).

It also holds the from-scratch constructors the packaged fixtures are
rebuilt from (``scripts/make_fixtures.py``) and checked against:

- ``exhaustive_small_search`` (over ``all_embeddings``): every signed
  rotation system of a small connected graph, kept when it embeds the
  graph in P^2 with the asked face structure (FIX-K4, FIX-BOWTIE).
- ``build_patterns``: each base pattern as the unique embedding of its
  graph with the stated faces, and the configurations (a)-(g) on them
  (against ``structures.load_patterns``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations

from .connectivity import analyze_cut
from .errors import (EmptySubgraph, MalformedRotation, NoHamPath, NotACycle,
                     NotProjectivePlane, OddOrder, SearchBudgetExceeded,
                     TooLarge, TooSmall)
from .generator import _prefix, canonical_key
from .graphs import (adjacency_masks, component_masks, enumerate_cycles,
                     is_connected_mask, mask_vertices,
                     vertex_connectivity_flow, vertex_mask)
from .matching import (HAMILTONIAN_PATH_NODE_BUDGET, Matching,
                       _check_matching)
from .structures import (CertificateContext, _with_roles, diagnose_mask,
                         get_pattern)
from .surface import (EmbeddedGraph, FaceWalk, SignedRotationSystem,
                      _sign_product, boundary_walks, canonical_walk,
                      edge_lookup, region_decompose, short_walk_regions,
                      signed_cycles)

#: Diagonal selections ``spanning_triangulation_by_selections`` may try,
#: the first included, before it raises SearchBudgetExceeded.
TRIANGULATION_SELECTION_BUDGET = 1 << 12


def _oracle_encoding(srs, start_dart, start_side):
    """Unpacked BFS encoding from one start state, built with dictionaries
    and rotation indices instead of ``surface._encode_from``'s tables: a
    triple (edge label, neighbour label, sign bit) per dart visit and -1,
    below every entry of a triple, closing each vertex block."""
    dv = srs._dart_vertex
    label = {dv[start_dart]: 0}
    hand = {dv[start_dart]: start_side}
    entry = {dv[start_dart]: start_dart}
    order = [dv[start_dart]]
    edge_label = {}
    enc = []
    for v in order:
        rv = srs.rotations[v]
        i0 = rv.index(entry[v])
        for step in range(len(rv)):
            d = rv[(i0 + step * hand[v]) % len(rv)]
            e = d >> 1
            edge_label.setdefault(e, len(edge_label))
            w = dv[d ^ 1]
            if w not in label:
                label[w] = len(order)
                hand[w] = hand[v] * srs.sign(e)
                entry[w] = d ^ 1
                order.append(w)
            sb = 0 if srs.sign(e) * hand[v] * hand[w] > 0 else 1
            enc += (edge_label[e], label[w], sb)
        enc.append(-1)
    return tuple(enc)


def canonical_key_oracle(g) -> str:
    """Brute-force reference for ``canonical_key`` on a simple connected
    system with an edge: the minimum encoding over all darts and both
    sides, each encoded in full.  Decides the same classes as
    ``canonical_key``; the strings differ in general, as ``canonical_key``
    starts from its least degree pair only."""
    srs = g.srs if isinstance(g, EmbeddedGraph) else g
    enc = min(_oracle_encoding(srs, d, side)
              for d in range(2 * srs.edge_count) for side in (1, -1))
    return _prefix(srs) + ",".join(map(str, enc))


def vertex_split_by_lists(srs: SignedRotationSystem, v, i, j):
    """Reference for ``generator._patched_split``: the split built on copies
    of the edge and rotation lists, with fresh tables.

    The neighbors at positions i and j stay attached to both halves; the arc
    strictly between them moves to the new vertex, which inherits the local
    orientation of ``v``.  The insertion side of each new edge end is forced
    by the face structure: the new end replaces the old one next to the face
    corner that migrates to the new vertex, which is the rotation-predecessor
    side at ``x`` iff sign(vx) is +1 and the successor side at ``y`` iff
    sign(vy) is +1.
    """
    rot_v = srs.rotations[v]
    k = len(rot_v)
    di, dj = rot_v[i], rot_v[j]
    ei, ej = di >> 1, dj >> 1
    x = srs.dart_vertex(di ^ 1)
    y = srs.dart_vertex(dj ^ 1)
    twice = rot_v + rot_v
    arc = twice[i + 1:i + (j - i) % k]
    keep = twice[j:j + (i - j) % k + 1]
    n = srs.vertex_count
    vp = n  # the new vertex
    ne = srs.edge_count
    e1 = ne      # vp - x
    e2 = ne + 1  # vp - y
    edges = list(srs.edges) + [(vp, x, srs.sign(ei)), (vp, y, srs.sign(ej))]
    for d in arc:
        e = d >> 1
        u0, v0, s0 = edges[e]
        edges[e] = (vp, v0, s0) if (d & 1) == 0 else (u0, vp, s0)
    rotations = list(srs.rotations)     # the constructor copies each list
    rotations[v] = keep
    rotations.append([2 * e1] + arc + [2 * e2])
    rotations[x] = rx = list(rotations[x])
    pos = rx.index(di ^ 1)
    rx.insert(pos if srs.sign(ei) > 0 else pos + 1, 2 * e1 + 1)
    rotations[y] = ry = list(rotations[y])
    pos = ry.index(dj ^ 1)
    ry.insert(pos + 1 if srs.sign(ej) > 0 else pos, 2 * e2 + 1)
    return SignedRotationSystem(n + 1, edges, rotations, check=False)


def grow_quadrangulations_bruteforce(seeds, n_max):
    """Brute-force reference for ``generator.grow_quadrangulations``: every
    split of every class below ``n_max`` vertices is built by
    ``vertex_split_by_lists`` and keyed by ``canonical_key``, with neither
    the twin skip nor the canonical-parent rule.
    The classes and their keys are the same; the stored representative of
    a class, its first product met here, is in general another member of
    it, as growth keeps a class with a vertex of degree 2 only from its
    canonical parent.  Returns {n: [(key, srs), ...]} sorted by key."""
    by_n = {}
    seen = set()
    frontier = []

    def add(srs):
        key = canonical_key(srs)
        if key not in seen and srs.vertex_count <= n_max:
            seen.add(key)
            by_n.setdefault(srs.vertex_count, []).append((key, srs))
            frontier.append(srs)

    for g in seeds:
        add(g.srs if isinstance(g, EmbeddedGraph) else g)
    while frontier:
        srs = frontier.pop()
        if srs.vertex_count < n_max:
            for v in range(srs.vertex_count):
                for i, j in combinations(range(srs.degree(v)), 2):
                    add(vertex_split_by_lists(srs, v, i, j))
    return {n: sorted(v, key=lambda kv: kv[0]) for n, v in sorted(by_n.items())}


def delete_vertex_by_lists(srs: SignedRotationSystem, w):
    """The system without vertex ``w`` and its edges, built on copies of
    the edge and rotation lists with fresh tables: the vertices above ``w``
    and the edges left keep their order and close up the numbering, and
    every other rotation keeps its remaining darts in their order.  On a
    quadrangulation and a vertex of degree 2 this merges the two faces at
    ``w`` into one 4-face, undoing the split that inserted ``w``."""
    gone = {d >> 1 for d in srs.rotations[w]}
    renum = {}
    edges = []
    for e, (a, b, s) in enumerate(srs.edges):
        if e not in gone:
            renum[e] = len(edges)
            edges.append((a - (a > w), b - (b > w), s))
    rotations = [[2 * renum[d >> 1] + (d & 1) for d in r if d >> 1 in renum]
                 for u, r in enumerate(srs.rotations) if u != w]
    return SignedRotationSystem(srs.vertex_count - 1, edges, rotations)


# -- exhaustive embedding search --------------------------------------------


def _spanning_tree_edges(n, edges):
    seen = [False] * n
    seen[0] = True
    tree = []
    frontier = [0]
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    while frontier:
        x = frontier.pop()
        for (y, i) in adj[x]:
            if not seen[y]:
                seen[y] = True
                tree.append(i)
                frontier.append(y)
    if not all(seen):
        raise TooLarge("exhaustive search expects a connected graph")
    return set(tree)


def all_embeddings(n, edges, max_edges=10):
    """Yield every signed rotation system of a connected simple graph, one
    representative per (rotations x tree-normalized signs) choice.

    Complete up to embedded isomorphism: every equivalence class contains a
    representative whose spanning-tree signs are all +1.
    """
    ne = len(edges)
    if ne > max_edges:
        raise TooLarge(f"{ne} edges exceeds the exhaustive gate ({max_edges})")
    darts_at = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    tree = _spanning_tree_edges(n, edges)
    free = [i for i in range(ne) if i not in tree]

    rot_choices = []
    for v in range(n):
        ds = darts_at[v]
        if len(ds) <= 2:
            rot_choices.append([tuple(ds)])
        else:
            first, rest = ds[0], ds[1:]
            rot_choices.append([(first,) + p for p in permutations(rest)])

    def rec_rot(v, acc):
        if v == n:
            yield list(acc)
            return
        for rot in rot_choices[v]:
            acc.append(rot)
            yield from rec_rot(v + 1, acc)
            acc.pop()

    for rots in rec_rot(0, []):
        for bits in range(1 << len(free)):
            sign = [1] * ne
            for j, e in enumerate(free):
                if (bits >> j) & 1:
                    sign[e] = -1
            yield SignedRotationSystem(
                n,
                [(u, v, sign[i]) for i, (u, v) in enumerate(edges)],
                rots,
                check=False,
            )


def exhaustive_small_search(n, edges, predicate, max_edges=10):
    """All projective-plane embeddings of the graph satisfying ``predicate``,
    deduplicated by canonical form, sorted by canonical string.  P^2 is
    read as characteristic 1 on a nonorientable surface (``is_orientable``),
    not by ``EmbeddedGraph.is_p2``'s parity rule."""
    found = {}
    for srs in all_embeddings(n, edges, max_edges=max_edges):
        g = EmbeddedGraph(srs)
        if not (g.euler_char == 1 and not is_orientable(srs)):
            continue
        if not predicate(g):
            continue
        key = canonical_key(g)
        if key not in found:
            found[key] = g
    return [found[k] for k in sorted(found)]


# -- pattern builder ---------------------------------------------------------

_HEX = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]

#: abstract graph and face-length vector per pattern; the embedding is the
#: unique P^2 embedding with that face vector (hexagon shapes additionally
#: require the 6-cycle itself to bound a face)
_PATTERN_GRAPHS = {
    # two essential triangles sharing a hub; two pinched hexagonal faces
    "bowtie": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
               (6, 6)),
    # bowtie 0-1-2 / 0-3-4 plus a handle 4-5-6-2 inside one face
    "fig4-1": (7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
                   (4, 5), (5, 6), (6, 2)], (6, 6, 6)),
    # bowtie 0-1-2 / 0-3-4 plus a handle 0-5-6-0 at the hub
    "fig4-2": (7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
                   (0, 5), (5, 6), (6, 0)], (6, 6, 6)),
    # essential 4-cycle 0-1-2-3, center 4, spokes 0-4, 4-5-3, 4-6-1
    "fig4-3": (7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 3),
                   (4, 6), (6, 1)], (6, 6, 6)),
    # essential triangle 0-1-2, center 3, subdivided spokes to all corners
    "fig4-4": (7, [(0, 1), (1, 2), (2, 0), (0, 4), (4, 3), (3, 5), (5, 2),
                   (3, 6), (6, 1)], (6, 6, 6)),
    # minimal 6-cut shapes: a hexagonal 2-cell face plus 0..2 chords
    # through the crosscap
    "I": (6, _HEX, (6, 6)),
    "II": (6, _HEX + [(0, 3)], (6, 8)),
    "III": (6, _HEX + [(0, 2)], (6, 8)),
    "IV": (6, _HEX + [(0, 3), (1, 4)], (4, 6, 6)),
}


def _hexagon_is_face(g):
    tgt = frozenset(range(6))
    for f in g.faces:
        if f.length == 6 and f.is_cycle and frozenset(f.vertices) == tgt:
            vs = f.vertices
            i = vs.index(0)
            rot = tuple(vs[(i + t) % 6] for t in range(6))
            if rot in ((0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1)):
                return True
    return False


def _build_base_embedding(pid):
    n, edges, fvec = _PATTERN_GRAPHS[pid]
    if pid == "I":
        # trivial hexagon: a 6-cycle bounding a 2-cell, crosscap inside the
        # other face; the restriction of any host to such a cycle is the
        # planar 6-cycle system (all signs +)
        srs = SignedRotationSystem(
            6, [(u, v, 1) for (u, v) in _HEX],
            [[0, 11], [1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])
        return EmbeddedGraph(srs)
    pred = (lambda g: sorted(f.length for f in g.faces) == sorted(fvec))
    if pid in ("II", "III", "IV"):
        base = pred
        pred = lambda g: base(g) and _hexagon_is_face(g)  # noqa: E731
    found = exhaustive_small_search(n, edges, pred)
    if len(found) != 1:
        raise AssertionError(
            f"pattern {pid}: expected a unique embedding, got {len(found)}")
    return found[0]


def build_patterns():
    """Construct every pattern from scratch (against
    ``structures.load_patterns``): each base by its unique-embedding
    search, the configurations (a)-(g) from ``structures._CONFIG_ROLES``.
    Deterministic."""
    return _with_roles({pid: _build_base_embedding(pid)
                        for pid in sorted(_PATTERN_GRAPHS)})


def max_matching_size(adj, alive):
    """Maximum matching cardinality on the ``alive`` mask (DP oracle)."""
    memo = {0: 0}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & (-mask)
        v = low.bit_length() - 1
        rest = mask ^ low
        b = rec(rest)
        m = adj[v] & rest
        while m:
            wbit = m & (-m)
            m ^= wbit
            cand = 1 + rec(rest ^ wbit)
            if cand > b:
                b = cand
        memo[mask] = b
        return b

    return rec(alive)


def pm_exists_by_memo(adj, alive, memo=None):
    """Does the subgraph induced on the ``alive`` mask have a perfect
    matching?  Top-down: the least vertex is matched to each neighbour in
    turn, and each even mask's answer is kept in ``memo`` (default: a
    fresh one), which must only ever have been used with this ``adj``."""
    if alive.bit_count() & 1:
        return False
    if memo is None:
        memo = {0: True}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & (-mask)
        v = low.bit_length() - 1
        m = adj[v] & mask
        ok = False
        while m:
            wbit = m & (-m)
            m ^= wbit
            if rec(mask ^ low ^ wbit):
                ok = True
                break
        memo[mask] = ok
        return ok

    return rec(alive)


def is_extendable_bruteforce(inst, m: Matching) -> bool:
    """Independent oracle: exhaustive perfect-matching search on G - V(M)."""
    covered = _check_matching(inst, m)
    alive = [v for v in range(inst.n) if v not in covered]
    if len(alive) % 2:
        return False
    pos = {v: i for i, v in enumerate(alive)}
    adj = [0] * len(alive)
    for (u, v) in inst.edges:
        if u in pos and v in pos:
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]

    def rec(mask):
        if not mask:
            return True
        low = mask & (-mask)
        v = low.bit_length() - 1
        m2 = adj[v] & mask
        while m2:
            w = m2 & (-m2)
            m2 ^= w
            if rec(mask ^ low ^ w):
                return True
        return False

    return rec((1 << len(alive)) - 1)


def matching_masks(inst, k):
    """(edge-id tuple, covered-vertex mask) of every k-matching, in
    lexicographic order on the sorted edge-id tuples.

    A backtracking walk over one edge-id array: ``combo[t]`` is the edge
    at depth t and ``covered[t]`` the vertices that the edges at depths
    below t cover, and depth t tries the edge ids from ``e`` up to the last
    one that leaves room for the k - 1 - t edges after it."""
    bits = [(1 << u) | (1 << v) for (u, v) in inst.edges]
    last = len(bits) - k
    if k == 0:
        yield (), 0
        return
    combo = [0] * k
    covered = [0] * (k + 1)
    depth = e = 0
    while True:
        used = covered[depth]
        stop = last + depth
        while e <= stop and used & bits[e]:
            e += 1
        if e > stop:            # depth exhausted: next edge one level up
            if depth == 0:
                return
            depth -= 1
            e = combo[depth] + 1
            continue
        combo[depth] = e
        covered[depth + 1] = used | bits[e]
        e += 1
        if depth + 1 == k:
            yield tuple(combo), covered[k]
        else:
            depth += 1


def k_extendability_in_order(inst, k):
    """Ordered reference for ``matching.k_extendability``: test every
    k-matching in lexicographic order for a perfect matching of the rest,
    with a memo of its own, and stop at the first that has none."""
    if inst.n % 2:
        raise OddOrder("extendability needs an even order")
    if inst.n < 2 * k + 2:
        raise TooSmall(f"k-extendability needs n >= {2 * k + 2}")
    full = (1 << inst.n) - 1
    memo = {0: True}
    for combo, vm in matching_masks(inst, k):
        if not pm_exists_by_memo(inst.adj, full ^ vm, memo):
            return False, Matching(frozenset(combo))
    return True, None


def vertex_connectivity_bruteforce(n, adj, cap):
    """Oracle: smallest disconnecting subset by exhaustive enumeration."""
    full = (1 << n) - 1
    for size in range(0, min(cap, n - 1)):
        for subset in combinations(range(n), size):
            mask = 0
            for v in subset:
                mask |= 1 << v
            rest = full & ~mask
            if rest and len(component_masks(adj, rest)) > 1:
                return size
    return min(cap, n - 1)


def is_minimal_cut_bruteforce(inst, S):
    """Oracle: no nonempty proper subset of the cut S disconnects G
    (against the component rule of ``connectivity.enumerate_cuts``)."""
    full = (1 << inst.n) - 1
    for r in range(1, len(S)):
        for sub in combinations(sorted(S), r):
            rest = full
            for v in sub:
                rest ^= 1 << v
            if len(component_masks(inst.adj, rest)) > 1:
                return False
    return True


def enumerate_cuts_by_subsets(inst, k):
    """Every k-subset S with G - S disconnected, fully analyzed, found by
    scanning all C(n, k) subsets (against
    ``connectivity.enumerate_cuts``).

    S is minimal (no proper subset is a cut) iff every component of G - S
    has a neighbour at every vertex of S.
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
        for c in comps:
            seen = 0
            m = c
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                seen |= adj[v]
            minimal = minimal and (seen & smask) == smask
        out.append(analyze_cut(inst, smask, comps, minimal))
    return out


def spanning_triangulation_by_selections(inst):
    """Quadrangulation plus one diagonal per face, 4-connected, found by
    trying the diagonal selections in binary order (face 0 the low bit,
    bit 0 its lexicographically smaller diagonal), at most
    ``TRIANGULATION_SELECTION_BUDGET`` of them, each checked by one
    4-connectivity flow (against ``matching.spanning_triangulation``)."""
    emb = inst.quad.embedding
    q_edges = [(u, v) for (u, v, _s) in emb.srs.edges]
    face_choices = []
    for fi, f in enumerate(emb.faces):
        a, b, c, d = f.vertices
        d1, d2 = tuple(sorted((a, c))), tuple(sorted((b, d)))
        face_choices.append(sorted((d1, d2)))
    n = inst.n
    budget = TRIANGULATION_SELECTION_BUDGET
    for bits in range(1 << len(face_choices)):
        if bits == budget:
            raise SearchBudgetExceeded(
                "no 4-connected spanning triangulation among the first "
                f"{budget} diagonal selections "
                "(TRIANGULATION_SELECTION_BUDGET)")
        edges = q_edges + [choice[(bits >> fi) & 1]
                           for fi, choice in enumerate(face_choices)]
        adj = adjacency_masks(n, edges)
        if vertex_connectivity_flow(n, adj, 4) >= 4:
            return tuple(adj), tuple(edges)
    raise NoHamPath("no 4-connected spanning triangulation found")


def hamiltonian_path_by_plain_dfs(n, adj, s, t):
    """A Hamiltonian s-t path by DFS with a connectivity prune, or None
    (against ``matching.hamiltonian_path``, which adds a degree prune and
    tries the neighbours with the fewest unvisited neighbours first).

    Raises SearchBudgetExceeded once the DFS has visited more than
    ``HAMILTONIAN_PATH_NODE_BUDGET`` nodes.
    """
    full = (1 << n) - 1
    budget = HAMILTONIAN_PATH_NODE_BUDGET
    nodes = 0

    def dfs(v, visited, path):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"Hamiltonian {s}-{t} path search visited more than "
                f"{budget} DFS nodes (HAMILTONIAN_PATH_NODE_BUDGET)")
        if visited == full:
            return path if v == t else None
        # prune: the unvisited region plus t must stay reachable
        rest = full & ~visited
        if not is_connected_mask(adj, rest | (1 << v)):
            return None
        m = adj[v] & ~visited
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if w == t and (visited | (1 << w)) != full:
                continue
            got = dfs(w, visited | (1 << w), path + [w])
            if got is not None:
                return got
        return None

    return dfs(s, 1 << s, [s])


def radial_corners(g: EmbeddedGraph):
    """Corner edges of the radial graph with sheet bits.

    Returns a list of ``(vertex, face_id, bit)`` triples, one per corner; a
    radial cycle is essential iff the XOR of its corner bits is 1.  The bit
    is the sheet of the vertex visit inside the face's preferred lift, i.e.
    the running sign product along the face walk before that visit.
    """
    out = []
    for fi, f in enumerate(g.faces):
        sigma = 0
        for d in f.boundary:
            out.append((g.srs.dart_vertex(d), fi, sigma))
            if g.srs.sign(d >> 1) < 0:
                sigma ^= 1
    return out


def representativity_bruteforce(g: EmbeddedGraph):
    """Independent oracle: enumerate every cycle of the radial graph and keep
    the shortest essential one.  Exponential; fixture scale only."""
    if not g.is_p2():
        raise NotProjectivePlane("representativity defined for P^2 hosts")
    n = g.vertex_count
    corners = radial_corners(g)
    # multigraph on vertex nodes 0..n-1 and face nodes n..n+F-1
    edges = [(v, n + fi, bit) for (v, fi, bit) in corners]
    nodes = n + g.face_count
    inc = [[] for _ in range(nodes)]
    for ci, (a, b, bit) in enumerate(edges):
        inc[a].append((b, ci, bit))
        inc[b].append((a, ci, bit))
    best = [None]

    def dfs(start, x, visited, used_corners, length, parity):
        if best[0] is not None and length >= best[0]:
            return
        for (y, ci, bit) in inc[x]:
            if ci in used_corners:
                continue
            if y == start and length >= 1:
                if parity ^ bit:
                    total = length + 1
                    if best[0] is None or total < best[0]:
                        best[0] = total
                continue
            if y in visited or y < start:
                continue
            visited.add(y)
            used_corners.add(ci)
            dfs(start, y, visited, used_corners, length + 1, parity ^ bit)
            used_corners.discard(ci)
            visited.discard(y)

    for start in range(nodes):
        dfs(start, start, {start}, set(), 0, 0)
    if best[0] is None:
        raise NotProjectivePlane("no essential radial cycle found")
    return best[0] // 2


def is_orientable(srs):
    """Orientable iff BFS vertex potentials mu, with mu[root] = +1 and
    mu[v] = mu[u] * sign(uv) along a spanning forest, agree on every edge
    (against the Euler-characteristic rule of ``EmbeddedGraph.is_p2``)."""
    n = srs.vertex_count
    inc = [[] for _ in range(n)]
    for e, (u, v, _s) in enumerate(srs.edges):
        inc[u].append(e)
        if v != u:
            inc[v].append(e)
    mu = [0] * n
    orientable = True
    for root in range(n):
        if mu[root]:
            continue
        mu[root] = 1
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for e in inc[x]:
                u, v, s = srs.edges[e]
                y = v if x == u else u
                if mu[y] == 0:
                    mu[y] = mu[x] * s
                    queue.append(y)
                elif mu[y] != mu[x] * s:
                    orientable = False
    return orientable


def double_cover(g: EmbeddedGraph):
    """Orientation double cover as an embedded graph.

    Vertex ``(v, sheet)`` maps to id ``2*v + sheet``.  Edge ``e`` lifts to
    edges ``2*e`` and ``2*e + 1``; all cover signs are +1 and sheet-1
    rotations are reversed, which realizes the sign rule.
    """
    srs = g.srs
    n, ne = srs.vertex_count, srs.edge_count
    edges = []
    for e, (u, v, s) in enumerate(srs.edges):
        t = 0 if s > 0 else 1
        edges.append((2 * u + 0, 2 * v + t, 1))       # lift 2e
        edges.append((2 * u + 1, 2 * v + (1 - t), 1))  # lift 2e+1
    # cover dart for (dart d, end-sheet sigma): edge lift chosen so that the
    # end of the lifted edge at d's vertex lies on sheet sigma.
    def lift_dart(d, sigma):
        e, end = d >> 1, d & 1
        s = srs.sign(e)
        if end == 0:
            return 2 * (2 * e + sigma) + 0
        t = 0 if s > 0 else 1
        lift = sigma ^ t
        return 2 * (2 * e + lift) + 1

    rotations = [None] * (2 * n)
    for v in range(n):
        rot = srs.rotations[v]
        rotations[2 * v + 0] = [lift_dart(d, 0) for d in rot]
        rotations[2 * v + 1] = [lift_dart(d, 1) for d in reversed(rot)]
    return EmbeddedGraph(SignedRotationSystem(2 * n, edges, rotations))


def _radial_adjacency(g: EmbeddedGraph):
    """Adjacency sets of the radial (vertex-face incidence) graph, with face
    node ids offset by the vertex count."""
    n = g.vertex_count
    adj = [set() for _ in range(n + g.face_count)]
    for fi, f in enumerate(g.faces):
        for v in f.vertices:
            adj[v].add(n + fi)
            adj[n + fi].add(v)
    return adj


def representativity_by_double_cover(g: EmbeddedGraph):
    """Minimum crossings of an essential simple closed curve with the graph
    (against ``surface.representativity``).

    Equals half the length of the shortest essential cycle of the radial
    graph, computed as a shortest path between the two lifts of a vertex in
    the orientation double cover.
    """
    if not g.is_p2():
        raise NotProjectivePlane("representativity defined for P^2 hosts")
    cover = double_cover(g)
    adj = _radial_adjacency(cover)
    best = None
    for v in range(g.vertex_count):
        src, dst = 2 * v, 2 * v + 1
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        d = dist.get(dst)
        if d is not None and (best is None or d < best):
            best = d
    if best is None:
        raise NotProjectivePlane("no essential curve found; not P^2?")
    return best // 2


def _closed_walks_upto(emb, max_len, min_len=2):
    """All closed walks of the embedding's graph with ``min_len`` to
    ``max_len`` vertices, up to rotation/reflection."""
    srs = emb.srs
    n = srs.vertex_count
    adj = [[] for _ in range(n)]
    for (u, v, _s) in srs.edges:
        adj[u].append(v)
        adj[v].append(u)
    for ws in adj:
        ws.sort()
    seen = set()

    def dfs(start, v, walk):
        for w in adj[v]:
            if w == start and len(walk) >= min_len:
                seen.add(canonical_walk(walk))
            if len(walk) < max_len and w >= start:
                dfs(start, w, walk + [w])

    for start in range(n):
        dfs(start, start, [start])
    return sorted(seen)


def _walk_regions(emb, max_len, min_len=2):
    """(walk, region) for every closed walk of the embedding's graph with
    ``min_len`` to ``max_len`` vertices that separates the surface, and
    every 2-cell region of the cut whose boundary walk is the walk itself,
    in walk order."""
    edge_of = edge_lookup(emb.srs)
    for walk in _closed_walks_upto(emb, max_len, min_len):
        k = len(walk)
        edges = {edge_of[(walk[i], walk[(i + 1) % k])] for i in range(k)}
        if len(edges) < len(set(walk)):
            continue        # a tree: cutting along it never separates
        regions = region_decompose(emb, edges)
        if len(regions) < 2:
            # the walk does not separate the surface: its "2-cell side" is
            # everything (e.g. both traversals of an essential triangle);
            # such a disc has no outside and is not a bounded region
            continue
        for region, walks in zip(regions,
                                 boundary_walks(emb, edges, regions)):
            if (region.is_two_cell
                    and canonical_walk(walks[0].vertices) == walk):
                yield walk, region


def odd_regions_by_face_merge(inst, max_boundary_len):
    """Independent oracle: merge every connected face subset of Q(G) and
    keep 2-cell regions with odd interiors and short boundaries, as
    (canonical walk, region) sorted by walk."""
    emb = inst.quad.embedding
    nf = emb.face_count
    ef = emb.face_masks().edge_cuts
    face_adj = [set() for _ in range(nf)]
    for e in range(emb.edge_count):
        f1, f2, _joined = ef[e]
        if f1 != f2:
            face_adj[f1].add(f2)
            face_adj[f2].add(f1)
    results = {}
    for r in range(1, nf):       # the full face set leaves no boundary
        for subset in combinations(range(nf), r):
            sub = set(subset)
            # connected?
            stack = [subset[0]]
            comp = {subset[0]}
            while stack:
                x = stack.pop()
                for y in face_adj[x]:
                    if y in sub and y not in comp:
                        comp.add(y)
                        stack.append(y)
            if comp != sub:
                continue
            boundary = [e for e in range(emb.edge_count)
                        if (ef[e][0] in sub) != (ef[e][1] in sub)]
            if not boundary or len(boundary) > max_boundary_len:
                continue
            regions = region_decompose(emb, boundary)
            for region, walks in zip(regions,
                                     boundary_walks(emb, boundary, regions)):
                if (region.face_mask != vertex_mask(sub)
                        or not region.is_two_cell):
                    continue
                bw = walks[0]
                if bw.length > max_boundary_len:
                    continue
                if region.interior_mask.bit_count() % 2 == 1:
                    results[canonical_walk(bw.vertices)] = region
    return sorted(results.items())


def _cycle_edges(srs, cycle):
    """Edge ids along a vertex cycle; raises NotACycle on any defect."""
    k = len(cycle)
    if k < 1:
        raise NotACycle("empty vertex sequence")
    if len(set(cycle)) != k:
        raise NotACycle("repeated vertex")
    edge_of = edge_lookup(srs)
    out = []
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        e = edge_of.get((u, v))
        if e is None:
            raise NotACycle(f"no edge {u}-{v}")
        out.append(e)
    return out


def cycle_sign(g: EmbeddedGraph, cycle):
    """Sign product along a cycle (invariant under local reorientations)."""
    return _sign_product(g.srs, _cycle_edges(g.srs, cycle))


def is_essential(g: EmbeddedGraph, cycle):
    """On the projective plane a cycle is essential iff it is one-sided,
    i.e. its sign product is -1."""
    if not g.is_p2():
        raise NotProjectivePlane("essentiality test defined on P^2 only")
    return cycle_sign(g, cycle) == -1


def is_essential_by_regions(g: EmbeddedGraph, cycle):
    """Cross-oracle: a cycle on P^2 is essential iff cutting along it leaves
    a single region (one-sided), trivial iff it separates."""
    edges = _cycle_edges(g.srs, cycle)
    return len(region_decompose(g, edges)) == 1


def certificate_by_sets(ctx, vm):
    """Set-based reference for ``CertificateContext.certificates``: scan
    the length-6 regions of the context, then the pattern maps in
    "abcdefg" order, for the first certificate that fires on the vertex
    set ``vm`` of a 3-matching."""
    for walk, region in ctx.regions6:
        inside = set(mask_vertices(region.interior_mask))
        if set(walk) <= vm and len(inside - vm) % 2 == 1:
            return ("cert_i", walk)
    for cid in "abcdefg":
        gray = get_pattern(cid).gray
        for phi in ctx.config_maps[cid]:
            if frozenset(phi[v] for v in gray) <= vm:
                return ("cert_ii", (cid, phi))
    return None


def sweep_three_matchings_in_order(inst):
    """Ordered reference for ``structures.sweep_three_matchings``: walk
    every 3-matching in lexicographic order, decide its covered mask on
    first sight (a perfect-matching test with a memo of its own, then
    ``structures.diagnose_mask``) and count it, and stop at the first
    oracle/certificate disagreement.  Returns the counts, the
    non-extendable 3-matchings and the disagreement as ``(combo, detail)``
    or None, the first two gathered before the disagreement."""
    counts = {"extendable": 0, "cert_i": 0, "cert_ii": 0}
    nonext = []
    emb = inst.quad.embedding
    ctx = CertificateContext.build(
        inst, short_walk_regions(emb, signed_cycles(emb.srs, 6)))
    full = (1 << inst.n) - 1
    memo = {0: True}
    decided = {}
    for combo, vm in matching_masks(inst, 3):
        found = decided.get(vm)
        if found is None:
            extendable = pm_exists_by_memo(inst.adj, full ^ vm, memo)
            found = decided[vm] = diagnose_mask(vm, extendable, ctx)
        verdict, detail = found
        if verdict == "counterexample":
            return counts, nonext, (combo, detail)
        counts[verdict] += 1
        if verdict != "extendable":
            nonext.append(Matching(frozenset(combo)))
    return counts, nonext, None


def embeds_by_flips(host: EmbeddedGraph, pat, phi):
    """Flip-enumeration reference for the map decision of
    ``structures.match_pattern``, face parities aside: whether some choice
    of vertex flips, among all 2^|V(P)|, makes the host restricted to the
    image of ``phi`` agree with the pattern at every vertex, its rotation
    (as a cyclic sequence of pattern edges, reversed at a flipped vertex)
    and at every edge, its sign (times the flips at both ends)."""
    psrs, hsrs = pat.embedding.srs, host.srs
    pn = psrs.vertex_count
    hedge = {frozenset(e[:2]): i for i, e in enumerate(hsrs.edges)}
    image = [hedge[frozenset((phi[u], phi[v]))] for (u, v, _s) in psrs.edges]
    back = {h: p for p, h in enumerate(image)}
    got = [[back[d >> 1] for d in hsrs.rotations[phi[v]] if d >> 1 in back]
           for v in range(pn)]
    turns = [[r[i:] + r[:i] for i in range(len(r))]
             for r in ([d >> 1 for d in r] for r in psrs.rotations)]
    for bits in range(1 << pn):
        flip = [-1 if bits >> v & 1 else 1 for v in range(pn)]
        if all(s * flip[u] * flip[v] == hsrs.sign(image[e])
               for e, (u, v, s) in enumerate(psrs.edges)) and all(
                got[v][::flip[v]] in turns[v] for v in range(pn)):
            return True
    return False


def pattern_maps_by_edges(host: EmbeddedGraph, pat):
    """Reference for ``structures._candidate_maps`` without its sign
    pruning: every injective vertex map ``{pattern vertex: host vertex}``
    sending pattern edges to host edges, by the same backtracking over the
    pattern's vertices, so in the same order."""
    padj = list(map(set, pat.embedding.srs.adjacency()))
    hadj = list(map(set, host.srs.adjacency()))
    pn = len(padj)
    order = [0]
    while len(order) < pn:
        placed = set(order)
        order.append(max((v for v in range(pn) if v not in placed),
                         key=lambda v: (len(padj[v] & placed), -v)))
    maps = []

    def extend(idx, phi):
        if idx == pn:
            maps.append(dict(phi))
            return
        v = order[idx]
        used = set(phi.values())
        for hv in range(len(hadj)):
            if hv not in used and len(padj[v]) <= len(hadj[hv]) and all(
                    phi[u] in hadj[hv] for u in padj[v] if u in phi):
                phi[v] = hv
                extend(idx + 1, phi)
                del phi[v]

    extend(0, {})
    return maps


def bowties_by_triangle_pairs(emb):
    """Triangle-pair reference for ``structures.find_projective_bowties``:
    the set of (hub, {{a, b}, {c, d}}) where hub-a-b and hub-c-d are
    triangles sharing exactly the hub and the cut along their six edges
    leaves exactly two boundary walks, both hexagons."""
    n = emb.vertex_count
    tris = enumerate_cycles(
        n, adjacency_masks(n, [(u, v) for (u, v, _s) in emb.srs.edges]), 3)
    lookup = {}
    for e, (u, v, _s) in enumerate(emb.srs.edges):
        lookup[(min(u, v), max(u, v))] = e
    out = set()
    for t1, t2 in combinations(tris, 2):
        shared = set(t1) & set(t2)
        if len(shared) != 1:
            continue
        hub = shared.pop()
        edges = set()
        for t in (t1, t2):
            a, b, c = t
            edges |= {lookup[(min(a, b), max(a, b))],
                      lookup[(min(b, c), max(b, c))],
                      lookup[(min(a, c), max(a, c))]}
        walks = [w for ws in boundary_walks(
                     emb, edges, region_decompose(emb, edges)) for w in ws]
        if sorted(w.length for w in walks) != [6, 6]:
            continue
        out.add((hub, frozenset((frozenset(set(t1) - {hub}),
                                 frozenset(set(t2) - {hub})))))
    return out


@dataclass
class ReferenceRegion:
    """One region of ``region_decompose_reference``, as sets: its faces,
    boundary walks and interior vertices."""

    face_ids: tuple
    boundary_length: int
    euler_char: int
    interior_vertices: frozenset
    is_two_cell: bool
    boundary_walks: list


def region_decompose_reference(g: EmbeddedGraph, cut_edges) -> list:
    """Set-based reference for ``surface.region_decompose``: merge the
    host's faces across every edge outside ``cut_edges``.

    Each region gets its boundary walks (closed walks over the subgraph),
    their total length, its Euler characteristic on the cut-open complex,
    and its interior vertices.  A region is a 2-cell iff its characteristic
    is 1 and it has a single boundary walk.
    """
    K = frozenset(cut_edges)
    if not K:
        raise EmptySubgraph("region decomposition needs a nonempty edge set")
    srs = g.srs
    nf = g.face_count

    parent = list(range(nf))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    ef = g.face_masks().edge_cuts
    for e in range(g.edge_count):
        if e not in K:
            f1, f2, _joined = ef[e]
            union(f1, f2)

    groups = {}
    for fi in range(nf):
        groups.setdefault(find(fi), []).append(fi)
    region_of_face = {}
    roots = sorted(groups)
    for ri, root in enumerate(roots):
        for fi in groups[root]:
            region_of_face[fi] = ri

    # boundary walks: trace the restricted system, sweeping host corners
    k_darts = set()
    for e in K:
        k_darts.add(2 * e)
        k_darts.add(2 * e + 1)
    corner_face = g.corner_face()

    def scan(d2, s2):
        """From arrival dart d2 with handedness s2, skip non-K darts.

        Returns (next K-dart, swept host corners)."""
        corners = []
        x = d2
        while True:
            if s2 > 0:
                corners.append(x)
                nxt = srs._rot_next[x]
            else:
                nxt = srs._rot_prev[x]
                corners.append(nxt)
            if nxt in k_darts:
                return nxt, corners
            x = nxt

    used = set()
    walks_by_region = {ri: [] for ri in range(len(roots))}
    for start_d in sorted(k_darts):
        for start_s in (1, -1):
            if (start_d, start_s) in used:
                continue
            d, s = start_d, start_s
            walk, sides, touched = [], [], set()
            while True:
                if (d, s) in used:
                    raise MalformedRotation("restricted trace revisit")
                used.add((d, s))
                walk.append(d)
                sides.append(s)
                s2 = s * srs.sign(d >> 1)
                nd, corners = scan(d ^ 1, s2)
                touched.update(corners)
                d, s = nd, s2
                if (d, s) == (start_d, start_s):
                    break
            for d0, s0 in zip(walk, sides):
                used.add((d0 ^ 1, -s0 * srs.sign(d0 >> 1)))
            regions_touched = {region_of_face[corner_face[c]]
                               for c in touched}
            if len(regions_touched) != 1:
                raise MalformedRotation(
                    "boundary walk sweeps multiple regions; "
                    "face merge inconsistent")
            verts = tuple(srs.dart_vertex(d0) for d0 in walk)
            fw = FaceWalk(tuple(walk), tuple(sides), len(walk),
                          len(set(verts)) == len(verts), verts)
            walks_by_region[regions_touched.pop()].append(fw)

    # interior vertices: not an endpoint of K, all incident faces in region
    vK = set()
    for e in K:
        u, v, _ = srs.edges[e]
        vK.add(u)
        vK.add(v)
    vf = [set() for _ in range(g.vertex_count)]
    for corner, fi in enumerate(corner_face):
        vf[srs.dart_vertex(corner)].add(fi)
    interior = {ri: set() for ri in range(len(roots))}
    for v in range(g.vertex_count):
        if v in vK or not vf[v]:
            continue
        rs = {region_of_face[fi] for fi in vf[v]}
        if len(rs) != 1:
            raise MalformedRotation(
                "vertex off the subgraph touches several regions")
        interior[rs.pop()].add(v)

    interior_edge_count = [0] * len(roots)
    for e in range(g.edge_count):
        if e not in K:
            interior_edge_count[region_of_face[ef[e][0]]] += 1

    regions = []
    for ri, root in enumerate(roots):
        faces = tuple(sorted(groups[root]))
        walks = walks_by_region[ri]
        chi = (len(interior[ri]) - interior_edge_count[ri] + len(faces))
        regions.append(ReferenceRegion(
            face_ids=faces,
            boundary_length=sum(w.length for w in walks),
            euler_char=chi,
            interior_vertices=frozenset(interior[ri]),
            is_two_cell=(chi == 1 and len(walks) == 1),
            boundary_walks=walks,
        ))
    return regions

