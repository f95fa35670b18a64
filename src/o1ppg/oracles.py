"""Brute-force oracles for the fast paths of the production modules.

Each function here decides, by exhaustive search, what a production
routine decides quickly; the tests compare the two at desk scale.  This
module may import the production modules, but none of them imports it.

- ``canonical_key_oracle``: every component encoded from all of its darts
  (against ``generator.canonical_key``).
- ``max_matching_size``: bitmask DP over all vertex subsets (against the
  blossom matching and ``_kernels.pm_exists``).
- ``is_extendable_bruteforce``: exhaustive perfect-matching search on
  G - V(M) (against ``matching.is_extendable``).
- ``vertex_connectivity_bruteforce``: subset enumeration (against
  ``graphs.vertex_connectivity_flow``).
- ``representativity_bruteforce``: every cycle of the radial graph
  (against ``surface.representativity``).
- ``odd_regions_by_face_merge``: every connected face subset (against
  ``structures.find_odd_weighted_regions``).
"""

from __future__ import annotations

from itertools import combinations

from .errors import NotProjectivePlane
from .generator import _SEP, _joined_key, _prefix, _vertex_components
from .graphs import component_masks
from .matching import Matching, _check_matching
from .structures import OddWeightedRegion, _host_embedding, canonical_walk
from .surface import EmbeddedGraph, radial_corners, region_decompose


def _oracle_encoding(srs, start_dart, start_side):
    """Unpacked BFS encoding from one start state, without early exit."""
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
        enc.append(_SEP)
    return tuple(enc)


def canonical_key_oracle(g) -> str:
    """Brute-force reference for ``canonical_key``: every component's
    minimum encoding over all of its darts and both sides, each encoded in
    full.  Decides the same classes as ``canonical_key``; the strings agree
    wherever ``canonical_key`` itself starts from every dart."""
    srs = g.srs if isinstance(g, EmbeddedGraph) else g
    n = srs.vertex_count
    prefix = _prefix(srs)
    if srs.edge_count == 0:
        return prefix + f"iso{n}"
    isolated = 0
    parts = []
    for comp in _vertex_components(srs):
        darts = [d for v in comp for d in srs.rotations[v]]
        if not darts:
            isolated += len(comp)
            continue
        enc = min(_oracle_encoding(srs, d, side)
                  for d in darts for side in (1, -1))
        parts.append(",".join(map(str, enc)))
    return _joined_key(prefix, parts, isolated)


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


def odd_regions_by_face_merge(inst, max_boundary_len):
    """Independent oracle: merge every connected face subset of Q(G) and
    keep 2-cell regions with odd interiors and short boundaries."""
    emb = _host_embedding(inst)
    nf = emb.face_count
    ef = emb.edge_faces()
    face_adj = [set() for _ in range(nf)]
    for e in range(emb.edge_count):
        f1, f2 = ef[e]
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
            dec = region_decompose(emb, set(boundary))
            for region in dec.regions:
                if set(region.face_ids) != sub or not region.is_two_cell:
                    continue
                bw = region.boundary_walks[0]
                if bw.length > max_boundary_len:
                    continue
                if len(region.interior_vertices) % 2 == 1:
                    walk = canonical_walk(bw.vertices)
                    results[walk] = OddWeightedRegion(
                        boundary_walk=walk,
                        interior_vertex_count=len(region.interior_vertices),
                        boundary_is_cycle=len(set(walk)) == len(walk),
                        interior_vertices=region.interior_vertices,
                        face_ids=region.face_ids,
                    )
    return [results[w] for w in sorted(results)]
