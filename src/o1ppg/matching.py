"""Matchings, extendability, blocker sets, and the Hamiltonian-path
construction of perfect matchings through a given edge."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import _kernels
from .errors import (NoBlockerFound, NoHamPath, OddOrder,
                     SearchBudgetExceeded, TooSmall)
from .graphs import (adjacency_masks, is_connected_mask,
                     odd_even_components, vertex_connectivity_flow)

#: Diagonal selections ``spanning_triangulation`` may try, the first
#: included, before it raises SearchBudgetExceeded.
TRIANGULATION_SELECTION_BUDGET = 1 << 12
#: DFS nodes one ``hamiltonian_path`` search may visit before it raises
#: SearchBudgetExceeded.
HAMILTONIAN_PATH_NODE_BUDGET = 1 << 20


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges of an instance, by edge id."""

    edges: frozenset

    @property
    def k(self):
        return len(self.edges)

    def vertex_set(self, inst):
        out = set()
        for e in self.edges:
            u, v = inst.edges[e]
            out.add(u)
            out.add(v)
        return out

    def sorted_pairs(self, inst):
        return sorted(inst.sorted_edge(e) for e in self.edges)


@dataclass(frozen=True)
class BlockerSet:
    S: frozenset
    k: int
    odd_components: int
    even_components: int


def maximum_matching(adj):
    """Maximum-cardinality matching of a general graph (Edmonds blossom).

    ``adj`` is a list of neighbor iterables; returns a list of vertex pairs.
    """
    n = len(adj)
    nbr = [sorted(set(ws)) for ws in adj]
    match = [-1] * n
    parent = [0] * n
    base = [0] * n
    in_queue = [False] * n
    in_blossom = [False] * n

    def lca(u, v):
        used = [False] * n
        a = u
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        b = v
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(u, anchor, child):
        while base[u] != anchor:
            in_blossom[base[u]] = True
            in_blossom[base[match[u]]] = True
            parent[u] = child
            child = match[u]
            u = parent[match[u]]

    def find_augmenting(root):
        nonlocal match
        for i in range(n):
            parent[i] = -1
            base[i] = i
            in_queue[i] = False
        queue = [root]
        in_queue[root] = True
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for v in nbr[u]:
                if base[u] == base[v] or match[u] == v:
                    continue
                if v == root or (match[v] != -1 and parent[match[v]] != -1):
                    # odd cycle: contract the blossom
                    anchor = lca(u, v)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(u, anchor, v)
                    mark_path(v, anchor, u)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = anchor
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[v] == -1:
                    parent[v] = u
                    if match[v] == -1:
                        # augment along the alternating path
                        while v != -1:
                            pv = parent[v]
                            ppv = match[pv]
                            match[v] = pv
                            match[pv] = v
                            v = ppv
                        return True
                    if not in_queue[match[v]]:
                        in_queue[match[v]] = True
                        queue.append(match[v])
        return False

    for v in range(n):
        if match[v] == -1:
            find_augmenting(v)
    return sorted({tuple(sorted((v, match[v])))
                   for v in range(n) if match[v] != -1})


def maximum_matching_instance(inst) -> Matching:
    pairs = maximum_matching([_mask_iter(m) for m in inst.adj])
    return Matching(frozenset(inst.edge_id(u, v) for (u, v) in pairs))


def _mask_iter(mask):
    out = []
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        out.append(v)
    return out


def _check_matching(inst, m: Matching):
    seen = set()
    for e in m.edges:
        u, v = inst.edges[e]
        if u in seen or v in seen:
            raise ValueError("edge set is not a matching")
        seen.add(u)
        seen.add(v)
    return seen


def is_extendable(inst, m: Matching) -> bool:
    """True iff the instance has a perfect matching containing ``m``,
    i.e. G - V(M) has a perfect matching."""
    if inst.n % 2:
        raise OddOrder("extendability needs an even order")
    covered = _check_matching(inst, m)
    alive = ((1 << inst.n) - 1)
    for v in covered:
        alive ^= 1 << v
    return _kernels.pm_exists(inst.adj, alive)


def matchings_of_size(inst, k):
    """All k-matchings in lexicographic order on sorted edge-id tuples."""
    for combo in combinations(range(inst.edge_count), k):
        used = 0
        ok = True
        for e in combo:
            u, v = inst.edges[e]
            bits = (1 << u) | (1 << v)
            if used & bits:
                ok = False
                break
            used |= bits
        if ok:
            yield Matching(frozenset(combo))


def k_extendability(inst, k):
    """Sweep every k-matching; returns (True, None) or (False, witness)."""
    if inst.n % 2:
        raise OddOrder("extendability needs an even order")
    if inst.n < 2 * k + 2:
        raise TooSmall(f"k-extendability needs n >= {2 * k + 2}")
    for m in matchings_of_size(inst, k):
        if not is_extendable(inst, m):
            return False, m
    return True, None


def find_blocker(inst, m: Matching, k: int) -> BlockerSet:
    """Smallest S containing V(M) with |S| = C_o(G-S) + 2k.

    Preconditions (checked where cheap): |m| = k+1 and m not extendable.
    Search is breadth-first over superset sizes, capped at |V(m)| + 6.
    """
    if m.k != k + 1:
        raise NoBlockerFound(f"matching size {m.k} != k+1 = {k + 1}")
    if is_extendable(inst, m):
        raise NoBlockerFound("matching is extendable; no blocker exists")
    vm = sorted(m.vertex_set(inst))
    base_mask = 0
    for v in vm:
        base_mask |= 1 << v
    others = [v for v in range(inst.n) if v not in set(vm)]
    full = (1 << inst.n) - 1
    for size in range(len(vm), len(vm) + 7):
        extra = size - len(vm)
        if extra > len(others):
            break
        for combo in combinations(others, extra):
            mask = base_mask
            for v in combo:
                mask |= 1 << v
            odd, even = odd_even_components(inst.adj, full & ~mask)
            if size == odd + 2 * k:
                return BlockerSet(
                    S=frozenset(vm) | frozenset(combo),
                    k=k, odd_components=odd, even_components=even)
    raise NoBlockerFound(
        f"no blocker within cap for k={k}; precondition violation or "
        "counterexample")


def spanning_triangulation(inst):
    """Quadrangulation plus one diagonal per face, 4-connected.

    Takes the lexicographically smaller diagonal per face and verifies
    4-connectivity; if that fails, searches diagonal selections
    exhaustively (a 4-connected selection exists by the theory this
    library audits), trying at most ``TRIANGULATION_SELECTION_BUDGET``.

    The result depends only on the instance, so the first call stores it
    on the instance and later calls return it; both parts are tuples,
    since every caller shares them.
    """
    if inst._spanning_triangulation is not None:
        return inst._spanning_triangulation
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
            inst._spanning_triangulation = (tuple(adj), tuple(edges))
            return inst._spanning_triangulation
    raise NoHamPath("no 4-connected spanning triangulation found")


def hamiltonian_path(n, adj, s, t):
    """A Hamiltonian s-t path by DFS with a connectivity prune, or None.

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


def matching_via_hamiltonian_path(inst, e) -> Matching:
    """Perfect matching containing edge ``e``, built from a Hamiltonian path
    in a 4-connected spanning triangulation."""
    if inst.n % 2:
        raise OddOrder("perfect matchings need an even order")
    u, v = inst.edges[e]
    adj, _edges = spanning_triangulation(inst)
    path = hamiltonian_path(inst.n, adj, u, v)
    if path is None:
        raise NoHamPath(
            f"no Hamiltonian {u}-{v} path in the spanning triangulation")
    pairs = [(path[i], path[i + 1]) for i in range(1, inst.n - 2, 2)]
    pairs.append((path[-1], path[0]))
    ids = frozenset(inst.edge_id(a, b) for (a, b) in pairs)
    m = Matching(ids)
    assert e in ids and m.k == inst.n // 2
    _check_matching(inst, m)
    return m
