"""Matchings, extendability, blocker sets, and the Hamiltonian-path
construction of perfect matchings through a given edge.

Every question about which k-matchings extend reads a ``matching_sweep``
of the instance and k that the caller passes in: ``is_extendable`` for
one matching (T1.3's single edges, T1.4's barrier matchings,
``find_blocker``'s precondition), ``k_extendability`` for all of them,
and Theorem 1.6's certificates in ``structures.sweep_three_matchings``.
Every sweep reads one ``perfect_matching_table`` of the instance: a
bitset over the 2^n vertex masks, built from the top vertex down by one
shift per edge on one Python int, and the counts of the masks of at most
six vertices, built from the (k-1)-matchings by adding an edge below
them.  Nothing here is stored on the instance: the audit
(``verify._InstanceAudit``) owns the table, one sweep per k, T1.3's
spanning triangulation and the Hamiltonian cycles found in it, and drops
them with itself."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .errors import (NoBlockerFound, NoHamPath, OddOrder,
                     SearchBudgetExceeded, TooLarge, TooSmall)
from .graphs import (adjacency_masks, enumerate_cycles, is_connected_mask,
                     mask_vertices, odd_even_components,
                     vertex_connectivity_flow, vertex_mask)
from .surface import _sign_product

#: Diagonal picks ``spanning_triangulation`` may try, one per face and
#: choice, before it raises SearchBudgetExceeded.
TRIANGULATION_NODE_BUDGET = 1 << 12
#: DFS nodes one ``hamiltonian_path`` search may visit before it raises
#: SearchBudgetExceeded.
HAMILTONIAN_PATH_NODE_BUDGET = 1 << 20
#: Largest order ``perfect_matching_table`` builds a table for: 2^24
#: bits, 2 MB, in about 0.5 s on one core at average degree 8, with a
#: tracemalloc peak of about 11 MB; above it, TooLarge.
PM_TABLE_MAX_N = 24
#: ``matching_sweep`` covers the k-matchings for k <= SWEEP_K_MAX.
SWEEP_K_MAX = 3


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


def _check_matching(inst, m: Matching):
    seen = set()
    for e in m.edges:
        u, v = inst.edges[e]
        if u in seen or v in seen:
            raise ValueError("edge set is not a matching")
        seen.add(u)
        seen.add(v)
    return seen


def is_extendable(inst, m: Matching, sweep) -> bool:
    """True iff the instance has a perfect matching containing ``m``,
    i.e. G - V(M) has a perfect matching: read off ``sweep``, the
    instance's ``matching_sweep`` of ``m.k``-matchings."""
    if sweep.k != m.k:
        raise ValueError(f"a {m.k}-matching read off a {sweep.k}-sweep")
    covered = _check_matching(inst, m)
    return vertex_mask(covered) not in sweep.blocked


class PerfectMatchingTable(NamedTuple):
    """Which vertex subsets of a graph have a perfect matching."""

    covered: tuple          # [k]: {2k-vertex mask: number of its PMs}
    perfect: bytes          # bit m & 7 of byte m >> 3: 1 iff mask m has a PM


def _clear_bits(size, w):
    """The bitset, ``size`` bytes long, of the masks without vertex ``w``:
    a byte pattern repeated, bits 0, 2, 4, 6 (0x55), bits 0, 1, 4, 5
    (0x33) or bits 0-3 (0x0F) of every byte for w < 3, else 2^(w-3) bytes
    of 0xFF then as many of 0x00.  Built per use: all n of them at once
    would hold n times the table."""
    if w < 3:
        pattern = (b"\x55", b"\x33", b"\x0f")[w]
    else:
        half = 1 << (w - 3)
        pattern = b"\xff" * half + b"\x00" * half
    return int.from_bytes(pattern * (size // len(pattern)), "little")


def perfect_matching_table(n, adj):
    """The ``PerfectMatchingTable`` of the graph with neighbour masks
    ``adj`` on ``n`` vertices, counting for k <= ``SWEEP_K_MAX``.
    ``o1ppg.oracles.pm_exists_by_memo`` is the top-down reference.

    A perfect matching of a subset pairs its least vertex v with a
    neighbour w above it and matches the rest, a subset above v.  So the
    masks are one int used as a bitset, P, built in one pass from the top
    vertex down: before step v it holds exactly the perfect-matching masks
    whose least vertex is above v, none of which holds v, and step v adds,
    for each neighbour w > v, the masks of P without w shifted by
    2^v + 2^w, which sets both bits.  The counts are a second pass over the
    few small masks: each k-matching is built once from its (k-1)-matching
    on the larger vertices, by adding an edge whose lower end is below
    every vertex it covers.

    Raises TooLarge, before it allocates, when ``n`` exceeds
    ``PM_TABLE_MAX_N``.
    """
    size = max(1, (1 << n) >> 3)      # bytes
    if n > PM_TABLE_MAX_N:
        raise TooLarge(
            f"a perfect-matching table on {n} vertices takes 2^{n} bits, "
            f"{size} bytes, above the bound of {PM_TABLE_MAX_N} vertices "
            f"(PM_TABLE_MAX_N); 24 vertices take 2^24 bits, 2 MB, and "
            f"about 0.5 s")
    perfect = 1
    up = [[w for w in mask_vertices(adj[v]) if w > v] for v in range(n)]
    for v in range(n - 1, -1, -1):
        step = 0
        for w in up[v]:
            step |= (perfect & _clear_bits(size, w)) << ((1 << v) + (1 << w))
        perfect |= step
    # below[a]: the pair masks of the edges whose lower end is below a
    below = [[]]
    for v in range(n):
        below.append(below[-1] + [(1 << v) | (1 << w) for w in up[v]])
    covered = [{0: 1}]
    for _k in range(SWEEP_K_MAX):
        counts = {}
        for mask, count in covered[-1].items():
            low = (mask & -mask).bit_length() - 1 if mask else n
            for pair in below[low]:
                if not pair & mask:
                    grown = mask | pair
                    counts[grown] = counts.get(grown, 0) + count
        covered.append(counts)
    return PerfectMatchingTable(tuple(covered),
                                perfect.to_bytes(size, "little"))


def mask_matchings(inst, mask):
    """The sorted edge-id tuples of the matchings covering exactly the
    vertices of ``mask``: the perfect matchings of the subgraph it
    induces, in no particular order."""
    if not mask:
        return [()]
    low = mask & -mask
    v = low.bit_length() - 1
    out = []
    m = inst.adj[v] & mask
    while m:
        w = m & -m
        m ^= w
        e = inst.edge_id(v, w.bit_length() - 1)
        out.extend(tuple(sorted((e, *rest)))
                   for rest in mask_matchings(inst, mask ^ low ^ w))
    return out


class MatchingSweep(NamedTuple):
    """Every k-matching of an instance, grouped by the vertices it covers."""

    k: int
    covered: dict           # covered mask -> number of k-matchings on it
    blocked: frozenset      # the covered masks whose complement has no PM
    nonextendable: list     # sorted edge-id tuples, ascending


def matching_sweep(inst, k, table) -> MatchingSweep:
    """The k-matchings of the even-order instance by covered mask, and the
    ones that do not extend, for k <= ``SWEEP_K_MAX``.

    A matching M extends iff G - V(M) has a perfect matching (Plummer, "On
    n-extendable graphs", 1980), so extendability depends on V(M) alone:
    each covered mask of ``table``, the instance's
    ``perfect_matching_table``, is decided by the table's entry for its
    complement, and only the masks that fail are expanded into their
    matchings (``mask_matchings``).
    ``o1ppg.oracles.k_extendability_in_order`` is the ordered reference.
    """
    if inst.n % 2:
        raise OddOrder("extendability needs an even order")
    if k > SWEEP_K_MAX:
        raise ValueError(f"sweeps cover k <= {SWEEP_K_MAX}, not {k}")
    covered = table.covered[k]
    perfect, full = table.perfect, (1 << inst.n) - 1
    blocked = frozenset(vm for vm in covered
                        if not perfect[(rest := full ^ vm) >> 3]
                        >> (rest & 7) & 1)
    nonextendable = sorted(combo for vm in blocked
                           for combo in mask_matchings(inst, vm))
    return MatchingSweep(k, covered, blocked, nonextendable)


def k_extendability(inst, sweep):
    """(True, None) if every k-matching extends to a perfect matching, else
    (False, the least non-extendable k-matching by sorted edge ids), for
    the k of ``sweep``, the instance's ``matching_sweep``."""
    if inst.n < 2 * sweep.k + 2:
        raise TooSmall(f"k-extendability needs n >= {2 * sweep.k + 2}")
    nonextendable = sweep.nonextendable
    if nonextendable:
        return False, Matching(frozenset(nonextendable[0]))
    return True, None


def find_blocker(inst, m: Matching, k: int, sweep) -> BlockerSet:
    """Smallest S containing V(M) with |S| = C_o(G-S) + 2k.

    Preconditions (checked where cheap): |m| = k+1 and m not extendable,
    read off ``sweep``, the instance's ``matching_sweep`` of
    (k+1)-matchings.  Search is breadth-first over superset sizes, capped
    at |V(m)| + 6.
    """
    if m.k != k + 1:
        raise NoBlockerFound(f"matching size {m.k} != k+1 = {k + 1}")
    if is_extendable(inst, m, sweep):
        raise NoBlockerFound("matching is extendable; no blocker exists")
    vm = sorted(m.vertex_set(inst))
    base_mask = vertex_mask(vm)
    full = (1 << inst.n) - 1
    others = mask_vertices(full ^ base_mask)
    for size in range(len(vm), len(vm) + 7):
        extra = size - len(vm)
        if extra > len(others):
            break
        for combo in combinations(others, extra):
            mask = base_mask | vertex_mask(combo)
            odd, even = odd_even_components(inst.adj, full & ~mask)
            if size == odd + 2 * k:
                return BlockerSet(
                    S=frozenset(vm) | frozenset(combo),
                    k=k, odd_components=odd, even_components=even)
    raise NoBlockerFound(
        f"no blocker within cap for k={k}; precondition violation or "
        "counterexample")


def _triangle_clauses(inst, choices):
    """The selections that leave a contractible 3-cycle non-facial.

    ``choices[f]`` is the pair of diagonals of face ``f``, each a sorted
    vertex pair, in the order of the selection bit that picks it.  Every
    3-cycle of the instance that uses a diagonal and has sign product +1
    gives one clause: the tuple of ``(face, bit)`` picks that together
    put all of its diagonals into the triangulation.  A diagonal is read
    as the two-edge path through its face, which is homotopic to it, so
    the product says whether the 3-cycle is contractible in P^2.  A
    3-cycle made of one diagonal and the rest of that diagonal's face
    bounds a face of the triangulation and gives no clause.  A 3-cycle
    of quadrangulation edges alone is one-sided, since a contractible
    cycle bounds a disc of quadrangles and so has even length; every
    clause therefore holds at least one pick.
    """
    srs = inst.quad.embedding.srs
    faces = inst.quad.embedding.faces
    eq = inst.q_edge_count
    pick = {}            # diagonal edge id -> (face, bit, path sign)
    for f, face in enumerate(faces):
        a, b, c, d = face.vertices
        for j, (p, x, q) in enumerate(((a, b, c), (b, c, d))):
            # a quadrangulation edge has the same id in the instance
            path = (inst.edge_id(p, x), inst.edge_id(x, q))
            bit = choices[f].index((p, q) if p < q else (q, p))
            pick[eq + 2 * f + j] = (f, bit, _sign_product(srs, path))
    clauses = []
    for u, v, w in enumerate_cycles(inst.n, inst.adj, 3):
        sign, lits = 1, []
        for e in (inst.edge_id(u, v), inst.edge_id(v, w),
                  inst.edge_id(w, u)):
            if e < eq:
                sign *= srs.edges[e][2]
            else:
                f, bit, s = pick[e]
                sign *= s
                lits.append((f, bit))
        if sign != 1:
            continue
        if len(lits) == 1:
            f = lits[0][0]
            if {u, v, w} <= set(faces[f].vertices):
                continue          # half of a quadrangle: a face
        clauses.append(tuple(lits))
    return clauses


def spanning_triangulation(inst):
    """Quadrangulation plus one diagonal per face, 4-connected.

    A triangulation of P^2 on at least five vertices is 4-connected iff
    each of its contractible 3-cycles bounds a face (Mohar & Thomassen,
    *Graphs on Surfaces*, 2001); a contractible 3-cycle that bounds no
    face is a 3-cut.  So every 4-connected selection avoids the clauses of
    ``_triangle_clauses``, and the search backtracks over them, deciding
    the faces from the last to the first and trying each face's
    lexicographically smaller diagonal first.  Each leaf is confirmed by
    one 4-connectivity flow; the first confirmed one is the least
    4-connected selection in binary order (face 0 the low bit), the one
    ``o1ppg.oracles.spanning_triangulation_by_selections`` finds by
    trying every selection in turn.  An exhausted search raises
    NoHamPath; one that tries more than
    ``TRIANGULATION_NODE_BUDGET`` diagonal picks raises
    SearchBudgetExceeded.  Both parts of the result are tuples, since
    T1.3 shares one with every ``matching_via_hamiltonian_path`` call.
    """
    emb = inst.quad.embedding
    q_edges = [(u, v) for (u, v, _s) in emb.srs.edges]
    choices = []
    for f in emb.faces:
        a, b, c, d = f.vertices
        choices.append(sorted((tuple(sorted((a, c))),
                               tuple(sorted((b, d))))))
    nf = len(choices)
    # each clause is checked when its least face, the last of its faces
    # that the search decides, gets its bit
    checks = [[] for _ in range(nf)]
    for clause in _triangle_clauses(inst, choices):
        checks[min(f for f, _bit in clause)].append(clause)
    n = inst.n
    budget = TRIANGULATION_NODE_BUDGET
    bits = [0] * nf
    nodes = 0

    def violated(f):
        return any(all(bits[g] == bit for g, bit in clause)
                   for clause in checks[f])

    def search(f):
        nonlocal nodes
        if f < 0:
            edges = q_edges + [choice[bit]
                               for choice, bit in zip(choices, bits)]
            adj = adjacency_masks(n, edges)
            if vertex_connectivity_flow(n, adj, 4) >= 4:
                return tuple(adj), tuple(edges)
            return None
        for bit in (0, 1):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    "spanning-triangulation search tried more than "
                    f"{budget} diagonal picks (TRIANGULATION_NODE_BUDGET)")
            bits[f] = bit
            if not violated(f):
                found = search(f - 1)
                if found is not None:
                    return found
        return None

    found = search(nf - 1)
    if found is None:
        raise NoHamPath("no 4-connected spanning triangulation exists")
    return found


def hamiltonian_path(n, adj, s, t):
    """A Hamiltonian s-t path by DFS, or None.

    A node is pruned when some unvisited vertex other than t has fewer
    than two neighbours among the unvisited vertices and the current one
    (a path through it enters and leaves it), or when those vertices do
    not induce a connected graph.  Neighbours with the fewest unvisited
    neighbours are tried first (Warnsdorff's rule), ties in vertex order.
    ``o1ppg.oracles.hamiltonian_path_by_plain_dfs`` is the reference, a
    DFS in vertex order with the connectivity prune alone.

    Raises SearchBudgetExceeded once the DFS has visited more than
    ``HAMILTONIAN_PATH_NODE_BUDGET`` nodes.
    """
    budget = HAMILTONIAN_PATH_NODE_BUDGET
    nodes = 0
    tbit = 1 << t

    def dfs(v, rest, path):
        # rest: the vertices not on the path
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"Hamiltonian {s}-{t} path search visited more than "
                f"{budget} DFS nodes (HAMILTONIAN_PATH_NODE_BUDGET)")
        if not rest:
            return path if v == t else None
        live = rest | (1 << v)
        m = rest & ~tbit
        while m:
            x = m & -m
            m ^= x
            nb = adj[x.bit_length() - 1] & live
            if not nb & (nb - 1):
                return None         # fewer than two neighbours left
        if not is_connected_mask(adj, live):
            return None
        m = adj[v] & rest
        if rest != tbit:
            m &= ~tbit              # t ends the path, so it comes last
        cands = []
        while m:
            x = m & -m
            m ^= x
            w = x.bit_length() - 1
            cands.append(((adj[w] & rest).bit_count(), w))
        cands.sort()
        for _k, w in cands:
            got = dfs(w, rest & ~(1 << w), path + [w])
            if got is not None:
                return got
        return None

    return dfs(s, ((1 << n) - 1) & ~(1 << s), [s])


def matching_via_hamiltonian_path(inst, e, triangulation, cycles) -> Matching:
    """Perfect matching containing edge ``e`` = uv: e and every other edge
    of a Hamiltonian u-v path in ``triangulation``, the instance's
    ``spanning_triangulation``, from the path's second edge on.

    ``cycles``, kept by the caller for one triangulation, maps each edge
    {a, b} of the Hamiltonian cycles found so far to the first; uv's path
    is that cycle cut at uv.  Other edges take a ``hamiltonian_path``
    search, whose path joins ``cycles`` when uv closes it to a cycle.
    The result is not checked here: T1.3's audit (``verify.check_T13``)
    tests that it is a perfect matching through e.  A path pair that is
    not an edge of the instance is left out, so a path that leaves G
    gives a matching too small for that test instead of a lookup error."""
    if inst.n % 2:
        raise OddOrder("perfect matchings need an even order")
    u, v = inst.edges[e]
    adj, _edges = triangulation
    cycle = cycles.get(frozenset((u, v)))
    if cycle is not None:
        i = cycle.index(u)
        path = (cycle[i:] + cycle[:i] if cycle[i - 1] == v
                else cycle[i::-1] + cycle[:i:-1])
    else:
        path = hamiltonian_path(inst.n, adj, u, v)
        if path is None:
            raise NoHamPath(
                f"no Hamiltonian {u}-{v} path in the spanning triangulation")
        if adj[u] >> v & 1:
            for a, b in zip(path, path[1:] + path[:1]):
                cycles.setdefault(frozenset((a, b)), path)
    pairs = [(path[i], path[i + 1]) for i in range(1, inst.n - 2, 2)]
    pairs.append((path[-1], path[0]))
    return Matching(frozenset(inst.edge_id(a, b) for (a, b) in pairs
                              if inst.adj[a] >> b & 1))
