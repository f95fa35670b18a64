"""Small-graph helpers shared across modules.

Vertex sets are bitmasks (desk scale, n <= 20 or so); adjacency is a list of
neighbor masks indexed by vertex.
"""

from __future__ import annotations


def vertex_mask(vertices):
    """The bitmask of ``vertices``."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_vertices(mask):
    """The vertices of ``mask``, ascending."""
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def adjacency_masks(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def component_masks(adj, alive):
    """Connected components of the induced subgraph on ``alive``."""
    comps = []
    rest = alive
    while rest:
        seed = rest & (-rest)
        comp = seed
        frontier = seed
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier ^= 1 << v
            new = adj[v] & alive & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        rest &= ~comp
    return comps


def is_connected_mask(adj, alive):
    if alive == 0:
        return True
    seed = alive & (-alive)
    comp = seed
    frontier = seed
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier ^= 1 << v
        new = adj[v] & alive & ~comp
        comp |= new
        frontier |= new
    return comp == alive


def odd_even_components(adj, alive):
    odd = even = 0
    for comp in component_masks(adj, alive):
        if comp.bit_count() & 1:
            odd += 1
        else:
            even += 1
    return odd, even


def vertex_connectivity_flow(n, adj, cap):
    """Vertex connectivity via max vertex-disjoint paths, truncated at cap.

    Splits every vertex into in/out nodes with unit capacity and runs BFS
    augmentation on one network, over the pairs Esfahanian and Hakimi
    showed suffice ("On computing the connectivities of graphs and
    digraphs", Networks 14, 1984).  Take a vertex v of least degree.  A
    least separator S either misses v, and then cuts v from some w outside
    N[v], or contains v, and then (being least) leaves two neighbours of v
    in different components, which are not adjacent.  So the pairs (v, w)
    with w not in N[v], and the non-adjacent pairs inside N(v), give the
    minimum over all non-adjacent pairs.  A complete graph has none and
    gets n - 1.
    """
    if n <= 1:
        return 0
    deg = [m.bit_count() for m in adj]
    low = deg.index(min(deg))
    near = adj[low] | (1 << low)
    pairs = [(low, w) for w in range(n) if not (near >> w) & 1]
    nbrs = [x for x in range(n) if (adj[low] >> x) & 1]
    pairs += [(x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1:]
              if not (adj[x] >> y) & 1]
    if not pairs:
        return min(cap, n - 1)
    # node 2v = v_in, 2v+1 = v_out; arc i runs to head[i], arc i ^ 1 is its
    # reverse, and out[x] lists the arcs leaving node x.  Arc 2v is
    # v_in -> v_out; every edge uv gives u_out -> v_in and v_out -> u_in.
    head = []
    out = [[] for _ in range(2 * n)]
    for v in range(n):
        out[2 * v].append(2 * v)
        out[2 * v + 1].append(2 * v + 1)
        head += (2 * v + 1, 2 * v)
    for u in range(n):
        m = adj[u]
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            out[2 * u + 1].append(len(head))
            out[2 * v].append(len(head) + 1)
            head += (2 * v, 2 * u + 1)
    best = cap
    for s, t in pairs:
        best = min(best, _max_vertex_disjoint(head, out, s, t, best))
        if best == 0:
            break
    return best


def _max_vertex_disjoint(head, out, s, t, limit):
    # Every arc has capacity 1 and its reverse 0.  Paths run from s_out to
    # t_in, so the split arcs of s and t never carry flow.
    nn = len(out)
    cap = [1, 0] * (len(head) // 2)
    src, dst = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        via = [-1] * nn   # arc that first reached each node
        via[src] = nn
        queue = [src]
        for x in queue:
            for i in out[x]:
                y = head[i]
                if via[y] == -1 and cap[i]:
                    via[y] = i
                    queue.append(y)
            if via[dst] != -1:
                break
        if via[dst] == -1:
            break
        x = dst
        while x != src:
            i = via[x]
            cap[i] -= 1
            cap[i ^ 1] += 1
            x = head[i ^ 1]
        flow += 1
    return flow


def enumerate_cycles(n, adj, max_len, neg=None):
    """All cycles of length <= max_len, as vertex tuples; given ``neg``,
    per vertex the mask of its neighbours across negative edges, as
    ``(cycle, sign)`` pairs, ``sign`` the product of the cycle's edge
    signs (the search carries the parity of the negative edges it walks).

    Each cycle appears once, rooted at its smallest vertex with its second
    vertex smaller than its last (canonical direction).
    """
    signed = neg is not None
    if not signed:
        neg = [0] * n
    cycles = []
    for root in range(n):
        above = -2 << root          # the vertices after the root
        closes = adj[root]          # a path ending here closes a cycle
        back = neg[root]            # ... across a negative edge
        stack = [(root, 1 << root, (root,), 0)]
        while stack:
            v, visited, path, odd = stack.pop()
            size = len(path)
            if size >= 3 and (closes >> v) & 1 and path[1] < path[-1]:
                if signed:
                    cycles.append((path, -1 if odd ^ back >> v & 1 else 1))
                else:
                    cycles.append(path)
            if size >= max_len:
                continue
            m = adj[v] & above & ~visited
            if size == max_len - 1:
                m &= closes         # the next vertex must close the cycle
            flips = neg[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                stack.append((w, visited | (1 << w), path + (w,),
                              odd ^ flips >> w & 1))
    return cycles


def is_bipartite(n, adj):
    color = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            x = queue.pop()
            m = adj[x]
            while m:
                y = (m & -m).bit_length() - 1
                m &= m - 1
                if color[y] == -1:
                    color[y] = color[x] ^ 1
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True
