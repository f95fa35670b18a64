"""Embeddings of graphs on closed surfaces via signed rotation systems.

A signed rotation system stores, for every vertex, the cyclic order of its
incident edge ends (darts) together with a sign per edge.  Sign -1 means the
local orientations at the two endpoints disagree across that edge, which is
what encodes nonorientable surfaces.  Dart ``2*e`` is the end of edge ``e`` at
its first endpoint, dart ``2*e + 1`` the end at its second.

Face tracing works on states ``(dart, side)``: travel along the dart's edge
away from the dart's vertex, carrying a handedness that flips across negative
edges.  Each face is traced by exactly two orbits (one per direction); the
reverse of a state ``(d, s)`` on edge ``e`` is ``(d ^ 1, -s * sign(e))``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    Disconnected,
    EmptySubgraph,
    MalformedRotation,
    NotACycle,
    NotProjectivePlane,
)


def dart_str(d: int) -> str:
    return f"{d >> 1}{'ab'[d & 1]}"


class SignedRotationSystem:
    """Graph plus cyclic dart orders and edge signs.

    ``edges[i] = (u, v, sign)``; ``rotations[v]`` lists the darts at ``v`` in
    cyclic order.  Loops and multi-edges are legal here (the generator's
    search space passes through them); model validation rejects them.
    """

    __slots__ = ("vertex_count", "edges", "rotations", "_dart_vertex",
                 "_rot_next", "_rot_prev")

    def __init__(self, vertex_count, edges, rotations, check=True):
        self.vertex_count = vertex_count
        self.edges = list(map(tuple, edges))   # shares tuple edges, no copy
        self.rotations = [list(r) for r in rotations]
        self._build_tables()
        if check:
            self._validate()

    def _build_tables(self):
        nd = 2 * len(self.edges)
        dv = [-1] * nd
        dv[0::2] = [u for (u, _v, _s) in self.edges]
        dv[1::2] = [v for (_u, v, _s) in self.edges]
        nxt = [-1] * nd
        prv = [-1] * nd
        for rot in self.rotations:
            if rot:
                d0 = rot[-1]
                for d in rot:
                    nxt[d0] = d
                    prv[d] = d0
                    d0 = d
        self._dart_vertex = dv
        self._rot_next = nxt
        self._rot_prev = prv

    def _validate(self):
        ne = len(self.edges)
        seen = [0] * (2 * ne)
        for v, rot in enumerate(self.rotations):
            for d in rot:
                if not 0 <= d < 2 * ne:
                    raise MalformedRotation(f"dart {d} out of range")
                if self._dart_vertex[d] != v:
                    raise MalformedRotation(
                        f"dart {dart_str(d)} listed at vertex {v}, "
                        f"belongs to {self._dart_vertex[d]}")
                seen[d] += 1
        for d, c in enumerate(seen):
            if c != 1:
                raise MalformedRotation(
                    f"dart {dart_str(d)} appears {c} times in rotations")
        for u, v, s in self.edges:
            if s not in (1, -1):
                raise MalformedRotation(f"edge sign {s} not in {{+1,-1}}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise MalformedRotation("edge endpoint out of range")

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    def dart_vertex(self, d):
        return self._dart_vertex[d]

    def sign(self, e):
        return self.edges[e][2]

    def degree(self, v):
        return len(self.rotations[v])

    def endpoints(self, e):
        u, v, _ = self.edges[e]
        return u, v

    def is_simple(self):
        seen = set()
        for u, v, _ in self.edges:
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def adjacency(self):
        """Neighbor lists (vertex ids, one entry per incident edge)."""
        adj = [[] for _ in range(self.vertex_count)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def is_connected(self):
        n = self.vertex_count
        if n == 0:
            return True
        adj = self.adjacency()
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    queue.append(y)
        return count == n

    def copy(self):
        return SignedRotationSystem(
            self.vertex_count, self.edges, self.rotations, check=False)


@dataclass(frozen=True)
class FaceWalk:
    """One traced face boundary: ``boundary[i]`` is the dart whose edge the
    walk traverses at step i, leaving that dart's vertex."""

    boundary: tuple          # darts, in walk order
    sides: tuple             # handedness per step (the state's side)
    length: int
    is_cycle: bool
    vertices: tuple          # vertex visited at each step (tail of each dart)

    def edge_ids(self):
        return tuple(d >> 1 for d in self.boundary)


def _state_step(srs, dart, side):
    """One face-tracing transition; returns (next_dart, next_side)."""
    s2 = side * srs.sign(dart >> 1)
    d2 = dart ^ 1
    nd = srs._rot_next[d2] if s2 > 0 else srs._rot_prev[d2]
    return nd, s2


def _state_reverse(srs, dart, side):
    return dart ^ 1, -side * srs.sign(dart >> 1)


def trace_faces(srs: SignedRotationSystem):
    """Trace all faces of the embedding, lowest unused dart-side first.

    Every edge side is traversed exactly once across the returned walks, so
    the total length is 2E.
    """
    ne = srs.edge_count
    used = [False] * (4 * ne)   # state id = 2*dart + (0 if side>0 else 1)
    faces = []
    for start in range(4 * ne):
        if used[start]:
            continue
        dart, side = start >> 1, 1 - 2 * (start & 1)
        walk = []
        sides = []
        d, s = dart, side
        while True:
            sid = 2 * d + (0 if s > 0 else 1)
            if used[sid]:
                raise MalformedRotation(
                    "face tracing revisited a state; rotations corrupt")
            used[sid] = True
            walk.append(d)
            sides.append(s)
            d, s = _state_step(srs, d, s)
            if (d, s) == (dart, side):
                break
        # mark the reverse orbit (the same face traced the other way)
        for d0, s0 in zip(walk, sides):
            rd, rs = _state_reverse(srs, d0, s0)
            used[2 * rd + (0 if rs > 0 else 1)] = True
        verts = tuple(srs.dart_vertex(d0) for d0 in walk)
        faces.append(FaceWalk(
            boundary=tuple(walk),
            sides=tuple(sides),
            length=len(walk),
            is_cycle=len(set(verts)) == len(verts),
            vertices=verts,
        ))
    total = sum(f.length for f in faces)
    if total != 2 * ne:
        raise MalformedRotation(
            f"face walks cover {total} sides, expected {2 * ne}")
    return faces


def _orientation_potentials(srs):
    """BFS vertex potentials mu with mu[root]=+1, mu[v]=mu[u]*sign(uv) along a
    spanning forest.  Returns (mu, orientable)."""
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
    return mu, orientable


class EmbeddedGraph:
    """A signed rotation system with its traced faces cached.

    Immutable after construction; all derived data is computed once.
    """

    def __init__(self, srs: SignedRotationSystem):
        self.srs = srs
        self.faces = trace_faces(srs)
        self._mu, self.orientable = _orientation_potentials(srs)
        self._state_face = None
        self._corner_face = None

    @property
    def vertex_count(self):
        return self.srs.vertex_count

    @property
    def edge_count(self):
        return self.srs.edge_count

    @property
    def face_count(self):
        return len(self.faces)

    @property
    def euler_char(self):
        return self.vertex_count - self.edge_count + self.face_count

    def is_p2(self):
        """2-cell embedded in the projective plane?"""
        return (self.euler_char == 1 and not self.orientable
                and self.srs.is_connected())

    def face_vector(self):
        return tuple(sorted(f.length for f in self.faces))

    # -- corners -----------------------------------------------------------

    def corner_face(self):
        """Map corner -> face index.

        The corner between dart ``a`` and ``rot_next(a)`` at their common
        vertex is keyed by ``a``.  Every corner belongs to exactly one face.
        """
        if self._corner_face is None:
            cf = {}
            for fi, f in enumerate(self.faces):
                for d, s in zip(f.boundary, f.sides):
                    d2 = d ^ 1
                    s2 = s * self.srs.sign(d >> 1)
                    corner = d2 if s2 > 0 else self.srs._rot_prev[d2]
                    if corner in cf:
                        raise MalformedRotation("corner traced twice")
                    cf[corner] = fi
            if len(cf) != 2 * self.edge_count:
                raise MalformedRotation("corner/face bookkeeping out of sync")
            self._corner_face = cf
        return self._corner_face

    def edge_faces(self):
        """Map edge -> list of incident face indices (two entries)."""
        ef = [[] for _ in range(self.edge_count)]
        for fi, f in enumerate(self.faces):
            for d in f.boundary:
                ef[d >> 1].append(fi)
        return ef

    def vertex_faces(self):
        """Map vertex -> set of incident face indices."""
        vf = [set() for _ in range(self.vertex_count)]
        cf = self.corner_face()
        for corner, fi in cf.items():
            vf[self.srs.dart_vertex(corner)].add(fi)
        return vf


def euler_and_orientability(g: EmbeddedGraph):
    """Euler characteristic and orientability of a connected embedding."""
    if not g.srs.is_connected():
        raise Disconnected("euler characteristic needs a connected graph")
    return g.euler_char, g.orientable


def _cycle_edges(srs, cycle):
    """Edge ids along a vertex cycle; raises NotACycle on any defect."""
    k = len(cycle)
    if k < 1:
        raise NotACycle("empty vertex sequence")
    if len(set(cycle)) != k:
        raise NotACycle("repeated vertex")
    lookup = {}
    for e, (u, v, _s) in enumerate(srs.edges):
        lookup.setdefault((u, v), e)
        lookup.setdefault((v, u), e)
    out = []
    for i in range(k):
        u, v = cycle[i], cycle[(i + 1) % k]
        e = lookup.get((u, v))
        if e is None:
            raise NotACycle(f"no edge {u}-{v}")
        out.append(e)
    return out


def cycle_sign(g: EmbeddedGraph, cycle):
    """Sign product along a cycle (invariant under local reorientations)."""
    s = 1
    for e in _cycle_edges(g.srs, cycle):
        s *= g.srs.sign(e)
    return s


def is_essential(g: EmbeddedGraph, cycle):
    """On the projective plane a cycle is essential iff it is one-sided,
    i.e. its sign product is -1."""
    if not g.is_p2():
        raise NotProjectivePlane("essentiality test defined on P^2 only")
    return cycle_sign(g, cycle) == -1


# -- orientation double cover ---------------------------------------------

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


# -- representativity -------------------------------------------------------

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


def representativity(g: EmbeddedGraph):
    """Minimum crossings of an essential simple closed curve with the graph.

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


# -- region decomposition ----------------------------------------------------

@dataclass
class Region:
    face_ids: tuple
    boundary_walks: list          # list of FaceWalk over the subgraph's darts
    euler_char: int
    interior_vertices: frozenset
    is_two_cell: bool


@dataclass
class RegionDecomposition:
    subgraph_edges: frozenset
    regions: list = field(default_factory=list)

    @property
    def region_count(self):
        return len(self.regions)


def region_decompose(g: EmbeddedGraph, subgraph_edges) -> RegionDecomposition:
    """Merge the host's faces across every edge outside ``subgraph_edges``.

    Each region gets its boundary walks (closed walks over the subgraph),
    its Euler characteristic on the cut-open complex, and its interior
    vertices.  A region is a 2-cell iff its characteristic is 1 and it has a
    single boundary walk.
    """
    K = frozenset(subgraph_edges)
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

    ef = g.edge_faces()
    for e in range(g.edge_count):
        if e not in K:
            f1, f2 = ef[e]
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
                used.add(_state_reverse(srs, d0, s0))
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
    vf = g.vertex_faces()
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

    dec = RegionDecomposition(subgraph_edges=K)
    for ri, root in enumerate(roots):
        faces = tuple(sorted(groups[root]))
        walks = walks_by_region[ri]
        chi = (len(interior[ri]) - interior_edge_count[ri] + len(faces))
        dec.regions.append(Region(
            face_ids=faces,
            boundary_walks=walks,
            euler_char=chi,
            interior_vertices=frozenset(interior[ri]),
            is_two_cell=(chi == 1 and len(walks) == 1),
        ))
    return dec


def is_essential_by_regions(g: EmbeddedGraph, cycle):
    """Cross-oracle: a cycle on P^2 is essential iff cutting along it leaves
    a single region (one-sided), trivial iff it separates."""
    edges = _cycle_edges(g.srs, cycle)
    return region_decompose(g, edges).region_count == 1
