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
One tracer (``trace_faces``) walks these states for every face of a
system, and, given an edge set, for the faces of the system restricted to
it, turning past the darts outside the set.

One function cuts a host along an edge set (``region_decompose``) and
returns the list of regions.  They carry their facts, computed from one
face union-find (faces, boundary length, interior vertices, Euler
characteristic, and with it whether the region is a 2-cell), and get their
boundary walks from the restricted tracer on first read.  The cut lemmas,
the short-walk regions and the pattern face parities all read this list.
The short-walk regions, every 2-cell region bounded by a separating closed
walk of 3 to 6 vertices, come as a list (``short_walk_regions``) that the
caller keeps: the audit finds them once per instance and drops them with
itself, so an embedding keeps nothing of an audit but its lazy face
tables (``corner_face``, ``edge_faces``, ``vertex_faces``).  The disc of
a two-sided cycle, with or without a pendant edge, has a walk known from
the cycle, so only the regions of triangle pairs are traced.

Both questions the model asks of a surface are read off the traced faces.
A connected system with an edge is on P^2 iff its Euler characteristic is
1, as orientable closed surfaces have even characteristic (Mohar &
Thomassen, *Graphs on Surfaces*, 2001); representativity comes from a BFS
on the radial graph that carries a sheet bit.

One BFS encoder (``_encode_from``) decides embedded equivalence everywhere:
the generator's canonical keys and its growth, the cut shapes of
:mod:`o1ppg.connectivity`, and the pattern matcher of
:mod:`o1ppg.structures` on a host restricted to a map's image
(``restricted_system``).  It takes simple systems only: each dart visit is
one token, ``2 * neighbour label + sign bit``, and the edge it crosses is
the one joining its two labelled vertices.  The graph facts of a system
are answered here too: the edge ids by endpoint pair (``edge_lookup``, a
dict each caller builds and drops, so a system caches none) and the short
cycles with their sign products (``signed_cycles``), which decide on P^2
whether a cycle is one-sided.  The cycle search carries each sign from
the negative-neighbour masks (``negative_masks``) and yields no edge ids;
a caller that cuts along a cycle looks its ids up.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import NamedTuple

from .errors import (
    EmptySubgraph,
    MalformedRotation,
    NotProjectivePlane,
)
from .graphs import enumerate_cycles, is_connected_mask, vertex_mask


def dart_str(d: int) -> str:
    return f"{d >> 1}{'ab'[d & 1]}"


class SignedRotationSystem:
    """Graph plus cyclic dart orders and edge signs.

    ``edges[i] = (u, v, sign)``; ``rotations[v]`` lists the darts at ``v`` in
    cyclic order.  Loops and multi-edges are legal here (the generator's
    search space passes through them); model validation rejects them.

    ``tables``, when given, is ``(dart vertex, rotation successor,
    rotation predecessor, edge signs)`` as ``_build_tables`` would build
    them for these edges and rotations; the system then takes those
    lists, and the ``edges`` list of tuples and the ``rotations`` list of
    lists, as they are (the generator's split builds all of them for the
    new system alone).
    """

    __slots__ = ("vertex_count", "edges", "rotations", "_dart_vertex",
                 "_rot_next", "_rot_prev", "_sign")

    def __init__(self, vertex_count, edges, rotations, check=True,
                 tables=None):
        self.vertex_count = vertex_count
        if tables is None:
            self.edges = list(map(tuple, edges))   # shares tuple edges
            self.rotations = [list(r) for r in rotations]
        else:
            self.edges, self.rotations = edges, rotations
        if check:
            self._validate()
        if tables is None:
            self._build_tables()
        else:
            (self._dart_vertex, self._rot_next, self._rot_prev,
             self._sign) = tables

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
        self._sign = [s for (_u, _v, s) in self.edges]

    def _validate(self):
        """Edge signs and endpoints, and every dart listed exactly once at
        its own vertex; checked before ``_build_tables`` indexes by them."""
        for u, v, s in self.edges:
            if s not in (1, -1):
                raise MalformedRotation(f"edge sign {s} not in {{+1,-1}}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise MalformedRotation("edge endpoint out of range")
        ne = len(self.edges)
        seen = [0] * (2 * ne)
        for v, rot in enumerate(self.rotations):
            for d in rot:
                if not 0 <= d < 2 * ne:
                    raise MalformedRotation(f"dart {d} out of range")
                owner = self.edges[d >> 1][d & 1]
                if owner != v:
                    raise MalformedRotation(
                        f"dart {dart_str(d)} listed at vertex {v}, "
                        f"belongs to {owner}")
                seen[d] += 1
        for d, c in enumerate(seen):
            if c != 1:
                raise MalformedRotation(
                    f"dart {dart_str(d)} appears {c} times in rotations")

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

    def adjacency_masks(self):
        """Neighbor bitmasks (``graphs`` form), indexed by vertex."""
        adj = [0] * self.vertex_count
        for u, v, _s in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

    def negative_masks(self):
        """Per vertex, the mask of its neighbours across negative edges."""
        neg = [0] * self.vertex_count
        for u, v, s in self.edges:
            if s < 0:
                neg[u] |= 1 << v
                neg[v] |= 1 << u
        return neg

    def is_connected(self):
        return is_connected_mask(self.adjacency_masks(),
                                 (1 << self.vertex_count) - 1)


def restricted_system(srs, vertices, edges):
    """The part of ``srs`` on the host vertices ``vertices`` and the host
    edges ``edges``, each of which must join two of those vertices,
    relabelled: vertex i is ``vertices[i]`` and edge j is ``edges[j]``.
    Each edge keeps the host's endpoint order and sign, and each rotation
    the host's cyclic order."""
    vid = {v: i for i, v in enumerate(vertices)}
    dart = {}
    sub_edges = []
    for j, e in enumerate(edges):
        u, v, s = srs.edges[e]
        sub_edges.append((vid[u], vid[v], s))
        dart[2 * e], dart[2 * e + 1] = 2 * j, 2 * j + 1
    rotations = [[dart[d] for d in srs.rotations[v] if d in dart]
                 for v in vertices]
    return SignedRotationSystem(len(vertices), sub_edges, rotations,
                                check=False)


# -- canonical encoding -----------------------------------------------------

#: closes each vertex block of an encoding; below every dart-visit token
_SEP = -1


def _encode_from(dv, nxt, prv, sign, n, start_dart, start_side):
    """Packed BFS encoding of one component of a simple system from one
    start state.

    Vertices are labelled in order of discovery; each vertex's rotation is
    walked from its entry dart in the direction of its inherited hand.  A
    dart visit (neighbor_label, sign_bit) is the single token
    ``2 * neighbor_label + sign_bit``, which orders like the pair; vertex
    blocks end with the ``_SEP`` sentinel, below every token.  On a simple
    system (the precondition) the edge of a visit is the one joining its
    two labelled vertices, so the encoding says which edge each visit
    crosses without labelling edges.  Two systems are embedded-isomorphic
    by a map carrying one start state onto another iff the encodings from
    the two states are equal.  Returns ``(encoding, order)``: the tokens
    and the vertices in label order.
    """
    label2 = [-1] * n          # 2 * vertex label
    hand = [0] * n
    entry = [0] * n
    root = dv[start_dart]
    label2[root] = 0
    hand[root] = start_side
    entry[root] = start_dart
    order = [root]
    enc = []
    for v in order:         # grows while the BFS discovers vertices
        hv = hand[v]
        step = nxt if hv > 0 else prv
        d = first = entry[v]
        while True:
            w = dv[d ^ 1]
            lw = label2[w]
            if lw < 0:
                lw = label2[w] = 2 * len(order)
                hand[w] = hv * sign[d >> 1]
                entry[w] = d ^ 1
                order.append(w)
                enc.append(lw)
            elif sign[d >> 1] * hv == hand[w]:
                enc.append(lw)             # sign bit 0: hands agree
            else:
                enc.append(lw + 1)
            d = step[d]
            if d == first:
                break
        enc.append(_SEP)
    return enc, order


def _encoder_tables(srs):
    """The leading arguments of ``_encode_from`` for ``srs``."""
    return (srs._dart_vertex, srs._rot_next, srs._rot_prev, srs._sign,
            srs.vertex_count)


class FaceWalk(NamedTuple):
    """One traced face boundary: ``boundary[i]`` is the dart whose edge the
    walk traverses at step i, leaving that dart's vertex."""

    boundary: tuple          # darts, in walk order
    sides: tuple             # handedness per step (the state's side)
    length: int
    is_cycle: bool
    vertices: tuple          # vertex visited at each step (tail of each dart)

    def edge_ids(self):
        return tuple(d >> 1 for d in self.boundary)


def trace_faces(srs: SignedRotationSystem, edges=None):
    """Trace the faces of the embedding, lowest unused dart-side first; with
    ``edges``, the faces of its restriction to those distinct edge ids,
    whose walks keep the host's dart ids.

    Every edge side is traversed exactly once across the returned walks, so
    the total length is 2E (twice the number of edges kept).  State
    ``(d, s)`` has id ``2*d + (s < 0)``; one step leaves along ``d``, flips
    ``s`` across a negative edge and turns at ``d ^ 1`` by the rotation
    successor (s > 0) or predecessor (s < 0), past the darts not kept.
    """
    nxt, prv, dv, sign = (srs._rot_next, srs._rot_prev, srs._dart_vertex,
                          srs._sign)
    ne = len(sign)
    if edges is None:
        kept = b"\1" * (2 * ne)         # per dart
        starts = range(4 * ne)
    else:
        kept = bytearray(2 * ne)
        for e in edges:
            kept[2 * e] = kept[2 * e + 1] = 1
        starts = [x for e in sorted(edges) for x in range(4 * e, 4 * e + 4)]
    used = bytearray(4 * ne)
    faces = []
    total = 0
    for start in starts:
        if used[start]:
            continue
        d, s, sid = start >> 1, 1 - 2 * (start & 1), start
        walk, sides, verts, reverse = [], [], [], []
        while True:
            if used[sid]:
                raise MalformedRotation(
                    "face tracing revisited a state; rotations corrupt")
            used[sid] = 1
            walk.append(d)
            sides.append(s)
            verts.append(dv[d])
            if sign[d >> 1] < 0:
                s = -s
            d ^= 1
            # the same side traced the other way: state (d ^ 1, -s)
            reverse.append(2 * d + (s > 0))
            if s > 0:
                d = nxt[d]
                while not kept[d]:
                    d = nxt[d]
            else:
                d = prv[d]
                while not kept[d]:
                    d = prv[d]
            sid = 2 * d + (s < 0)
            if sid == start:
                break
        for r in reverse:
            used[r] = 1
        k = len(walk)
        total += k
        faces.append(FaceWalk(tuple(walk), tuple(sides), k,
                              len(set(verts)) == k, tuple(verts)))
    if total != len(starts) // 2:
        raise MalformedRotation(
            f"face walks cover {total} sides, expected {len(starts) // 2}")
    return faces


class EmbeddedGraph:
    """A signed rotation system with its traced faces cached.

    Immutable after construction; all derived data is computed once.
    """

    def __init__(self, srs: SignedRotationSystem):
        self.srs = srs
        self.faces = trace_faces(srs)
        self._connected = None
        self._corner_face = None
        self._edge_faces = None
        self._vertex_faces = None

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
        """2-cell embedded in the projective plane?  Iff connected, with an
        edge, and of Euler characteristic 1: such a system traces a closed
        surface, orientable ones have even characteristic 2 - 2g and
        nonorientable ones 2 - k for k crosscaps, so 1 means P^2.  A lone
        vertex reads 1 - 0 + 0 = 1 too, as it traces no face."""
        return (self.edge_count > 0 and self.euler_char == 1
                and self.is_connected())

    def is_connected(self):
        """Whether the graph is connected, computed on first call."""
        if self._connected is None:
            self._connected = self.srs.is_connected()
        return self._connected

    # -- corners -----------------------------------------------------------

    def face_corners(self):
        """The corners of each face in walk order, a tuple per face: the
        corner a step of the walk turns at, between dart ``a`` and
        ``rot_next(a)`` at their common vertex, is keyed by ``a``.  Unlike
        the two darts, the key tells the two corners of a degree-2 vertex
        apart.  Built per call; growth patches these lists (``generator.
        _patched_faces``)."""
        prv, sign = self.srs._rot_prev, self.srs._sign
        out = []
        for f in self.faces:
            corners = []
            for d, s in zip(f.boundary, f.sides):
                # the walk arrives at d ^ 1 on side s * sign and turns by
                # the successor (side +1) or the predecessor (side -1)
                d2 = d ^ 1
                corners.append(d2 if s * sign[d >> 1] > 0 else prv[d2])
            out.append(tuple(corners))
        return out

    def corner_face(self):
        """The face index of each corner, a list indexed by dart.

        The corner between dart ``a`` and ``rot_next(a)`` at their common
        vertex is keyed by ``a``.  Every corner belongs to exactly one face.
        """
        if self._corner_face is None:
            cf = [-1] * (2 * self.edge_count)
            for fi, corners in enumerate(self.face_corners()):
                for corner in corners:
                    if cf[corner] >= 0:
                        raise MalformedRotation("corner traced twice")
                    cf[corner] = fi
            if -1 in cf:
                raise MalformedRotation("corner/face bookkeeping out of sync")
            self._corner_face = cf
        return self._corner_face

    def edge_faces(self):
        """Map edge -> tuple of its two incident face indices."""
        if self._edge_faces is None:
            ef = [[] for _ in range(self.edge_count)]
            for fi, f in enumerate(self.faces):
                for d in f.boundary:
                    ef[d >> 1].append(fi)
            self._edge_faces = tuple(map(tuple, ef))
        return self._edge_faces

    def vertex_faces(self):
        """Map vertex -> frozenset of incident face indices."""
        if self._vertex_faces is None:
            vf = [set() for _ in range(self.vertex_count)]
            for corner, fi in enumerate(self.corner_face()):
                vf[self.srs.dart_vertex(corner)].add(fi)
            self._vertex_faces = tuple(map(frozenset, vf))
        return self._vertex_faces


# -- short closed walks ----------------------------------------------------

def short_walk_regions(g: EmbeddedGraph):
    """``(canonical walk, Region)`` for every 2-cell region that the cut
    along a closed walk of 3 to 6 vertices leaves with that walk as its
    boundary, when the cut separates the surface; sorted by walk.  The
    graph must be simple and on P^2.

    A closed walk of at most 6 vertices whose edges are not a tree (a
    tree never separates) runs over one of these edge graphs:

    - a simple cycle of 3 to 6 vertices;
    - a 3- or 4-cycle plus a pendant edge, walked there and back;
    - a triangle walked twice, or a 3- or 4-cycle with one edge walked
      three times: never a kept boundary, as a boundary walk passes
      each edge side at most once, and a region on both sides of every
      edge of a triangle is the only region of the cut;
    - two triangles sharing one vertex (a figure-eight);
    - two triangles sharing one edge, the shared edge walked twice.

    A one-sided cycle (sign product -1) does not separate P^2, with or
    without a pendant edge.  A two-sided one bounds one disc (Mohar &
    Thomassen, *Graphs on Surfaces*, 2001), the 2-cell region of its cut,
    and the rest is a Moebius band; a pendant edge keeps that disc a
    2-cell only when it enters the disc, which a face's disc has no
    vertex for.  Each remaining edge set is cut once, and a region is
    kept when it is a 2-cell whose boundary walk, of at most 6 vertices,
    covers the whole edge set.

    The walks of the first two shapes are read off the facts, and no
    boundary is traced for them: the disc of a two-sided cycle, the
    2-cell region of boundary length ``len(cycle)``, has the cycle as its
    walk, and with a pendant edge c-x the disc, now of boundary length
    ``len(cycle) + 2``, has the walk that goes c, x, c and on around the
    cycle.  Only the triangle pairs, whose walk order depends on the
    rotations, read the traced walks (``Region.boundary_walks``).  Edge
    ids are looked up for the cycles cut and the triangles alone.
    ``o1ppg.oracles._walk_regions`` is the closed-walk reference.
    """
    srs = g.srs
    edge_of = edge_lookup(srs)
    faces = {frozenset(f.edge_ids()) for f in g.faces}
    found = {}

    def keep_disc(walk, regions):
        for region in regions:
            if region.is_two_cell and region.boundary_length == len(walk):
                found[canonical_walk(walk)] = region

    def keep_traced(edges, regions):
        if len(regions) < 2:
            return
        for region in regions:
            # a 2-cell's one walk is as long as its boundary
            if region.is_two_cell and region.boundary_length <= 6:
                bw = region.boundary_walks[0]
                if len(set(bw.edge_ids())) == len(edges):
                    found[canonical_walk(bw.vertices)] = region

    triangles = []
    for cycle, sign in signed_cycles(srs, 6):
        if sign < 0 and len(cycle) > 3:
            continue        # cut neither alone nor in a triangle pair
        edges = frozenset(map(edge_of.__getitem__,
                              zip(cycle, cycle[1:] + cycle[:1])))
        if len(cycle) == 3:
            triangles.append((cycle, edges))
        if sign < 0:
            continue
        regions = region_decompose(g, edges)
        keep_disc(cycle, regions)
        if len(cycle) > 4 or edges in faces:
            continue
        on_cycle = vertex_mask(cycle)
        for region in regions:
            if not region.is_two_cell:
                continue
            for x in region.interior_vertices:
                for d in srs.rotations[x]:
                    c = srs.dart_vertex(d ^ 1)
                    if on_cycle >> c & 1:
                        i = cycle.index(c)
                        keep_disc((c, x) + cycle[i:] + cycle[:i],
                                  region_decompose(g, edges | {d >> 1}))
    for (t1, e1), (t2, e2) in combinations(triangles, 2):
        if set(t1) & set(t2):
            keep_traced(e1 | e2, region_decompose(g, e1 | e2))
    return [(walk, found[walk]) for walk in sorted(found)]


def canonical_walk(vs):
    """Canonical form of a closed walk: minimum rotation/reflection."""
    k = len(vs)
    best = None
    for seq in (tuple(vs), tuple(reversed(vs))):
        for i in range(k):
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best


def edge_lookup(srs):
    """``{(u, v): edge id}`` for both orders of every edge of ``srs``, the
    least id on a multi-edge; built per call, so a system keeps none."""
    of = {}
    for e, (u, v, _s) in enumerate(srs.edges):
        of.setdefault((u, v), e)
        of.setdefault((v, u), e)
    return of


def _sign_product(srs, edge_ids):
    s = 1
    for e in edge_ids:
        s *= srs.edges[e][2]
    return s


def signed_cycles(srs: SignedRotationSystem, max_len):
    """``(cycle, sign product)`` for every cycle of at most ``max_len``
    vertices of the simple system ``srs``, in the order and form of
    ``graphs.enumerate_cycles``, whose search carries the sign.  On P^2
    a cycle is one-sided (essential) iff its sign product is -1."""
    return enumerate_cycles(srs.vertex_count, srs.adjacency_masks(), max_len,
                            srs.negative_masks())


# -- representativity -------------------------------------------------------

def representativity(g: EmbeddedGraph):
    """Minimum crossings of an essential simple closed curve with the graph:
    half the shortest one-sided closed walk of the radial graph, found by a
    BFS from ``(v, 0)`` to ``(v, 1)`` over ``(node, sheet)`` states, face
    ``f`` being node ``n + f``.  A visit of ``f``'s walk to ``v`` joins
    ``(v, s)`` and ``(f, s ^ b)``, ``b`` the parity of the negative edges
    the walk crossed before it.  That is the radial graph of the orientation
    double cover ``o1ppg.oracles.representativity_by_double_cover`` builds.
    """
    if not g.is_p2():
        raise NotProjectivePlane("representativity defined for P^2 hosts")
    n = g.vertex_count
    sign = g.srs._sign
    # state 2 * node + sheet; adj[node] holds the neighbours of sheet 0
    adj = [[] for _ in range(n + g.face_count)]
    for fi, f in enumerate(g.faces):
        b = 0
        for d, v in zip(f.boundary, f.vertices):
            adj[v].append(2 * (n + fi) + b)
            adj[n + fi].append(2 * v + b)
            if sign[d >> 1] < 0:
                b ^= 1
    limit = best = 2 * len(adj)    # above every distance
    for v in range(n):
        seen = bytearray(2 * len(adj))
        seen[2 * v] = 1
        level, depth = [2 * v], 0
        while level and depth < best and not seen[2 * v + 1]:
            depth += 1
            nxt = []
            for x in level:
                for y in adj[x >> 1]:
                    y ^= x & 1       # sheet 1 swaps the sheets
                    if not seen[y]:
                        seen[y] = 1
                        nxt.append(y)
            level = nxt
        if seen[2 * v + 1]:
            best = depth
    if best == limit:
        raise NotProjectivePlane("no essential curve found; not P^2?")
    return best // 2


# -- region decomposition ----------------------------------------------------

@dataclass
class Region:
    """One region of a cut: host faces merged across the edges off the
    subgraph.  Its facts come with it; its boundary walks, closed walks
    over the subgraph's darts in the order of their least start state, are
    traced for every region of its decomposition on first read.  ``==``
    compares the facts."""

    face_ids: tuple
    boundary_length: int          # edge sides of the subgraph facing it
    euler_char: int
    interior_vertices: frozenset
    is_two_cell: bool
    _walks: list = field(default=None, repr=False, compare=False)
    _trace: object = field(default=None, repr=False, compare=False)

    @property
    def boundary_walks(self):
        """This region's ``FaceWalk`` list."""
        if self._walks is None:
            self._trace()
        return self._walks


def _merge_faces(g: EmbeddedGraph, in_k):
    """The regions the cut along the edges ``e`` with ``in_k[e]`` leaves:
    the host's faces merged by union-find across every other edge.
    Returns the region of each face and each region's faces, regions in
    the order of their least face."""
    ef = g.edge_faces()
    nf = g.face_count
    parent = list(range(nf))    # the root of a set is its least face
    for e, cut in enumerate(in_k):
        if cut:
            continue
        a, b = ef[e]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    region_of = [0] * nf
    face_ids = []
    for f in range(nf):
        r = f
        while parent[r] != r:
            r = parent[r]
        if r == f:
            region_of[f] = len(face_ids)
            face_ids.append([f])
        else:
            ri = region_of[f] = region_of[r]
            face_ids[ri].append(f)
    return region_of, face_ids


def _trace_boundaries(g: EmbeddedGraph, K, region_of, refs):
    """Give each live region of the cut along ``K``, by the weak references
    ``refs``, its boundary walks: the faces of the host restricted to
    ``K``, each in the region of the host corners its turns sweep, which
    must all lie in one region.  Held weakly, an untraced decomposition is
    no reference cycle, and a region kept alone keeps no other alive."""
    srs = g.srs
    edges, nxt, prv = srs.edges, srs._rot_next, srs._rot_prev
    corner_region = [region_of[f] for f in g.corner_face()]
    walks = [[] for _ in refs]
    for w in trace_faces(srs, K):
        swept = set()
        b = w.boundary
        # a turn at d ^ 1 sweeps the host corners up to the walk's next dart
        for d, s, to in zip(b, w.sides, b[1:] + b[:1]):
            x = d ^ 1
            if s * edges[d >> 1][2] > 0:      # the side after crossing
                while True:
                    swept.add(corner_region[x])
                    x = nxt[x]
                    if x == to:
                        break
            else:
                while True:
                    x = prv[x]
                    swept.add(corner_region[x])
                    if x == to:
                        break
        if len(swept) != 1:
            raise MalformedRotation(
                "boundary walk sweeps multiple regions; "
                "face merge inconsistent")
        walks[swept.pop()].append(w)
    for region, ws in zip((ref() for ref in refs), walks):
        if region is not None:
            region._walks, region._trace = ws, None


def region_decompose(g: EmbeddedGraph, cut_edges) -> list:
    """The regions of the host cut along ``cut_edges``: its faces
    merged across every edge outside them.

    Each region gets its faces, its boundary length (the subgraph's edge
    sides that face it), its interior vertices and its Euler
    characteristic on the cut-open complex, from one face union-find and
    one pass over the edges; regions come in the order of their least
    face.  A region is a connected compact surface with b >= 1 boundary
    walks and characteristic 2 - 2g - b or 2 - k - b (Mohar & Thomassen,
    *Graphs on Surfaces*, 2001), so it is a 2-cell, one walk around a
    disc, iff its characteristic is 1.  The boundary walks are traced on
    first read (``Region.boundary_walks``).
    ``o1ppg.oracles.region_decompose_reference`` is the set-based
    reference, which counts the walks instead.
    """
    K = frozenset(cut_edges)
    if not K:
        raise EmptySubgraph("region decomposition needs a nonempty edge set")
    edges = g.srs.edges
    in_k = bytearray(len(edges))
    for e in K:
        in_k[e] = 1
    region_of, face_ids = _merge_faces(g, in_k)
    nr = len(face_ids)
    ef = g.edge_faces()
    lengths = [0] * nr
    interior_edge_count = [0] * nr
    on_k = bytearray(g.vertex_count)
    for e, (u, v, _s) in enumerate(edges):
        a, b = ef[e]
        if in_k[e]:
            lengths[region_of[a]] += 1
            lengths[region_of[b]] += 1
            on_k[u] = on_k[v] = 1
        else:
            interior_edge_count[region_of[a]] += 1

    # interior vertices: not an endpoint of K, all incident faces in region
    interior = [[] for _ in range(nr)]
    for v, fs in enumerate(g.vertex_faces()):
        if on_k[v] or not fs:
            continue
        r = -1
        for f in fs:
            if region_of[f] != r:
                if r >= 0:
                    raise MalformedRotation(
                        "vertex off the subgraph touches several regions")
                r = region_of[f]
        interior[r].append(v)

    regions, refs = [], []
    trace = partial(_trace_boundaries, g, K, region_of, refs)
    for faces, length, inner, inside in zip(face_ids, lengths,
                                            interior_edge_count, interior):
        chi = len(inside) - inner + len(faces)
        regions.append(Region(tuple(faces), length, chi, frozenset(inside),
                              chi == 1, None, trace))
        refs.append(weakref.ref(regions[-1]))
    return regions
