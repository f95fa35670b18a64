"""Validated quadrangulations of P^2 and the optimal 1-embedded graphs they
carry.

An instance is canonically its quadrangulation plus the implied pair of
crossing diagonals per face; the full graph is derived, never stored
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    Disconnected,
    FaceNot4,
    LinkNotCycle,
    NotP2,
    NotPolyhedral,
    NotSimple,
    NotSimpleResult,
    TooSmall,
)
from .graphs import adjacency_masks, is_bipartite, vertex_connectivity_flow
from .surface import EmbeddedGraph, representativity


@dataclass
class Quadrangulation:
    embedding: EmbeddedGraph
    simple: bool
    all_faces_len4: bool
    on_p2: bool
    polyhedral: bool
    bipartite: bool

    @property
    def vertex_count(self):
        return self.embedding.vertex_count

    @property
    def edge_count(self):
        return self.embedding.edge_count


def validate_quadrangulation(raw: EmbeddedGraph,
                             require_polyhedral=True) -> Quadrangulation:
    """Accept iff simple, 2-cell embedded in P^2 with every face a 4-cycle,
    3-connected and 3-representative.  Error messages carry the witness."""
    srs = raw.srs
    if not srs.is_connected():
        raise Disconnected("quadrangulation candidate must be connected")
    if not srs.is_simple():
        for e, (u, v, _s) in enumerate(srs.edges):
            if u == v:
                raise NotSimple(f"loop at vertex {u} (edge {e})")
        seen = {}
        for e, (u, v, _s) in enumerate(srs.edges):
            key = (min(u, v), max(u, v))
            if key in seen:
                raise NotSimple(f"parallel edges {seen[key]} and {e} on {key}")
            seen[key] = e
    if raw.euler_char != 1 or raw.orientable:
        raise NotP2(
            f"euler characteristic {raw.euler_char}, "
            f"orientable={raw.orientable}")
    for fi, f in enumerate(raw.faces):
        if f.length != 4:
            raise FaceNot4(f"face {fi} has walk length {f.length}")
        if not f.is_cycle:
            raise FaceNot4(f"face {fi} walk {f.vertices} repeats a vertex")
    n = raw.vertex_count
    assert raw.face_count == n - 1 and raw.edge_count == 2 * (n - 1)
    adj = adjacency_masks(n, [(u, v) for (u, v, _s) in srs.edges])
    polyhedral = True
    witness = None
    if min(len(r) for r in srs.rotations) < 3:
        polyhedral = False
        witness = "minimum degree below 3"
    elif vertex_connectivity_flow(n, adj, 3) < 3:
        polyhedral = False
        witness = "vertex connectivity below 3"
    else:
        r = representativity(raw)
        if r < 3:
            polyhedral = False
            witness = f"representativity {r} < 3"
    if require_polyhedral and not polyhedral:
        raise NotPolyhedral(witness)
    return Quadrangulation(
        embedding=raw,
        simple=True,
        all_faces_len4=True,
        on_p2=True,
        polyhedral=polyhedral,
        bipartite=is_bipartite(n, adj),
    )


class O1PPGInstance:
    """A quadrangulation of P^2 plus both crossing diagonals per face.

    Edge ids 0..E_Q-1 are the non-crossing (quadrangulation) edges; ids
    E_Q..4n-5 are the diagonals, two per face in face order.
    """

    def __init__(self, quad: Quadrangulation, key=None):
        self.quad = quad
        self.key = key
        emb = quad.embedding
        n = emb.vertex_count
        self.n = n
        eq = emb.edge_count
        self.q_edge_count = eq
        edges = [(u, v) for (u, v, _s) in emb.srs.edges]
        existing = {(min(u, v), max(u, v)) for (u, v) in edges}
        self.crossing_pairs = []
        for fi, f in enumerate(emb.faces):
            a, b, c, d = f.vertices
            for (p, q) in ((a, c), (b, d)):
                key_pq = (min(p, q), max(p, q))
                if key_pq in existing:
                    raise NotSimpleResult(
                        f"diagonal {p}-{q} of face {fi} duplicates an edge")
                existing.add(key_pq)
                edges.append((p, q))
            self.crossing_pairs.append(
                (fi, (eq + 2 * fi, eq + 2 * fi + 1)))
        self.edges = edges
        self.adj = adjacency_masks(n, edges)
        # set by matching.spanning_triangulation on its first call
        self._spanning_triangulation = None
        self._edge_ids = {}
        for i, (u, v) in enumerate(edges):
            self._edge_ids[(u, v)] = i
            self._edge_ids[(v, u)] = i
        degs = [m.bit_count() for m in self.adj]
        qdegs = [len(r) for r in emb.srs.rotations]
        assert all(d == 2 * qd for d, qd in zip(degs, qdegs))
        assert len(edges) == 4 * n - 4

    @property
    def edge_count(self):
        return len(self.edges)

    def is_crossing_edge(self, e):
        return e >= self.q_edge_count

    def edge_id(self, u, v):
        return self._edge_ids[(u, v)]

    def partner_diagonal(self, e):
        """The diagonal crossed by diagonal ``e``."""
        if e < self.q_edge_count:
            raise ValueError(f"edge {e} is non-crossing")
        off = e - self.q_edge_count
        return self.q_edge_count + (off ^ 1)

    def diagonal_face(self, e):
        if e < self.q_edge_count:
            raise ValueError(f"edge {e} is non-crossing")
        return (e - self.q_edge_count) // 2

    def degree(self, v):
        return self.adj[v].bit_count()

    def sorted_edge(self, e):
        u, v = self.edges[e]
        return (u, v) if u < v else (v, u)


def build_o1ppg(q: Quadrangulation, key=None, allow_small=False):
    """Add both diagonals of every face; verifies the instance invariants.

    Raises TooSmall below nine vertices unless ``allow_small`` (the harness
    probes the boundary with the gate open).
    """
    n = q.vertex_count
    if n < 9 and not allow_small:
        raise TooSmall(f"optimal instances need n >= 9, got {n}")
    return O1PPGInstance(q, key=key)


@dataclass
class AssociatedGraph:
    embedding: EmbeddedGraph
    false_vertices: tuple
    crossing_map: dict


def associated_graph(g: O1PPGInstance) -> AssociatedGraph:
    """Promote each crossing point to a degree-4 false vertex.

    Vertices 0..n-1 are the host's; vertex n+f is the crossing point inside
    quadrangulation face f.  The result triangulates P^2.
    """
    emb = g.quad.embedding
    srs = emb.srs
    n = emb.vertex_count
    edges = list(srs.edges)
    spokes_at = {v: {} for v in range(n)}   # corner dart -> spoke dart
    rotations = [list(r) for r in srs.rotations]
    z_rotations = []
    for fi, f in enumerate(emb.faces):
        z = n + fi
        z_rot = []
        for d, s in zip(f.boundary, f.sides):
            v = srs.dart_vertex(d)
            e_new = len(edges)
            # the walk's frame at this visit agrees with v's iff s = +1
            edges.append((z, v, 1 if s > 0 else -1))
            z_rot.append(2 * e_new)
            # the walk hugs the corner before d (side +) or after d (side -)
            corner = d if s < 0 else srs._rot_prev[d]
            spokes_at[v][corner] = 2 * e_new + 1
        # the trace convention turns through rotation-predecessors at the
        # center of a disc whose boundary walk runs in rotation order, so
        # the false vertex's rotation is the reversed walk order
        z_rotations.append(z_rot[::-1])
    for v in range(n):
        out = []
        for d in srs.rotations[v]:
            out.append(d)
            out.append(spokes_at[v][d])
        rotations[v] = out
    rotations.extend(z_rotations)
    from .surface import SignedRotationSystem
    emb2 = EmbeddedGraph(
        SignedRotationSystem(n + emb.face_count, edges, rotations))
    if not (emb2.euler_char == 1 and not emb2.orientable
            and all(f.length == 3 for f in emb2.faces)):
        raise AssertionError("associated graph is not a P^2 triangulation")
    crossing_map = {}
    for fi, (face_id, (d1, d2)) in enumerate(g.crossing_pairs):
        crossing_map[n + fi] = (d1, d2, face_id)
    return AssociatedGraph(
        embedding=emb2,
        false_vertices=tuple(range(n, n + emb.face_count)),
        crossing_map=crossing_map,
    )


def link(g: O1PPGInstance, v) -> tuple:
    """Boundary cycle of the union of quadrangulation faces at ``v``,
    following the rotation at ``v``: neighbor, opposite corner, neighbor,
    opposite corner, ..."""
    emb = g.quad.embedding
    srs = emb.srs
    cf = emb.corner_face()
    walk = []
    for d in srs.rotations[v]:
        fi = cf[d]   # face in the corner between d and its rotation successor
        f = emb.faces[fi]
        idx = None
        for p, (fd, fs) in enumerate(zip(f.boundary, f.sides)):
            corner = fd if fs < 0 else srs._rot_prev[fd]
            if corner == d:
                idx = p
                break
        if idx is None or f.vertices[idx] != v:
            raise LinkNotCycle(f"corner of dart {d} missing from its face")
        walk.append(srs.dart_vertex(d ^ 1))       # neighbor along d
        walk.append(f.vertices[(idx + 2) % 4])    # corner opposite to v
    if len(set(walk)) != len(walk):
        raise LinkNotCycle(
            f"link walk of vertex {v} repeats a vertex: {walk}")
    return tuple(walk)
