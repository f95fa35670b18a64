"""Property tests over randomized signed rotation systems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from o1ppg.errors import Disconnected, NotSimple
from o1ppg.generator import canonical_key
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem, trace_faces


@st.composite
def rotation_systems(draw, max_vertices=5, max_edges=7):
    n = draw(st.integers(1, max_vertices))
    ne = draw(st.integers(1, max_edges))
    edges = []
    for _ in range(ne):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        s = draw(st.sampled_from((1, -1)))
        edges.append((u, v, s))
    darts_at = [[] for _ in range(n)]
    for i, (u, v, _s) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    rotations = []
    for v in range(n):
        rotations.append(draw(st.permutations(darts_at[v])))
    return SignedRotationSystem(n, edges, rotations)


@given(rotation_systems())
def test_face_walks_cover_each_side_once(srs):
    faces = trace_faces(srs)
    assert sum(f.length for f in faces) == 2 * srs.edge_count
    sides = [0] * srs.edge_count
    for f in faces:
        for d in f.boundary:
            sides[d >> 1] += 1
    assert all(c == 2 for c in sides)


@given(rotation_systems())
def test_euler_characteristic_of_closed_surface(srs):
    if not srs.is_connected():
        return
    g = EmbeddedGraph(srs)
    assert g.euler_char <= 2
    if g.orientable:
        assert g.euler_char % 2 == 0


@st.composite
def simple_connected_systems(draw, max_vertices=6):
    """A random spanning tree plus distinct extra edges, with random signs
    and rotations."""
    n = draw(st.integers(2, max_vertices))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(v)
              if (u, v) not in pairs]
    if others:
        pairs += draw(st.lists(st.sampled_from(others), unique=True))
    edges = [(u, v, draw(st.sampled_from((1, -1)))) for u, v in pairs]
    darts_at = [[] for _ in range(n)]
    for i, (u, v, _s) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    return SignedRotationSystem(
        n, edges, [draw(st.permutations(ds)) for ds in darts_at])


@given(simple_connected_systems(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=80)
def test_canonical_key_invariance(srs, rng):
    base = canonical_key(srs)
    perm = list(range(srs.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], s) for (u, v, s) in srs.edges]
    rotations = [None] * srs.vertex_count
    for v in range(srs.vertex_count):
        rotations[perm[v]] = list(srs.rotations[v])
    work = SignedRotationSystem(srs.vertex_count, edges, rotations)
    for v in range(work.vertex_count):
        if rng.random() < 0.5:
            new_edges = []
            for (a, b, s) in work.edges:
                if (a == v) != (b == v):
                    new_edges.append((a, b, -s))
                else:
                    new_edges.append((a, b, s))
            rots = [list(r) for r in work.rotations]
            rots[v] = rots[v][::-1]
            work = SignedRotationSystem(work.vertex_count, new_edges, rots)
    assert canonical_key(work) == base


def test_canonical_key_rejects_systems_outside_its_domain():
    loop = SignedRotationSystem(2, [(0, 1, 1), (1, 1, -1)],
                                [[0], [1, 2, 3]])
    multi = SignedRotationSystem(2, [(0, 1, 1), (0, 1, -1)],
                                 [[0, 2], [1, 3]])
    apart = SignedRotationSystem(4, [(0, 1, 1), (2, 3, 1)],
                                 [[0], [1], [2], [3]])
    for srs, error in ((loop, NotSimple), (multi, NotSimple),
                       (apart, Disconnected)):
        with pytest.raises(error):
            canonical_key(srs)


@given(rotation_systems(max_vertices=4, max_edges=6))
@settings(max_examples=60)
def test_double_cover_doubles_characteristic(srs):
    if not srs.is_connected():
        return
    from o1ppg.surface import double_cover
    g = EmbeddedGraph(srs)
    cov = double_cover(g)
    assert cov.orientable
    assert cov.euler_char == 2 * g.euler_char
