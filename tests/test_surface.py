"""Surface core: tracing, orientability, essential cycles, regions,
representativity, and the .srs text format."""

import random

import pytest

from o1ppg import srsio
from o1ppg.errors import (Disconnected, EmptySubgraph, MalformedRotation,
                          NotACycle, NotProjectivePlane)
from o1ppg.oracles import representativity_bruteforce
from o1ppg.surface import (EmbeddedGraph, SignedRotationSystem, cycle_sign,
                           double_cover, euler_and_orientability,
                           is_essential, is_essential_by_regions,
                           region_decompose, representativity, trace_faces)


def test_loop_on_projective_plane():
    g = EmbeddedGraph(SignedRotationSystem(1, [(0, 0, -1)], [[0, 1]]))
    assert [f.length for f in g.faces] == [2]
    assert euler_and_orientability(g) == (1, False)


def test_four_cycle_on_sphere():
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    rot = [[0, 7], [1, 2], [3, 4], [5, 6]]
    g = EmbeddedGraph(SignedRotationSystem(4, edges, rot))
    assert sorted(f.length for f in g.faces) == [4, 4]
    assert euler_and_orientability(g) == (2, True)


def test_fix_k4_three_quad_faces(k4):
    assert sorted(f.length for f in k4.faces) == [4, 4, 4]
    assert euler_and_orientability(k4) == (1, False)
    assert all(f.is_cycle for f in k4.faces)


def test_fix_bowtie_two_pinched_hexagons(bowtie):
    assert euler_and_orientability(bowtie) == (1, False)
    assert sorted(f.length for f in bowtie.faces) == [6, 6]
    assert not any(f.is_cycle for f in bowtie.faces)
    # both walks visit the hub twice
    for f in bowtie.faces:
        assert f.vertices.count(0) == 2


def test_malformed_rotation_rejected():
    with pytest.raises(MalformedRotation):
        SignedRotationSystem(2, [(0, 1, 1)], [[0, 1], []])
    with pytest.raises(MalformedRotation):
        SignedRotationSystem(2, [(0, 1, 1)], [[0], []])
    with pytest.raises(MalformedRotation):
        SignedRotationSystem(2, [(0, 1, 2)], [[0], [1]])


def test_disconnected_euler_raises():
    edges = [(0, 1, 1), (2, 3, 1)]
    g = EmbeddedGraph(SignedRotationSystem(4, edges,
                                           [[0], [1], [2], [3]]))
    with pytest.raises(Disconnected):
        euler_and_orientability(g)


def test_cycle_sign_and_essentiality(k4):
    # every 3-cycle of the K4 quadrangulation is essential
    for cyc in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
        assert cycle_sign(k4, cyc) == -1
        assert is_essential(k4, cyc)
        assert is_essential_by_regions(k4, cyc)
    # face boundaries are trivial
    face = k4.faces[0].vertices
    assert not is_essential(k4, face)
    assert not is_essential_by_regions(k4, face)


def test_essentiality_errors(k4):
    with pytest.raises(NotACycle):
        is_essential(k4, (0, 1, 1))
    with pytest.raises(NotACycle):
        is_essential(k4, (0,))
    sphere = EmbeddedGraph(SignedRotationSystem(
        4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
        [[0, 7], [1, 2], [3, 4], [5, 6]]))
    with pytest.raises(NotProjectivePlane):
        is_essential(sphere, (0, 1, 2, 3))


def test_bowtie_triangles_essential(bowtie):
    assert is_essential(bowtie, (0, 1, 2))
    assert is_essential(bowtie, (0, 3, 4))


def test_representativity_values(k4, bowtie, min9):
    # the K4 quadrangulation's double cover is the cube: antipodal vertices
    # are at radial distance 4, so r = 2 on both routes
    assert representativity(k4) == 2
    assert representativity_bruteforce(k4) == 2
    assert representativity(bowtie) == 1
    assert representativity_bruteforce(bowtie) == 1
    assert representativity(min9) >= 3
    assert representativity_bruteforce(min9) == representativity(min9)


def test_double_cover_invariants(k4, bowtie, min9):
    for g in (k4, bowtie, min9):
        cov = double_cover(g)
        assert cov.srs.is_connected()
        assert cov.orientable
        assert cov.euler_char == 2 * g.euler_char


def test_region_decompose_k4_full(k4):
    dec = region_decompose(k4, range(6))
    assert dec.region_count == 3
    for r in dec.regions:
        assert r.is_two_cell
        assert not r.interior_vertices


def test_region_decompose_bowtie_full(bowtie):
    dec = region_decompose(bowtie, range(6))
    assert dec.region_count == 2
    for r in dec.regions:
        assert r.is_two_cell
        assert [w.length for w in r.boundary_walks] == [6]


def test_region_decompose_trivial_cycle_disc_plus_crosscap(k4):
    # a face boundary cycle: one disc and one region holding the crosscap
    face = k4.faces[0]
    dec = region_decompose(k4, set(face.edge_ids()))
    assert dec.region_count == 2
    chis = sorted(r.euler_char for r in dec.regions)
    assert chis == [0, 1]
    two_cells = [r for r in dec.regions if r.is_two_cell]
    assert len(two_cells) == 1


def test_region_decompose_empty_rejected(k4):
    with pytest.raises(EmptySubgraph):
        region_decompose(k4, set())


def test_region_chis_partition_properties(min9):
    # regions partition faces, interiors partition V minus V(K)
    some_edges = {0, 2, 5, 7}
    dec = region_decompose(min9, some_edges)
    all_faces = sorted(f for r in dec.regions for f in r.face_ids)
    assert all_faces == list(range(min9.face_count))
    vk = set()
    for e in some_edges:
        u, v, _s = min9.srs.edges[e]
        vk |= {u, v}
    interiors = [v for r in dec.regions for v in r.interior_vertices]
    assert sorted(interiors) == sorted(set(range(min9.vertex_count)) - vk)


def _random_srs(rng, max_v=5, max_e=7):
    n = rng.randint(1, max_v)
    ne = rng.randint(1, max_e)
    edges = []
    for _ in range(ne):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((u, v, rng.choice((1, -1))))
    darts_at = [[] for _ in range(n)]
    for i, (u, v, _s) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    rotations = []
    for v in range(n):
        ds = list(darts_at[v])
        rng.shuffle(ds)
        rotations.append(ds)
    return SignedRotationSystem(n, edges, rotations)


def test_random_systems_trace_invariants():
    # total face length 2E and Euler characteristic of a closed surface
    rng = random.Random(20240811)
    for _ in range(10_000):
        srs = _random_srs(rng)
        faces = trace_faces(srs)
        assert sum(f.length for f in faces) == 2 * srs.edge_count
        if srs.is_connected():
            g = EmbeddedGraph(srs)
            assert g.euler_char <= 2
            if g.orientable:
                assert g.euler_char % 2 == 0


def test_srsio_round_trip(k4, bowtie, min9):
    for g in (k4, bowtie, min9):
        text = srsio.dumps(g.srs, header="round trip")
        back = srsio.loads(text)
        assert back.edges == g.srs.edges
        assert back.rotations == g.srs.rotations
    srs, comments = srsio.loads_with_comments(
        srsio.dumps(min9.srs, header="o1ppg n=9"))
    assert comments == ["o1ppg n=9"]


def test_srsio_errors():
    with pytest.raises(MalformedRotation):
        srsio.loads("not an srs")
    with pytest.raises(MalformedRotation):
        srsio.loads("srs 1\nv 1\ne 1\nedge 0 0 0 ?\nrot 0 0a 0b")
