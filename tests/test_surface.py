"""Surface core: tracing, the P^2 test, essential cycles, regions,
representativity, and the .srs text format."""

import gc
import random
import weakref

import pytest
from test_connectivity import _audited_cuts, _relabelled

from o1ppg import srsio
from o1ppg.errors import (EmptySubgraph, MalformedRotation, NotACycle,
                          NotProjectivePlane)
from o1ppg.oracles import (_closed_walks_upto, cycle_sign, double_cover,
                           is_essential, is_essential_by_regions,
                           is_orientable, region_decompose_reference,
                           representativity_bruteforce,
                           representativity_by_double_cover)
from o1ppg.surface import (EmbeddedGraph, SignedRotationSystem,
                           region_decompose, representativity, trace_faces)


def test_loop_on_projective_plane():
    g = EmbeddedGraph(SignedRotationSystem(1, [(0, 0, -1)], [[0, 1]]))
    assert [f.length for f in g.faces] == [2]
    assert (g.euler_char, is_orientable(g.srs)) == (1, False)


def test_four_cycle_on_sphere():
    edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    rot = [[0, 7], [1, 2], [3, 4], [5, 6]]
    g = EmbeddedGraph(SignedRotationSystem(4, edges, rot))
    assert sorted(f.length for f in g.faces) == [4, 4]
    assert (g.euler_char, is_orientable(g.srs)) == (2, True)


def test_fix_k4_three_quad_faces(k4):
    assert sorted(f.length for f in k4.faces) == [4, 4, 4]
    assert (k4.euler_char, is_orientable(k4.srs)) == (1, False)
    assert all(f.is_cycle for f in k4.faces)


def test_fix_bowtie_two_pinched_hexagons(bowtie):
    assert (bowtie.euler_char, is_orientable(bowtie.srs)) == (1, False)
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
    # ids are checked before the dart tables index by them
    with pytest.raises(MalformedRotation, match="dart 11 out of range"):
        SignedRotationSystem(1, [(0, 0, 1)], [[0, 11]])
    with pytest.raises(MalformedRotation, match="dart -1 out of range"):
        SignedRotationSystem(1, [(0, 0, 1)], [[0, 1, -1]])
    with pytest.raises(MalformedRotation, match="edge endpoint out of range"):
        SignedRotationSystem(2, [(0, 5, 1)], [[0], [1]])


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


def test_representativity_matches_double_cover(k4, bowtie, min9,
                                               corpus10):
    # the sheet-carrying BFS on the traced faces against the radial graph
    # of the double cover built as an embedded graph: every class of the
    # K4 closure to n <= 10, and the fixtures
    graphs = [k4, bowtie, min9] + [EmbeddedGraph(srs)
                                   for items in corpus10.values()
                                   for _key, srs in items]
    assert len(graphs) == 3 + 1727
    for g in graphs:
        assert representativity(g) == representativity_by_double_cover(g)


def test_lone_vertex_is_not_p2():
    # no edge, no traced face: V - E + F = 1, yet the surface is a sphere
    g = EmbeddedGraph(SignedRotationSystem(1, [], [[]]))
    assert (g.face_count, g.euler_char) == (0, 1)
    assert not g.is_p2()
    with pytest.raises(NotProjectivePlane):
        representativity(g)


def test_double_cover_invariants(k4, bowtie, min9):
    for g in (k4, bowtie, min9):
        cov = double_cover(g)
        assert cov.srs.is_connected()
        assert is_orientable(cov.srs)
        assert cov.euler_char == 2 * g.euler_char


def test_region_decompose_k4_full(k4):
    regions = region_decompose(k4, range(6))
    assert len(regions) == 3
    for r in regions:
        assert r.is_two_cell
        assert not r.interior_vertices


def test_region_decompose_bowtie_full(bowtie):
    regions = region_decompose(bowtie, range(6))
    assert len(regions) == 2
    for r in regions:
        assert r.is_two_cell
        assert [w.length for w in r.boundary_walks] == [6]


def test_untraced_regions_form_no_reference_cycle(bowtie):
    # with the cyclic collector off, dropping a decomposition frees its
    # regions at once; a region kept alone still traces its walks, and
    # holds none of the others
    enabled = gc.isenabled()
    gc.disable()
    try:
        regions = region_decompose(bowtie, range(6))
        kept, dropped = regions[0], weakref.ref(regions[1])
        del regions
        assert dropped() is None
        assert [w.length for w in kept.boundary_walks] == [6]
    finally:
        if enabled:
            gc.enable()


def test_region_decompose_trivial_cycle_disc_plus_crosscap(k4):
    # a face boundary cycle: one disc and one region holding the crosscap
    face = k4.faces[0]
    regions = region_decompose(k4, set(face.edge_ids()))
    assert len(regions) == 2
    chis = sorted(r.euler_char for r in regions)
    assert chis == [0, 1]
    two_cells = [r for r in regions if r.is_two_cell]
    assert len(two_cells) == 1


def test_region_decompose_empty_rejected(k4):
    with pytest.raises(EmptySubgraph):
        region_decompose(k4, set())


def test_region_chis_partition_properties(min9):
    # regions partition faces, interiors partition V minus V(K)
    some_edges = {0, 2, 5, 7}
    regions = region_decompose(min9, some_edges)
    all_faces = sorted(f for r in regions for f in r.face_ids)
    assert all_faces == list(range(min9.face_count))
    vk = set()
    for e in some_edges:
        u, v, _s = min9.srs.edges[e]
        vk |= {u, v}
    interiors = [v for r in regions for v in r.interior_vertices]
    assert sorted(interiors) == sorted(set(range(min9.vertex_count)) - vk)


def _kernel_edge_sets(inst, rng, random_sets):
    """Edge sets of Q(G) the region kernel meets outside the cuts: every
    closed walk of at most 6 vertices, and ``random_sets`` random edge
    subsets."""
    emb = inst.quad.embedding
    edge_of = {}
    for e, (u, v, _s) in enumerate(emb.srs.edges):
        edge_of[(u, v)] = edge_of[(v, u)] = e
    for walk in _closed_walks_upto(emb, 6):
        yield {edge_of[(a, b)] for a, b in zip(walk, walk[1:] + walk[:1])}
    for _ in range(random_sets):
        p = rng.random()
        edges = {e for e in range(emb.edge_count) if rng.random() < p}
        if edges:
            yield edges


def _assert_matches_reference(emb, edges, regions):
    ref = region_decompose_reference(emb, edges)
    # == compares the facts; the walks are read, so traced, apart
    assert regions == ref, sorted(edges)
    assert [r.boundary_walks for r in regions] == \
        [r.boundary_walks for r in ref]


def test_region_decompose_matches_reference(corpus_n12, instances10):
    # every field of every region, and the order of regions and walks: on
    # short closed walks and random edge sets, and on the one
    # decomposition of every cut the audit enumerates
    rng = random.Random(20241018)
    compared = 0
    for inst in corpus_n12:
        emb = inst.quad.embedding
        for edges in _kernel_edge_sets(inst, rng, 300):
            regions = region_decompose(emb, edges)
            # every edge side of the cut faces one region
            assert sum(r.boundary_length for r in regions) == 2 * len(edges)
            _assert_matches_reference(emb, edges, regions)
            compared += 1
    assert compared > 14_000
    cuts = 0
    for inst, _conn, ca in _audited_cuts(
            corpus_n12 + instances10 + _relabelled(corpus_n12, 71)):
        assert ca.q_degrees == tuple(len(r) for r in ca.srs.rotations)
        if ca.q_edges:
            _assert_matches_reference(inst.quad.embedding, ca.q_edges,
                                      ca.regions)
        else:
            assert ca.regions == []
        cuts += 1
    assert cuts == 2 * 645 + 23


def test_region_decompose_rejects_inconsistent_faces(min9):
    # edge-face incidences that do not merge the two faces of edge 0: the
    # walk around them cut along every other edge sweeps corners of two
    # regions, which both implementations reject, the fast one when the
    # walks are read (the facts trace none)
    g = EmbeddedGraph(min9.srs)
    g._edge_faces = ((0, 0),) + min9.edge_faces()[1:]
    others = set(range(1, g.edge_count))
    with pytest.raises(MalformedRotation, match="multiple regions"):
        region_decompose_reference(g, others)
    regions = region_decompose(g, others)
    with pytest.raises(MalformedRotation, match="multiple regions"):
        [r.boundary_walks for r in regions]
    # incidences that merge no faces at all leave a vertex off the
    # subgraph in several regions, which the fast one rejects at once
    g._edge_faces = tuple((0, 0) for _ in range(g.edge_count))
    with pytest.raises(MalformedRotation, match="several regions"):
        region_decompose(g, {0})
    with pytest.raises(MalformedRotation, match="multiple regions"):
        region_decompose_reference(g, {0})


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
            if is_orientable(srs):
                assert g.euler_char % 2 == 0


def test_is_p2_matches_orientability():
    # the characteristic-1 rule against an orientability BFS
    rng = random.Random(20240811)
    for _ in range(10_000):
        srs = _random_srs(rng)
        if srs.is_connected():
            g = EmbeddedGraph(srs)
            assert g.is_p2() == (g.euler_char == 1 and g.edge_count > 0
                                 and not is_orientable(srs))


def test_srsio_round_trip(k4, bowtie, min9):
    for g in (k4, bowtie, min9):
        text = srsio.dumps(g.srs, header="round trip")
        back = srsio.loads(text)
        assert back.edges == g.srs.edges
        assert back.rotations == g.srs.rotations


def test_srsio_errors():
    with pytest.raises(MalformedRotation):
        srsio.loads("not an srs")
    with pytest.raises(MalformedRotation):
        srsio.loads("srs 1\nv 1\ne 1\nedge 0 0 0 ?\nrot 0 0a 0b")
    with pytest.raises(MalformedRotation, match="bad sign '\\+-'"):
        srsio.loads("srs 1\nv 1\ne 1\nedge 0 0 0 +-\nrot 0 0a 0b")
    with pytest.raises(MalformedRotation, match="bad dart token '5b'"):
        srsio.loads("srs 1\nv 1\ne 1\nedge 0 0 0 +\nrot 0 0a 5b")
    # counts are checked against the records left before any allocation
    with pytest.raises(MalformedRotation, match="counts v -1, e 0"):
        srsio.loads("srs 1\nv -1\ne 0")
    with pytest.raises(MalformedRotation, match="counts v 1, e -2"):
        srsio.loads("srs 1\nv 1\ne -2\nrot 0")
    with pytest.raises(MalformedRotation,
                       match="counts v 2, e 5 do not fit the 3 records"):
        srsio.loads("srs 1\nv 2\ne 5\nedge 0 0 1 +\nrot 0 0a\nrot 1 0b")
    # a record after the last rotation line is named, not dropped
    with pytest.raises(MalformedRotation, match="after the rotations: "
                                                "'rot 0'"):
        srsio.loads("srs 1\nv 1\ne 0\nrot 0\nrot 0\nedge 9 9 9 +\ngarbage")
