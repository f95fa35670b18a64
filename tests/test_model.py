"""Quadrangulation validation, instance construction, links."""

import pytest

from o1ppg.errors import (Disconnected, FaceNot4, NotP2, NotPolyhedral,
                          NotSimple, NotSimpleResult, TooSmall)
from o1ppg.model import build_o1ppg, link, validate_quadrangulation
from o1ppg.oracles import all_embeddings
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem


def test_k4_rejected_as_nonpolyhedral(k4):
    with pytest.raises(NotPolyhedral):
        validate_quadrangulation(k4)
    q = validate_quadrangulation(k4, require_polyhedral=False)
    assert not q.polyhedral


def test_planar_cube_rejected():
    cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
            (0, 4), (1, 5), (2, 6), (3, 7)]
    for srs in all_embeddings(8, cube, max_edges=12):
        g = EmbeddedGraph(srs)
        if g.euler_char == 2 and all(f.length == 4 for f in g.faces):
            with pytest.raises(NotP2):
                validate_quadrangulation(g)
            return
    raise AssertionError("no planar cube embedding found")


def test_lone_vertex_rejected_as_not_p2():
    # connected and simple with characteristic 1, but no edge and no face
    lone = EmbeddedGraph(SignedRotationSystem(1, [], [[]]))
    with pytest.raises(NotP2, match="euler characteristic 1, 0 edges"):
        validate_quadrangulation(lone, require_polyhedral=False)


def test_loop_and_multi_edge_rejected():
    loop = EmbeddedGraph(SignedRotationSystem(1, [(0, 0, -1)], [[0, 1]]))
    with pytest.raises(NotSimple):
        validate_quadrangulation(loop)
    multi = EmbeddedGraph(SignedRotationSystem(
        2, [(0, 1, 1), (0, 1, -1)], [[0, 2], [1, 3]]))
    with pytest.raises(NotSimple):
        validate_quadrangulation(multi)


def test_face_not_4_witness(bowtie):
    with pytest.raises(FaceNot4):
        validate_quadrangulation(bowtie)


def test_disconnected_rejected():
    g = EmbeddedGraph(SignedRotationSystem(
        4, [(0, 1, 1), (2, 3, 1)], [[0], [1], [2], [3]]))
    with pytest.raises(Disconnected):
        validate_quadrangulation(g)


def test_min9_validates_and_builds(min9):
    q = validate_quadrangulation(min9)
    assert q.polyhedral and not q.bipartite
    inst = build_o1ppg(q)
    assert inst.n == 9
    assert inst.edge_count == 4 * 9 - 4 == 32
    assert inst.q_edge_count == 2 * 9 - 2
    degs = [inst.degree(v) for v in range(9)]
    qdegs = [q.embedding.srs.degree(v) for v in range(9)]
    assert min(degs) >= 6
    assert all(d == 2 * qd for d, qd in zip(degs, qdegs))
    assert all(d % 2 == 0 for d in degs)          # Eulerian
    assert 6 in degs


def test_too_small_gate(k4, corpus10):
    q = validate_quadrangulation(k4, require_polyhedral=False)
    with pytest.raises(TooSmall):
        build_o1ppg(q)
    # opening the gate exposes the next defect: every K4 diagonal already
    # exists, so the diagonals cannot be added simply
    with pytest.raises(NotSimpleResult):
        build_o1ppg(q, allow_small=True)
    # with the gate open, every sub-9 corpus member still clashes: the
    # optimal structure simply does not exist below nine vertices here
    for n in (5, 6, 7, 8):
        for _key, srs in corpus10[n]:
            g = EmbeddedGraph(srs)
            qq = validate_quadrangulation(g, require_polyhedral=False)
            with pytest.raises(NotSimpleResult):
                build_o1ppg(qq, allow_small=True)


def test_duplicate_diagonal_detected(corpus10):
    # among the 268 nine-vertex quadrangulations exactly one (the
    # polyhedral one) adds both diagonals per face without clashes
    builds = 0
    clashes = 0
    for _key, srs in corpus10[9]:
        g = EmbeddedGraph(srs)
        q = validate_quadrangulation(g, require_polyhedral=False)
        try:
            build_o1ppg(q, allow_small=True)
            builds += 1
        except NotSimpleResult:
            clashes += 1
    assert builds == 1 and clashes == 267


def test_crossing_pair_structure(inst9):
    # the diagonals follow the quadrangulation edges, two per face in face
    # order, and each pair joins the two opposite corner pairs of its face
    eq = inst9.q_edge_count
    faces = inst9.quad.embedding.faces
    assert inst9.edge_count == eq + 2 * len(faces)
    for fi, f in enumerate(faces):
        d1, d2 = eq + 2 * fi, eq + 2 * fi + 1
        assert inst9.is_crossing_edge(d1) and inst9.is_crossing_edge(d2)
        a, c = inst9.edges[d1]
        b, d = inst9.edges[d2]
        assert {a, c, b, d} == set(f.vertices)
    assert not any(inst9.is_crossing_edge(e) for e in range(eq))


def test_links_are_cycles(instances10):
    for inst in instances10:
        for v in range(inst.n):
            lk = link(inst, v)
            qd = inst.quad.embedding.srs.degree(v)
            assert len(lk) == 2 * qd
            assert len(set(lk)) == len(lk)
            # consecutive link members are adjacent in the quadrangulation
            qedges = {(min(a, b), max(a, b))
                      for (a, b, _s) in inst.quad.embedding.srs.edges}
            for i in range(len(lk)):
                a, b = lk[i], lk[(i + 1) % len(lk)]
                assert (min(a, b), max(a, b)) in qedges
