"""Cuts, the embedded Q[S], shape classification, and the lemma audits."""

import copy
import random

from test_generator import _full_relabel

from o1ppg.connectivity import (CUT_SHAPES,
                                _contains_separating_trivial_4cycle,
                                analyze_cut, audit_cut_lemmas,
                                classify_cut_shape, enumerate_cuts,
                                minimal_separators, vertex_connectivity)
from o1ppg.generator import canonical_key
from o1ppg.graphs import (adjacency_masks, component_masks, mask_vertices,
                          vertex_connectivity_flow, vertex_mask)
from o1ppg.model import build_o1ppg, validate_quadrangulation
from o1ppg.oracles import (enumerate_cuts_by_subsets,
                           is_minimal_cut_bruteforce,
                           vertex_connectivity_bruteforce)
from o1ppg import surface
from o1ppg.structures import get_pattern, match_pattern
from o1ppg.surface import (EmbeddedGraph, FaceWalk, SignedRotationSystem,
                           region_decompose, trace_faces)


def test_flow_matches_bruteforce_random():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        adj = adjacency_masks(n, edges)
        for cap in (4, 6, 8):
            assert vertex_connectivity_flow(n, adj, cap) == \
                vertex_connectivity_bruteforce(n, adj, cap)


def test_flow_matches_bruteforce_dense():
    # the audit asks for connectivity >= 4 (spanning triangulations) and
    # up to 8 (instances); dense graphs reach those values
    rng = random.Random(47)
    at_least_4 = 0
    for _ in range(150):
        n = rng.randint(5, 11)
        p = rng.choice((0.7, 0.85, 0.95))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        adj = adjacency_masks(n, edges)
        for cap in (4, 8):
            got = vertex_connectivity_flow(n, adj, cap)
            assert got == vertex_connectivity_bruteforce(n, adj, cap)
        at_least_4 += got >= 4
    assert at_least_4 >= 50


def test_flow_pairs_match_bruteforce_on_relabelled_instances(
        corpus_n12, instances10):
    # the flow runs only from a least-degree vertex and inside its
    # neighbourhood, so which vertex that is must not change the answer
    rng = random.Random(53)
    cases = 0
    for inst in corpus_n12 + instances10:
        edges = [(u, v) for u in range(inst.n) for v in range(u + 1, inst.n)
                 if (inst.adj[u] >> v) & 1]
        want = vertex_connectivity_bruteforce(inst.n, inst.adj, 8)
        assert vertex_connectivity_flow(inst.n, inst.adj, 8) == want
        for _ in range(3):
            perm = rng.sample(range(inst.n), inst.n)
            adj = adjacency_masks(inst.n, [(perm[u], perm[v])
                                           for u, v in edges])
            for cap in (4, 8):
                assert vertex_connectivity_flow(inst.n, adj, cap) == \
                    min(cap, want)
            cases += 1
    assert cases == 3 * (16 + 2)


def test_instance_connectivity_both_routes(instances10):
    for inst in instances10:
        conn = vertex_connectivity(inst)
        assert conn == vertex_connectivity_bruteforce(inst.n, inst.adj, 8)
        assert 4 <= conn <= 6


def test_no_small_cuts(instances10):
    for inst in instances10:
        assert enumerate_cuts(inst, (1, 2, 3)) == []


def test_five_cuts_are_bowties(inst9):
    assert vertex_connectivity(inst9) == 5
    cuts = enumerate_cuts(inst9, (5,))
    assert cuts
    for ca in cuts:
        assert ca.is_minimal
        assert classify_cut_shape(inst9, ca) == "bowtie"
        assert ca.odd_count == sum(len(c) % 2 for c in ca.components)
        # the cut subgraph is embedded-isomorphic to the fixture
        from o1ppg.structures import get_pattern
        assert canonical_key(ca.srs) == \
            canonical_key(get_pattern("bowtie").embedding)


def test_minimal_six_cut_shapes(inst10):
    assert vertex_connectivity(inst10) == 6
    cuts = [ca for ca in enumerate_cuts(inst10, (6,)) if ca.is_minimal]
    shapes = sorted(classify_cut_shape(inst10, ca) for ca in cuts)
    assert shapes == ["I", "III", "III", "III"]
    for ca in cuts:
        assert sum(len(r.boundary_walks) for r in ca.regions) >= 2


def test_separating_trivial_4cycle_true_side(inst10):
    # No committed instance has a 4-cut, so cut a copy: vertex x keeps only
    # its neighbours on a face whose vertices induce just the face cycle,
    # and those four vertices then cut x off.
    emb = inst10.quad.embedding

    def analyzed(inst, vertices):
        # the record of G - vertices; no check here reads is_minimal
        rest = ((1 << inst.n) - 1) ^ vertex_mask(vertices)
        comps = [mask_vertices(c) for c in component_masks(inst.adj, rest)]
        return analyze_cut(inst, vertices, comps, False)

    face = next(f.vertices for f in emb.faces
                if len(analyzed(inst10, f.vertices).q_edges) == 4)
    on_face = sum(1 << v for v in face)
    x = next(v for v in range(inst10.n) if v not in face)
    cut = copy.copy(inst10)
    cut.adj = [m if v in face else m & ~(1 << x)
               for v, m in enumerate(inst10.adj)]
    cut.adj[x] &= on_face
    ca = analyzed(cut, face)
    assert ca.components == ((x,), tuple(sorted(set(range(inst10.n))
                                                - set(face) - {x})))
    assert not _contains_separating_trivial_4cycle(inst10, ca)
    assert _contains_separating_trivial_4cycle(cut, ca)
    # the same cycle made one-sided by one negated edge is essential, not
    # trivial, however it separates
    twisted = [(u, v, -s if e == 0 else s)
               for e, (u, v, s) in enumerate(ca.srs.edges)]
    one_sided = copy.copy(ca)
    one_sided.srs = SignedRotationSystem(
        ca.srs.vertex_count, twisted, ca.srs.rotations)
    assert not _contains_separating_trivial_4cycle(cut, one_sided)


def test_cut_component_counts(inst10):
    for ca in enumerate_cuts(inst10, (6,)):
        covered = set(ca.S)
        for comp in ca.components:
            covered |= set(comp)
        assert covered == set(range(inst10.n))
        assert ca.odd_count == sum(1 for c in ca.components if len(c) % 2)


def test_audits_pass_on_all_cuts(instances10):
    for inst in instances10:
        conn = vertex_connectivity(inst)
        for ca in enumerate_cuts(inst, range(conn, min(7, inst.n - 2) + 1)):
            audit = audit_cut_lemmas(ca, connectivity=conn)
            assert "fail" not in audit.values(), (sorted(ca.S), audit)


def test_nonminimal_cut_tolerated(inst10):
    # non-minimal 7-cuts may classify as "other" without contradiction
    cuts = enumerate_cuts(inst10, (7,))
    assert any(not ca.is_minimal for ca in cuts)
    for ca in cuts:
        if not ca.is_minimal:
            assert classify_cut_shape(inst10, ca) in (
                "I", "II", "III", "IV", "bowtie", "trivial4cycle-bearing",
                "other")


def test_minimality_matches_subset_oracle(corpus_n12):
    # every cut the audit enumerates on the committed n <= 12 corpus: the
    # component rule agrees with testing every proper subset
    cuts = nonminimal = 0
    for inst in corpus_n12:
        for ca in enumerate_cuts(inst, range(vertex_connectivity(inst), 8)):
            assert ca.is_minimal == is_minimal_cut_bruteforce(inst, ca.S)
            cuts += 1
            nonminimal += not ca.is_minimal
    assert nonminimal > 0
    assert (cuts, nonminimal) == (645, 525)


def _fields(ca):
    """Every field of a CutAnalysis, with Q[S]'s rotation system read as
    its edges and rotations (the system itself compares by identity)."""
    return (ca.S, ca.components, ca.odd_count, ca.is_minimal, ca.q_edges,
            ca.q_degrees, ca.srs.edges, ca.srs.rotations, ca.regions)


def _assert_cuts_match_subset_scan(inst):
    got = [_fields(ca) for ca in enumerate_cuts(inst, range(1, 8))]
    assert got == [_fields(ca) for k in range(1, 8)
                   for ca in enumerate_cuts_by_subsets(inst, k)]


def test_cuts_match_subset_oracle(corpus_n12, instances10):
    for inst in corpus_n12 + instances10:
        _assert_cuts_match_subset_scan(inst)


def test_cuts_match_subset_oracle_relabelled(corpus_n12):
    rng = random.Random(23)
    for inst in corpus_n12:
        image, _dmap = _full_relabel(inst.quad.embedding.srs, rng)
        _assert_cuts_match_subset_scan(build_o1ppg(
            validate_quadrangulation(EmbeddedGraph(image))))


def test_minimal_separators_pair_with_oracles(corpus_n12, instances10):
    # the least separator is as large as the flow connectivity, and the
    # separators of at most 7 vertices are the cuts marked minimal
    for inst in corpus_n12 + instances10:
        seps = minimal_separators(inst)
        assert seps[0].bit_count() == vertex_connectivity_flow(
            inst.n, inst.adj, 8)
        assert [s.bit_count() for s in seps] == sorted(
            s.bit_count() for s in seps)
        small = {frozenset(v for v in range(inst.n) if (s >> v) & 1)
                 for s in seps if s.bit_count() <= 7}
        marked = {frozenset(ca.S) for ca in enumerate_cuts(inst, range(1, 8))
                  if ca.is_minimal}
        assert small == marked


def _relabelled(insts, seed):
    rng = random.Random(seed)
    return [build_o1ppg(validate_quadrangulation(EmbeddedGraph(
        _full_relabel(inst.quad.embedding.srs, rng)[0]))) for inst in insts]


def _audited_cuts(insts):
    """(instance, connectivity, cut) for every cut the audit enumerates."""
    for inst in insts:
        conn = vertex_connectivity(inst)
        for ca in enumerate_cuts(inst, range(conn, min(7, inst.n - 2) + 1)):
            yield inst, conn, ca


def test_cut_facts_match_region_decompose(corpus_n12, instances10):
    # the union-find facts of every cut against a fresh decomposition and
    # its traced walks
    cuts = 0
    for inst, _conn, ca in _audited_cuts(
            corpus_n12 + instances10 + _relabelled(corpus_n12, 71)):
        regions = (region_decompose(inst.quad.embedding, ca.q_edges)
                   if ca.q_edges else [])
        assert [r.boundary_length for r in ca.regions] == [
            sum(w.length for w in r.boundary_walks) for r in regions]
        assert [r.interior_vertices for r in ca.regions] == [
            r.interior_vertices for r in regions]
        assert ca.q_degrees == tuple(len(r) for r in ca.srs.rotations)
        assert ca.regions == regions
        cuts += 1
    assert cuts == 2 * 645 + 23


def test_q_induced_subgraph_walks_match_regions(corpus_n12, instances10):
    # Q[S]'s own face trace, mapped back to host darts and vertices, is the
    # host's trace restricted to Q[S]'s edges, and its walks are the
    # regions' boundary walks
    cuts = 0
    for inst, _conn, ca in _audited_cuts(
            corpus_n12 + instances10 + _relabelled(corpus_n12, 79)):
        own = [FaceWalk(tuple(2 * ca.q_edges[d >> 1] + (d & 1)
                              for d in f.boundary),
                        f.sides, f.length, f.is_cycle,
                        tuple(ca.S[v] for v in f.vertices))
               for f in trace_faces(ca.srs)]
        host = trace_faces(inst.quad.embedding.srs, ca.q_edges)
        assert own == host, ca.S
        assert sorted(host) == sorted(w for r in ca.regions
                                      for w in r.boundary_walks)
        cuts += 1
    assert cuts == 2 * 645 + 23


def test_facts_trace_no_walk(corpus_n12, monkeypatch):
    # the clauses of L2.2-L2.5, the region facts with the 2-cell test, and
    # the pattern face parities trace no walk; reading the walks does
    traced = []

    def counting(srs, edges=None):
        traced.append(edges)
        return trace_faces(srs, edges)

    monkeypatch.setattr(surface, "trace_faces", counting)
    cuts = [ca for _inst, _conn, ca in _audited_cuts(corpus_n12)]
    for ca in cuts:
        # at connectivity 4 the 5-connected clauses, which read walks,
        # are inapplicable
        audit = audit_cut_lemmas(ca, connectivity=4)
        assert "fail" not in audit.values()
        assert [(len(r.face_ids), r.boundary_length, r.euler_char,
                 r.is_two_cell) for r in ca.regions]
    for inst in corpus_n12:
        for pid in "abcdefg":
            match_pattern(inst.quad.embedding, get_pattern(pid))
    assert traced == []
    assert all(r.boundary_walks for ca in cuts for r in ca.regions)
    assert len(traced) == len(cuts) == 645


def _shape_by_canonical_key(ca):
    """The cut shape Q[S] has by canonical key, or None."""
    if not ca.srs.is_connected():
        return None
    keys = {canonical_key(get_pattern(pid).embedding): pid
            for pid in CUT_SHAPES}
    return keys.get(canonical_key(ca.srs))


def test_shape_lookup_matches_canonical_key(corpus_n12, instances10):
    # every cut, the 5-cuts and minimal 6-cuts the audit classifies among
    # them: the encoding lookup names the shape the canonical key names
    shapes = {}
    for inst, _conn, ca in _audited_cuts(
            corpus_n12 + instances10 + _relabelled(corpus_n12, 73)):
        want = _shape_by_canonical_key(ca)
        got = classify_cut_shape(inst, ca)
        if want is None:
            assert got not in CUT_SHAPES
        else:
            assert got == want
        shapes[got] = shapes.get(got, 0) + 1
    assert shapes == {"bowtie": 11, "I": 119, "III": 95, "other": 1088}
