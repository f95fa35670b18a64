"""Cuts, the embedded Q[S], shape classification, and the lemma audits."""

import copy
import random
from types import SimpleNamespace

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
                           region_decompose_reference,
                           vertex_connectivity_bruteforce)
from o1ppg import surface
from o1ppg.structures import get_pattern, match_pattern
from o1ppg.surface import (EmbeddedGraph, FaceWalk, SignedRotationSystem,
                           boundary_walks, region_decompose, trace_faces)


def cuts_of(inst, sizes):
    """``enumerate_cuts`` of ``inst`` on its own minimal separators."""
    return enumerate_cuts(inst, sizes, minimal_separators(inst))


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


def test_separator_connectivity_matches_flow_and_bruteforce(corpus_n12,
                                                           instances10):
    # the connectivity read off the minimal separators is the flow's and
    # the subset scan's: on the committed instances and a relabelling of
    # corpus-n12, on seeded random graphs, on a disconnected graph (0) and
    # on complete ones, which have no separator (n - 1, capped)
    for inst in corpus_n12 + instances10 + _relabelled(corpus_n12, 41):
        want = vertex_connectivity_bruteforce(inst.n, inst.adj, 8)
        assert vertex_connectivity(inst) == want
        assert vertex_connectivity_flow(inst.n, inst.adj, 8) == want
    rng = random.Random(67)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 10)
        p = rng.choice((0.3, 0.6, 0.9))
        cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p]))
    two_k4 = [(u + s, v + s) for s in (0, 4)
              for u in range(4) for v in range(u + 1, 4)]
    cases += [(8, two_k4), (6, [(u, v) for u in range(6)
                                for v in range(u + 1, 6)]),
              (10, [(u, v) for u in range(10) for v in range(u + 1, 10)])]
    seen = set()
    for n, edges in cases:
        graph = SimpleNamespace(n=n, adj=adjacency_masks(n, edges))
        separators = minimal_separators(graph)
        for cap in (4, 8):
            got = vertex_connectivity(graph, cap, separators)
            assert got == vertex_connectivity_flow(n, graph.adj, cap)
            assert got == vertex_connectivity_bruteforce(n, graph.adj, cap)
            seen.add(got)
    assert [vertex_connectivity(SimpleNamespace(
        n=n, adj=adjacency_masks(n, edges)), 8) for n, edges in cases[-3:]] \
        == [0, 5, 8]
    assert seen == set(range(9))


def test_instance_connectivity_both_routes(instances10):
    for inst in instances10:
        conn = vertex_connectivity(inst)
        assert conn == vertex_connectivity_bruteforce(inst.n, inst.adj, 8)
        assert 4 <= conn <= 6


def test_no_small_cuts(instances10):
    for inst in instances10:
        assert cuts_of(inst, (1, 2, 3)) == []


def test_five_cuts_are_bowties(inst9):
    assert vertex_connectivity(inst9) == 5
    cuts = cuts_of(inst9, (5,))
    assert cuts
    for ca in cuts:
        assert ca.is_minimal
        assert classify_cut_shape(inst9, ca) == "bowtie"
        assert ca.odd_count == sum(c.bit_count() % 2 for c in ca.components)
        # the cut subgraph is embedded-isomorphic to the fixture
        from o1ppg.structures import get_pattern
        assert canonical_key(ca.srs) == \
            canonical_key(get_pattern("bowtie").embedding)


def test_minimal_six_cut_shapes(inst10):
    assert vertex_connectivity(inst10) == 6
    cuts = [ca for ca in cuts_of(inst10, (6,)) if ca.is_minimal]
    shapes = sorted(classify_cut_shape(inst10, ca) for ca in cuts)
    assert shapes == ["I", "III", "III", "III"]
    for ca in cuts:
        walks = boundary_walks(inst10.quad.embedding, ca.q_edges, ca.regions)
        assert sum(map(len, walks)) >= 2


def test_separating_trivial_4cycle_true_side(inst10):
    # No committed instance has a 4-cut, so cut a copy: vertex x keeps only
    # its neighbours on a face whose vertices induce just the face cycle,
    # and those four vertices then cut x off.
    emb = inst10.quad.embedding

    def analyzed(inst, vertices):
        # the record of G - vertices; no check here reads is_minimal
        smask = vertex_mask(vertices)
        comps = component_masks(inst.adj, ((1 << inst.n) - 1) ^ smask)
        return analyze_cut(inst, smask, comps, False)

    face = next(f.vertices for f in emb.faces
                if len(analyzed(inst10, f.vertices).q_edges) == 4)
    on_face = sum(1 << v for v in face)
    x = next(v for v in range(inst10.n) if v not in face)
    cut = copy.copy(inst10)
    cut.adj = [m if v in face else m & ~(1 << x)
               for v, m in enumerate(inst10.adj)]
    cut.adj[x] &= on_face
    ca = analyzed(cut, face)
    assert [mask_vertices(c) for c in ca.components] == [
        (x,), tuple(sorted(set(range(inst10.n)) - set(face) - {x}))]
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
    for ca in cuts_of(inst10, (6,)):
        assert ca.s_mask == vertex_mask(ca.S)
        assert sum(ca.components) | ca.s_mask == (1 << inst10.n) - 1
        assert sum(c.bit_count() for c in ca.components) + len(ca.S) == \
            inst10.n
        assert ca.odd_count == sum(1 for c in ca.components
                                   if c.bit_count() % 2)


def test_audits_pass_on_all_cuts(instances10):
    for inst in instances10:
        conn = vertex_connectivity(inst)
        for ca in cuts_of(inst, range(conn, min(7, inst.n - 2) + 1)):
            audit = audit_cut_lemmas(ca, connectivity=conn)
            assert "fail" not in audit.values(), (sorted(ca.S), audit)


def test_nonminimal_cut_tolerated(inst10):
    # non-minimal 7-cuts may classify as "other" without contradiction
    cuts = cuts_of(inst10, (7,))
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
        for ca in cuts_of(inst, range(vertex_connectivity(inst), 8)):
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
    got = [_fields(ca) for ca in cuts_of(inst, range(1, 8))]
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
        marked = {frozenset(ca.S) for ca in cuts_of(inst, range(1, 8))
                  if ca.is_minimal}
        assert small == marked


def reference_facts(ref):
    """The mask fields of ``surface.Region``, derived from a region of
    ``region_decompose_reference``: its faces, interior vertices and the
    vertices of its boundary walks as masks, its boundary length, Euler
    characteristic and 2-cell verdict."""
    return (vertex_mask(ref.face_ids), vertex_mask(ref.interior_vertices),
            vertex_mask(v for w in ref.boundary_walks for v in w.vertices),
            ref.boundary_length, ref.euler_char, ref.is_two_cell)


def _relabelled(insts, seed):
    rng = random.Random(seed)
    return [build_o1ppg(validate_quadrangulation(EmbeddedGraph(
        _full_relabel(inst.quad.embedding.srs, rng)[0]))) for inst in insts]


def _audited_cuts(insts):
    """(instance, connectivity, cut) for every cut the audit enumerates."""
    for inst in insts:
        conn = vertex_connectivity(inst)
        for ca in cuts_of(inst, range(conn, min(7, inst.n - 2) + 1)):
            yield inst, conn, ca


def test_cut_facts_match_region_decompose(corpus_n12, instances10):
    # the mask facts of every cut against a fresh decomposition, its
    # traced walks and the set-based reference; the separation clause
    # against the components' vertex sets
    cuts = 0
    for inst, _conn, ca in _audited_cuts(
            corpus_n12 + instances10 + _relabelled(corpus_n12, 71)):
        emb = inst.quad.embedding
        regions = region_decompose(emb, ca.q_edges) if ca.q_edges else []
        ref = (region_decompose_reference(emb, ca.q_edges)
               if ca.q_edges else [])
        assert [r.boundary_length for r in ca.regions] == [
            sum(w.length for w in walks)
            for walks in boundary_walks(emb, ca.q_edges, regions)]
        assert [r.facts() + (r.is_two_cell,) for r in ca.regions] == [
            reference_facts(r) for r in ref]
        assert ca.q_degrees == tuple(len(r) for r in ca.srs.rotations)
        assert ca.regions == regions
        holders = [[ri for ri, r in enumerate(ref)
                    if r.interior_vertices & set(mask_vertices(c))]
                   for c in ca.components]
        separated = (all(len(h) == 1 for h in holders)
                     and len({h[0] for h in holders}) == len(holders)
                     if ref else len(holders) == 1)
        assert (audit_cut_lemmas(ca, 4)["separation"] == "pass") == separated
        cuts += 1
    assert cuts == 2 * 645 + 23


def test_boundary_mask_counts_walk_vertices(corpus_n12, instances10):
    # the boundary mask of every region of every audited cut holds the
    # vertices of its walks; on a 2-cell its popcount is the number of
    # distinct vertices of its one walk, so five_conn_iii reads a 6-cycle
    # off the mask
    two_cells = hexagons = 0
    for inst, _conn, ca in _audited_cuts(
            corpus_n12 + instances10 + _relabelled(corpus_n12, 83)):
        for r, walks in zip(ca.regions, boundary_walks(
                inst.quad.embedding, ca.q_edges, ca.regions)):
            assert r.boundary_mask == vertex_mask(
                v for w in walks for v in w.vertices)
            if r.is_two_cell:
                (walk,) = walks
                assert r.boundary_mask.bit_count() == len(set(walk.vertices))
                two_cells += 1
                hexagons += r.boundary_length == 6
    assert (two_cells, hexagons) == (2 * 1366 + 64, 1436)


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
        assert sorted(host) == sorted(
            w for walks in boundary_walks(inst.quad.embedding, ca.q_edges,
                                          ca.regions)
            for w in walks)
        cuts += 1
    assert cuts == 2 * 645 + 23


def test_facts_trace_no_walk(corpus_n12, monkeypatch):
    # the cut clauses at each instance's connectivity, the region facts
    # with the 2-cell test, and the pattern face parities trace no walk;
    # reading the walks does
    traced = []

    def counting(srs, edges=None):
        traced.append(edges)
        return trace_faces(srs, edges)

    monkeypatch.setattr(surface, "trace_faces", counting)
    cuts = []
    for inst, conn, ca in _audited_cuts(corpus_n12):
        assert "fail" not in audit_cut_lemmas(ca, conn).values()
        assert [(r.face_mask, r.boundary_length, r.euler_char,
                 r.is_two_cell) for r in ca.regions]
        cuts.append((inst, ca))
    for inst in corpus_n12:
        for pid in "abcdefg":
            match_pattern(inst.quad.embedding, get_pattern(pid))
    assert traced == []
    assert all(all(boundary_walks(inst.quad.embedding, ca.q_edges,
                                  ca.regions))
               for inst, ca in cuts)
    assert len(traced) == len(cuts) == 645


def _five_conn_ii_by_walks(emb, ca):
    """five_conn_ii on the walks of ``region_decompose_reference``: when
    some region is not a 2-cell, Q[S] is a 2-regular graph on 6 vertices
    and 6 edges whose regions have characteristics {0, 1} and whose walks
    have lengths [6, 6]."""
    ref = region_decompose_reference(emb, ca.q_edges) if ca.q_edges else []
    if ref and all(r.is_two_cell for r in ref):
        return "inapplicable"
    ok = (ca.s_mask.bit_count() == 6 and len(ca.q_edges) == 6
          and all(d == 2 for d in ca.q_degrees)
          and sorted(r.euler_char for r in ref) == [0, 1]
          and sorted(w.length for r in ref
                     for w in r.boundary_walks) == [6, 6])
    return "pass" if ok else "fail"


def test_five_conn_ii_boundary_lengths_match_walk_lengths(corpus_n12,
                                                          instances10):
    # five_conn_ii reads two regions of boundary length 6 where the lemma
    # asks for two boundary walks of length 6: the same verdict on every
    # cut where the clause is evaluated
    evaluated = {}
    for name, insts in (("corpus_n12", corpus_n12),
                        ("relabelled", _relabelled(corpus_n12, 89)),
                        ("instances10", instances10)):
        evaluated[name] = 0
        for inst, conn, ca in _audited_cuts(insts):
            verdict = audit_cut_lemmas(ca, conn)["five_conn_ii"]
            if verdict == "inapplicable":
                continue
            assert verdict == _five_conn_ii_by_walks(
                inst.quad.embedding, ca), (inst.key, ca.S)
            evaluated[name] += 1
    assert evaluated["corpus_n12"] == evaluated["relabelled"] == 59


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
