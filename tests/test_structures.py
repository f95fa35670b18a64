"""Pattern fixtures, odd weighted regions, bowtie detection, and the
3-matching diagnosis."""

import pytest

from o1ppg.errors import NotFiveConnected, OddOrder
from o1ppg.generator import canonical_key
from o1ppg.matching import Matching, is_extendable, matchings_of_size
from o1ppg.oracles import odd_regions_by_face_merge
from o1ppg.structures import (CertificateContext, PATTERN_IDS,
                              build_patterns, canonical_walk,
                              diagnose_3matching, find_odd_weighted_regions,
                              find_projective_bowties, get_pattern,
                              load_patterns, match_pattern, patterns)


def test_patterns_ship_and_rebuild_identically():
    shipped = load_patterns()
    rebuilt = build_patterns()
    assert set(shipped) == set(rebuilt) == set(PATTERN_IDS)
    for pid in PATTERN_IDS:
        a, b = shipped[pid], rebuilt[pid]
        assert canonical_key(a.embedding) == canonical_key(b.embedding)
        assert a.gray == b.gray
        assert a.odd_faces == b.odd_faces


def test_pattern_counts_match_figures():
    # the bowtie: five vertices, six edges, two hexagonal faces
    bow = get_pattern("bowtie")
    assert (bow.embedding.vertex_count, bow.embedding.edge_count) == (5, 6)
    assert sorted(f.length for f in bow.embedding.faces) == [6, 6]
    # the non-extendable 3-matching configurations: seven vertices, nine
    # edges, three hexagonal faces, six covered vertices and one uncovered
    for cid in "abcdefg":
        pat = get_pattern(cid)
        emb = pat.embedding
        assert emb.vertex_count == 7
        assert emb.edge_count == 9
        assert sorted(f.length for f in emb.faces) == [6, 6, 6]
        assert len(pat.gray) == 6
        assert pat.odd_faces == (0, 1, 2)
        assert emb.euler_char == 1 and not emb.orientable
    # minimal 6-cut shapes
    for pid, fvec in (("I", [6, 6]), ("II", [6, 8]), ("III", [6, 8]),
                      ("IV", [4, 6, 6])):
        emb = get_pattern(pid).embedding
        assert emb.vertex_count == 6
        assert sorted(f.length for f in emb.faces) == fvec


def test_config_role_variants():
    # (a) and (b) share fig4-1; (c) rides fig4-2; (d),(e) on fig4-3;
    # (f),(g) on fig4-4; the uncovered vertex degrees follow the figure
    emb_deg = {}
    for cid, base in (("a", "fig4-1"), ("b", "fig4-1"), ("c", "fig4-2"),
                      ("d", "fig4-3"), ("e", "fig4-3"), ("f", "fig4-4"),
                      ("g", "fig4-4")):
        pat = get_pattern(cid)
        assert canonical_key(pat.embedding) == \
            canonical_key(get_pattern(base).embedding)
        (uncovered,) = set(range(7)) - set(pat.gray)
        emb_deg[cid] = pat.embedding.srs.degree(uncovered)
    assert emb_deg == {"a": 4, "b": 3, "c": 6, "d": 3, "e": 3, "f": 3,
                       "g": 3}


def test_pattern_self_match():
    for pid in ("bowtie", "II", "III", "IV", "fig4-1", "fig4-2", "fig4-3",
                "fig4-4"):
        pat = get_pattern(pid)
        stripped = patterns()[pid]
        base = type(pat)(id=pid, embedding=pat.embedding,
                         gray=frozenset(), odd_faces=())
        maps = match_pattern(pat.embedding, base)
        assert any(all(phi[v] == v for v in phi) for phi in maps)


def test_k4_hosts_no_bowtie(k4):
    assert match_pattern(k4, get_pattern("bowtie")) == []


def test_odd_region_routes_agree(instances10):
    for inst in instances10:
        for length in (4, 6):
            a = find_odd_weighted_regions(inst, length)
            b = odd_regions_by_face_merge(inst, length)
            assert [r.boundary_walk for r in a] == \
                [r.boundary_walk for r in b]
            for r in a:
                assert r.interior_vertex_count % 2 == 1
                assert r.interior_vertex_count == len(r.interior_vertices)


def test_faces_never_odd_regions(instances10):
    # faces of Q(G) have no interior vertices, so they are never returned
    for inst in instances10:
        walks = {r.boundary_walk for r in find_odd_weighted_regions(inst, 4)}
        for f in inst.quad.embedding.faces:
            assert canonical_walk(f.vertices) not in walks


def test_barrier_4cycle_detected_on_small_host(corpus10):
    # the 5-vertex quadrangulation: a 4-cycle encloses its degree-2 vertex
    from o1ppg.surface import EmbeddedGraph
    _key, srs = corpus10[5][0]
    g = EmbeddedGraph(srs)
    regions = find_odd_weighted_regions(g, 4)
    assert len(regions) == 1
    r = regions[0]
    assert r.boundary_is_cycle
    assert len(r.boundary_walk) == 4
    assert r.interior_vertex_count == 1


def test_corpus_instances_have_no_barrier_4cycles(instances10):
    # at desk scale the optimal structure leaves no room for one; Theorem
    # 1.4's characterization then demands 2-extendability, which criterion
    # tests confirm
    from o1ppg.structures import barrier_cycles
    for inst in instances10:
        assert barrier_cycles(inst, 4) == []


def test_essential_triangle_complement_excluded(inst10):
    # the double traversal of an essential triangle bounds a disc whose
    # interior is everything else; it must not count as an odd region
    regions = find_odd_weighted_regions(inst10, 6)
    for r in regions:
        assert r.interior_vertex_count < inst10.n - 3


def test_bowtie_detectors_agree(instances10):
    pat = get_pattern("bowtie")
    for inst in instances10:
        bows = find_projective_bowties(inst.quad)
        maps = match_pattern(inst.quad.embedding, pat)
        via_maps = {(phi[0], frozenset((frozenset((phi[1], phi[2])),
                                        frozenset((phi[3], phi[4])))))
                    for phi in maps}
        via_bespoke = {(p1, frozenset((a, b))) for (p1, a, b) in bows}
        assert via_maps == via_bespoke


def test_bowtie_in_nonbipartite_host_only(instances10):
    for inst in instances10:
        if inst.quad.bipartite:
            assert find_projective_bowties(inst.quad) == []


def test_essentiality_routes_agree_on_hosts(instances10):
    # sign product -1 iff cutting along the cycle leaves one region
    from o1ppg.graphs import adjacency_masks, enumerate_cycles
    from o1ppg.surface import is_essential, is_essential_by_regions
    for inst in instances10:
        emb = inst.quad.embedding
        qadj = adjacency_masks(
            inst.n, [(u, v) for (u, v, _s) in emb.srs.edges])
        for cyc in enumerate_cycles(inst.n, qadj, 6):
            assert is_essential(emb, cyc) == is_essential_by_regions(emb, cyc)


def test_certificate_i_implies_odd_component(inst10):
    # a length-6 region with V(W) inside V(M) and an odd uncovered interior
    # forces an odd component, hence non-extendability
    ctx = CertificateContext.build(inst10)
    hit = 0
    for m in matchings_of_size(inst10, 3):
        vm = m.vertex_set(inst10)
        for walk, interior in ctx.regions6:
            if set(walk) <= vm and len(interior - vm) % 2 == 1:
                hit += 1
                assert not is_extendable(inst10, m)
                break
        if hit >= 25:
            break
    assert hit


def test_diagnose_preconditions(inst9, inst10):
    with pytest.raises(OddOrder):
        diagnose_3matching(inst9, Matching(frozenset()))
    with pytest.raises(NotFiveConnected):
        diagnose_3matching(inst10, Matching(frozenset([0, 1, 2])),
                           connectivity=4)
    with pytest.raises(ValueError):
        diagnose_3matching(inst10, Matching(frozenset([0])))


def test_diagnose_full_sweep_no_counterexamples(inst10):
    ctx = CertificateContext.build(inst10)
    counts = {"extendable": 0, "cert_i": 0, "cert_ii": 0}
    for m in matchings_of_size(inst10, 3):
        verdict, detail = diagnose_3matching(inst10, m, ctx=ctx,
                                             connectivity=6)
        assert verdict != "counterexample", detail
        counts[verdict] += 1
        if verdict == "extendable":
            assert is_extendable(inst10, m)
        else:
            assert not is_extendable(inst10, m)
    assert counts == {"extendable": 1539, "cert_i": 20, "cert_ii": 42}
