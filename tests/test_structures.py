"""Pattern fixtures, odd weighted regions, bowtie detection, and the
3-matching diagnosis."""

import random
from itertools import combinations

import pytest
from test_generator import _full_relabel
from test_matching import _sweep

from o1ppg.generator import canonical_key
from o1ppg import structures, surface, verify
from o1ppg.matching import Matching, is_extendable
from o1ppg.model import build_o1ppg, validate_quadrangulation
from o1ppg.oracles import (_walk_regions, bowties_by_triangle_pairs,
                           build_patterns, certificate_by_sets,
                           embeds_by_flips, is_orientable, matching_masks,
                           odd_regions_by_face_merge, pattern_maps_by_edges,
                           sweep_three_matchings_in_order)
from o1ppg.structures import (_CONFIG_ROLES, CertificateContext,
                              PATTERN_IDS, _candidate_maps, _parities_ok,
                              barrier_cycles, diagnose_mask,
                              find_odd_weighted_regions,
                              find_projective_bowties, get_pattern,
                              load_patterns, match_pattern, patterns,
                              sweep_three_matchings, two_cell_regions)
from o1ppg.graphs import mask_vertices
from o1ppg.surface import (EmbeddedGraph, canonical_walk, edge_lookup,
                           region_decompose,
                           short_walk_regions, signed_cycles)


def _regions(host):
    """The short-walk regions of an instance's embedding, or of a bare
    embedding."""
    emb = host.quad.embedding if hasattr(host, "quad") else host
    return short_walk_regions(emb, signed_cycles(emb.srs, 6))


def _ctx(inst):
    return CertificateContext.build(inst, _regions(inst))


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
        assert emb.euler_char == 1 and not is_orientable(emb.srs)
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


def _is_subsequence(sub, seq):
    """Whether ``sub`` is ``seq`` with some items left out."""
    rest = iter(seq)
    return all(item in rest for item in sub)


def test_match_pattern_agrees_with_flip_oracle(corpus10, instances10,
                                               corpus_n12):
    # every pattern on the n <= 10 instances, the committed n <= 12 ones,
    # the classes of minimum degree >= 3 of the n <= 10 corpus and the base
    # patterns themselves, whose graph automorphisms are candidate maps.
    # Of the maps sending pattern edges to host edges, signs ignored
    # (``pattern_maps_by_edges``), the encoding test accepts one iff some
    # vertex flip makes the host restricted to its image the pattern,
    # parities aside; the sign pruning of ``_candidate_maps`` keeps every
    # such map, in the same order, and drops some of the others
    hosts = [inst.quad.embedding for inst in instances10 + corpus_n12]
    classes = [EmbeddedGraph(srs) for members in corpus10.values()
               for _key, srs in members if min(map(len, srs.rotations)) >= 3]
    bases = [get_pattern(pid).embedding for pid in PATTERN_IDS
             if pid not in _CONFIG_ROLES]
    accepted = rejected = pruned = 0
    for host in hosts + classes + bases:
        edge_of = edge_lookup(host.srs)
        embedded = {}       # per base: its maps that pass the flip oracle
        for pid in PATTERN_IDS:
            pat = get_pattern(pid)
            base = _CONFIG_ROLES.get(pid, (pid,))[0]
            if base not in embedded:
                candidates = pattern_maps_by_edges(host, pat)
                kept = _candidate_maps(host, pat)
                embedded[base] = [phi for phi in candidates
                                  if embeds_by_flips(host, pat, phi)]
                assert _is_subsequence(kept, candidates)
                assert _is_subsequence(embedded[base], kept)
                rejected += len(candidates) - len(embedded[base])
                pruned += len(candidates) - len(kept)
            maps = match_pattern(host, pat)
            assert maps == [phi for phi in embedded[base] if _parities_ok(
                host, pat, [edge_of[phi[u], phi[v]]
                            for (u, v, _s) in pat.embedding.srs.edges])]
            if host in hosts:
                accepted += len(maps)
    assert accepted == 6710 and rejected > pruned > 0


def test_sign_pruning_leaves_fig4_3_no_candidate(even_n12, monkeypatch):
    # on the even n <= 12 hosts every edge-preserving map of fig4-3 has
    # unbalanced signs, so none reaches the restricted system and its
    # encoding (324 did without the sign pruning)
    restricted = []
    restrict = structures.restricted_system
    monkeypatch.setattr(structures, "restricted_system",
                        lambda *args: restricted.append(args)
                        or restrict(*args))
    pat = get_pattern("fig4-3")
    unpruned = 0
    for inst in even_n12:
        assert match_pattern(inst.quad.embedding, pat) == []
        unpruned += len(pattern_maps_by_edges(inst.quad.embedding, pat))
    assert restricted == [] and unpruned == 324


def test_k4_hosts_no_bowtie(k4):
    assert match_pattern(k4, get_pattern("bowtie")) == []


def test_odd_region_routes_agree(instances10):
    for inst in instances10:
        for length in (4, 6):
            a = find_odd_weighted_regions(_regions(inst), length)
            assert a == odd_regions_by_face_merge(inst, length)
            for _walk, r in a:
                assert r.interior_mask.bit_count() % 2 == 1


def _walk_shape(walk):
    """Vertex and edge counts of a closed walk's edge graph."""
    edges = {frozenset((walk[i - 1], walk[i])) for i in range(len(walk))}
    return len(set(walk)), len(edges)


def test_short_cycle_regions_match_closed_walk_oracle(corpus10, corpus_n12):
    # every filter over the short-walk finder against the sweep over every
    # closed walk, at each length, on every class grown to n <= 8 and the
    # committed n <= 12 instances
    hosts = [EmbeddedGraph(srs) for n, members in corpus10.items() if n <= 8
             for _key, srs in members]
    assert len(hosts) == 78
    shapes = set()
    for host in hosts + corpus_n12:
        emb = host.quad.embedding if hasattr(host, "quad") else host
        ref = sorted(dict(_walk_regions(emb, 6)).items())
        odd = [(walk, r) for walk, r in ref
               if r.interior_mask.bit_count() % 2]
        regions = _regions(emb)
        for length in (3, 4, 5, 6):
            assert find_odd_weighted_regions(regions, length) == [
                (walk, r) for walk, r in odd if len(walk) <= length]
            assert barrier_cycles(regions, length) == [
                (walk, r) for walk, r in odd
                if len(walk) == length == len(set(walk))]
            assert two_cell_regions(regions, length) == [
                (walk, r) for walk, r in ref if len(walk) == length]
        shapes |= {_walk_shape(walk)
                   for walk, _r in two_cell_regions(regions, 6)}
    # a 6-cycle, a figure-eight, a 4-cycle with a pendant edge and two
    # triangles sharing a doubled edge all bound regions, so no candidate
    # family of the finder is compared vacuously
    assert {(6, 6), (5, 6), (5, 5), (4, 5)} <= shapes
    for fn in (find_odd_weighted_regions, barrier_cycles, two_cell_regions):
        with pytest.raises(ValueError, match="at most 6"):
            fn(_regions(corpus_n12[0]), 7)


def test_short_walk_regions_from_facts_match_traced_walks(corpus10,
                                                          corpus_n12,
                                                          monkeypatch):
    # the discs of the cycles and of the 3- and 4-cycles with a pendant
    # edge, whose edge graphs have as many vertices as edges, are kept
    # untraced; traced afterwards, each has one walk, the walk it is keyed
    # by.  The triangle pairs, one edge more, are the regions traced
    hosts = [EmbeddedGraph(srs) for n, members in corpus10.items() if n <= 8
             for _key, srs in members]
    trace = surface.boundary_walks
    traced = {}         # the regions of every traced cut, kept alive by id

    def recording(g, cut_edges, regions):
        traced.update((id(r), r) for r in regions)
        return trace(g, cut_edges, regions)

    monkeypatch.setattr(surface, "boundary_walks", recording)
    untraced = set()
    for host in hosts + corpus_n12:
        emb = host.quad.embedding if hasattr(host, "quad") else host
        edge_of = edge_lookup(emb.srs)
        for walk, region in _regions(emb):
            vertices, edges = _walk_shape(walk)
            assert (id(region) not in traced) == (vertices == edges)
            if id(region) not in traced:
                untraced.add((len(walk), vertices))
                cut = {edge_of[(a, b)]
                       for a, b in zip(walk, walk[1:] + walk[:1])}
                regions = region_decompose(emb, cut)
                (walk_of,) = trace(emb, cut, regions)[regions.index(region)]
                assert canonical_walk(walk_of.vertices) == walk
    # two-sided cycles are even in a quadrangulation: 4- and 6-cycles, and
    # 4-cycles with a pendant edge
    assert untraced == {(4, 4), (6, 6), (6, 5)}


def test_short_walk_regions_read_the_audit_cycles(corpus10, corpus_n12):
    # the audit enumerates the cycles of at most 8 vertices once: those of
    # at most 6, which short_walk_regions reads, are the length-6 search's
    # cycles in its order, so both lists give the same regions
    hosts = [EmbeddedGraph(srs) for n, members in corpus10.items() if n <= 8
             for _key, srs in members]
    for emb in hosts + [inst.quad.embedding for inst in corpus_n12]:
        cycles = signed_cycles(emb.srs, 8)
        short = signed_cycles(emb.srs, 6)
        assert [(c, s) for c, s in cycles if len(c) <= 6] == short
        assert short_walk_regions(emb, cycles) == \
            short_walk_regions(emb, short)
    assert len(hosts) == 78


def test_faces_never_odd_regions(instances10):
    # faces of Q(G) have no interior vertices, so they are never returned
    for inst in instances10:
        walks = {walk for walk, _r in find_odd_weighted_regions(
            _regions(inst), 4)}
        for f in inst.quad.embedding.faces:
            assert canonical_walk(f.vertices) not in walks


def test_barrier_4cycle_detected_on_small_host(corpus10):
    # the 5-vertex quadrangulation: a 4-cycle encloses its degree-2 vertex
    from o1ppg.surface import EmbeddedGraph
    _key, srs = corpus10[5][0]
    g = EmbeddedGraph(srs)
    [(walk, r)] = find_odd_weighted_regions(_regions(g), 4)
    assert len(walk) == len(set(walk)) == 4
    assert r.interior_mask.bit_count() == 1


def test_corpus_instances_have_no_barrier_4cycles(instances10):
    # at desk scale the optimal structure leaves no room for one; Theorem
    # 1.4's characterization then demands 2-extendability, which criterion
    # tests confirm
    for inst in instances10:
        assert barrier_cycles(_regions(inst), 4) == []


def test_essential_triangle_complement_excluded(inst10):
    # the double traversal of an essential triangle bounds a disc whose
    # interior is everything else; it must not count as an odd region
    for _walk, r in find_odd_weighted_regions(_regions(inst10), 6):
        assert r.interior_mask.bit_count() < inst10.n - 3


def test_bowtie_detectors_agree(instances10, corpus_n12):
    # the bowties read off the pattern maps are the triangle pairs whose
    # cut leaves two hexagons, each once, in (hub, pair, pair) order
    for inst in instances10 + corpus_n12:
        bows = find_projective_bowties(inst.quad.embedding)
        assert bows == sorted(bows, key=lambda b: (b[0], sorted(b[1]),
                                                   sorted(b[2])))
        assert all(sorted(a) < sorted(b) for (_hub, a, b) in bows)
        pairs = {(hub, frozenset((a, b))) for (hub, a, b) in bows}
        assert len(pairs) == len(bows)
        assert pairs == bowties_by_triangle_pairs(inst.quad.embedding)


def test_bowties_sorted_by_hub_then_pairs():
    # three bowties share the degree-6 hub of fig4-2, so only the pairs
    # order them, as sorted tuples, never as frozensets
    host = get_pattern("fig4-2").embedding
    assert find_projective_bowties(host) == [
        (0, frozenset({1, 2}), frozenset({3, 4})),
        (0, frozenset({1, 2}), frozenset({5, 6})),
        (0, frozenset({3, 4}), frozenset({5, 6}))]


def test_bowtie_in_nonbipartite_host_only(instances10):
    for inst in instances10:
        if inst.quad.bipartite:
            assert find_projective_bowties(inst.quad.embedding) == []


def test_essentiality_routes_agree_on_hosts(instances10, even_n12):
    # sign product -1 iff cutting along the cycle leaves one region, and
    # the id ``edge_lookup`` gives each pair of consecutive cycle vertices
    # joins them; up to P2.1's length 8 on the even n <= 12 hosts, the sign
    # the cycle search carries is the product over those ids, and the
    # cycles are those of the unsigned search, in its order
    from o1ppg.graphs import enumerate_cycles
    from o1ppg.oracles import is_essential, is_essential_by_regions
    from o1ppg.surface import _sign_product

    def cycle_ids(srs, cyc):
        edge_of = edge_lookup(srs)
        return [edge_of[cyc[i], cyc[(i + 1) % len(cyc)]]
                for i in range(len(cyc))]

    for inst in instances10:
        emb = inst.quad.embedding
        for cyc, sign in signed_cycles(emb.srs, 6):
            assert (sign == -1) == is_essential(emb, cyc)
            assert (sign == -1) == is_essential_by_regions(emb, cyc)
            assert [set(emb.srs.edges[e][:2])
                    for e in cycle_ids(emb.srs, cyc)] == [
                {cyc[i], cyc[(i + 1) % len(cyc)]} for i in range(len(cyc))]
    long = 0
    for inst in even_n12:
        emb = inst.quad.embedding
        cycles = signed_cycles(emb.srs, 8)
        assert [cyc for cyc, _sign in cycles] == enumerate_cycles(
            inst.n, emb.srs.adjacency_masks(), 8)
        for cyc, sign in cycles:
            assert sign == _sign_product(emb.srs, cycle_ids(emb.srs, cyc))
            assert (sign == -1) == is_essential(emb, cyc)
            long += len(cyc) > 6
    assert long


def test_certificate_i_implies_odd_component(inst10):
    # a length-6 region with V(W) inside V(M) and an odd uncovered interior
    # forces an odd component, hence non-extendability
    ctx = _ctx(inst10)
    sweep = _sweep(inst10, 3)
    hit = 0
    for combo, _vm in matching_masks(inst10, 3):
        m = Matching(frozenset(combo))
        vm = m.vertex_set(inst10)
        for walk, region in ctx.regions6:
            inside = set(mask_vertices(region.interior_mask))
            if set(walk) <= vm and len(inside - vm) % 2:
                hit += 1
                assert not is_extendable(inst10, m, sweep)
                break
        if hit >= 25:
            break
    assert hit


def test_diagnose_full_sweep_no_counterexamples(inst10):
    ctx = _ctx(inst10)
    sweep = _sweep(inst10, 3)
    counts = {"extendable": 0, "cert_i": 0, "cert_ii": 0}
    for combo, vm in matching_masks(inst10, 3):
        extendable = is_extendable(inst10, Matching(frozenset(combo)), sweep)
        verdict, detail = diagnose_mask(vm, extendable, ctx)
        assert verdict != "counterexample", detail
        counts[verdict] += 1
        assert (verdict == "extendable") == extendable
    assert counts == {"extendable": 1539, "cert_i": 20, "cert_ii": 42}


def test_context_matches_direct_computation(inst10, even_n12):
    for inst in [inst10] + even_n12:
        emb = inst.quad.embedding
        ctx = _ctx(inst)
        for cid in "abcdefg":
            assert ctx.config_maps[cid] == match_pattern(emb, get_pattern(cid))
        assert ctx.regions6 == [(walk, region)
                                for walk, region in _walk_regions(emb, 6)
                                if len(walk) == 6]


def test_mask_certificate_agrees_with_set_oracle(inst10, even_n12):
    # the inverted index against the set scan on every six-vertex subset,
    # covered by a 3-matching or not
    fired = {"cert_i": 0, "cert_ii": 0}
    for inst in [inst10] + even_n12:
        ctx = _ctx(inst)
        masks = set()
        for vs in combinations(range(inst.n), 6):
            vm = sum(1 << v for v in vs)
            masks.add(vm)
            cert = ctx.certificates.get(vm)
            assert cert == certificate_by_sets(ctx, set(vs)), (inst.key, vs)
            if cert is not None:
                fired[cert[0]] += 1
        # the index holds six-vertex masks only
        assert set(ctx.certificates) <= masks
    # both certificate kinds occur, so neither comparison is vacuous
    assert fired["cert_i"] and fired["cert_ii"]


def _sweep_cases(inst10, even_n12):
    """``inst10``, the ten even corpus-n12 instances and a full relabelling
    of each of those."""
    rng = random.Random(67)
    relabelled = [build_o1ppg(validate_quadrangulation(EmbeddedGraph(
        _full_relabel(inst.quad.embedding.srs, rng)[0])))
        for inst in even_n12]
    return [inst10] + even_n12 + relabelled


def test_mask_sweep_matches_ordered_sweep(inst10, even_n12):
    # equal counts, no disagreement, and the 3-matching sweep's
    # non-extendable list is the ordered sweep's, in the same order
    nonext = 0
    for inst in _sweep_cases(inst10, even_n12):
        sweep = _sweep(inst, 3)
        counts, disagreement = sweep_three_matchings(inst, sweep,
                                                     _regions(inst))
        want_counts, want_nonext, want = sweep_three_matchings_in_order(inst)
        assert (counts, disagreement) == (want_counts, want)
        assert disagreement is None
        assert [Matching(frozenset(combo))
                for combo in sweep.nonextendable] == want_nonext
        nonext += len(want_nonext)
    assert nonext


def test_mask_sweep_disagreement_matches_ordered_sweep(inst10, even_n12,
                                                       monkeypatch):
    # drop the certificate of the mask of the middle non-extendable
    # 3-matching: both sweeps name the first matching covering that mask,
    # with the same detail, and L4.2 still audits every non-extendable
    # 3-matching, those after the disagreement too
    cases = [(inst, sweep_three_matchings_in_order(inst)[1])
             for inst in _sweep_cases(inst10, even_n12)]
    dropped = {id(inst): sum(1 << v for v in
                             nonext[len(nonext) // 2].vertex_set(inst))
               for inst, nonext in cases}
    build = CertificateContext.build.__func__

    def forced(cls, inst, regions):
        ctx = build(cls, inst, regions)
        del ctx.certificates[dropped[id(inst)]]
        return ctx

    blocked = []
    find_blocker = verify.find_blocker

    def recorded(inst, m, k, sweep):
        if k == 2:
            blocked.append(m)
        return find_blocker(inst, m, k, sweep)

    monkeypatch.setattr(CertificateContext, "build", classmethod(forced))
    monkeypatch.setattr(verify, "find_blocker", recorded)
    for inst, nonext in cases:
        _counts, got = sweep_three_matchings(
            inst, _sweep(inst, 3), _regions(inst))
        _counts, partial, want = sweep_three_matchings_in_order(inst)
        assert got == want
        combo, detail = got
        assert detail == {"extendable": False, "certificate": None}
        assert sum(1 << v for v in Matching(frozenset(combo)).vertex_set(
            inst)) == dropped[id(inst)]
        assert partial == nonext[:len(partial)]
        assert len(partial) < len(nonext)
        blocked.clear()
        t16, l42 = verify.audit_instance(
            inst, verify.AuditConfig(theorems=("T1.6", "L4.2")))
        assert (t16.verdict, t16.witness) == (
            "fail", verify._edges_str(inst, combo))
        assert l42.verdict == "pass"
        assert blocked == nonext
