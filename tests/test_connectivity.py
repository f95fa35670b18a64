"""Cuts, the embedded Q[S], shape classification, and the lemma audits."""

import random

from o1ppg.connectivity import (audit_cut_lemmas, enumerate_cuts,
                                vertex_connectivity)
from o1ppg.generator import canonical_key
from o1ppg.graphs import adjacency_masks, vertex_connectivity_flow
from o1ppg.oracles import vertex_connectivity_bruteforce


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


def test_instance_connectivity_both_routes(instances10):
    for inst in instances10:
        conn = vertex_connectivity(inst)
        assert conn == vertex_connectivity_bruteforce(inst.n, inst.adj, 8)
        assert 4 <= conn <= 6


def test_no_small_cuts(instances10):
    for inst in instances10:
        for k in (1, 2, 3):
            assert enumerate_cuts(inst, k) == []


def test_five_cuts_are_bowties(inst9):
    assert vertex_connectivity(inst9) == 5
    cuts = enumerate_cuts(inst9, 5)
    assert cuts
    for ca in cuts:
        assert ca.is_minimal
        assert ca.shape == "bowtie"
        assert ca.odd_count + ca.even_count == len(ca.components)
        # the cut subgraph is embedded-isomorphic to the fixture
        from o1ppg.structures import get_pattern
        assert canonical_key(ca.qs.srs) == \
            canonical_key(get_pattern("bowtie").embedding)


def test_minimal_six_cut_shapes(inst10):
    assert vertex_connectivity(inst10) == 6
    cuts = enumerate_cuts(inst10, 6, minimal_only=True)
    shapes = sorted(ca.shape for ca in cuts)
    assert shapes == ["I", "III", "III", "III"]
    for ca in cuts:
        assert len(ca.qs.region_walks) >= 2


def test_cut_component_counts(inst10):
    for ca in enumerate_cuts(inst10, 6):
        covered = set(ca.S)
        for comp in ca.components:
            covered |= set(comp)
        assert covered == set(range(inst10.n))
        assert ca.odd_count == sum(1 for c in ca.components if len(c) % 2)


def test_q_induced_subgraph_walks_match_regions(inst10):
    # the restricted rotation system's own face trace agrees with the
    # region walks inherited from the host
    from o1ppg.surface import trace_faces
    for ca in enumerate_cuts(inst10, 6)[:20]:
        qs = ca.qs
        if not qs.edges:
            continue
        own = sorted(f.length for f in trace_faces(qs.srs))
        host = sorted(w.length for w in qs.region_walks)
        assert own == host


def test_audits_pass_on_all_cuts(instances10):
    for inst in instances10:
        conn = vertex_connectivity(inst)
        for k in range(conn, 8):
            if k >= inst.n - 1:
                break
            for ca in enumerate_cuts(inst, k):
                audit = audit_cut_lemmas(inst, ca, connectivity=conn)
                assert "fail" not in audit.values(), (sorted(ca.S), audit)


def test_nonminimal_cut_tolerated(inst10):
    # non-minimal 7-cuts may classify as "other" without contradiction
    cuts = enumerate_cuts(inst10, 7)
    assert any(not ca.is_minimal for ca in cuts)
    for ca in cuts:
        if not ca.is_minimal:
            assert ca.shape in ("I", "II", "III", "IV", "bowtie",
                                "trivial4cycle-bearing", "other")
