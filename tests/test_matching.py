"""Maximum matching, extendability, blockers, Hamiltonian-path matchings."""

import random

import pytest

from o1ppg import _kernels, matching
from o1ppg.errors import (NoBlockerFound, OddOrder, SearchBudgetExceeded,
                          TooSmall)
from o1ppg.graphs import adjacency_masks, vertex_connectivity_flow
from o1ppg.matching import (Matching, find_blocker, hamiltonian_path,
                            is_extendable, k_extendability,
                            matching_via_hamiltonian_path, matchings_of_size,
                            maximum_matching, maximum_matching_instance,
                            spanning_triangulation)
from o1ppg.model import build_o1ppg, link, validate_quadrangulation
from o1ppg.oracles import is_extendable_bruteforce, max_matching_size
from o1ppg.surface import EmbeddedGraph
from o1ppg.verify import AuditConfig, audit_instance

PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6),
            (6, 8), (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def _adj_lists(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def test_maximum_matching_examples():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert len(maximum_matching(_adj_lists(4, k4))) == 2
    p3 = [(0, 1), (1, 2)]
    assert len(maximum_matching(_adj_lists(3, p3))) == 1
    assert len(maximum_matching(_adj_lists(10, PETERSEN))) == 5


def test_blossom_agrees_with_dp_oracle():
    rng = random.Random(20260810)
    for _ in range(2000):
        n = rng.randint(1, 12)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        mm = maximum_matching(_adj_lists(n, edges))
        masks = adjacency_masks(n, edges)
        assert len(mm) == max_matching_size(masks, (1 << n) - 1)


def test_pm_exists_agrees_with_dp_oracle():
    rng = random.Random(7)
    cases = set()
    for _ in range(1000):
        n = rng.randint(1, 12)
        p = rng.choice((0.2, 0.4, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        masks = adjacency_masks(n, edges)
        for alive in (0, (1 << n) - 1, rng.getrandbits(n)):
            want = 2 * max_matching_size(masks, alive) == alive.bit_count()
            assert _kernels.pm_exists(masks, alive) == want
            cases.add((alive.bit_count() % 2, want))
    # odd masks, and even masks with and without a perfect matching, occur
    assert cases == {(0, True), (0, False), (1, False)}


def test_empty_matching_extendability_equals_pm(inst10):
    assert is_extendable(inst10, Matching(frozenset()))
    assert maximum_matching_instance(inst10).k == inst10.n // 2


def test_single_edges_extendable(inst10):
    for e in range(inst10.edge_count):
        m = Matching(frozenset([e]))
        assert is_extendable(inst10, m)
        assert is_extendable_bruteforce(inst10, m)


def test_extendability_oracle_agreement(inst10):
    rng = random.Random(5)
    ms = list(matchings_of_size(inst10, 2))
    for m in rng.sample(ms, 150):
        assert is_extendable(inst10, m) == is_extendable_bruteforce(inst10, m)
    ms3 = list(matchings_of_size(inst10, 3))
    for m in rng.sample(ms3, 150):
        assert is_extendable(inst10, m) == is_extendable_bruteforce(inst10, m)


def test_odd_order_raises(inst9):
    with pytest.raises(OddOrder):
        is_extendable(inst9, Matching(frozenset()))
    with pytest.raises(OddOrder):
        k_extendability(inst9, 1)


def test_k_extendability_values(inst10):
    ok1, w1 = k_extendability(inst10, 1)
    assert ok1 and w1 is None
    ok3, w3 = k_extendability(inst10, 3)
    assert not ok3 and w3.k == 3
    assert not is_extendable(inst10, w3)
    with pytest.raises(TooSmall):
        k_extendability(inst10, 5)


def test_degree6_link_alternating_triple_not_extendable(inst10):
    # three alternating edges on the link of a degree-6 vertex
    v = next(u for u in range(inst10.n) if inst10.degree(u) == 6)
    lk = link(inst10, v)
    assert len(lk) == 6
    triple = [inst10.edge_id(lk[i], lk[(i + 1) % 6]) for i in (0, 2, 4)]
    m = Matching(frozenset(triple))
    assert m.k == 3
    assert not is_extendable(inst10, m)
    assert not is_extendable_bruteforce(inst10, m)


def test_blocker_for_nonextendable_3matching(inst10):
    _ok, w3 = k_extendability(inst10, 3)
    blk = find_blocker(inst10, w3, 2)
    assert len(blk.S) == blk.odd_components + 4
    assert len(blk.S) in (6, 7)
    assert w3.vertex_set(inst10) <= set(blk.S)


def test_blocker_rejects_extendable(inst10):
    m2 = next(matchings_of_size(inst10, 2))
    assert is_extendable(inst10, m2)
    with pytest.raises(NoBlockerFound):
        find_blocker(inst10, m2, 1)


def test_spanning_triangulation_four_connected(inst10, inst9):
    for inst in (inst10, inst9):
        adj, edges = spanning_triangulation(inst)
        assert len(edges) == inst.q_edge_count + (inst.n - 1)
        assert vertex_connectivity_flow(inst.n, adj, 4) >= 4


def test_hamiltonian_path_matching_every_edge(inst10):
    for e in range(inst10.edge_count):
        m = matching_via_hamiltonian_path(inst10, e)
        assert e in m.edges
        assert m.k == inst10.n // 2
        assert is_extendable_bruteforce(
            inst10, Matching(frozenset([e])))


def test_hamiltonian_path_endpoints():
    # a 4-cycle has a Hamiltonian path between adjacent vertices only
    adj = adjacency_masks(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert hamiltonian_path(4, adj, 0, 1) is not None
    assert hamiltonian_path(4, adj, 0, 2) is None


def _fresh(inst):
    """The same instance rebuilt, with nothing computed on it yet."""
    q = validate_quadrangulation(EmbeddedGraph(inst.quad.embedding.srs))
    return build_o1ppg(q, key=inst.key)


def _count_flow_calls(monkeypatch):
    """List that records every connectivity flow call made by matching."""
    calls = []
    flow = matching.vertex_connectivity_flow

    def counted(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(matching, "vertex_connectivity_flow", counted)
    return calls


def test_t13_audit_builds_the_triangulation_once(inst10, monkeypatch):
    calls = _count_flow_calls(monkeypatch)
    spanning_triangulation(_fresh(inst10))
    one_build = len(calls)
    assert one_build >= 1
    calls.clear()
    built = {}
    make = matching.matching_via_hamiltonian_path
    monkeypatch.setattr("o1ppg.verify.matching_via_hamiltonian_path",
                        lambda inst, e: built.setdefault(e, make(inst, e)))
    audited = _fresh(inst10)
    results = audit_instance(audited, AuditConfig(theorems=("T1.3",)))
    assert [r.verdict for r in results] == ["pass"]
    assert len(calls) == one_build
    assert sorted(built) == list(range(inst10.edge_count))
    for e, m in built.items():
        assert m == make(_fresh(inst10), e)


def test_spanning_triangulation_budget(inst9, monkeypatch):
    # the lexicographic selection of inst9 is not 4-connected, so the
    # fallback search runs; cut it short and it must say which budget ran out
    calls = _count_flow_calls(monkeypatch)
    spanning_triangulation(_fresh(inst9))
    assert len(calls) > 2
    monkeypatch.setattr(matching, "TRIANGULATION_SELECTION_BUDGET", 2)
    with pytest.raises(SearchBudgetExceeded,
                       match="TRIANGULATION_SELECTION_BUDGET"):
        spanning_triangulation(_fresh(inst9))


def test_hamiltonian_path_budget(inst10, monkeypatch):
    # K_{4,4} has no Hamiltonian path between two vertices of one side;
    # the DFS settles that within the default budget but not within 20
    adj = adjacency_masks(8, [(u, v) for u in range(4) for v in range(4, 8)])
    assert hamiltonian_path(8, adj, 0, 1) is None
    monkeypatch.setattr(matching, "HAMILTONIAN_PATH_NODE_BUDGET", 20)
    with pytest.raises(SearchBudgetExceeded,
                       match="HAMILTONIAN_PATH_NODE_BUDGET"):
        hamiltonian_path(8, adj, 0, 1)
    # the T1.3 audit reports the exceeded budget as a failure record
    monkeypatch.setattr(matching, "HAMILTONIAN_PATH_NODE_BUDGET", 1)
    [res] = audit_instance(_fresh(inst10), AuditConfig(theorems=("T1.3",)))
    assert res.verdict == "fail"
    assert "HAMILTONIAN_PATH_NODE_BUDGET" in res.detail
