"""Perfect matchings, extendability, blockers, Hamiltonian-path matchings."""

import random
from itertools import combinations

import pytest
from test_generator import _full_relabel

from o1ppg import _kernels, matching, oracles
from o1ppg.errors import (NoBlockerFound, OddOrder, SearchBudgetExceeded,
                          TooSmall)
from o1ppg.graphs import adjacency_masks, vertex_connectivity_flow
from o1ppg.matching import (Matching, covered_masks, find_blocker,
                            hamiltonian_path, is_extendable, k_extendability,
                            mask_matchings, matching_sweep,
                            matching_via_hamiltonian_path,
                            spanning_triangulation)
from o1ppg.model import build_o1ppg, link, validate_quadrangulation
from o1ppg.oracles import (is_extendable_bruteforce, k_extendability_in_order,
                           matching_masks, max_matching_size,
                           spanning_triangulation_by_selections)
from o1ppg.surface import EmbeddedGraph
from o1ppg.verify import AuditConfig, audit_instance

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


def test_shared_memo_agrees_with_dp_oracle(inst10):
    # one memo shared by the sweeps of k = 0..3 and direct kernel calls
    inst = inst10
    memo = {0: True}
    rng = random.Random(11)
    full = (1 << inst.n) - 1
    calls = [Matching(frozenset(combo)) for k in (0, 1, 2, 3)
             for combo, _vm in matching_masks(inst, k)]
    calls += [rng.getrandbits(inst.n) for _ in range(400)]
    rng.shuffle(calls)
    sweeps = {}
    seen = set()
    for call in calls:
        if isinstance(call, Matching):
            alive = full
            for v in call.vertex_set(inst):
                alive ^= 1 << v
            if call.k not in sweeps:
                sweeps[call.k] = matching_sweep(inst, call.k, memo)
            got = is_extendable(inst, call, sweeps[call.k])
        else:
            alive = call
            got = _kernels.pm_exists(inst.adj, alive, memo)
        want = 2 * max_matching_size(inst.adj, alive) == alive.bit_count()
        assert got == want
        seen.add((isinstance(call, Matching), alive.bit_count() % 2, want))
    assert {(True, 0, False), (True, 0, True), (False, 1, False),
            (False, 0, True), (False, 0, False)} <= seen
    assert all(mask.bit_count() % 2 == 0 for mask in memo)
    assert len(memo) <= 1 << inst.n


def test_matching_masks_match_combinations(corpus_n12, instances10):
    # the backtracking walk yields what filtering every k-subset of edge
    # ids yields, in the same lexicographic order, with the covered mask
    for inst in corpus_n12 + instances10:
        bits = [(1 << u) | (1 << v) for (u, v) in inst.edges]
        for k in (1, 2, 3):
            want = []
            for combo in combinations(range(len(bits)), k):
                mask = 0
                for e in combo:
                    mask |= bits[e]
                if mask.bit_count() == 2 * k:
                    want.append((combo, mask))
            assert list(matching_masks(inst, k)) == want
        assert list(matching_masks(inst, 0)) == [((), 0)]


def test_covered_masks_count_the_sweep(corpus_n12, instances10):
    # each covered mask with the number of k-matchings covering it, and
    # each mask's matchings, against the ordered walk
    for inst in corpus_n12 + instances10:
        for k in (1, 2, 3):
            by_mask = {}
            for combo, vm in matching_masks(inst, k):
                by_mask.setdefault(vm, []).append(combo)
            assert covered_masks(inst, k) == {
                vm: len(combos) for vm, combos in by_mask.items()}
            for vm, combos in by_mask.items():
                assert sorted(mask_matchings(inst, vm)) == combos


def test_k_extendability_matches_ordered_sweep(corpus_n12, instances10):
    # the least non-extendable matching of the sweep by covered masks is
    # the first one the ordered early-exit sweep meets, on the corpora and
    # on a relabelling of corpus-n12, whose edge ids are shuffled; the
    # sweep's blocked masks are those whose complement has no perfect
    # matching, and its non-extendable list is every k-matching on them
    rng = random.Random(23)
    relabelled = [build_o1ppg(validate_quadrangulation(EmbeddedGraph(
        _full_relabel(inst.quad.embedding.srs, rng)[0])))
        for inst in corpus_n12]
    verdicts = set()
    for inst in corpus_n12 + instances10 + relabelled:
        for k in (1, 2, 3):
            if inst.n % 2:
                with pytest.raises(OddOrder):
                    matching_sweep(inst, k, {0: True})
                with pytest.raises(OddOrder):
                    k_extendability_in_order(inst, k)
                continue
            sweep = matching_sweep(inst, k, {0: True})
            got = k_extendability(inst, sweep)
            assert got == k_extendability_in_order(inst, k), (inst.key, k)
            verdicts.add((k, got[0]))
            full = (1 << inst.n) - 1
            assert sweep.blocked == {
                vm for vm in sweep.covered
                if 2 * max_matching_size(inst.adj, full ^ vm)
                != inst.n - 2 * k}
            assert sweep.nonextendable == [
                combo for combo, vm in matching_masks(inst, k)
                if vm in sweep.blocked]
    # every instance is 2- but not 3-extendable, so both verdicts occur
    assert verdicts == {(1, True), (2, True), (3, False)}


def _sweep(inst, k):
    """The instance's k-matching sweep, on a memo of its own."""
    return matching_sweep(inst, k, {0: True})


def test_empty_matching_extendability_equals_pm(inst10):
    assert is_extendable(inst10, Matching(frozenset()), _sweep(inst10, 0))


def test_single_edges_extendable(inst10):
    sweep = _sweep(inst10, 1)
    for e in range(inst10.edge_count):
        m = Matching(frozenset([e]))
        assert is_extendable(inst10, m, sweep)
        assert is_extendable_bruteforce(inst10, m)
    # a sweep of another k answers no question about a single edge
    with pytest.raises(ValueError, match="2-sweep"):
        is_extendable(inst10, m, _sweep(inst10, 2))


def test_extendability_oracle_agreement(inst10):
    rng = random.Random(5)
    for k in (2, 3):
        sweep = _sweep(inst10, k)
        ms = [Matching(frozenset(c)) for c, _vm in matching_masks(inst10, k)]
        for m in rng.sample(ms, 150):
            assert is_extendable(inst10, m, sweep) == \
                is_extendable_bruteforce(inst10, m)


def test_odd_order_raises(inst9):
    for k in (0, 1):
        with pytest.raises(OddOrder):
            _sweep(inst9, k)


def test_k_extendability_values(inst10):
    ok1, w1 = k_extendability(inst10, _sweep(inst10, 1))
    assert ok1 and w1 is None
    sweep3 = _sweep(inst10, 3)
    ok3, w3 = k_extendability(inst10, sweep3)
    assert not ok3 and w3.k == 3
    assert not is_extendable(inst10, w3, sweep3)
    with pytest.raises(TooSmall):
        k_extendability(inst10, _sweep(inst10, 5))


def test_degree6_link_alternating_triple_not_extendable(inst10):
    # three alternating edges on the link of a degree-6 vertex
    v = next(u for u in range(inst10.n) if inst10.degree(u) == 6)
    lk = link(inst10, v)
    assert len(lk) == 6
    triple = [inst10.edge_id(lk[i], lk[(i + 1) % 6]) for i in (0, 2, 4)]
    m = Matching(frozenset(triple))
    assert m.k == 3
    assert not is_extendable(inst10, m, _sweep(inst10, 3))
    assert not is_extendable_bruteforce(inst10, m)


def test_blocker_for_nonextendable_3matching(inst10):
    sweep3 = _sweep(inst10, 3)
    _ok, w3 = k_extendability(inst10, sweep3)
    blk = find_blocker(inst10, w3, 2, sweep3)
    assert len(blk.S) == blk.odd_components + 4
    assert len(blk.S) in (6, 7)
    assert w3.vertex_set(inst10) <= set(blk.S)


def test_blocker_rejects_extendable(inst10):
    m2 = Matching(frozenset(next(matching_masks(inst10, 2))[0]))
    sweep2 = _sweep(inst10, 2)
    assert is_extendable(inst10, m2, sweep2)
    with pytest.raises(NoBlockerFound):
        find_blocker(inst10, m2, 1, sweep2)


def test_spanning_triangulation_four_connected(inst10, inst9):
    for inst in (inst10, inst9):
        adj, edges = spanning_triangulation(inst)
        assert len(edges) == inst.q_edge_count + (inst.n - 1)
        assert vertex_connectivity_flow(inst.n, adj, 4) >= 4


def test_hamiltonian_path_matching_every_edge(inst10):
    triangulation = spanning_triangulation(inst10)
    for e in range(inst10.edge_count):
        m = matching_via_hamiltonian_path(inst10, e, triangulation)
        assert e in m.edges
        assert m.k == inst10.n // 2
        assert is_extendable_bruteforce(
            inst10, Matching(frozenset([e])))


def test_hamiltonian_path_endpoints():
    # a 4-cycle has a Hamiltonian path between adjacent vertices only
    adj = adjacency_masks(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert hamiltonian_path(4, adj, 0, 1) is not None
    assert hamiltonian_path(4, adj, 0, 2) is None


def _assert_hamiltonian_path(n, adj, s, t, path):
    assert path[0] == s and path[-1] == t
    assert sorted(path) == list(range(n))
    assert all(adj[a] >> b & 1 for a, b in zip(path, path[1:]))


def test_hamiltonian_path_agrees_with_plain_dfs(even_n12):
    # every edge of the even n <= 12 instances, in the spanning
    # triangulation T1.3 searches, and every ordered vertex pair of small
    # random graphs: both searches find a path or neither does, and every
    # path found is a Hamiltonian path with the asked endpoints
    cases = []
    for inst in even_n12:
        adj, _edges = spanning_triangulation(inst)
        cases += [(inst.n, adj, u, v) for (u, v) in inst.edges]
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 8)
        p = rng.choice((0.3, 0.5, 0.8))
        adj = adjacency_masks(n, [(u, v) for u, v in combinations(range(n), 2)
                                  if rng.random() < p])
        cases += [(n, adj, s, t) for s in range(n) for t in range(n)
                  if s != t]
    found = set()
    for n, adj, s, t in cases:
        fast = hamiltonian_path(n, adj, s, t)
        slow = oracles.hamiltonian_path_by_plain_dfs(n, adj, s, t)
        assert (fast is None) == (slow is None)
        for path in (fast, slow):
            if path is not None:
                _assert_hamiltonian_path(n, adj, s, t, path)
        found.add(fast is not None)
    assert found == {True, False}


class _CountingBudget(int):
    """A node budget that counts the DFS nodes checked against it: each
    node compares its count with the budget once, and ``count > budget``
    calls this subclass's reflected ``__lt__`` first."""

    nodes = 0

    def __lt__(self, other):
        _CountingBudget.nodes += 1
        return int.__lt__(self, other)


def test_hamiltonian_path_nodes_over_t13_audit(even_n12, monkeypatch):
    # the degree prune and the fewest-unvisited-neighbours order keep the
    # T1.3 audit of the even n <= 12 instances, 432 searches, near 5,130
    # nodes; the plain DFS of the oracle visits 23,876
    monkeypatch.setattr(matching, "HAMILTONIAN_PATH_NODE_BUDGET",
                        _CountingBudget(1 << 20))
    monkeypatch.setattr(_CountingBudget, "nodes", 0)
    for inst in even_n12:
        [res] = audit_instance(inst, AuditConfig(theorems=("T1.3",)))
        assert res.verdict == "pass"
    assert 432 <= _CountingBudget.nodes <= 6000


def _count_flow_calls(monkeypatch, module=matching):
    """List that records every connectivity flow call made by ``module``."""
    calls = []
    flow = module.vertex_connectivity_flow

    def counted(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(module, "vertex_connectivity_flow", counted)
    return calls


def test_t13_audit_builds_the_triangulation_once(inst10, monkeypatch):
    calls = _count_flow_calls(monkeypatch)
    triangulation = spanning_triangulation(inst10)
    one_build = len(calls)
    assert one_build >= 1
    calls.clear()
    built = {}
    make = matching.matching_via_hamiltonian_path
    monkeypatch.setattr(
        "o1ppg.verify.matching_via_hamiltonian_path",
        lambda inst, e, tri: built.setdefault(e, make(inst, e, tri)))
    results = audit_instance(inst10, AuditConfig(theorems=("T1.3",)))
    assert [r.verdict for r in results] == ["pass"]
    assert len(calls) == one_build
    assert sorted(built) == list(range(inst10.edge_count))
    for e, m in built.items():
        assert m == make(inst10, e, triangulation)


def test_spanning_triangulation_budget(inst9, monkeypatch):
    # the lexicographic selection of inst9 is not 4-connected, so the
    # fallback search runs; cut it short and it must say which budget ran out
    calls = _count_flow_calls(monkeypatch, oracles)
    spanning_triangulation_by_selections(inst9)
    assert len(calls) > 2
    monkeypatch.setattr(oracles, "TRIANGULATION_SELECTION_BUDGET", 2)
    with pytest.raises(SearchBudgetExceeded,
                       match="TRIANGULATION_SELECTION_BUDGET"):
        spanning_triangulation_by_selections(inst9)


def test_clause_search_budget(inst9, monkeypatch):
    # one pick per face reaches a leaf, so a budget below n - 1 picks
    # stops the search before any flow runs, and the error names it
    calls = _count_flow_calls(monkeypatch)
    monkeypatch.setattr(matching, "TRIANGULATION_NODE_BUDGET", inst9.n - 2)
    with pytest.raises(SearchBudgetExceeded,
                       match="TRIANGULATION_NODE_BUDGET"):
        spanning_triangulation(inst9)
    assert calls == []


def test_clause_search_agrees_with_selection_oracle(corpus_n12,
                                                    instances10):
    # both return the least 4-connected selection in binary order, so the
    # triangulations are equal, not only their existence
    for inst in corpus_n12 + instances10:
        adj, edges = spanning_triangulation(inst)
        assert (adj, edges) == spanning_triangulation_by_selections(inst)
        assert vertex_connectivity_flow(inst.n, adj, 4) >= 4


def test_triangle_clauses_decide_four_connectivity(corpus_n12):
    # Mohar & Thomassen on the data: a selection is 4-connected iff it
    # satisfies every triangle clause, over random selections
    rng = random.Random(13)
    seen = set()
    for inst in corpus_n12:
        emb = inst.quad.embedding
        q_edges = [(u, v) for (u, v, _s) in emb.srs.edges]
        choices = [sorted((tuple(sorted(f.vertices[0::2])),
                           tuple(sorted(f.vertices[1::2]))))
                   for f in emb.faces]
        clauses = matching._triangle_clauses(inst, choices)
        assert all(clauses)
        for _ in range(25):
            bits = [rng.randrange(2) for _ in choices]
            ok = not any(all(bits[f] == bit for f, bit in clause)
                         for clause in clauses)
            adj = adjacency_masks(inst.n, q_edges + [
                c[b] for c, b in zip(choices, bits)])
            assert ok == (vertex_connectivity_flow(inst.n, adj, 4) >= 4)
            seen.add(ok)
    assert seen == {True, False}


def test_clause_search_label_insensitive(corpus_n12, monkeypatch):
    # over relabelled copies the search takes at most 2n picks and makes
    # one flow call, the confirmation of its first leaf
    rng = random.Random(17)
    calls = _count_flow_calls(monkeypatch)
    for inst in corpus_n12:
        monkeypatch.setattr(matching, "TRIANGULATION_NODE_BUDGET", 2 * inst.n)
        for _ in range(3):
            image, _dmap = _full_relabel(inst.quad.embedding.srs, rng)
            calls.clear()
            spanning_triangulation(build_o1ppg(
                validate_quadrangulation(EmbeddedGraph(image))))
            assert len(calls) == 1


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
    [res] = audit_instance(inst10, AuditConfig(theorems=("T1.3",)))
    assert res.verdict == "fail"
    assert "HAMILTONIAN_PATH_NODE_BUDGET" in res.detail
