"""The audit harness: green on the real corpus, red on corrupted inputs,
deterministic reports."""

import pytest

from o1ppg.errors import EmptyCorpus, O1ppgError
from o1ppg.model import validate_quadrangulation
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem
from o1ppg.verify import (THEOREM_IDS, AuditConfig, aggregate_report,
                          audit_instance, run_campaign)


def test_all_theorems_pass_on_small_corpus(instances10):
    results = run_campaign(instances10, AuditConfig())
    fails = [r for r in results if r.verdict == "fail"]
    assert fails == []
    by_id = {}
    for r in results:
        by_id.setdefault(r.theorem_id, []).append(r)
    assert set(by_id) == set(THEOREM_IDS)
    # odd-order instance marks the matching theorems inapplicable
    odd = [r for r in results
           if r.instance_key.startswith("q9") and r.theorem_id == "T1.3"]
    assert odd[0].verdict == "inapplicable"


def test_report_deterministic(instances10):
    config = AuditConfig()
    counts = {}
    for inst in instances10:
        counts[inst.n] = counts.get(inst.n, 0) + 1
    a = aggregate_report(run_campaign(instances10, config), counts, config)
    b = aggregate_report(run_campaign(instances10, config), counts, config)
    assert a == b
    assert a.startswith("o1ppg-verify-report v1\n")
    assert "summary theorem=T1.6" in a
    assert a.rstrip().endswith("end")


def test_report_same_for_any_worker_count(instances10):
    config = AuditConfig()
    counts = {}
    for inst in instances10:
        counts[inst.n] = counts.get(inst.n, 0) + 1
    one = aggregate_report(run_campaign(instances10, config, workers=1),
                           counts, config)
    two = aggregate_report(run_campaign(instances10, config, workers=2),
                           counts, config)
    assert one == two


def test_worker_count_clamped_to_instances(instances10, monkeypatch):
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    config = AuditConfig(theorems=("DegreeFacts",))
    results = run_campaign(instances10[:2], config, workers=10**6)
    assert sizes == [2]
    assert results == run_campaign(instances10[:2], config, workers=1)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        aggregate_report([], {}, AuditConfig())


def test_theorem_selection(inst10):
    config = AuditConfig(theorems=("T1.3", "L3.5"))
    results = audit_instance(inst10, config)
    assert {r.theorem_id for r in results} == {"T1.3", "L3.5"}


def _mutate_rotation(srs, v):
    rotations = [list(r) for r in srs.rotations]
    rotations[v][0], rotations[v][1] = rotations[v][1], rotations[v][0]
    return SignedRotationSystem(srs.vertex_count, srs.edges, rotations)


def test_mutant_rotation_caught_by_validation(min9):
    # flipping one rotation entry wrecks the face structure; validation
    # refuses every such mutant of the nine-vertex host
    caught = 0
    for v in range(min9.vertex_count):
        mutant = _mutate_rotation(min9.srs, v)
        g = EmbeddedGraph(mutant)
        try:
            validate_quadrangulation(g)
        except O1ppgError:
            caught += 1
    assert caught == min9.vertex_count


def test_mutant_instance_fails_audit_with_witness(inst10):
    # with revalidation bypassed, a corrupted instance (one diagonal pair
    # dropped from the derived graph) must surface as audit failures
    import copy
    bad = copy.copy(inst10)
    bad.edges = inst10.edges[:-2]
    bad.adj = list(inst10.adj)
    for (u, v) in inst10.edges[-2:]:
        bad.adj[u] &= ~(1 << v)
        bad.adj[v] &= ~(1 << u)
    bad.key = "mutant"
    results = audit_instance(bad, AuditConfig(theorems=("DegreeFacts",)))
    assert results[0].verdict == "fail"
    assert results[0].detail
