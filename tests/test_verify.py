"""The audit harness: green on the real corpus, red on corrupted inputs,
deterministic reports."""

import copy
import hashlib
import sys
from pathlib import Path

import pytest
from test_generator import _script

from o1ppg import matching, structures, surface, verify
from o1ppg.cli import main
from o1ppg.connectivity import vertex_connectivity
from o1ppg.errors import EmptyCorpus, O1ppgError, UnknownTheorem
from o1ppg.generator import load_corpus_instances
from o1ppg.model import build_o1ppg, validate_quadrangulation
from o1ppg.oracles import matching_masks
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem
from o1ppg.verify import (THEOREM_IDS, AuditConfig, aggregate_report,
                          audit_instance, run_campaign)

GOLDEN_N12 = Path(__file__).resolve().parent / "golden" / "corpus-n12.report"


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
    # the seed is inert: it changes neither the audit nor the report
    seeded = AuditConfig(seed=7)
    b = aggregate_report(run_campaign(instances10, seeded), counts, seeded)
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


def test_config_refuses_unknown_theorem_ids():
    with pytest.raises(UnknownTheorem, match="T9.9"):
        AuditConfig(theorems=("T9.9", "P2.1"))


def test_config_keeps_known_ids_in_canonical_order_once(inst10):
    config = AuditConfig(theorems=("L3.5", "T1.3", "L3.5"))
    assert config.theorems == ("T1.3", "L3.5")
    assert config.header_fields() == "theorems=T1.3,L3.5 cut_max=7"
    results = audit_instance(inst10, config)
    assert [r.theorem_id for r in results] == ["T1.3", "L3.5"]


def test_theorem_audited_alone_gets_its_full_audit_record(corpus_n12):
    # no check reads what another check left behind: L4.2's blockers
    # come from the 2- and 3-matchings of T1.4's and T1.6's sweeps
    mismatches = []
    for inst in corpus_n12:
        full = audit_instance(inst)
        for record in full:
            [alone] = audit_instance(
                inst, AuditConfig(theorems=(record.theorem_id,)))
            if alone != record:
                mismatches.append((alone, record))
    assert mismatches == []
    assert [r.theorem_id for r in full] == list(THEOREM_IDS)


def test_every_theorem_id_resolves_to_a_check():
    # a typo in a hypothesis set would make its theorem apply everywhere
    assert verify._EVEN_ONLY <= set(THEOREM_IDS)
    assert verify._FIVE_CONN <= set(THEOREM_IDS)
    for theorem in THEOREM_IDS:
        check = getattr(verify._InstanceAudit,
                        verify._check_method(theorem), None)
        assert callable(check), theorem


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
    bad = build_o1ppg(inst10.quad, key="mutant")
    bad.edges = inst10.edges[:-2]
    for (u, v) in inst10.edges[-2:]:
        bad.adj[u] &= ~(1 << v)
        bad.adj[v] &= ~(1 << u)
    results = audit_instance(bad, AuditConfig(theorems=("DegreeFacts",)))
    assert results[0].verdict == "fail"
    assert results[0].detail


def test_two_extendability_swept_once_per_audit(inst10, monkeypatch):
    calls = []
    sweep = verify.k_extendability

    def counted(inst, swept):
        calls.append(swept.k)
        return sweep(inst, swept)

    monkeypatch.setattr(verify, "k_extendability", counted)
    results = audit_instance(inst10, AuditConfig(theorems=("T1.4", "C1.5")))
    assert [r.verdict for r in results] == ["pass", "pass"]
    assert calls == [2]


def test_connectivity_flow_runs_only_when_read(corpus_n12_dir, inst10,
                                               monkeypatch, capsys):
    # analyze --checks extend2 prints no connectivity, so it runs no flow;
    # a full audit reads the connectivity many times and runs one
    calls = []
    flow = verify.vertex_connectivity

    def counted(inst, cap):
        calls.append(cap)
        return flow(inst, cap)

    monkeypatch.setattr(verify, "vertex_connectivity", counted)
    path = corpus_n12_dir / "q10" / "i01.srs"
    assert main(["analyze", "--in", str(path), "--checks", "extend2"]) == 0
    assert capsys.readouterr().out == "check=extend2 result=true\n"
    assert calls == []
    results = audit_instance(inst10, AuditConfig())
    assert all(r.verdict != "fail" for r in results)
    assert calls == [8]


def _five_connected(corpus_n12):
    """An even 5-connected corpus-n12 instance, to which every check
    applies."""
    return next(i for i in corpus_n12
                if i.n % 2 == 0 and vertex_connectivity(i) == 5)


def test_audit_sweeps_each_k_once(corpus_n12, monkeypatch):
    # T1.3 reads one 1-matching sweep; T1.4, C1.5 and L4.2 one 2-matching
    # sweep; T1.6, NoThreeExt and L4.2 one 3-matching sweep; each even
    # audit builds one perfect-matching table, which every sweep reads, and
    # an odd one builds none
    tables, sweeps = [], []
    build = verify.perfect_matching_table
    sweep = verify.matching_sweep
    monkeypatch.setattr(verify, "perfect_matching_table",
                        lambda n, adj: tables.append(build(n, adj))
                        or tables[-1])
    monkeypatch.setattr(verify, "matching_sweep",
                        lambda inst, k, table: sweeps.append((k, table))
                        or sweep(inst, k, table))
    for inst in corpus_n12:
        tables.clear()
        sweeps.clear()
        results = audit_instance(inst)
        assert all(r.verdict != "fail" for r in results)
        if inst.n % 2:
            assert tables == sweeps == []
            continue
        [table] = tables
        assert all(t is table for _k, t in sweeps)
        assert sorted(k for k, _t in sweeps) == [1, 2, 3]


def test_audit_tests_perfect_matchings_only_in_sweeps(corpus_n12,
                                                      monkeypatch):
    # every extendability question of the audit reads one of its sweeps, so
    # the perfect-matching table is read inside matching.matching_sweep only
    sweep_code = matching.matching_sweep.__code__
    inside = []

    class Recorded(bytearray):
        def __getitem__(self, mask):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not sweep_code:
                frame = frame.f_back
            inside.append(frame is not None)
            return bytearray.__getitem__(self, mask)

    def recorded(n, adj):
        table = matching.perfect_matching_table(n, adj)
        return table._replace(perfect=Recorded(table.perfect))

    monkeypatch.setattr(verify, "perfect_matching_table", recorded)
    results = audit_instance(_five_connected(corpus_n12))
    assert all(r.verdict == "pass" for r in results)
    assert inside and all(inside)


def test_audit_finds_short_walk_regions_once(corpus_n12, monkeypatch):
    # T1.4's barriers and T1.6's length-6 regions filter one list: a full
    # audit enumerates the short cycles once
    inst = _five_connected(corpus_n12)
    srs = inst.quad.embedding.srs
    enumerations = []
    cycles = surface.signed_cycles

    def counted_cycles(host, max_len):
        enumerations.append((host is srs, max_len))
        return cycles(host, max_len)

    monkeypatch.setattr(surface, "signed_cycles", counted_cycles)
    results = audit_instance(inst)
    assert all(r.verdict == "pass" for r in results)
    assert enumerations == [(True, 6)]


def test_corpus_audit_traces_triangle_pairs_only(corpus_n12, monkeypatch):
    # the short-walk regions of cycles and of cycles with a pendant edge
    # read their walks off their facts, so a corpus-n12 audit traces 107
    # boundaries: 105 cuts of the five-connected cut lemmas and 2 triangle
    # pairs of the short-walk finder
    traces = []
    trace = surface._trace_boundaries
    monkeypatch.setattr(surface, "_trace_boundaries",
                        lambda *args: traces.append(args) or trace(*args))
    for inst in corpus_n12:
        assert all(r.verdict != "fail" for r in audit_instance(inst))
    assert len(traces) == 107


#: the embedding's lazy face tables, the one audit-time state it keeps
_FACE_TABLES = ("_corner_face", "_edge_faces", "_vertex_faces")


def _embedding_state(inst):
    """The embedding's fields but its face tables, and a copy of every
    slot of its rotation system."""
    emb = inst.quad.embedding
    state = {name: value for name, value in vars(emb).items()
             if name not in _FACE_TABLES and name != "srs"}
    state["srs"] = {name: copy.deepcopy(getattr(emb.srs, name))
                    for name in SignedRotationSystem.__slots__}
    return state


def _assert_as_built(instances, embeddings):
    # the instance keeps what build_o1ppg gave it, the embedding gains
    # nothing but its face tables, and its rotation system nothing at all
    for inst, emb in zip(instances, embeddings):
        fresh = build_o1ppg(inst.quad, key=inst.key)
        assert vars(inst) == vars(fresh), inst.key
        assert _embedding_state(inst) == emb, inst.key


def test_campaign_releases_each_instance_audit_state(corpus_n12_dir):
    # the audit owns its sweeps, memo, triangulation, separators and
    # short-walk regions: a campaign leaves each instance as built
    instances = load_corpus_instances(corpus_n12_dir)
    embeddings = [_embedding_state(inst) for inst in instances]
    results = run_campaign(instances)
    assert all(r.verdict != "fail" for r in results)
    _assert_as_built(instances, embeddings)


def test_audit_releases_its_state_when_a_check_raises(corpus_n12_dir,
                                                      monkeypatch):
    inst = _five_connected(load_corpus_instances(corpus_n12_dir))
    embedding = _embedding_state(inst)

    def broken(audit):
        # L4.2 runs last, when the earlier checks have built every
        # intermediate
        assert audit.sweeps and audit.regions and audit.triangulation
        raise RuntimeError("check failed")

    monkeypatch.setattr(verify._InstanceAudit, "check_L42", broken)
    with pytest.raises(RuntimeError, match="check failed"):
        audit_instance(inst)
    _assert_as_built([inst], [embedding])


def test_t16_sweeps_every_three_matching(even_n12):
    records = {r.instance_key: r for r in run_campaign(
        even_n12, AuditConfig(theorems=("T1.6",)))}
    swept = {}
    for inst in even_n12:
        r = records[inst.key]
        assert r.verdict == "pass"
        mode, *counts = r.detail.split()
        assert mode == "exhaustive"
        swept[inst.key] = sum(int(c.split("=")[1]) for c in counts)
        assert swept[inst.key] == sum(1 for _ in matching_masks(inst, 3))
    assert swept["q10-i01"] == 1601
    assert swept["q12-i08"] == 4002
    assert all(3921 <= swept[k] <= 4142 for k in swept if k != "q10-i01")
    assert records["q12-i08"].detail == \
        "exhaustive extendable=3934 cert_i=68 cert_ii=0"


def test_t16_decides_each_vertex_mask_once(even_n12, monkeypatch):
    inst = next(i for i in even_n12 if i.key == "q10-i01")
    sweep = list(matching_masks(inst, 3))
    calls = []
    diagnose = structures.diagnose_mask

    def counting(vm, extendable, ctx):
        calls.append(vm)
        return diagnose(vm, extendable, ctx)

    monkeypatch.setattr(structures, "diagnose_mask", counting)
    [r] = audit_instance(inst, AuditConfig(theorems=("T1.6",)))
    assert r.verdict == "pass"
    assert sum(int(c.split("=")[1]) for c in r.detail.split()[1:]) == 1601
    assert len(calls) == len(set(calls)) == 210
    assert set(calls) == {vm for _combo, vm in sweep}

    # a forced disagreement names the first matching, in sweep order,
    # that covers its mask, however many matchings come before it
    bad = sweep[-1][1]
    first = next(combo for combo, vm in sweep if vm == bad)
    assert first != sweep[-1][0]

    def forced(vm, extendable, ctx):
        if vm == bad:
            return ("counterexample", {"extendable": True,
                                       "certificate": None})
        return diagnose(vm, extendable, ctx)

    monkeypatch.setattr(structures, "diagnose_mask", forced)
    [r] = audit_instance(inst, AuditConfig(theorems=("T1.6",)))
    assert r.verdict == "fail"
    assert r.witness == verify._edges_str(inst, first)


def test_corpus_n12_report_matches_golden(corpus_n12_dir, tmp_path,
                                          monkeypatch):
    """``o1ppg verify --corpus perfbench/corpus-n12`` writes, byte for
    byte, the committed ``tests/golden/corpus-n12.report``.

    The golden file pins every record's detail (``clause checks=``,
    ``shapes=``, ``five_cuts=``, ``four_cuts=``, ...), which
    ``perfbench/expected.json`` does not check.  A change that alters the
    report on purpose must regenerate the file with that command and say
    in CHANGES.md which lines changed and why.
    """
    monkeypatch.delenv("O1PPG_WORKERS", raising=False)
    out = tmp_path / "corpus-n12.report"
    assert main(["verify", "--corpus", str(corpus_n12_dir),
                 "--report", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_N12.read_bytes()


def test_audit_digest_reads_the_golden_report(corpus_n12_dir):
    # scripts/audit_digest.py audits the corpus as o1ppg verify does, so
    # its sha256 is the golden file's; its counts are those of the audit,
    # one perfect-matching table per even instance, and the cycles of every
    # module that calls the cycle search
    sha, seconds, counts = _script("audit_digest").audit_digest(
        corpus_n12_dir)
    assert sha == hashlib.sha256(GOLDEN_N12.read_bytes()).hexdigest()
    assert list(seconds) == list(THEOREM_IDS)
    assert counts == {"pm_tables": 10, "hamiltonian_searches": 191,
                      "pattern_maps_tried": 134, "pattern_maps_accepted": 64,
                      "boundary_traces": 107, "cycles_enumerated": 4752}
