"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

The corpus scale is n <= 12 (generation under two minutes, full suite
within the fifteen-minute envelope).  Criterion numbering follows the
package contract; each test prints ``ACCEPTANCE <k> <name>: PASS`` on
success so the suite output doubles as the campaign record.
"""

import random
import time

import pytest
from test_connectivity import cuts_of
from test_matching import _pm_bit, _sweep

from o1ppg.connectivity import (classify_cut_shape, vertex_connectivity,
                                _contains_separating_trivial_4cycle)
from o1ppg.errors import NoBlockerFound
from o1ppg.fixtures import fix_k4
from o1ppg.generator import corpus_instances, grow_quadrangulations
from o1ppg.graphs import adjacency_masks, enumerate_cycles
from o1ppg.matching import (Matching, find_blocker, is_extendable,
                            k_extendability, matching_via_hamiltonian_path,
                            perfect_matching_table, spanning_triangulation)
from o1ppg.oracles import (exhaustive_small_search, is_extendable_bruteforce,
                           matching_masks, max_matching_size,
                           vertex_connectivity_bruteforce)
from o1ppg.structures import (CertificateContext, barrier_cycles,
                              diagnose_mask, find_projective_bowties)
from o1ppg.surface import short_walk_regions, signed_cycles
from o1ppg.verify import AuditConfig, aggregate_report, run_campaign

ACCEPT_N = 12
# The n <= 12 closure of FIX-K4 (README, "Corpus layout"): classes per order,
# and instances per order among them.
ACCEPT_SIZES = {4: 1, 5: 1, 6: 4, 7: 14, 8: 58, 9: 268, 10: 1381,
                11: 7419, 12: 41585}
ACCEPT_INSTANCES = {9: 1, 10: 1, 11: 5, 12: 9}
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

_nonextendable = {"k1": [], "k2": []}    # harvested by criteria 4 and 6


def _line(num, name, ok, extra=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


@pytest.fixture(scope="module")
def full_corpus():
    t0 = time.time()
    corpus = grow_quadrangulations([fix_k4()], n_max=ACCEPT_N)
    elapsed = time.time() - t0
    return corpus, elapsed


@pytest.fixture(scope="module")
def instances(full_corpus):
    corpus, _elapsed = full_corpus
    return corpus_instances(corpus)


@pytest.fixture(scope="module")
def even_instances(instances):
    return [i for i in instances if i.n % 2 == 0]


def test_criterion_01_k4_uniqueness():
    t0 = time.time()
    found = exhaustive_small_search(
        4, K4_EDGES, lambda g: all(f.length % 2 == 0 for f in g.faces))
    elapsed = time.time() - t0
    ok = (len(found) == 1
          and sorted(f.length for f in found[0].faces) == [4, 4, 4]
          and all(f.is_cycle for f in found[0].faces)
          and elapsed < 1.0)
    _line(1, "K4 uniqueness", ok,
          f"embeddings={len(found)} runtime={elapsed:.2f}s")


def test_criterion_02_corpus_sanity(full_corpus, instances):
    corpus, elapsed = full_corpus
    violations = []
    for inst in instances:
        n = inst.n
        if inst.edge_count != 4 * n - 4:
            violations.append((inst.key, "edges"))
        if min(inst.degree(v) for v in range(n)) < 6:
            violations.append((inst.key, "degree"))
        if any(inst.degree(v) % 2 for v in range(n)):
            violations.append((inst.key, "eulerian"))
        seen = set()
        for (u, v) in inst.edges:
            e = (min(u, v), max(u, v))
            if u == v or e in seen:
                violations.append((inst.key, "simple"))
                break
            seen.add(e)
        if n < 9:
            violations.append((inst.key, "order"))
        if not inst.quad.polyhedral:
            violations.append((inst.key, "polyhedral"))
    sizes = {n: len(items) for n, items in corpus.items()}
    per_order = {}
    for inst in instances:
        per_order[inst.n] = per_order.get(inst.n, 0) + 1
    ok = (not violations and elapsed < 120.0 and max(sizes) == ACCEPT_N
          and sizes == ACCEPT_SIZES and per_order == ACCEPT_INSTANCES)
    _line(2, "corpus sanity", ok,
          f"instances={len(instances)} per_order={per_order} "
          f"generation={elapsed:.0f}s sizes={sizes}")


def test_criterion_03_one_extendability(even_instances):
    failures = []
    for inst in even_instances:
        triangulation = spanning_triangulation(inst)
        cycles = {}
        for e in range(inst.edge_count):
            m = Matching(frozenset([e]))
            if not is_extendable_bruteforce(inst, m):
                failures.append((inst.key, e, "oracle"))
                continue
            try:
                mh = matching_via_hamiltonian_path(inst, e, triangulation,
                                                   cycles)
            except Exception as exc:
                failures.append((inst.key, e, repr(exc)))
                continue
            if e not in mh.edges or mh.k != inst.n // 2:
                failures.append((inst.key, e, "bad matching"))
    _line(3, "Theorem 1.3", not failures,
          f"instances={len(even_instances)} failures={len(failures)}")


def _short_walk_regions(inst):
    emb = inst.quad.embedding
    return short_walk_regions(emb, signed_cycles(emb.srs, 6))


def test_criterion_04_two_extendability(even_instances):
    disagreements = []
    for inst in even_instances:
        barriers = barrier_cycles(_short_walk_regions(inst), 4)
        sweep = _sweep(inst, 2)
        bad = None
        for combo, _vm in matching_masks(inst, 2):
            m = Matching(frozenset(combo))
            oracle = is_extendable_bruteforce(inst, m)
            if oracle != is_extendable(inst, m, sweep):
                disagreements.append((inst.key, "engine-vs-oracle"))
            if not oracle and bad is None:
                bad = m
                _nonextendable["k1"].append((inst, m))
        two_extendable = bad is None
        if two_extendable != (not barriers):
            disagreements.append((inst.key, "characterization"))
        for (a, bb, c, d), _region in barriers:
            m = Matching(frozenset([inst.edge_id(a, bb),
                                    inst.edge_id(c, d)]))
            _nonextendable["k1"].append((inst, m))
            if is_extendable_bruteforce(inst, m):
                disagreements.append((inst.key, "easy-direction"))
    _line(4, "Theorem 1.4 corrected", not disagreements,
          f"disagreements={len(disagreements)}")


def test_criterion_05_corollary(even_instances):
    failures = []
    for inst in even_instances:
        if vertex_connectivity(inst) < 5:
            continue
        ok2, _w = k_extendability(inst, _sweep(inst, 2))
        if not ok2:
            failures.append(inst.key)
    _line(5, "Corollary 1.5", not failures, f"failures={len(failures)}")


def test_criterion_06_three_matching_characterization(even_instances):
    disagreements = 0
    swept = 0
    for inst in even_instances:
        conn = vertex_connectivity(inst)
        if conn < 5:
            continue
        swept += 1
        ctx = CertificateContext.build(inst, _short_walk_regions(inst))
        sweep = _sweep(inst, 3)
        for combo, vm in matching_masks(inst, 3):
            extendable = is_extendable(inst, Matching(frozenset(combo)),
                                       sweep)
            verdict, _detail = diagnose_mask(vm, extendable, ctx)
            if verdict == "counterexample":
                disagreements += 1
            elif verdict in ("cert_i", "cert_ii"):
                _nonextendable["k2"].append((inst, Matching(frozenset(combo))))
    _line(6, "Theorem 1.6", disagreements == 0 and swept > 0,
          f"instances_swept={swept} disagreements={disagreements}")


def test_criterion_07_cut_shapes(instances):
    violations = []
    for inst in instances:
        conn = vertex_connectivity(inst)
        bows = find_projective_bowties(inst.quad.embedding)
        if conn < 4:
            violations.append((inst.key, "connectivity<4"))
        for k in (1, 2, 3):
            if cuts_of(inst, (k,)):
                violations.append((inst.key, f"{k}-cut"))
        for ca in cuts_of(inst, (4,)):
            if not _contains_separating_trivial_4cycle(inst, ca):
                violations.append((inst.key, "4-cut audit"))
        for ca in cuts_of(inst, (5,)):
            if classify_cut_shape(inst, ca) != "bowtie":
                violations.append((inst.key, "5-cut shape"))
        if conn >= 5 and (conn == 5) != bool(bows):
            violations.append((inst.key, "bowtie iff connectivity 5"))
        for ca in cuts_of(inst, (6,)):
            if ca.is_minimal and classify_cut_shape(inst, ca) not in (
                    "I", "II", "III", "IV"):
                violations.append((inst.key, "6-cut shape"))
    _line(7, "cut structure (T3.1/L3.3/T3.4/L3.5)", not violations,
          f"instances={len(instances)} violations={len(violations)}")


def test_criterion_08_cut_lemmas(instances):
    from o1ppg.connectivity import audit_cut_lemmas
    violations = []
    for inst in instances:
        conn = vertex_connectivity(inst)
        for ca in cuts_of(inst, range(conn, min(7, inst.n - 2) + 1)):
            audit = audit_cut_lemmas(ca, connectivity=conn)
            for clause, verdict in audit.items():
                if verdict == "fail":
                    violations.append((inst.key, sorted(ca.S), clause))
    _line(8, "cut lemmas (L2.2-L2.5, L3.2)", not violations,
          f"violations={len(violations)}")


def test_criterion_09_blockers():
    failures = []
    checked = 0
    sweeps = {}
    for k, harvested in ((1, _nonextendable["k1"]),
                         (2, _nonextendable["k2"])):
        seen = set()
        for inst, m in harvested:
            tag = (inst.key, m.edges)
            if tag in seen:
                continue
            seen.add(tag)
            if (inst.key, k) not in sweeps:
                sweeps[inst.key, k] = _sweep(inst, k + 1)
            try:
                blk = find_blocker(inst, m, k, sweeps[inst.key, k])
            except NoBlockerFound as exc:
                failures.append((inst.key, k, repr(exc)))
                continue
            if len(blk.S) != blk.odd_components + 2 * k:
                failures.append((inst.key, k, "identity"))
            if k == 2 and len(blk.S) not in (6, 7):
                failures.append((inst.key, k, f"size {len(blk.S)}"))
            checked += 1
    _line(9, "Lemma 4.2 blockers", not failures,
          f"blockers={checked} failures={len(failures)}")


def test_criterion_10_no_three_extendability(even_instances):
    failures = []
    for inst in even_instances:
        ok3, witness = k_extendability(inst, _sweep(inst, 3))
        if ok3 or witness is None or witness.k != 3:
            failures.append(inst.key)
        elif is_extendable_bruteforce(inst, witness):
            failures.append(inst.key)
    _line(10, "no 3-extendability", not failures,
          f"instances={len(even_instances)} failures={len(failures)}")


def test_criterion_11_engine_oracles(instances):
    rng = random.Random(20260810)
    mismatches = perfect = 0
    for _ in range(10_000):
        n = rng.randint(1, 12)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        masks = adjacency_masks(n, edges)
        full = (1 << n) - 1
        got = _pm_bit(perfect_matching_table(n, masks), full)
        if got != (2 * max_matching_size(masks, full) == n):
            mismatches += 1
        perfect += got
    # both verdicts occur, so the comparison cannot go vacuous
    assert 0 < perfect < 10_000
    conn_mismatches = sum(
        1 for inst in instances
        if vertex_connectivity(inst)
        != vertex_connectivity_bruteforce(inst.n, inst.adj, 8))
    odd_trivial = 0
    for inst in instances:
        srs = inst.quad.embedding.srs
        qadj = adjacency_masks(inst.n, [(u, v) for (u, v, _s) in srs.edges])
        for cyc in enumerate_cycles(inst.n, qadj, 8):
            sign = 1
            for i in range(len(cyc)):
                e = inst.edge_id(cyc[i], cyc[(i + 1) % len(cyc)])
                sign *= srs.edges[e][2]
            if sign == 1 and len(cyc) % 2 == 1:
                odd_trivial += 1
    ok = mismatches == 0 and conn_mismatches == 0 and odd_trivial == 0
    _line(11, "engine oracles", ok,
          f"matching_mismatches={mismatches} "
          f"connectivity_mismatches={conn_mismatches} "
          f"odd_trivial_cycles={odd_trivial}")


def test_criterion_12_determinism(instances):
    config = AuditConfig()
    counts = {}
    for inst in instances:
        counts[inst.n] = counts.get(inst.n, 0) + 1
    r1 = aggregate_report(run_campaign(instances, config), counts, config)
    r2 = aggregate_report(run_campaign(instances, config), counts, config)
    fails = sum(1 for line in r1.splitlines()
                if line.startswith("result") and "verdict=fail" in line)
    ok = (r1 == r2) and fails == 0
    _line(12, "determinism and full campaign", ok,
          f"bytes={len(r1)} identical={r1 == r2} fails={fails}")
