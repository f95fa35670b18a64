"""Canonical forms, exhaustive searches, growth moves, corpus round trips."""

import random
from itertools import combinations

import pytest

from o1ppg import srsio
from o1ppg.errors import TooLarge
from o1ppg.generator import (CanonicalForm, _repeated_splits, all_embeddings,
                             canonical_key, exhaustive_small_search,
                             grow_quadrangulations, short_key, vertex_split)
from o1ppg.model import validate_quadrangulation
from o1ppg.oracles import canonical_key_oracle
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
BOWTIE_EDGES = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


def test_k4_unique_quadrangular_embedding(k4):
    found = exhaustive_small_search(
        4, K4_EDGES, lambda g: all(f.length == 4 for f in g.faces))
    assert len(found) == 1
    assert canonical_key(found[0]) == canonical_key(k4)


def test_k4_unique_even_faced_embedding(k4):
    found = exhaustive_small_search(
        4, K4_EDGES, lambda g: all(f.length % 2 == 0 for f in g.faces))
    assert len(found) == 1
    assert sorted(f.length for f in found[0].faces) == [4, 4, 4]
    assert canonical_key(found[0]) == canonical_key(k4)


def test_bowtie_unique_two_hexagon_embedding(bowtie):
    found = exhaustive_small_search(
        5, BOWTIE_EDGES,
        lambda g: sorted(f.length for f in g.faces) == [6, 6])
    assert len(found) == 1
    assert canonical_key(found[0]) == canonical_key(bowtie)


def test_exhaustive_gate():
    edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]  # K6: 15
    with pytest.raises(TooLarge):
        list(all_embeddings(6, edges))


def _vertex_flip(srs, v):
    edges = []
    for e, (a, b, s) in enumerate(srs.edges):
        if (a == v) != (b == v):
            edges.append((a, b, -s))
        else:
            edges.append((a, b, s))
    rotations = [list(r) for r in srs.rotations]
    rotations[v] = rotations[v][::-1]
    return SignedRotationSystem(srs.vertex_count, edges, rotations)


def _relabel(srs, perm):
    edges = [(perm[u], perm[v], s) for (u, v, s) in srs.edges]
    rotations = [None] * srs.vertex_count
    for v in range(srs.vertex_count):
        rotations[perm[v]] = list(srs.rotations[v])
    return SignedRotationSystem(srs.vertex_count, edges, rotations)


def test_canonical_form_round_trips(k4, bowtie, min9):
    rng = random.Random(99)
    for g in (k4, bowtie, min9):
        base = canonical_key(g)
        srs = g.srs
        for _ in range(10_000):
            work = srs
            perm = list(range(srs.vertex_count))
            rng.shuffle(perm)
            work = _relabel(work, perm)
            for v in range(work.vertex_count):
                if rng.random() < 0.5:
                    work = _vertex_flip(work, v)
            assert canonical_key(work) == base
        assert CanonicalForm(g) == CanonicalForm(g)


def test_canonical_separates_nonisomorphic_pairs(corpus10):
    # pairs distinguished by cheap invariants (degree sequence or face
    # vector) must get different keys
    rng = random.Random(4)
    entries = []
    for n, items in corpus10.items():
        for key, srs in items:
            degs = tuple(sorted(len(r) for r in srs.rotations))
            entries.append((key, (n, degs)))
    checked = 0
    attempts = 0
    while checked < 10_000 and attempts < 100_000:
        attempts += 1
        (k1, inv1), (k2, inv2) = rng.sample(entries, 2)
        if inv1 == inv2:
            continue
        assert k1 != k2
        checked += 1
    assert checked == 10_000


def test_canonical_distinguishes_nonisomorphic(corpus10):
    # every corpus level is pairwise distinguished by construction; check a
    # couple of adjacent levels explicitly plus distinct fixture keys
    keys = set()
    for n in (6, 7, 8):
        for key, _srs in corpus10[n]:
            assert key not in keys
            keys.add(key)


def test_canonical_key_matches_oracle_on_split_products(corpus10):
    # every split product of the n <= 9 corpus, duplicates included: the
    # colour-restricted key and the all-darts oracle decide the same classes
    fast, oracle = [], []
    for n in range(4, 9):
        for _key, srs in corpus10[n]:
            g = EmbeddedGraph(srs)
            for v in range(n):
                for i, j in combinations(range(srs.degree(v)), 2):
                    product = vertex_split(g, v, i, j)
                    fast.append(canonical_key(product))
                    oracle.append(canonical_key_oracle(product))
    classes = len(set(oracle))
    assert len(set(fast)) == classes == len(set(zip(fast, oracle)))
    assert classes == sum(len(corpus10[n]) for n in range(5, 10))
    # growth spells out the same key as canonical_key for every class
    for n in range(4, 11):
        for key, srs in corpus10[n]:
            assert key == canonical_key(srs)


def test_repeated_splits_repeat_an_earlier_class(corpus10):
    # growth skips these splits: each gives the class of a split of the same
    # parent that growth tries before it
    skipped = 0
    for n in range(4, 9):
        for _key, srs in corpus10[n]:
            g = EmbeddedGraph(srs)
            repeated = _repeated_splits(srs)
            tried = set()
            for v in range(n):
                for i, j in combinations(range(srs.degree(v)), 2):
                    key = canonical_key(vertex_split(g, v, i, j))
                    if (v, i, j) in repeated:
                        assert key in tried
                        skipped += 1
                    else:
                        tried.add(key)
    assert skipped > 0


def test_vertex_split_preserves_quadrangulation(k4):
    keys = set()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cand = EmbeddedGraph(vertex_split(k4, 0, i, j))
        # raises unless simple, on P^2 and with every face a 4-cycle
        validate_quadrangulation(cand, require_polyhedral=False)
        assert cand.vertex_count == 5
        keys.add(canonical_key(cand))
    # K4's quadrangulation has one class of 5-vertex splits
    assert len(keys) == 1


def test_grow_counts_small_levels(corpus10):
    counts = {n: len(items) for n, items in corpus10.items()}
    assert counts[4] == 1
    assert counts[5] == 1
    assert counts[6] == 4
    assert counts[7] == 14
    assert counts[8] == 58
    assert counts[9] == 268
    assert counts[10] == 1381


def test_grow_products_face_vertex_relation(corpus10):
    for n, items in corpus10.items():
        for _key, srs in items:
            g = EmbeddedGraph(srs)
            assert g.face_count == n - 1
            assert g.edge_count == 2 * (n - 1)
            assert g.euler_char == 1 and not g.orientable


def test_grow_deterministic(k4):
    a = grow_quadrangulations([k4], n_max=7)
    b = grow_quadrangulations([k4], n_max=7)
    for n in a:
        assert [k for k, _ in a[n]] == [k for k, _ in b[n]]
        assert [srsio.dumps(s) for _, s in a[n]] == \
            [srsio.dumps(s) for _, s in b[n]]


def test_write_and_load_corpus(tmp_path, k4):
    from o1ppg.generator import load_corpus_instances, write_corpus
    rows = write_corpus(tmp_path / "c", 9)
    assert [r for r in rows if r[0] == 9 and r[2] == "1"]
    instances = load_corpus_instances(tmp_path / "c")
    assert len(instances) == 1
    inst = instances[0]
    assert inst.n == 9 and inst.edge_count == 32
    # round trip: saved file reloads to the same canonical key
    key = inst.key.split("-", 1)[1]
    srs = srsio.load(tmp_path / "c" / "q9" / f"{key}.srs")
    assert short_key(srs) == key


def test_enumerate_o1ppg_contract():
    from o1ppg.generator import enumerate_o1ppg
    assert enumerate_o1ppg(8) == []
    insts = enumerate_o1ppg(10, even_only=True)
    assert [i.n for i in insts] == [10]
    assert all(i.edge_count == 36 for i in insts)
    # deterministic ordering and keys across runs
    again = enumerate_o1ppg(10, even_only=True)
    assert [i.key for i in insts] == [i.key for i in again]


def test_min9_membership(corpus10, min9):
    keys = {k for k, _ in corpus10[9]}
    assert canonical_key(min9) in {canonical_key(EmbeddedGraph(s))
                                   for _k, s in corpus10[9]}
    assert short_key(min9.srs) in {short_key(s) for _k, s in corpus10[9]}
    assert len(keys) == 268
