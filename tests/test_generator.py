"""Canonical forms, exhaustive searches, growth moves, corpus round trips."""

import gc
import hashlib
import importlib.util
import pathlib
import random
from itertools import combinations

import pytest

from o1ppg import generator, srsio
from o1ppg.cli import main
from o1ppg.errors import MalformedRotation, ReducibleSeed, TooLarge
from o1ppg.generator import (_digest, _half_is_root, _materialise,
                             _patched_faces, _patched_split, _split_tables,
                             _tried_splits, _twin_splits,
                             canonical_key, corpus_instances,
                             grow_quadrangulations, load_corpus_instances,
                             short_key, write_corpus)
from o1ppg.graphs import is_bipartite
from o1ppg.model import validate_quadrangulation
from o1ppg.structures import _CONFIG_ROLES, PATTERN_IDS
from o1ppg.oracles import (all_embeddings, canonical_key_oracle,
                           delete_vertex_by_lists, exhaustive_small_search,
                           grow_quadrangulations_bruteforce, is_orientable,
                           vertex_split_by_lists)
from o1ppg.surface import EmbeddedGraph, SignedRotationSystem, canonical_walk

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
BOWTIE_EDGES = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script(name):
    """The module ``scripts/<name>.py``, loaded afresh."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def vertex_split(srs: SignedRotationSystem, v, i, j):
    """Split vertex ``v`` of a loopless system between rotation positions
    ``i`` and ``j`` (i != j; i > j wraps around the rotation), as growth
    does: the parent's tables patched by ``_patched_split``, which says
    where each new edge end goes, then materialised.  Growth materialises a
    product only when its class is new; the tests build every product.

    The neighbors at positions i and j stay attached to both halves; the
    arc strictly between them, walking forward from i, moves to the new
    vertex, which inherits the local orientation of ``v``.  Returns the
    raw SignedRotationSystem (not validated, not traced).
    """
    return _materialise(srs.edges,
                        *_patched_split(_split_tables(srs), v, i, j))


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


def _full_relabel(srs, rng):
    """A random image of ``srs`` under vertex and edge-id permutations,
    swapped edge ends, rotated rotation starts and vertex flips, with the
    dart map that carries ``srs`` onto it."""
    n, ne = srs.vertex_count, srs.edge_count
    pv = rng.sample(range(n), n)
    pe = rng.sample(range(ne), ne)
    swap = [rng.random() < 0.5 for _ in range(ne)]
    flip = [rng.random() < 0.5 for _ in range(n)]
    dmap = [2 * pe[d >> 1] + ((d & 1) ^ swap[d >> 1]) for d in range(2 * ne)]
    edges = [None] * ne
    for e, (u, v, s) in enumerate(srs.edges):
        a, b = (pv[v], pv[u]) if swap[e] else (pv[u], pv[v])
        edges[pe[e]] = (a, b, -s if flip[u] != flip[v] else s)
    rotations = [None] * n
    for v, r in enumerate(srs.rotations):
        k = rng.randrange(len(r))
        r = [dmap[d] for d in r[k:] + r[:k]]
        rotations[pv[v]] = r[::-1] if flip[v] else r
    return SignedRotationSystem(n, edges, rotations), dmap


def test_canonical_form_round_trips(k4, bowtie, min9):
    rng = random.Random(99)
    for g in (k4, bowtie, min9):
        base = canonical_key(g)
        for _ in range(10_000):
            work, _dmap = _full_relabel(g.srs, rng)
            assert canonical_key(work) == base


def test_start_set_invariant_under_full_relabelling(corpus10):
    # the least degree pair of an image is the image of the least degree
    # pair, so the canonical key survives every relabelling
    rng = random.Random(9)
    systems = [srs for n in (9, 10) for _key, srs in corpus10[n]]
    systems += [vertex_split(srs, *split) for n in range(4, 8)
                for _key, srs in corpus10[n] for split in _splits(srs)]
    for srs in systems:
        key = canonical_key(srs)
        darts = generator._class_darts(srs)
        for _ in range(2):
            image, dmap = _full_relabel(srs, rng)
            assert sorted(generator._class_darts(image)) == \
                sorted(dmap[d] for d in darts)
            assert canonical_key(image) == key


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
    # degree-pair-restricted key and the all-darts oracle decide the same
    # classes
    fast, oracle = [], []
    for n in range(4, 9):
        for _key, srs in corpus10[n]:
            for v in range(n):
                for i, j in combinations(range(srs.degree(v)), 2):
                    product = vertex_split(srs, v, i, j)
                    fast.append(canonical_key(product))
                    oracle.append(canonical_key_oracle(product))
    classes = len(set(oracle))
    assert len(set(fast)) == classes == len(set(zip(fast, oracle)))
    assert classes == sum(len(corpus10[n]) for n in range(5, 10))
    # growth spells out the same key as canonical_key for every class
    for n in range(4, 11):
        for key, srs in corpus10[n]:
            assert key == canonical_key(srs)


def _decode_key(key):
    """The system a canonical string spells.  Vertex k is the k-th vertex
    the encoding labels, its rotation is its block's visits in order (the
    encoding walked it in its own hand, taken here as +1), and a visit's
    sign bit is 1 iff its edge is negative.  An edge is made at the first
    of its two visits, in the block of its lower endpoint."""
    prefix, _colon, body = key.partition(":")
    n, ne = map(int, prefix[1:].split("e"))
    edges, rotations, edge_of = [], [[] for _ in range(n)], {}
    v = 0
    for tok in map(int, body.split(",")):
        if tok == -1:
            v += 1
            continue
        w, bit = divmod(tok, 2)
        sign = -1 if bit else 1
        e = edge_of.get((w, v))
        if e is None:
            edge_of[v, w] = len(edges)
            rotations[v].append(2 * len(edges))
            edges.append((v, w, sign))
        else:
            assert edges[e][2] == sign
            rotations[v].append(2 * e + 1)
    assert (v, len(edges)) == (n, ne)
    return SignedRotationSystem(n, edges, rotations)


def test_keys_decode_to_their_class(corpus10, k4, bowtie, min9):
    # a key names its neighbour and sign per dart visit and no edge, yet
    # it spells the whole system: every key decodes to one whose key it is
    keys = [key for n in range(4, 11) for key, _srs in corpus10[n]]
    keys += [canonical_key(g) for g in (k4, bowtie, min9)]
    for key in keys:
        assert canonical_key(_decode_key(key)) == key


def _splits(srs):
    return [(v, i, j) for v in range(srs.vertex_count)
            for i, j in combinations(range(srs.degree(v)), 2)]


def test_twin_splits_repeat_an_earlier_class(corpus10):
    # growth skips these splits: each gives the class of a split of the
    # same parent that growth tries before
    skipped = 0
    for n in range(4, 9):
        for _key, srs in corpus10[n]:
            twins = _twin_splits(srs, EmbeddedGraph(srs).face_corners())
            tried = set()
            for split in _splits(srs):
                key = canonical_key(vertex_split(srs, *split))
                if split in twins:
                    assert key in tried
                    skipped += 1
                else:
                    tried.add(key)
    assert skipped == 937


def test_growth_matches_bruteforce(corpus10, k4):
    # the one-state repeat test, the twin skip and the canonical-parent
    # rule change neither the classes nor their keys and order; the stored
    # representatives may be other members of their classes, so each is
    # keyed afresh
    oracle = grow_quadrangulations_bruteforce([k4], n_max=10)
    assert list(corpus10) == list(oracle)
    for n, items in corpus10.items():
        assert [k for k, _ in items] == [k for k, _ in oracle[n]]
        for key, srs in items:
            assert canonical_key(srs) == key


def test_stored_representatives_are_pinned(corpus10):
    # which member of its class growth stores, and how it labels it, is
    # what the .srs files hold; the keys alone do not pin it
    digest = hashlib.sha256()
    for items in corpus10.values():
        for _key, srs in items:
            digest.update(srsio.dumps(srs).encode())
    assert digest.hexdigest() == ("0e283e76b07106698f1380743d901c71"
                                  "d76bd2d6d84af51a293a1c66869e89ff")


def test_grow_stream_is_pinned():
    # the _grow stream from K4 to n <= 10 in discovery order: each class's
    # key, the .srs body of its stored representative and its polyhedral
    # and bipartite flags.  A change to how growth enumerates or validates
    # splits must keep all of it, not only the set of classes
    counts, sorted_keys, stream, _cpu = \
        _script("growth_digest").growth_digest(10)
    assert counts == {4: 1, 5: 1, 6: 4, 7: 14, 8: 58, 9: 268, 10: 1381}
    assert sorted_keys == ("4d2d0d6402c7fe8b5631842c44b22354"
                           "e543e695a4cf7547833feef2fe556b5b")
    assert stream == ("8d9894b4e4970e3f4853164c57ad64b6"
                      "81f850e44e26a5f172a0b0e99321d65e")


def test_corpus_closed_under_degree_2_deletion(corpus10):
    # what the canonical-parent rule rests on: deleting a vertex of degree
    # 2 from a member gives a quadrangulation of the corpus
    deleted = 0
    for n in range(5, 11):
        below = {key for key, _srs in corpus10[n - 1]}
        for _key, srs in corpus10[n]:
            for w, r in enumerate(srs.rotations):
                if len(r) == 2:
                    smaller = delete_vertex_by_lists(srs, w)
                    validate_quadrangulation(EmbeddedGraph(smaller),
                                             require_polyhedral=False)
                    assert canonical_key(smaller) in below
                    deleted += 1
    assert deleted == 4743


def test_canonical_parent_rule_fires(monkeypatch, k4):
    # the rule drops split products before they are patched: from K4 to
    # n <= 10, 3,120 products and 8,022 encoder calls, where growth
    # without it makes 11,505 and 16,407
    calls = {"_patched_split": 0, "_encode_from": 0}

    def counting(name):
        fn = getattr(generator, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(generator, name, counting(name))
    corpus = grow_quadrangulations([k4], n_max=10)
    assert sum(map(len, corpus.values())) == 1727
    assert calls == {"_patched_split": 3120, "_encode_from": 8022}


def test_unvalidated_classes_pass_validation(monkeypatch, k4):
    # growth validates K4 and the classes of minimum degree at least 3,
    # and yields every class with a vertex of degree 2, at any order,
    # unvalidated, with the flags validation would give it
    validate = generator.validate_quadrangulation
    calls = []

    def counted(g, **kwargs):
        calls.append(g.vertex_count)
        return validate(g, **kwargs)

    monkeypatch.setattr(generator, "validate_quadrangulation", counted)
    skipped = 0
    for c in generator._grow([k4], 10):
        n = c.srs.vertex_count
        q = c.quad
        if q is None:
            assert min(map(len, c.srs.rotations)) == 2
            q = validate(EmbeddedGraph(c.srs), require_polyhedral=False)
            skipped += 1
        else:
            assert min(map(len, c.srs.rotations)) >= 3
            assert q.embedding.srs is c.srs
        assert (c.polyhedral, c.bipartite) == (q.polyhedral, q.bipartite)
        assert q.vertex_count == n
    assert skipped == 1701
    assert sorted(calls) == [4, 6, 7] + [8] * 3 + [9] * 5 + [10] * 15


def _k33():
    """A rotation system of K_{3,3}, each rotation in edge order, every
    edge positive."""
    edges = [(a, b, 1) for a in range(3) for b in range(3, 6)]
    rotations = [[] for _ in range(6)]
    for e, (a, b, _s) in enumerate(edges):
        rotations[a].append(2 * e)
        rotations[b].append(2 * e + 1)
    return SignedRotationSystem(6, edges, rotations)


def test_split_keeps_bipartiteness(corpus10):
    # what growth's unvalidated flags rest on: a split product is bipartite
    # iff its parent is.  The K4 closure has no bipartite member, so the
    # True side is checked on K_{3,3} and its products two splits deep.
    def bipartite(srs):
        return is_bipartite(srs.vertex_count, srs.adjacency_masks())

    parents = [srs for n in range(4, 8) for _key, srs in corpus10[n]]
    parents += [_k33()]
    parents += [vertex_split(_k33(), *split) for split in _splits(_k33())]
    sides = {False: 0, True: 0}
    for srs in parents:
        tables = _split_tables(srs)
        for split in _splits(srs):
            product = _materialise(srs.edges,
                                   *_patched_split(tables, *split))
            assert bipartite(product) == bipartite(srs)
            sides[bipartite(srs)] += 1
    assert sides == {False: 611, True: 468}


def test_seed_with_a_degree_2_vertex_is_refused(k4):
    # the rule is sound only for seeds of minimum degree at least 3
    reducible = vertex_split(k4.srs, 0, 0, 1)
    assert min(map(len, reducible.rotations)) == 2
    with pytest.raises(ReducibleSeed, match="seed 1 has vertex 4 "):
        grow_quadrangulations([k4, reducible], n_max=6)
    # a seed above the bound is dropped before it is looked at
    assert list(grow_quadrangulations([k4, reducible], n_max=4)) == [4]


def _halves(srs, v, i, j):
    """The degree-2 halves of the split (v, i, j), i < j, of ``srs`` if it
    is an insertion, else ()."""
    k = srs.degree(v)
    if j - i == 1:
        return (srs.vertex_count, v) if k == 2 else (srs.vertex_count,)
    return (v,) if j - i == k - 1 else ()


def test_patched_split_matches_list_split(corpus10):
    # every split (v, i, j), i < j, of every class with n <= 9: the tables
    # growth patches and encodes are the tables the list-based split builds
    # afresh, the system materialised from them writes the same bytes, and
    # the start darts read off them are the product's class darts.  On an
    # insertion, the root test growth makes before patching decides as the
    # product's least degree pair does
    products = 0
    roots = {False: 0, True: 0}
    for n in range(4, 10):
        for _key, srs in corpus10[n]:
            parent = generator._split_tables(srs)
            rot, dv0 = srs.rotations, srs._dart_vertex
            twos = [(w, dv0[r[0] ^ 1], dv0[r[1] ^ 1])
                    for w, r in enumerate(rot) if len(r) == 2]
            for split in _splits(srs):
                tables = generator._patched_split(parent, *split)
                dv, nxt, prv, sign, deg, lead = tables
                oracle = vertex_split_by_lists(srs, *split)
                assert (dv, nxt, prv) == (oracle._dart_vertex,
                                          oracle._rot_next, oracle._rot_prev)
                assert sign == [s for _u, _v, s in oracle.edges]
                assert deg == list(map(len, oracle.rotations))
                assert lead == [r[0] for r in oracle.rotations]
                product = generator._materialise(srs.edges, *tables)
                assert srsio.dumps(product) == srsio.dumps(oracle)
                least = generator._least_pair(dv, nxt, deg, lead)
                assert least == generator._class_darts(product)
                products += 1
                halves = _halves(srs, *split)
                if halves:
                    v, i, j = split
                    root = any(dv[d] in halves for d in least)
                    assert _half_is_root(parent[5], twos, v,
                                         dv0[rot[v][i] ^ 1],
                                         dv0[rot[v][j] ^ 1]) == root
                    roots[root] += 1
    assert products == 16_301
    assert roots == {False: 4196, True: 5619}


def test_tried_splits_are_the_filtered_splits(corpus10):
    # the splits growth walks, of every class with n <= 9, are its splits
    # in (v, i, j) order less its twins and those that leave one of its
    # degree-2 vertices in place: 6,235 of the 16,301 keep one, 4,811 are
    # twins, and 5,255 are walked
    dropped = {"twin": 0, "keeps a degree-2 vertex": 0}
    walked = 0
    for n in range(4, 10):
        for _key, srs in corpus10[n]:
            rot, dv = srs.rotations, srs._dart_vertex
            twins = _twin_splits(srs, EmbeddedGraph(srs).face_corners())
            twos = {w for w, r in enumerate(rot) if len(r) == 2}
            expected = []
            for v, i, j in _splits(srs):
                halves = _halves(srs, v, i, j)
                if (v, i, j) in twins:
                    dropped["twin"] += 1
                elif halves or twos <= {dv[rot[v][i] ^ 1],
                                        dv[rot[v][j] ^ 1]}:
                    expected.append((v, i, j, halves))
                else:
                    dropped["keeps a degree-2 vertex"] += 1
            assert list(_tried_splits(rot, dv, twos, twins)) == expected
            walked += len(expected)
    assert dropped == {"twin": 4811, "keeps a degree-2 vertex": 6235}
    assert walked == 5255


def _cyclic(faces):
    """A face list as a sorted list of cyclic sequences, each up to its
    start and direction."""
    return sorted(canonical_walk(f) for f in faces)


def test_split_products_validate_and_patch_their_faces(corpus10):
    # every product of every split of every class with n <= 9, which
    # growth mostly yields unvalidated, is a simple P^2 quadrangulation,
    # and the face corners growth patches from the parent's are those of
    # its traced faces, up to each walk's start and direction
    products = 0
    for n in range(4, 10):
        for _key, srs in corpus10[n]:
            parent = _split_tables(srs)
            faces = EmbeddedGraph(srs).face_corners()
            for split in _splits(srs):
                g = EmbeddedGraph(
                    _materialise(srs.edges, *_patched_split(parent, *split)))
                validate_quadrangulation(g, require_polyhedral=False)
                assert _cyclic(_patched_faces(faces, parent, *split)) == \
                    _cyclic(g.face_corners())
                products += 1
    assert products == 16_301


def test_vertex_split_wraps_when_i_above_j(corpus10):
    # i > j splits the arc that wraps past the end of the rotation list,
    # as the list-based split does
    wrapped = 0
    for n in range(4, 8):
        for _key, srs in corpus10[n]:
            for v, i, j in _splits(srs):
                assert srsio.dumps(vertex_split(srs, v, j, i)) == \
                    srsio.dumps(vertex_split_by_lists(srs, v, j, i))
                wrapped += 1
    assert wrapped > 0


def test_vertex_split_preserves_quadrangulation(k4):
    keys = set()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        cand = EmbeddedGraph(vertex_split(k4.srs, 0, i, j))
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


def test_grow_keeps_no_seed_above_the_bound(k4):
    assert grow_quadrangulations([k4], 3) == {}
    assert grow_quadrangulations_bruteforce([k4], 3) == {}
    assert list(grow_quadrangulations([k4], 4)) == [4]


def test_grow_products_face_vertex_relation(corpus10):
    for n, items in corpus10.items():
        for _key, srs in items:
            g = EmbeddedGraph(srs)
            assert g.face_count == n - 1
            assert g.edge_count == 2 * (n - 1)
            assert g.euler_char == 1 and not is_orientable(srs)


def test_grow_deterministic(k4):
    a = grow_quadrangulations([k4], n_max=7)
    b = grow_quadrangulations([k4], n_max=7)
    for n in a:
        assert [k for k, _ in a[n]] == [k for k, _ in b[n]]
        assert [srsio.dumps(s) for _, s in a[n]] == \
            [srsio.dumps(s) for _, s in b[n]]


def test_write_and_load_corpus(tmp_path, k4):
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


def test_manifest_matches_validation(tmp_path):
    # every row's file reloads to its name, and the polyhedral and bipartite
    # columns are what validation says, also on the 1,366 rows at n = 10
    # whose flags growth yielded without validating
    rows = write_corpus(tmp_path / "c", 10)
    assert len(rows) == 1727
    for n, name, poly, bip, _conn in rows:
        srs = srsio.load(tmp_path / "c" / f"q{n}" / f"{name}.srs")
        assert short_key(srs) == name
        q = validate_quadrangulation(EmbeddedGraph(srs),
                                     require_polyhedral=False)
        assert (poly, bip) == (str(int(q.polyhedral)), str(int(q.bipartite)))
    assert {poly for _n, _k, poly, _b, _c in rows} == {"0", "1"}


def _files(root):
    return {p.relative_to(root).as_posix()
            for p in root.rglob("*") if p.is_file()}


def _manifest_files(rows):
    return {"manifest.tsv"} | {f"q{n}/{key}.srs" for n, key, *_ in rows}


def test_rewrite_removes_stale_corpus_files(tmp_path):
    # a smaller corpus written over a larger one leaves none of its files
    out = tmp_path / "c"
    write_corpus(out, 8)
    rows = write_corpus(out, 6)
    assert len(rows) == 6
    assert _files(out) == _manifest_files(rows)
    assert sorted(p.name for p in out.iterdir()) == \
        ["manifest.tsv", "q4", "q5", "q6"]
    # files the manifest does not list stay, and so do their directories
    (out / "notes.txt").write_text("kept\n")
    (out / "q6" / "extra.srs").write_text("kept\n")
    rows = write_corpus(out, 5)
    assert _files(out) == _manifest_files(rows) | {"notes.txt",
                                                   "q6/extra.srs"}


def test_validation_errors_propagate(tmp_path, monkeypatch, k4):
    # only non-polyhedral members are skipped; any other validation error
    # is a bug and must surface
    def broken(*args, **kwargs):
        raise MalformedRotation("validation bug")

    corpus = grow_quadrangulations([k4], 9)
    monkeypatch.setattr(generator, "validate_quadrangulation", broken)
    with pytest.raises(MalformedRotation):
        write_corpus(tmp_path / "c", 9)
    with pytest.raises(MalformedRotation):
        corpus_instances(corpus)


def test_write_corpus_keeps_no_member(tmp_path, monkeypatch):
    # each class is written as growth finds it and then dropped: while the
    # n <= 10 corpus is written, fewer systems are alive than there are
    # classes below n = 10, where holding every member would keep 1,727
    def live():
        return sum(isinstance(o, SignedRotationSystem)
                   for o in gc.get_objects())

    baseline = live()
    counts = []
    dump = srsio.dump

    def counted(srs, path):
        dump(srs, path)
        calls = len(counts) + 1
        counts.append(live() - baseline
                      if calls % 200 == 0 or calls == 1727 else None)

    monkeypatch.setattr(srsio, "dump", counted)
    rows = write_corpus(tmp_path / "c", 10)
    assert len(rows) == len(counts) == 1727
    sampled = [c for c in counts if c is not None]
    assert len(sampled) == 9
    assert max(sampled) < 1 + 1 + 4 + 14 + 58 + 268


def test_instances_are_built_on_the_validated_quadrangulations(
        tmp_path, monkeypatch):
    # write_corpus builds each instance on the quadrangulation growth
    # validated, so no member's faces are traced a second time
    validated, built = [], []
    validate = generator.validate_quadrangulation
    instance = generator._instance

    def recording_validate(g, **kwargs):
        validated.append(validate(g, **kwargs))
        return validated[-1]

    def recording_instance(q, digest):
        built.append(q)
        return instance(q, digest)

    monkeypatch.setattr(generator, "validate_quadrangulation",
                        recording_validate)
    monkeypatch.setattr(generator, "_instance", recording_instance)
    rows = write_corpus(tmp_path / "c", 10)
    # growth validates K4 and the 25 classes of minimum degree at least 3,
    # and none of the other 1,701
    assert len(rows) == 1727
    assert len(validated) == 26
    assert sorted(q.vertex_count for q in built) == [9, 10]
    assert all(any(q is v for v in validated) for q in built)


def test_failed_write_leaves_no_manifest_and_no_member(tmp_path,
                                                       monkeypatch):
    # a run that raises has deleted the previous corpus and deletes the
    # files it wrote; no manifest is left, so verify refuses the directory.
    # The raise comes mid-run, at the one class of minimum degree 3 with
    # n = 7, the only class there that growth validates
    out = tmp_path / "c"
    assert len(write_corpus(out, 6)) == 6
    validate = generator.validate_quadrangulation

    def broken(g, **kwargs):
        if g.vertex_count == 7:
            raise MalformedRotation("validation bug")
        return validate(g, **kwargs)

    monkeypatch.setattr(generator, "validate_quadrangulation", broken)
    with pytest.raises(MalformedRotation):
        write_corpus(out, 8)
    assert not (out / "manifest.tsv").exists()
    assert _files(out) == set()
    assert main(["verify", "--corpus", str(out)]) == 1


def test_digest_is_blake2b_of_the_key(corpus10):
    for members in corpus10.values():
        for key, _srs in members:
            assert _digest(key) == \
                hashlib.blake2b(key.encode(), digest_size=8).hexdigest()


def test_make_fixtures_reproduces_committed(tmp_path):
    _script("make_fixtures").write_fixtures(tmp_path)
    committed = ROOT / "src" / "o1ppg" / "fixtures"
    names = sorted(p.name for p in committed.iterdir() if p.is_file())
    # the nine base patterns ship; the configurations (a)-(g) are roles
    assert names == sorted(
        ["FIX-BOWTIE.srs", "FIX-K4.srs", "FIX-MIN9.srs"]
        + [f"pattern_{pid}.srs" for pid in PATTERN_IDS
           if pid not in _CONFIG_ROLES])
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (committed / name).read_bytes(), name


def test_corpus_instances_contract(k4):
    assert corpus_instances(grow_quadrangulations([k4], 8)) == []
    insts = [i for i in corpus_instances(grow_quadrangulations([k4], 10))
             if i.n % 2 == 0]
    assert [i.n for i in insts] == [10]
    assert all(i.edge_count == 36 for i in insts)
    # deterministic ordering and keys across runs
    again = [i for i in corpus_instances(grow_quadrangulations([k4], 10))
             if i.n % 2 == 0]
    assert [i.key for i in insts] == [i.key for i in again]


def test_min9_membership(corpus10, min9):
    keys = {k for k, _ in corpus10[9]}
    assert canonical_key(min9) in {canonical_key(EmbeddedGraph(s))
                                   for _k, s in corpus10[9]}
    assert short_key(min9.srs) in {short_key(s) for _k, s in corpus10[9]}
    assert len(keys) == 268
