"""Corpus generation: canonical forms and growth of projective-plane
quadrangulations by vertex splitting.

A class is named by its canonical key, the least BFS encoding
(``surface._encode_from``) over the start states of its least degree pair
(``_class_darts``).  Growth decides repeats with the same encodings
(``_new_class``), and ``canonical_key`` returns the key growth computes; it
takes simple connected systems only.

Enumeration completeness is NOT claimed: the corpus is the closure of the
seed set under vertex splits, re-validated per product.  The verification
harness treats theorem checks as property tests over this corpus.
"""

from __future__ import annotations

import hashlib
import pathlib
from array import array
from itertools import combinations

from . import fixtures, srsio
from .errors import (Disconnected, MalformedManifest, NotSimple,
                     NotSimpleResult)
from .graphs import vertex_connectivity_flow
from .model import Quadrangulation, build_o1ppg, validate_quadrangulation
from .surface import (_SEP, EmbeddedGraph, SignedRotationSystem,
                      _encode_from, _encoder_tables)


def _unpack(n, packed):
    """The key's token stream of a packed encoding: (edge_label,
    neighbor_label, sign_bit) per dart visit, -1 closing each vertex block."""
    out = []
    for tok in packed:
        if tok == _SEP:
            out.append(_SEP)
        else:
            el, rest = divmod(tok, 2 * n)
            out += (el, rest >> 1, rest & 1)
    return tuple(out)


def _class_darts(srs):
    """Start darts of a simple connected system, its least degree pair: the
    darts at vertices of least degree whose far endpoint has the least
    degree among them.

    The minimum encoding over a set of start darts is canonical whenever
    every embedded isomorphism maps the set of one system onto the set of
    the other: the encodings from corresponding start states are equal, so
    the two minima are.  This set is picked by the degrees of each dart's
    two ends, and degrees depend on the adjacency alone, which relabelling
    carries along and reflection and sign flips leave unchanged, so the set
    qualifies.  Growth relies on the same invariance to encode a split
    product from its first start state only (``_new_class``).
    """
    rot = srs.rotations
    dv = srs._dart_vertex
    deg = list(map(len, rot))
    least = min(deg)
    darts = [d for r in rot if len(r) == least for d in r]
    far = [deg[dv[d ^ 1]] for d in darts]
    least = min(far)
    return [d for d, f in zip(darts, far) if f == least]


def _prefix(srs):
    return f"v{srs.vertex_count}e{srs.edge_count}:"


def canonical_key(g) -> str:
    """Canonical string of a simple connected embedding, equal for two
    embeddings iff they are related by relabelling, rotation/reflection,
    and sign flips.

    It is the key growth gives the class (``_new_class``): the minimum BFS
    encoding over the start states (d, +1), (d, -1) of the least degree
    pair (``_class_darts``).  An edgeless system, a single vertex or none,
    has the empty encoding.  Raises NotSimple on a loop or a multi-edge and
    Disconnected on a disconnected system.
    """
    srs = g.srs if isinstance(g, EmbeddedGraph) else g
    if not srs.is_simple():
        raise NotSimple("canonical keys need a graph without loops or "
                        "multi-edges")
    if not srs.is_connected():
        raise Disconnected("canonical keys need a connected graph")
    if not srs.edges:
        return _prefix(srs)
    return _new_class(srs, set())[0]


def _digest(key):
    """Filesystem-friendly digest of a canonical string."""
    return hashlib.blake2b(key.encode(), digest_size=8).hexdigest()


def short_key(g) -> str:
    """Filesystem-friendly digest of the canonical string."""
    return _digest(canonical_key(g))


# -- growth moves -------------------------------------------------------------


def vertex_split(srs: SignedRotationSystem, v, i, j):
    """Split vertex ``v`` between rotation positions ``i`` and ``j``.

    The neighbors at positions i and j stay attached to both halves; the arc
    strictly between them moves to the new vertex, which inherits the local
    orientation of ``v``.  The insertion side of each new edge end is forced
    by the face structure: the new end replaces the old one next to the face
    corner that migrates to the new vertex, which is the rotation-predecessor
    side at ``x`` iff sign(vx) is +1 and the successor side at ``y`` iff
    sign(vy) is +1.

    Returns the raw SignedRotationSystem (not validated, not traced).
    """
    rot_v = srs.rotations[v]
    k = len(rot_v)
    di, dj = rot_v[i], rot_v[j]
    ei, ej = di >> 1, dj >> 1
    x = srs.dart_vertex(di ^ 1)
    y = srs.dart_vertex(dj ^ 1)
    twice = rot_v + rot_v
    arc = twice[i + 1:i + (j - i) % k]
    keep = twice[j:j + (i - j) % k + 1]
    n = srs.vertex_count
    vp = n  # the new vertex
    ne = srs.edge_count
    e1 = ne      # vp - x
    e2 = ne + 1  # vp - y
    edges = list(srs.edges) + [(vp, x, srs.sign(ei)), (vp, y, srs.sign(ej))]
    for d in arc:
        e = d >> 1
        u0, v0, s0 = edges[e]
        edges[e] = (vp, v0, s0) if (d & 1) == 0 else (u0, vp, s0)
    rotations = list(srs.rotations)     # the constructor copies each list
    rotations[v] = keep
    rotations.append([2 * e1] + arc + [2 * e2])
    rotations[x] = rx = list(rotations[x])
    pos = rx.index(di ^ 1)
    rx.insert(pos if srs.sign(ei) > 0 else pos + 1, 2 * e1 + 1)
    rotations[y] = ry = list(rotations[y])
    pos = ry.index(dj ^ 1)
    ry.insert(pos + 1 if srs.sign(ej) > 0 else pos, 2 * e2 + 1)
    return SignedRotationSystem(n + 1, edges, rotations, check=False)


def _automorphism(srs, base, image):
    """Dart permutation of the automorphism that carries one start state of
    ``srs`` onto another, given the two ``_encode_from`` results, whose
    encodings must be equal.  The k-th vertex discovered from one state maps
    to the k-th discovered from the other, and its rotation, walked from its
    entry dart in its hand, onto theirs, walked the same way."""
    nxt, prv = srs._rot_next, srs._rot_prev
    _enc, order, entry, hand = base
    _enc, order2, entry2, hand2 = image
    perm = [0] * len(nxt)
    for v, w in zip(order, order2):
        step = nxt if hand[v] > 0 else prv
        step2 = nxt if hand2[w] > 0 else prv
        d = first = entry[v]
        d2 = entry2[w]
        while True:
            perm[d] = d2
            d = step[d]
            if d == first:
                break
            d2 = step2[d2]
    return perm


def _new_class(srs, seen):
    """Key and automorphisms of a simple connected system whose class is
    not in ``seen``, or None if it is.

    ``seen`` holds, as ``array("h")`` bytes, the packed encodings from
    every start state of every class met so far (an encoding's length,
    5n - 4 tokens, fixes the order n).  The start states are (d, +1) and
    (d, -1) for the darts d of the least degree pair (``_class_darts``).
    That set is invariant and a start-state encoding describes the whole
    embedding, so the system repeats a class iff its encoding from one
    start state (its first start dart, side +1) is in ``seen``.  A new
    class is then encoded from its other start states too, all of which
    join ``seen``.  Its key, which ``canonical_key`` returns, is their
    minimum.  The start states whose encoding equals the first state's are
    the images of the first state under the automorphisms, one per
    automorphism, so the states after the first give the non-identity
    automorphisms, returned as dart permutations.
    """
    tables = _encoder_tables(srs)
    starts = [(d, side) for d in _class_darts(srs) for side in (1, -1)]
    first = _encode_from(*tables, *starts[0])
    packed = array("h", first[0]).tobytes()
    if packed in seen:
        return None
    seen.add(packed)
    others = [_encode_from(*tables, d, side) for d, side in starts[1:]]
    least = first[0]
    automorphisms = []
    for found in others:
        enc = found[0]
        other = array("h", enc).tobytes()
        if other == packed:
            automorphisms.append(_automorphism(srs, first, found))
        else:
            seen.add(other)
            least = min(least, enc)
    key = _prefix(srs) + ",".join(map(str, _unpack(srs.vertex_count, least)))
    return key, automorphisms


def _repeated_splits(g, automorphisms):
    """Splits of a quadrangulation ``g`` that repeat an earlier split of it.

    Each split returned gives the class of a split that comes before it in
    (v, i, j) order, so the earliest split of each class is never returned.
    Two rules name them:

    - Twins.  A split between the two darts of a face corner, cyclically
      adjacent at their vertex, puts a degree-2 vertex into that face,
      joined to the two neighbours there (at a vertex of degree 2, the one
      such split serves both of its corners).  Splitting at the opposite
      corner of the same face gives the same quadrangulation, so the later
      split of the two is returned.
    - Automorphisms.  An automorphism, a dart permutation, maps the split
      (v, i, j) between the darts ``rot[v][i]`` and ``rot[v][j]`` to the
      split between their images, whose product is isomorphic.  A split is
      returned when some automorphism maps it to an earlier split.
    """
    rot = g.srs.rotations
    later = set()
    for face in g.faces:
        corners = []
        for t, a in enumerate(face.vertices):
            pos = rot[a].index
            i, j = sorted((pos(face.boundary[t - 1] ^ 1),
                           pos(face.boundary[t])))
            corners.append((a, i, j))
        for c1, c2 in ((corners[0], corners[2]), (corners[1], corners[3])):
            if c1 != c2:
                later.add(max(c1, c2))
    if automorphisms:
        dv = g.srs._dart_vertex
        pos = [0] * len(dv)
        for r in rot:
            for p, d in enumerate(r):
                pos[d] = p
        for perm in automorphisms:
            for v, r in enumerate(rot):
                for i, j in combinations(range(len(r)), 2):
                    a, b = perm[r[i]], perm[r[j]]
                    p, q = sorted((pos[a], pos[b]))
                    if (dv[a], p, q) < (v, i, j):
                        later.add((v, i, j))
    return later


def grow_quadrangulations(seeds, n_max):
    """Closure of the seeds under vertex splits, keeping simple P^2
    quadrangulations up to ``n_max`` vertices, deduplicated canonically.

    Returns {n: [(canonical_string, SignedRotationSystem), ...]} sorted by
    key.  A split product is encoded from one start state and is a repeat
    iff that encoding is one a class met before had from any of its start
    states (``_new_class``); only a new class is encoded from all of them.
    Seeds with more than ``n_max`` vertices are dropped.  Every other seed,
    and every product found under a new key, goes through
    ``validate_quadrangulation``; the split construction itself guarantees
    quadrangulation-ness, so a validation error on a product is a bug, not
    an input condition.  The splits that ``_repeated_splits`` names, by
    face-corner twins and by the parent's automorphisms, are skipped: each
    repeats the class of a split of the same system made before it, so
    neither the classes nor their stored representatives change.  Start
    states come from the least degree pair (``_class_darts``).  From K4 to
    n <= 10 that builds 9,566 split products and makes 14,468 encoder
    calls.
    """
    return {n: [(key, srs) for key, srs, _poly, _bip in members]
            for n, members in _grow(seeds, n_max).items()}


def _grow(seeds, n_max):
    """``grow_quadrangulations`` with each member's validation flags:
    {n: [(key, srs, polyhedral, bipartite), ...]} sorted by key."""
    by_n = {}
    seen = set()
    frontier = []   # (EmbeddedGraph, automorphisms) of classes below n_max

    def keep(q, found):
        key, automorphisms = found
        g = q.embedding
        by_n.setdefault(g.vertex_count, []).append(
            (key, g.srs, q.polyhedral, q.bipartite))
        if g.vertex_count < n_max:
            frontier.append((g, automorphisms))

    for g in seeds:
        if isinstance(g, SignedRotationSystem):
            g = EmbeddedGraph(g)
        if g.vertex_count > n_max:
            continue
        q = validate_quadrangulation(g, require_polyhedral=False)
        # Members are simple and connected, so they take the restricted
        # start set directly.
        found = _new_class(g.srs, seen)
        if found is not None:
            keep(q, found)
    while frontier:
        g0, automorphisms = frontier.pop()
        srs0 = g0.srs
        repeated = _repeated_splits(g0, automorphisms)
        for v in range(srs0.vertex_count):
            k = srs0.degree(v)
            for i, j in combinations(range(k), 2):
                if (v, i, j) in repeated:
                    continue        # an earlier split has the class
                # A split of a simple connected system is simple (the two
                # halves share no edge and split v's distinct neighbours)
                # and connected (both halves keep x and y).
                srs = vertex_split(srs0, v, i, j)
                found = _new_class(srs, seen)
                if found is not None:
                    keep(validate_quadrangulation(
                        EmbeddedGraph(srs), require_polyhedral=False), found)
    return {n: sorted(v, key=lambda m: m[0]) for n, v in sorted(by_n.items())}


# -- corpus ------------------------------------------------------------------


def default_seed():
    return fixtures.fix_k4()


def _instance(q, digest):
    """The instance ``q<n>-<digest>`` of a polyhedral quadrangulation with
    n >= 9, or None when a diagonal would duplicate an edge."""
    try:
        return build_o1ppg(q, key=f"q{q.vertex_count}-{digest}")
    except NotSimpleResult:
        return None


def _validated_instance(srs, digest):
    """Validate a corpus member and build its instance ``q<n>-<digest>``.

    Returns None when the member is not polyhedral, has fewer than 9
    vertices, or a diagonal would duplicate an edge.  Any other validation
    error propagates: corpus members are quadrangulations by construction.
    """
    q = validate_quadrangulation(EmbeddedGraph(srs), require_polyhedral=False)
    if not q.polyhedral or q.vertex_count < 9:
        return None
    return _instance(q, digest)


def corpus_instances(corpus):
    """Instances of a grown corpus ``{n: [(key, srs)]}``: its polyhedral
    members with n >= 9, named ``q<n>-<digest of key>``, in the corpus's
    (n, canonical key) order."""
    out = []
    for n, members in corpus.items():
        if n < 9:
            continue
        for key, srs in members:
            # validation's first polyhedral test, made before any face is
            # traced: most members have a vertex of degree below 3
            if min(map(len, srs.rotations)) < 3:
                continue
            inst = _validated_instance(srs, _digest(key))
            if inst is not None:
                out.append(inst)
    return out


def write_corpus(out_dir, n_max, seeds=None):
    """Write the full grown corpus and its manifest.

    Layout: ``q<n>/<key>.srs`` plus ``manifest.tsv`` with columns
    n, key, polyhedral, bipartite, connectivity (of the derived instance;
    "-" when not applicable).  Deterministic byte-for-byte.  The member
    files that ``out_dir``'s previous manifest lists are deleted first, and
    so are the ``q<n>`` directories this leaves empty; nothing else there
    is touched.
    """
    if seeds is None:
        seeds = [default_seed()]
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = _grow(seeds, n_max)
    _remove_listed(out_dir)
    rows = []
    for n, members in corpus.items():
        sub = out_dir / f"q{n}"
        sub.mkdir(exist_ok=True)
        for key, srs, polyhedral, bipartite in members:
            digest = _digest(key)
            srsio.dump(srs, sub / f"{digest}.srs")
            # growth validated the member; only instances need its faces
            inst = (_instance(Quadrangulation(EmbeddedGraph(srs), True,
                                              bipartite), digest)
                    if polyhedral and n >= 9 else None)
            conn = ("-" if inst is None else
                    str(vertex_connectivity_flow(inst.n, inst.adj, 8)))
            rows.append((n, digest, "1" if polyhedral else "0",
                         "1" if bipartite else "0", conn))
    rows.sort()
    with open(out_dir / "manifest.tsv", "w", newline="\n") as fh:
        fh.write("n\tkey\tpolyhedral\tbipartite\tconnectivity\n")
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")
    return rows


def _remove_listed(out_dir):
    """Delete the member files that ``out_dir/manifest.tsv`` lists, then
    the ``q<n>`` directories among theirs that are left empty."""
    manifest = out_dir / "manifest.tsv"
    if not manifest.exists():
        return
    subs = set()
    with open(manifest) as fh:
        fh.readline()
        for line in fh:
            n_s, _tab, rest = line.rstrip("\n").partition("\t")
            key = rest.partition("\t")[0]
            if not _is_member_row(n_s, key):
                continue        # no path to trust
            sub = out_dir / f"q{n_s}"
            (sub / f"{key}.srs").unlink(missing_ok=True)
            subs.add(sub)
    for sub in subs:
        if sub.is_dir() and not any(sub.iterdir()):
            sub.rmdir()


def _is_member_row(n_s, key):
    """Whether a manifest row's n and key columns can name a member file
    ``q<n>/<key>.srs``: ASCII digits and an ASCII alphanumeric key, so no
    path separator or parent reference gets in."""
    return (n_s + key).isascii() and n_s.isdigit() and key.isalnum()


def load_corpus_instances(corpus_dir, max_n=None):
    """Instances from a written corpus: polyhedral members with n >= 9.

    Raises MalformedManifest on a row that does not have the five columns
    or whose n and key fail ``_is_member_row``, before any file is opened
    for it."""
    corpus_dir = pathlib.Path(corpus_dir)
    out = []
    with open(corpus_dir / "manifest.tsv") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            row = line.rstrip("\n").split("\t")
            if len(row) != 5 or not _is_member_row(row[0], row[1]):
                raise MalformedManifest(
                    f"manifest.tsv line {lineno} is not a member row: "
                    f"{line.rstrip()!r}")
            n_s, key, poly, _bip, _conn = row
            n = int(n_s)
            if poly != "1" or n < 9 or (max_n is not None and n > max_n):
                continue
            srs = srsio.load(corpus_dir / f"q{n}" / f"{key}.srs")
            inst = _validated_instance(srs, key)
            if inst is not None:
                out.append(inst)
    out.sort(key=lambda i: (i.n, i.key))
    return out
