"""Corpus generation: canonical forms and growth of projective-plane
quadrangulations by vertex splitting.

A class is named by its canonical key, the least BFS encoding
(``surface._encode_from``) over the start states of its least degree pair
(``_class_darts``), spelled ``v<n>e<E>:`` and then its tokens: one per dart
visit, ``2 * neighbour label + sign bit``, and -1 closing each vertex
block (the encoder's own tokens are these plus one, ``_token_strings``).
The encoder takes simple systems only, where two labelled vertices name
the edge between them.  Growth decides repeats with the same encodings
(``_new_class``), and ``canonical_key`` returns the key growth computes; it
takes simple connected systems only.

Enumeration completeness is NOT claimed: the corpus is the closure of the
seed set under vertex splits.  Growth validates the seeds and each new
class of minimum degree at least 3, the polyhedral candidates, patches
the face lists of the others from their parents', and trusts the split
construction for the rest (``_grow``).  The verification harness treats
theorem checks as property tests over this corpus.
"""

from __future__ import annotations

import io
import pathlib
from _blake2 import blake2b
from array import array
from functools import cache
from itertools import combinations
from typing import NamedTuple

from . import fixtures, srsio
from .errors import (Disconnected, MalformedManifest, NotSimple,
                     NotSimpleResult, ReducibleSeed)
from .graphs import vertex_connectivity_flow
from .model import Quadrangulation, build_o1ppg, validate_quadrangulation
from .surface import (EmbeddedGraph, SignedRotationSystem, _encode_from,
                      _encoder_tables)


@cache
def _token_strings(n):
    """Key spelling of the tokens of an order-``n`` encoding: token t, a
    dart visit ``2 * label + sign bit + 1`` or ``surface._SEP`` (0), is
    spelled ``str(t - 1)``, so a key names each visit ``2 * label + sign
    bit`` and closes each vertex block with -1."""
    return tuple(map(str, range(-1, 2 * n)))


def _pack(enc, n):
    """The bytes ``seen`` holds for an order-``n`` encoding: one byte per
    token while the largest token, 2n, fits in one (n <= 127), else two
    in native order.  The width is fixed by the order, and the length of
    growth's encodings, 5n - 4 tokens, fixes the order, so two of them
    pack alike iff they are equal."""
    return bytes(enc) if n <= 127 else array("H", enc).tobytes()


def _class_darts(srs):
    """Start darts of a simple connected system, its least degree pair: the
    darts at vertices of least degree whose far endpoint has the least
    degree among them (``_least_pair``).

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
    return _least_pair(srs._dart_vertex, srs._rot_next, list(map(len, rot)),
                       [r[0] for r in rot], range(srs.vertex_count))


def _least_pair(dv, nxt, deg, lead, vertices, far=0):
    """The least degree pair read off dart tables, its roots sought among
    ``vertices``: per vertex of ``vertices``, in their order, the darts of
    its rotation walked from its lead dart, kept when the vertex has the
    least degree among ``vertices`` and the dart's far endpoint the least
    degree among those darts.  With every vertex passed it is the system's
    least degree pair (``_class_darts``, seeds and growth's products of
    minimum degree at least 3); growth passes an insertion product's
    degree-2 vertices alone, which hold its roots, and their least far
    degree ``far``, which ``_half_is_root`` knows, so the darts are those
    whose far endpoint has that degree and nothing is minimised
    (``_grow``)."""
    if far:
        darts = []
        for w in vertices:
            d = lead[w]
            for _ in range(deg[w]):
                if deg[dv[d ^ 1]] == far:
                    darts.append(d)
                d = nxt[d]
        return darts
    least = min([deg[w] for w in vertices])
    far = len(deg)              # above every degree of a simple system
    darts = []
    for w in vertices:
        k = deg[w]
        if k == least:
            d = lead[w]
            for _ in range(k):
                f = deg[dv[d ^ 1]]
                if f <= far:
                    if f < far:
                        far = f
                        darts = []
                    darts.append(d)
                d = nxt[d]
    return darts


def _prefix(srs):
    return f"v{srs.vertex_count}e{srs.edge_count}:"


def canonical_key(g) -> str:
    """Canonical string of a simple connected embedding, equal for two
    embeddings iff they are related by relabelling, rotation/reflection,
    and sign flips.

    It is the key growth gives the class, ``_new_class`` with nothing
    seen: the minimum BFS encoding over the start states (d, +1), (d, -1)
    of the least degree pair (``_class_darts``).  An edgeless system, a
    single vertex or none, has the empty encoding.  Raises NotSimple on a
    loop or a multi-edge and Disconnected on a disconnected system.
    """
    srs = g.srs if isinstance(g, EmbeddedGraph) else g
    if not srs.is_simple():
        raise NotSimple("canonical keys need a graph without loops or "
                        "multi-edges")
    if not srs.is_connected():
        raise Disconnected("canonical keys need a connected graph")
    if not srs.edges:
        return _prefix(srs)
    return _new_class(srs, set())


def _digest(key):
    """Filesystem-friendly digest of a canonical string, its 8-byte
    blake2b.  ``_blake2.blake2b`` is the constructor ``hashlib.blake2b``
    returns; importing it directly leaves OpenSSL's libcrypto, which
    hashlib maps, unloaded."""
    return blake2b(key.encode(), digest_size=8).hexdigest()


def short_key(g) -> str:
    """Filesystem-friendly digest of the canonical string."""
    return _digest(canonical_key(g))


# -- growth moves -------------------------------------------------------------


def _split_tables(srs):
    """What a split of ``srs`` reads and patches: ``(rotations, dart
    vertex, successor, predecessor, edge signs, degrees, lead dart of each
    rotation)``, the lead dart being the one its list starts at."""
    rot = srs.rotations
    return (rot, srs._dart_vertex, srs._rot_next, srs._rot_prev, srs._sign,
            list(map(len, rot)), [r[0] if r else -1 for r in rot])


def _patched_split(parent, v, i, j):
    """The tables of the split (v, i, j) of the system whose
    ``_split_tables`` are ``parent``: copies of the parent's lists with the
    entries the split changes patched.

    The neighbours x and y at positions i and j stay attached to both
    halves; the darts strictly between them, walking the rotation of ``v``
    forward from i to j (cyclically, so i > j wraps), move to the new
    vertex n, which inherits the local orientation of ``v``.  The new
    edges are e1 = n-x (darts 2*e1 at n, 2*e1 + 1 at x) and e2 = n-y,
    with the signs of vx and vy.  The rotation of n is 2*e1, the moved
    darts, 2*e2.  The insertion side of each new edge end is forced by the
    face structure: the new end goes next to the old one on the side of
    the face corner that migrates to n, which is the predecessor side at
    x iff sign(vx) is +1 and the successor side at y iff sign(vy) is +1.
    The rotation of ``v`` now starts at its dart j and the rotation of n
    at 2*e1; a new end that goes in just before the lead dart of x or y
    becomes the lead, as inserting at the front of a list would.
    """
    rot, dv, nxt, prv, sign, deg, lead = parent
    rot_v = rot[v]
    di, dj = rot_v[i], rot_v[j]
    arc = rot_v[i + 1:j] if i < j else rot_v[i + 1:] + rot_v[:j]
    n = len(deg)
    a = len(dv)                 # dart 2*e1 at the new vertex
    b = a + 2                   # dart 2*e2 at the new vertex
    xd, yd = di ^ 1, dj ^ 1     # the old ends at x and y
    x, y = dv[xd], dv[yd]
    si, sj = sign[di >> 1], sign[dj >> 1]
    dv = dv + [n, x, n, y]
    nxt = nxt + [0, 0, 0, 0]
    prv = prv + [0, 0, 0, 0]
    sign = sign + [si, sj]
    deg = deg + [len(arc) + 2]
    lead = lead + [a]
    deg[v] -= len(arc)
    deg[x] += 1
    deg[y] += 1
    lead[v] = dj
    nxt[di] = dj
    prv[dj] = di
    last = a
    for d in arc:
        dv[d] = n
        nxt[last] = d
        prv[d] = last
        last = d
    nxt[last] = b
    prv[b] = last
    nxt[b] = a
    prv[a] = b
    if si > 0:                  # a + 1 just before xd
        p = prv[xd]
        nxt[p] = prv[xd] = a + 1
        nxt[a + 1], prv[a + 1] = xd, p
        if lead[x] == xd:
            lead[x] = a + 1
    else:                       # a + 1 just after xd
        s = nxt[xd]
        nxt[xd] = prv[s] = a + 1
        nxt[a + 1], prv[a + 1] = s, xd
    if sj > 0:                  # b + 1 just after yd
        s = nxt[yd]
        nxt[yd] = prv[s] = b + 1
        nxt[b + 1], prv[b + 1] = s, yd
    else:                       # b + 1 just before yd
        p = prv[yd]
        nxt[p] = prv[yd] = b + 1
        nxt[b + 1], prv[b + 1] = yd, p
        if lead[y] == yd:
            lead[y] = b + 1
    return dv, nxt, prv, sign, deg, lead


def _materialise(parent, v, dv, nxt, prv, sign, deg, lead):
    """The SignedRotationSystem of the split of v that gave the split
    tables (``_patched_split``) of the system ``parent``.

    The split changes the rotations of four vertices only: v, its
    neighbours x and y, the far ends of the new edges' darts at the new
    vertex (``dv[-3]`` and ``dv[-1]``), and the new vertex, the last one.
    Those are walked from their lead darts, each sized up front, as an
    appended list would keep spare slots for the life of the system; every
    other vertex keeps the parent's list object, so the two systems share
    it (no system's rotation list is ever mutated).  An edge with an end at
    the new vertex joins ``dv[2e]`` and ``dv[2e + 1]`` with sign
    ``sign[e]``, while every other edge keeps the parent's tuple.  The
    tables become the system's own."""
    rotations = parent.rotations + [None]
    for w in (v, dv[-3], dv[-1], len(deg) - 1):
        d, k = lead[w], deg[w]
        r = rotations[w] = [0] * k
        for t in range(k):
            r[t] = d
            d = nxt[d]
    edges = parent.edges + [None, None]
    for d in rotations[-1]:
        e = d >> 1
        edges[e] = (dv[2 * e], dv[2 * e + 1], sign[e])
    return SignedRotationSystem(len(deg), edges, rotations, check=False,
                                tables=(dv, nxt, prv, sign))


def _first_state(tables, start):
    """``(start, encoding, packed bytes)`` of the start state (start, +1)
    of the system whose encoder tables are ``tables``."""
    enc = _encode_from(*tables, start, 1)[0]
    return start, enc, _pack(enc, tables[4])


def _new_class(srs, seen, darts=None, first=None):
    """Key of a simple connected system whose class is not in ``seen``, or
    None if it is.

    ``seen`` holds, packed by ``_pack`` (one byte per token up to order
    127), the encodings from every start state of every class met so far.
    The start states are (d, +1) and (d, -1) for the darts d of the least
    degree pair (``_class_darts``).  That set is invariant and a
    start-state encoding describes the whole embedding, so the system
    repeats a class iff its encoding from one start state (its first start
    dart, side +1) is in ``seen``.  A new class is then encoded from its
    other start states too, all of which join ``seen``.  Its key, which
    ``canonical_key`` returns, is their minimum.

    ``darts`` (the ``_class_darts``, in any order) and ``first`` (the
    ``_first_state`` of the first of them) are passed when the caller has
    them already: growth reads both off a split product's patched tables
    and builds the system only for a new class.
    """
    tables = _encoder_tables(srs)
    if darts is None:
        darts = _class_darts(srs)
    start, least, packed = first or _first_state(tables, darts[0])
    if packed in seen:
        return None
    seen.add(packed)
    n = srs.vertex_count
    for d in darts:
        for side in (1, -1):
            if d == start and side == 1:
                continue
            enc = _encode_from(*tables, d, side)[0]
            seen.add(_pack(enc, n))
            least = min(least, enc)
    spelled = _token_strings(n)
    return _prefix(srs) + ",".join([spelled[t] for t in least])


def _twin_splits(srs, faces):
    """Splits of a quadrangulation ``srs`` with face corners ``faces``
    (``EmbeddedGraph.face_corners``) that repeat an earlier split of it by
    face-corner twins.

    The split at a corner, between dart c at position p of its vertex's
    rotation and its successor, (a, p, p + 1) or (a, 0, p) when c is
    last, puts a degree-2 vertex into that face, joined to the two
    neighbours there (at a vertex of degree 2, the one such split serves
    both of its corners).  Splitting at the opposite corner of the same
    face gives the same quadrangulation, so the later split of the two in
    (v, i, j) order is returned, and the earlier one never is.
    """
    rot, dv = srs.rotations, srs._dart_vertex
    later = set()
    for face in faces:
        splits = []
        for c in face:
            a = dv[c]
            r = rot[a]
            p = r.index(c)
            splits.append((a, p, p + 1) if p + 1 < len(r) else (a, 0, p))
        for s1, s2 in ((splits[0], splits[2]), (splits[1], splits[3])):
            if s1 != s2:
                later.add(max(s1, s2))
    return later


def _tried_splits(rot, dv, twos, twins):
    """``(v, i, j, halves)`` for each split (v, i, j), i < j, of a system
    with rotations ``rot`` and dart vertices ``dv`` that growth goes on to
    root-test or patch, in (v, i, j) order: every split but those in
    ``twins`` and those that leave a vertex of ``twos``, the system's
    vertices of degree 2, in place.

    ``halves`` are the degree-2 halves of an insertion split, the new
    vertex m (j - i = 1; with v too when v has degree 2) or what is left
    of v (j - i = k - 1), and () for any other split.  Only insertions
    are twins, as a twin is the split at a face corner.  Any other split
    raises the degree of x and y alone and leaves both halves at least 3,
    so it is tried only when every vertex of ``twos`` is x or y: with
    ``twos`` empty every split of v is, and otherwise only at a vertex
    adjacent to each of at most two degree-2 vertices.
    """
    m = len(rot)
    hubs = ()       # the vertices adjacent to every vertex of twos
    if 0 < len(twos) <= 2:
        hubs = set.intersection(*[{dv[d ^ 1] for d in rot[w]}
                                  for w in twos])
    for v, rot_v in enumerate(rot):
        k = len(rot_v)
        if not twos:
            pairs = combinations(range(k), 2)
        elif v in hubs:
            at = {p for p, d in enumerate(rot_v) if dv[d ^ 1] in twos}
            pairs = [(i, j) for i, j in combinations(range(k), 2)
                     if j - i in (1, k - 1) or at <= {i, j}]
        elif k == 2:
            pairs = ((0, 1),)
        else:
            pairs = [(0, 1), (0, k - 1)]
            pairs += [(i, i + 1) for i in range(1, k - 1)]
        for i, j in pairs:
            if j - i == 1:
                halves = (m, v) if k == 2 else (m,)
            elif j - i == k - 1:
                halves = (v,)
            else:
                yield v, i, j, ()
                continue
            if (v, i, j) not in twins:
                yield v, i, j, halves


def _half_is_root(deg, twos, v, x, y):
    """Whether the degree-2 half of an insertion split of v between its
    neighbours x and y is a root of the product's least degree pair
    (``_least_pair``), read off the parent before the split is patched:
    its degrees ``deg`` and its degree-2 vertices ``twos`` as ``(w, a,
    b)``, w with its two neighbours.  A root gets the far degree of the
    pair, min(deg x, deg y) + 1, a non-root 0.

    The least degree of the product is 2, so its roots are its degree-2
    vertices of least far degree, the least degree of a neighbour.  A half
    is joined to x and y, whose degrees rise by one, so its far degree is
    min(deg x, deg y) + 1; with v of degree 2 both halves are so.  The
    other degree-2 vertices of the product are those of the parent outside
    {x, y, v}, as x and y rise to 3.  Such a w keeps its neighbours, whose
    degrees are the parent's plus one at x and y: a neighbour in the arc
    becomes the new vertex, whose degree is deg v, and v keeps its own in
    an insertion at j - i = 1.  The half is a root iff no w has a smaller
    far degree.
    """
    far = min(deg[x], deg[y]) + 1
    for w, a, b in twos:
        if (w != v and w != x and w != y
                and min(deg[a] + (a == x or a == y),
                        deg[b] + (b == x or b == y)) < far):
            return 0
    return far


def _insertion_twos(twos, halves, v, x, y):
    """The degree-2 vertices of the product of an insertion split of v
    between its neighbours x and y, read off the parent's degree-2
    vertices ``twos``, ``(w, a, b)`` as ``_half_is_root`` takes them, and
    the split's degree-2 ``halves``: the halves first, then each w other
    than v, x and y, whose degree the split leaves at 2 (x and y rise to
    3).  The product's least degree is 2, so they hold the roots of its
    least degree pair."""
    return [*halves, *[w for w, _a, _b in twos
                       if w != v and w != x and w != y]]


def _patched_faces(faces, parent, v, i, j):
    """The face corners (``EmbeddedGraph.face_corners``) of the split (v,
    i, j) of the system whose ``_split_tables`` are ``parent`` and whose
    face corners are ``faces``: the parent's list with the corners the
    split changes renamed, and the new face v x n y last.

    Darts keep their ids (``_patched_split``), so a corner keeps its key,
    at n when its darts moved there, unless its first dart's successor
    changes.  The face at corner i, keyed di, turns at n from a, the end
    of n-x there, so its key becomes a; the face at corner j, keyed by the
    arc's last dart, turns at n into b under the same key (with the arc
    empty the two faces are one).  At x the new end a + 1 goes on the side
    of the face at corner i: before xd when sign(vx) is +1, where that
    face's corner keeps its key and the new face's is keyed a + 1, and
    after xd otherwise, where the face's corner keyed xd becomes a + 1 and
    the new face's is keyed xd.  At y the new end b + 1 goes after yd when
    sign(vy) is +1, renaming the face's corner yd to b + 1 and giving the
    new face yd, and before yd otherwise, where the new face's corner is
    keyed b + 1.  The new face turns at v from di to dj and at n from b to
    a.  Unchanged faces are the parent's tuples.
    """
    rot, dv, sign = parent[0], parent[1], parent[4]
    di, dj = rot[v][i], rot[v][j]
    xd, yd = di ^ 1, dj ^ 1
    a = len(dv)                 # dart 2*e1 at the new vertex
    b = a + 2                   # dart 2*e2 at the new vertex
    renamed = {di: a}
    if sign[di >> 1] > 0:
        cx = a + 1              # the new face's corner at x
    else:
        renamed[xd] = a + 1
        cx = xd
    if sign[dj >> 1] > 0:
        renamed[yd] = b + 1
        cy = yd                 # the new face's corner at y
    else:
        cy = b + 1
    out = [f if renamed.keys().isdisjoint(f)
           else tuple([renamed.get(c, c) for c in f]) for f in faces]
    out.append((di, cx, b, cy))
    return out


class GrownClass(NamedTuple):
    """A class as growth yields it: its key, the system stored for it, its
    polyhedral and bipartite flags, and the quadrangulation validation
    returned, or None where growth validated nothing (``_grow``)."""

    key: str
    srs: SignedRotationSystem
    polyhedral: bool
    bipartite: bool
    quad: Quadrangulation | None


def grow_quadrangulations(seeds, n_max):
    """Closure of the seeds under vertex splits, keeping simple P^2
    quadrangulations up to ``n_max`` vertices, deduplicated canonically.

    Returns {n: [(canonical_string, SignedRotationSystem), ...]} sorted by
    key: the stream of ``_grow`` collected.
    """
    by_n = {}
    for c in _grow(seeds, n_max):
        by_n.setdefault(c.srs.vertex_count, []).append((c.key, c.srs))
    return {n: sorted(v, key=lambda m: m[0]) for n, v in sorted(by_n.items())}


def _grow(seeds, n_max):
    """Growth as a stream: yields a ``GrownClass`` for each new class as it
    is found, and keeps only the packed encodings it has met (``seen``) and
    the frontier of classes still to split, each with its face corners and
    bipartite flag, so a class the consumer drops is freed.

    The splits of a frontier class are walked in (v, i, j) order, less the
    splits that ``_twin_splits`` names, each of which repeats the class of
    a split of the same system made before it, and those the
    canonical-parent rule drops (``_tried_splits``, ``_half_is_root``).  A
    split product is a copy of its parent's dart tables with the entries
    the split changes patched (``_patched_split``).  It is encoded from
    those tables, from one start state read off them (``_least_pair``), and
    is a repeat iff that encoding is one a class met before had from any of
    its start states; only a new class is materialised as a
    SignedRotationSystem, which shares the parent's rotation list of every
    vertex the split leaves alone (``_materialise``), and encoded from all
    of them (``_new_class``, which reuses the darts and the first
    encoding).  The start darts of an insertion whose half is a root are
    sought among the product's degree-2 vertices alone: its halves and the
    parent's degree-2 vertices other than v, x and y.  Its least degree is
    2, so those hold its roots, and they are the ones whose far degree is
    min(deg x, deg y) + 1, the halves' (``_half_is_root``).  Seeds with
    more than ``n_max`` vertices are dropped.

    What is validated.  Every seed within ``n_max`` goes through
    ``validate_quadrangulation``, and so does every new class of minimum
    degree at least 3, which may be polyhedral and whose instance is built
    on the validated quadrangulation; the frontier takes the corners of
    its traced faces (``EmbeddedGraph.face_corners``).  A new class with a
    vertex of degree 2 gets no embedding and no validation: it is yielded
    with ``polyhedral`` False, as validation finds below degree 3, and
    ``bipartite`` its parent's, since a split never changes it (both
    halves keep x and y, so in any 2-colouring they share a colour), and
    below ``n_max`` its face corners are patched from its parent's
    (``_patched_faces``).  The split construction guarantees a simple P^2
    quadrangulation, so a validation error on a product is a bug, not an
    input condition, and it propagates out of the stream.

    Canonical parent.  A seed within ``n_max`` with a vertex of degree 2
    raises ReducibleSeed.  A class with a vertex of degree 2 is kept only
    from a split whose degree-2 half, the new vertex (j - i = 1) or what is
    left of v (j - i = k - 1), is a root of the product's least degree
    pair, a vertex at which one of its darts starts.  So a split that
    leaves a degree-2 vertex of the parent other than x and y in place is
    never tried, and an insertion split whose degree-2 half is not a root,
    which the parent's degrees decide, is dropped before it is patched;
    products of minimum degree at least 3 all go to ``seen``.  No class is
    lost.  The closure C of seeds of minimum degree at least 3 is closed
    under deleting a vertex w of degree 2, by induction on the splits that
    build a member P from its parent P': if w is a half of the split,
    P - w is P'; otherwise w has degree 2 in P' too, is neither v nor x
    nor y, and P - w is the same split applied to P' - w, which is in C.
    Let w* be a root of P.  P - w* has fewer than ``n_max`` vertices, so
    its class is split; putting w* back into its face is one of those
    splits, and the twin skip keeps a split whose product is isomorphic to
    P with its degree-2 half mapped to w*, a root there too, as the least
    degree pair is invariant.  A kept product still goes to ``seen``: the
    class may have several such parents.  Which split of which parent
    gives a class its stored representative depends on this rule; the
    classes and their keys do not.

    From K4 to n <= 10 growth patches 3,120 split products and makes
    8,022 encoder calls (11,505 and 16,407 without the rule), builds 1,727
    systems, one per class, and validates 26 of them: K4 and the 25
    classes of minimum degree at least 3.  Each of the 1,726 grown systems
    builds four rotation lists and shares the rest with its parent, and
    ``seen`` holds each start-state encoding as one byte per token.
    """
    seen = set()
    frontier = []   # (system, face corners, bipartite) below n_max

    def keep(q, key):
        g = q.embedding
        if q.vertex_count < n_max:
            frontier.append((g.srs, g.face_corners(), q.bipartite))
        return GrownClass(key, g.srs, q.polyhedral, q.bipartite, q)

    for index, g in enumerate(seeds):
        if isinstance(g, SignedRotationSystem):
            g = EmbeddedGraph(g)
        if g.vertex_count > n_max:
            continue
        q = validate_quadrangulation(g, require_polyhedral=False)
        for w, r in enumerate(g.srs.rotations):
            if len(r) == 2:
                raise ReducibleSeed(
                    f"seed {index} has vertex {w} of degree 2; growth "
                    f"needs seeds of minimum degree at least 3")
        # Members are simple and connected, so they take the restricted
        # start set directly.
        key = _new_class(g.srs, seen)
        if key is not None:
            yield keep(q, key)
    while frontier:
        srs0, faces0, bipartite = frontier.pop()
        parent = _split_tables(srs0)
        rot, dv0, deg0 = parent[0], parent[1], parent[5]
        m = srs0.vertex_count           # the new vertex
        below = m + 1 < n_max           # the products are split later
        every = range(m + 1)
        twos = [(w, dv0[r[0] ^ 1], dv0[r[1] ^ 1])
                for w, r in enumerate(rot) if len(r) == 2]
        for v, i, j, halves in _tried_splits(
                rot, dv0, {w for w, _a, _b in twos},
                _twin_splits(srs0, faces0)):
            roots, far = every, 0
            if halves:
                x, y = dv0[rot[v][i] ^ 1], dv0[rot[v][j] ^ 1]
                far = _half_is_root(deg0, twos, v, x, y)
                if not far:
                    continue        # not the canonical parent's insertion
                roots = _insertion_twos(twos, halves, v, x, y)
            # A split of a simple connected system is simple (the two
            # halves share no edge and split v's distinct neighbours) and
            # connected (both halves keep x and y), so its first start
            # state is read off the patched tables.
            tables = _patched_split(parent, v, i, j)
            dv, nxt, prv, sign, deg, lead = tables
            darts = _least_pair(dv, nxt, deg, lead, roots, far)
            first = _first_state((dv, nxt, prv, sign, m + 1), darts[0])
            if first[2] in seen:
                continue            # a known class: nothing is built
            srs = _materialise(srs0, v, *tables)
            key = _new_class(srs, seen, darts, first)
            if halves:      # only an insertion leaves a vertex of degree 2
                if below:
                    frontier.append(
                        (srs, _patched_faces(faces0, parent, v, i, j),
                         bipartite))
                yield GrownClass(key, srs, False, bipartite, None)
            else:
                yield keep(validate_quadrangulation(
                    EmbeddedGraph(srs), require_polyhedral=False), key)


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
            q = validate_quadrangulation(EmbeddedGraph(srs),
                                         require_polyhedral=False)
            inst = _instance(q, _digest(key)) if q.polyhedral else None
            if inst is not None:
                out.append(inst)
    return out


def write_corpus(out_dir, n_max):
    """Write the corpus grown from ``default_seed()`` and its manifest.

    Layout: ``q<n>/<key>.srs`` plus ``manifest.tsv`` with columns
    n, key, polyhedral, bipartite, connectivity (of the derived instance;
    "-" when not applicable).  Deterministic byte-for-byte.  The member
    files that ``out_dir``'s previous manifest lists are deleted first, with
    that manifest and the ``q<n>`` directories this leaves empty; nothing
    else there is touched.  Each class is then written as growth finds it
    (``_grow``), and only its manifest row is kept; the sorted manifest is
    written last.  An error on the way deletes the member files written so
    far and propagates, so a directory without ``manifest.tsv`` holds no
    member of a run that did not finish.
    """
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_listed(out_dir)
    rows = []
    subs = {}       # n -> its directory, made on its first member
    try:
        for c in _grow([default_seed()], n_max):
            n = c.srs.vertex_count
            digest = _digest(c.key)
            # growth validated every polyhedral class, and its instance is
            # built on that quadrangulation, whose faces are traced already;
            # the other rows take the flags growth yielded
            inst = (_instance(c.quad, digest) if c.polyhedral and n >= 9
                    else None)
            conn = ("-" if inst is None else
                    str(vertex_connectivity_flow(inst.n, inst.adj, 8)))
            # the row goes first, so a failed dump's file is deleted too
            rows.append((n, digest, "1" if c.polyhedral else "0",
                         "1" if c.bipartite else "0", conn))
            sub = subs.get(n)
            if sub is None:
                sub = subs[n] = out_dir / f"q{n}"
                sub.mkdir(exist_ok=True)
            srsio.dump(c.srs, sub / f"{digest}.srs")
    except BaseException:
        _remove_members(out_dir, [row[:2] for row in rows])
        raise
    rows.sort()
    with open(out_dir / "manifest.tsv", "w", newline="\n") as fh:
        fh.write("n\tkey\tpolyhedral\tbipartite\tconnectivity\n")
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")
    return rows


def _remove_listed(out_dir):
    """Delete the member files that ``out_dir/manifest.tsv`` lists, the
    ``q<n>`` directories among theirs that are left empty, and then the
    manifest."""
    manifest = out_dir / "manifest.tsv"
    if not manifest.exists():
        return
    members = []
    for _lineno, line in _manifest_rows(manifest):
        n_s, _tab, rest = line.rstrip("\n").partition("\t")
        key = rest.partition("\t")[0]
        if _is_member_row(n_s, key):     # else no path to trust
            members.append((n_s, key))
    _remove_members(out_dir, members)
    manifest.unlink()


def _remove_members(out_dir, members):
    """Delete the files ``q<n>/<key>.srs`` of ``members``, ``(n, key)``
    pairs, then the ``q<n>`` directories among theirs left empty."""
    subs = set()
    for n, key in members:
        sub = out_dir / f"q{n}"
        (sub / f"{key}.srs").unlink(missing_ok=True)
        subs.add(sub)
    for sub in subs:
        if sub.is_dir() and not any(sub.iterdir()):
            sub.rmdir()


def _manifest_rows(manifest):
    """``(line number, line)`` of each line of a manifest after its header,
    the lines as a text-mode read gives them.  Raises MalformedManifest
    when the file holds a byte that is not ASCII."""
    text = srsio.read_ascii(manifest, MalformedManifest)
    lines = io.StringIO(text, newline=None)
    lines.readline()
    return enumerate(lines, 2)


def _is_member_row(n_s, key):
    """Whether a manifest row's n and key columns can name a member file
    ``q<n>/<key>.srs``: ASCII digits and an ASCII alphanumeric key, so no
    path separator or parent reference gets in."""
    return (n_s + key).isascii() and n_s.isdigit() and key.isalnum()


def load_corpus_instances(corpus_dir, max_n=None):
    """Instances from a written corpus: polyhedral members with n >= 9.

    Raises MalformedManifest when the manifest holds a byte that is not
    ASCII, on a row that does not have the five columns or whose n and key
    fail ``_is_member_row``, before any file is opened for it, on a member
    whose vertex count is not its row's n, and on a member its row calls
    polyhedral that validates as not polyhedral.  A polyhedral member a
    diagonal of which duplicates an edge has no instance and is skipped."""
    corpus_dir = pathlib.Path(corpus_dir)
    out = []
    for lineno, line in _manifest_rows(corpus_dir / "manifest.tsv"):
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
        if srs.vertex_count != n:
            raise MalformedManifest(
                f"manifest.tsv line {lineno} has n={n}, but q{n}/{key}.srs "
                f"has {srs.vertex_count} vertices")
        q = validate_quadrangulation(EmbeddedGraph(srs),
                                     require_polyhedral=False)
        if not q.polyhedral:
            raise MalformedManifest(
                f"manifest.tsv line {lineno} has polyhedral=1, but "
                f"q{n}/{key}.srs is not polyhedral")
        inst = _instance(q, key)
        if inst is not None:
            out.append(inst)
    out.sort(key=lambda i: (i.n, i.key))
    return out
