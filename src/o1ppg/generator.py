"""Corpus generation: canonical forms, exhaustive small searches, and growth
of projective-plane quadrangulations by vertex splitting.

Enumeration completeness is NOT claimed: the corpus is the closure of the
seed set under vertex splits, re-validated per product.  The verification
harness treats theorem checks as property tests over this corpus.
"""

from __future__ import annotations

import hashlib
from array import array
from itertools import combinations, permutations

from .errors import TooLarge
from .surface import EmbeddedGraph, SignedRotationSystem, trace_faces

_SEP = -1


def _encode_from(dv, nxt, prv, sign, n, start_dart, start_side, best):
    """Packed BFS encoding of one component from one start state.

    Vertices and edges are labelled in order of discovery; each vertex's
    rotation is walked from its entry dart in the direction of its inherited
    hand.  A dart visit (edge_label, neighbor_label, sign_bit) is packed into
    the single token ``(edge_label * n + neighbor_label) * 2 + sign_bit``,
    which orders like the triple; vertex blocks end with the ``_SEP``
    sentinel, below every token.  Invariant under vertex relabelling and
    local reorientation (vertex flips).  Returns None as soon as the encoding
    exceeds ``best``, and also when it equals it.
    """
    stride = 2 * n
    label2 = [-1] * n          # 2 * vertex label
    hand = [0] * n
    entry = [0] * n
    edge_base = [-1] * len(sign)   # stride * edge label
    root = dv[start_dart]
    label2[root] = 0
    hand[root] = start_side
    entry[root] = start_dart
    order = [root]
    next_base = 0
    enc = []
    ahead = best is None   # strictly smaller than best so far?
    p = 0
    for v in order:         # grows while the BFS discovers vertices
        hv = hand[v]
        step = nxt if hv > 0 else prv
        d = first = entry[v]
        while True:
            e = d >> 1
            eb = edge_base[e]
            if eb < 0:
                eb = edge_base[e] = next_base
                next_base += stride
            w = dv[d ^ 1]
            lw = label2[w]
            if lw < 0:
                lw = label2[w] = 2 * len(order)
                hand[w] = hv * sign[e]
                entry[w] = d ^ 1
                order.append(w)
                tok = eb + lw
            elif sign[e] * hv == hand[w]:
                tok = eb + lw              # sign bit 0: hands agree
            else:
                tok = eb + lw + 1
            if not ahead:
                bt = best[p]
                if tok > bt:
                    return None
                ahead = tok < bt
            enc.append(tok)
            p += 1
            d = step[d]
            if d == first:
                break
        if not ahead:
            ahead = best[p] != _SEP
        enc.append(_SEP)
        p += 1
    return tuple(enc) if ahead else None


def _min_packed_encoding(srs, darts):
    """Minimum packed encoding over the start states (d, +1), (d, -1) of
    ``darts``, which must all lie in one component."""
    dv = srs._dart_vertex
    nxt = srs._rot_next
    prv = srs._rot_prev
    sign = [s for (_u, _v, s) in srs.edges]
    n = srs.vertex_count
    best = None
    for d in darts:
        for side in (1, -1):
            enc = _encode_from(dv, nxt, prv, sign, n, d, side, best)
            if enc is not None:
                best = enc
    return best


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


def _component_min_encoding(srs, darts):
    """Component size and minimum token stream over the given start darts
    (both sides each)."""
    packed = _min_packed_encoding(srs, darts)
    return packed.count(_SEP), _unpack(srs.vertex_count, packed)


def _stable_colours(rot, far):
    """Stable vertex colouring by colour refinement (1-WL).

    ``rot`` is the rotation system and ``far[d]`` the vertex at the other end
    of dart ``d``.  Colours start as degrees; each round refines a colour by
    the sorted colours of the neighbours, until the number of classes stops
    growing.  A refined colour is the rank of its signature (old colour
    first) among all signatures, so the colours and their order are
    invariant under relabelling, and a class only splits into classes
    ordered like it.
    """
    colour = list(map(len, rot))
    classes = len(set(colour))
    while classes < len(rot):
        far_colour = list(map(colour.__getitem__, far)).__getitem__
        sigs = [(c, *sorted(map(far_colour, r))) for c, r in zip(colour, rot)]
        distinct = set(sigs)
        if len(distinct) == classes:
            break
        rank = {s: i for i, s in enumerate(sorted(distinct))}
        colour = list(map(rank.__getitem__, sigs))
        classes = len(distinct)
    return colour


def _class_darts(srs):
    """Start darts of a simple connected system: the darts at vertices of
    the least stable colour whose far endpoint has the least colour among
    them."""
    rot = srs.rotations
    dv = srs._dart_vertex
    far = dv[:]
    far[0::2] = dv[1::2]
    far[1::2] = dv[0::2]
    colour = _stable_colours(rot, far)
    least = min(colour)
    darts = [d for c, r in zip(colour, rot) if c == least for d in r]
    least = min(colour[far[d]] for d in darts)
    return [d for d in darts if colour[far[d]] == least]


def _start_darts(srs, vertices):
    """Start darts for the canonical search of the component ``vertices``.

    The minimum encoding over a set of start darts is canonical whenever
    every embedded isomorphism maps the set of one system onto the set of
    the other: the encodings from corresponding start states are equal, so
    the two minima are.  A simple connected system starts from the darts
    that ``_class_darts`` picks by stable colours.  The colours depend on
    the adjacency alone, which relabelling carries along and reflection and
    sign flips leave unchanged, so that set qualifies.  Systems with loops
    or multi-edges and the components of disconnected systems start from
    every dart, the trivially invariant set.
    """
    if len(vertices) == srs.vertex_count and srs.is_simple():
        return _class_darts(srs)
    return [d for v in vertices for d in srs.rotations[v]]


def _prefix(srs):
    return f"v{srs.vertex_count}e{srs.edge_count}:"


def canonical_key(g) -> str:
    """Canonical string of an embedding, equal for two embeddings iff they
    are related by relabelling, rotation/reflection, and sign flips.

    Each component contributes its minimum BFS encoding over the start
    states (d, +1), (d, -1) of the darts d that ``_start_darts`` picks.  The
    minimum is canonical because the picked set is invariant: an embedded
    isomorphism carries the start states of one system onto those of the
    other, and corresponding start states give equal encodings.  A simple
    connected system starts from the darts of its least stable colour
    class; a system with loops or multi-edges, and each component of a
    disconnected system, takes the all-darts fallback, whose string is the
    one ``o1ppg.oracles.canonical_key_oracle`` gives.
    """
    srs = g.srs if isinstance(g, EmbeddedGraph) else g
    n = srs.vertex_count
    prefix = _prefix(srs)
    if srs.edge_count == 0:
        return prefix + f"iso{n}"
    isolated = 0
    parts = []
    for comp in _vertex_components(srs):
        darts = _start_darts(srs, comp)
        if not darts:
            isolated += len(comp)
            continue
        _c, enc = _component_min_encoding(srs, darts)
        parts.append(",".join(map(str, enc)))
    return _joined_key(prefix, parts, isolated)


def _joined_key(prefix, parts, isolated):
    """Key of a system from its components' token strings."""
    body = "//".join(sorted(parts))
    if isolated:
        body = f"iso{isolated}//" + body
    return prefix + body


def _vertex_components(srs):
    n = srs.vertex_count
    adj = srs.adjacency()
    seen = [False] * n
    comps = []
    for v in range(n):
        if seen[v]:
            continue
        comp = [v]
        seen[v] = True
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def short_key(g) -> str:
    """Filesystem-friendly digest of the canonical string."""
    return hashlib.blake2b(canonical_key(g).encode(), digest_size=8).hexdigest()


class CanonicalForm:
    """Text key invariant under embedded isomorphism."""

    def __init__(self, g):
        self.canonical_string = canonical_key(g)

    def __eq__(self, other):
        return (isinstance(other, CanonicalForm)
                and self.canonical_string == other.canonical_string)

    def __hash__(self):
        return hash(self.canonical_string)


# -- exhaustive embedding search --------------------------------------------


def _spanning_tree_edges(n, edges):
    seen = [False] * n
    seen[0] = True
    tree = []
    frontier = [0]
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, i))
        adj[v].append((u, i))
    while frontier:
        x = frontier.pop()
        for (y, i) in adj[x]:
            if not seen[y]:
                seen[y] = True
                tree.append(i)
                frontier.append(y)
    if not all(seen):
        raise TooLarge("exhaustive search expects a connected graph")
    return set(tree)


def all_embeddings(n, edges, max_edges=10):
    """Yield every signed rotation system of a connected simple graph, one
    representative per (rotations x tree-normalized signs) choice.

    Complete up to embedded isomorphism: every equivalence class contains a
    representative whose spanning-tree signs are all +1.
    """
    ne = len(edges)
    if ne > max_edges:
        raise TooLarge(f"{ne} edges exceeds the exhaustive gate ({max_edges})")
    darts_at = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        darts_at[u].append(2 * i)
        darts_at[v].append(2 * i + 1)
    tree = _spanning_tree_edges(n, edges)
    free = [i for i in range(ne) if i not in tree]

    rot_choices = []
    for v in range(n):
        ds = darts_at[v]
        if len(ds) <= 2:
            rot_choices.append([tuple(ds)])
        else:
            first, rest = ds[0], ds[1:]
            rot_choices.append([(first,) + p for p in permutations(rest)])

    def rec_rot(v, acc):
        if v == n:
            yield list(acc)
            return
        for rot in rot_choices[v]:
            acc.append(rot)
            yield from rec_rot(v + 1, acc)
            acc.pop()

    for rots in rec_rot(0, []):
        for bits in range(1 << len(free)):
            sign = [1] * ne
            for j, e in enumerate(free):
                if (bits >> j) & 1:
                    sign[e] = -1
            yield SignedRotationSystem(
                n,
                [(u, v, sign[i]) for i, (u, v) in enumerate(edges)],
                rots,
                check=False,
            )


def exhaustive_small_search(n, edges, predicate, max_edges=10):
    """All projective-plane embeddings of the graph satisfying ``predicate``,
    deduplicated by canonical form, sorted by canonical string."""
    found = {}
    for srs in all_embeddings(n, edges, max_edges=max_edges):
        g = EmbeddedGraph(srs)
        if not (g.euler_char == 1 and not g.orientable):
            continue
        if not predicate(g):
            continue
        key = canonical_key(g)
        if key not in found:
            found[key] = g
    return [found[k] for k in sorted(found)]


# -- growth moves -------------------------------------------------------------


def _is_quadrangulation_p2(g: EmbeddedGraph):
    return (g.srs.is_simple()
            and g.srs.is_connected()
            and g.euler_char == 1
            and not g.orientable
            and all(f.length == 4 for f in g.faces))


def vertex_split(g: EmbeddedGraph, v, i, j):
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
    srs = g.srs
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


def _repeated_splits(srs):
    """Splits of a quadrangulation that repeat an earlier split of it.

    A split between the two darts of a face corner, cyclically adjacent at
    their vertex, puts a degree-2 vertex into that face, joined to the two
    neighbours there (at a vertex of degree 2, the one such split serves
    both of its corners).  Splitting at the opposite corner of the same
    face gives the same quadrangulation, so of two such splits the one that
    comes later in (v, i, j) order is returned.  The earliest split of each
    class of twins is never returned.
    """
    rot = srs.rotations
    later = set()
    for face in trace_faces(srs):
        corners = []
        for t, a in enumerate(face.vertices):
            pos = rot[a].index
            i, j = sorted((pos(face.boundary[t - 1] ^ 1),
                           pos(face.boundary[t])))
            corners.append((a, i, j))
        for c1, c2 in ((corners[0], corners[2]), (corners[1], corners[3])):
            if c1 != c2:
                later.add(max(c1, c2))
    return later


def grow_quadrangulations(seeds, n_max):
    """Closure of the seeds under vertex splits, keeping simple P^2
    quadrangulations up to ``n_max`` vertices, deduplicated canonically.

    Returns {n: [(canonical_string, SignedRotationSystem), ...]} sorted by
    key.  Products found under a new canonical key are fully re-validated;
    the split construction itself guarantees quadrangulation-ness, so a
    validation failure here is a bug, not an input condition.  The splits
    that ``_repeated_splits`` names are skipped: each repeats the class of
    a split of the same system made before it, so neither the classes nor
    their stored representatives change.
    """
    by_n = {}
    seen = set()
    frontier = []

    def new_class(srs):
        # Members are simple and connected, so they take the restricted start
        # set directly.  Classes are compared by packed encoding, held as
        # bytes (its length, 5n - 4 tokens, fixes the order n), and spelled
        # out as a key string once.
        packed = _min_packed_encoding(srs, _class_darts(srs))
        seen_key = array("i", packed).tobytes()
        if seen_key in seen:
            return None
        seen.add(seen_key)
        return _prefix(srs) + ",".join(
            map(str, _unpack(srs.vertex_count, packed)))

    for g in seeds:
        if isinstance(g, SignedRotationSystem):
            g = EmbeddedGraph(g)
        if not _is_quadrangulation_p2(g):
            raise TooLarge("seed is not a simple P^2 quadrangulation")
        key = new_class(g.srs)
        if key is None:
            continue
        by_n.setdefault(g.vertex_count, []).append((key, g.srs))
        frontier.append(g.srs)
    while frontier:
        srs0 = frontier.pop()
        if srs0.vertex_count >= n_max:
            continue
        g = _QuadView(srs0)
        repeated = _repeated_splits(srs0)
        for v in range(srs0.vertex_count):
            k = srs0.degree(v)
            for i, j in combinations(range(k), 2):
                if (v, i, j) in repeated:
                    continue        # its twin, found first, has the class
                # A split of a simple connected system is simple (the two
                # halves share no edge and split v's distinct neighbours)
                # and connected (both halves keep x and y).
                srs = vertex_split(g, v, i, j)
                key = new_class(srs)
                if key is None:
                    continue
                if not _is_quadrangulation_p2(EmbeddedGraph(srs)):
                    raise AssertionError(
                        "vertex split produced a non-quadrangulation")
                by_n.setdefault(srs.vertex_count, []).append((key, srs))
                frontier.append(srs)
    return {n: sorted(v, key=lambda kv: kv[0]) for n, v in sorted(by_n.items())}


class _QuadView:
    """Minimal stand-in for EmbeddedGraph in the split hot path (a
    quadrangulation's face count is V - 1 on the projective plane)."""

    __slots__ = ("srs",)

    def __init__(self, srs):
        self.srs = srs

    @property
    def face_count(self):
        return self.srs.vertex_count - 1


# -- corpus ------------------------------------------------------------------


def default_seed():
    from . import fixtures
    return fixtures.fix_k4()


def enumerate_o1ppg(n_max, even_only=False, seeds=None):
    """Instances over every polyhedral corpus quadrangulation with n >= 9
    (and n even when ``even_only``), ordered by (n, canonical key)."""
    from .errors import NotSimpleResult
    from .model import build_o1ppg, validate_quadrangulation
    from .surface import EmbeddedGraph

    if seeds is None:
        seeds = [default_seed()]
    corpus = grow_quadrangulations(seeds, n_max)
    out = []
    for n in sorted(corpus):
        if n < 9 or (even_only and n % 2):
            continue
        for key, srs in corpus[n]:
            g = EmbeddedGraph(srs)
            try:
                q = validate_quadrangulation(g)
            except Exception:
                continue
            try:
                inst = build_o1ppg(q, key=f"q{n}-{short_key(srs)}")
            except NotSimpleResult:
                continue
            out.append(inst)
    return out


def write_corpus(out_dir, n_max, seeds=None):
    """Write the full grown corpus and its manifest.

    Layout: ``q<n>/<key>.srs`` plus ``manifest.tsv`` with columns
    n, key, polyhedral, bipartite, connectivity (of the derived instance;
    "-" when not applicable).  Deterministic byte-for-byte.
    """
    import pathlib

    from . import srsio
    from .errors import NotSimpleResult
    from .graphs import vertex_connectivity_flow
    from .model import build_o1ppg, validate_quadrangulation
    from .surface import EmbeddedGraph

    if seeds is None:
        seeds = [default_seed()]
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = grow_quadrangulations(seeds, n_max)
    rows = []
    for n in sorted(corpus):
        sub = out_dir / f"q{n}"
        sub.mkdir(exist_ok=True)
        for key, srs in corpus[n]:
            skey = short_key(srs)
            srsio.dump(srs, sub / f"{skey}.srs")
            g = EmbeddedGraph(srs)
            bip = "1" if _srs_bipartite(srs) else "0"
            poly = "0"
            conn = "-"
            try:
                q = validate_quadrangulation(g)
                poly = "1"
            except Exception:
                q = None
            if q is not None and n >= 9:
                try:
                    inst = build_o1ppg(q)
                    conn = str(vertex_connectivity_flow(
                        inst.n, inst.adj, 8))
                except NotSimpleResult:
                    conn = "-"
            rows.append((n, skey, poly, bip, conn))
    rows.sort()
    with open(out_dir / "manifest.tsv", "w", newline="\n") as fh:
        fh.write("n\tkey\tpolyhedral\tbipartite\tconnectivity\n")
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")
    return rows


def _srs_bipartite(srs):
    from .graphs import adjacency_masks, is_bipartite
    return is_bipartite(srs.vertex_count,
                        adjacency_masks(srs.vertex_count,
                                        [(u, v) for (u, v, _s) in srs.edges]))


def load_corpus_instances(corpus_dir, max_n=None):
    """Instances from a written corpus: polyhedral members with n >= 9."""
    import pathlib

    from . import srsio
    from .errors import NotSimpleResult
    from .model import build_o1ppg, validate_quadrangulation
    from .surface import EmbeddedGraph

    corpus_dir = pathlib.Path(corpus_dir)
    manifest = corpus_dir / "manifest.tsv"
    out = []
    with open(manifest) as fh:
        header = fh.readline()
        for line in fh:
            n_s, key, poly, _bip, _conn = line.rstrip("\n").split("\t")
            n = int(n_s)
            if poly != "1" or n < 9 or (max_n is not None and n > max_n):
                continue
            srs = srsio.load(corpus_dir / f"q{n}" / f"{key}.srs")
            q = validate_quadrangulation(EmbeddedGraph(srs))
            try:
                inst = build_o1ppg(q, key=f"q{n}-{key}")
            except NotSimpleResult:
                continue
            out.append(inst)
    out.sort(key=lambda i: (i.n, i.key))
    return out
