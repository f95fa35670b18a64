"""Structural certificates: odd weighted regions, barrier cycles,
projective-bowties, and the fixed embedded patterns used to classify cuts
and non-extendable 3-matchings.

Pattern fixtures ship as .srs files with a .roles sidecar; they can also be
rebuilt from scratch here (each is the unique projective-plane embedding of
its graph with the stated face structure, which the tests re-verify).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotFiveConnected, OddOrder
from .generator import exhaustive_small_search
from .matching import Matching, is_extendable
from .surface import EmbeddedGraph, SignedRotationSystem, region_decompose


# -- pattern registry --------------------------------------------------------

_HEX = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]

#: abstract graph and face-length vector per pattern; the embedding is the
#: unique P^2 embedding with that face vector (hexagon shapes additionally
#: require the 6-cycle itself to bound a face)
_PATTERN_GRAPHS = {
    # two essential triangles sharing a hub; two pinched hexagonal faces
    "bowtie": (5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],
               (6, 6)),
    # bowtie 0-1-2 / 0-3-4 plus a handle 4-5-6-2 inside one face
    "fig4-1": (7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
                   (4, 5), (5, 6), (6, 2)], (6, 6, 6)),
    # bowtie 0-1-2 / 0-3-4 plus a handle 0-5-6-0 at the hub
    "fig4-2": (7, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0),
                   (0, 5), (5, 6), (6, 0)], (6, 6, 6)),
    # essential 4-cycle 0-1-2-3, center 4, spokes 0-4, 4-5-3, 4-6-1
    "fig4-3": (7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 3),
                   (4, 6), (6, 1)], (6, 6, 6)),
    # essential triangle 0-1-2, center 3, subdivided spokes to all corners
    "fig4-4": (7, [(0, 1), (1, 2), (2, 0), (0, 4), (4, 3), (3, 5), (5, 2),
                   (3, 6), (6, 1)], (6, 6, 6)),
    # minimal 6-cut shapes: a hexagonal 2-cell face plus 0..2 chords
    # through the crosscap
    "I": (6, _HEX, (6, 6)),
    "II": (6, _HEX + [(0, 3)], (6, 8)),
    "III": (6, _HEX + [(0, 2)], (6, 8)),
    "IV": (6, _HEX + [(0, 3), (1, 4)], (4, 6, 6)),
}

#: M-role variants of the Theorem-1.6 subgraph patterns: base graph, the
#: vertex left uncovered by the matching, and the odd-region constraint on
#: every face
_CONFIG_ROLES = {
    "a": ("fig4-1", 0),   # uncovered vertex = the bowtie hub
    "b": ("fig4-1", 2),   # uncovered vertex = endpoint of the handle
    "c": ("fig4-2", 0),   # uncovered vertex = the degree-6 hub
    "d": ("fig4-3", 0),   # uncovered vertex = 4-cycle corner next to center
    "e": ("fig4-3", 4),   # uncovered vertex = the center
    "f": ("fig4-4", 3),   # uncovered vertex = the center
    "g": ("fig4-4", 0),   # uncovered vertex = a triangle corner
}

PATTERN_IDS = tuple(sorted(_PATTERN_GRAPHS) + sorted(_CONFIG_ROLES))


@dataclass(frozen=True)
class ConfigPattern:
    id: str
    embedding: EmbeddedGraph
    gray: frozenset          # vertices that must be covered by the matching
    odd_faces: tuple         # face indices that must map to odd regions

    @property
    def vertex_count(self):
        return self.embedding.vertex_count


def _hexagon_is_face(g):
    tgt = frozenset(range(6))
    for f in g.faces:
        if f.length == 6 and f.is_cycle and frozenset(f.vertices) == tgt:
            vs = f.vertices
            i = vs.index(0)
            rot = tuple(vs[(i + t) % 6] for t in range(6))
            if rot in ((0, 1, 2, 3, 4, 5), (0, 5, 4, 3, 2, 1)):
                return True
    return False


def _build_base_embedding(pid):
    n, edges, fvec = _PATTERN_GRAPHS[pid]
    if pid == "I":
        # trivial hexagon: a 6-cycle bounding a 2-cell, crosscap inside the
        # other face; the restriction of any host to such a cycle is the
        # planar 6-cycle system (all signs +)
        srs = SignedRotationSystem(
            6, [(u, v, 1) for (u, v) in _HEX],
            [[0, 11], [1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])
        return EmbeddedGraph(srs)
    pred = (lambda g: sorted(f.length for f in g.faces) == sorted(fvec))
    if pid in ("II", "III", "IV"):
        base = pred
        pred = lambda g: base(g) and _hexagon_is_face(g)  # noqa: E731
    found = exhaustive_small_search(n, edges, pred)
    if len(found) != 1:
        raise AssertionError(
            f"pattern {pid}: expected a unique embedding, got {len(found)}")
    return found[0]


def build_patterns():
    """Construct every pattern from scratch.  Deterministic."""
    out = {}
    for pid in sorted(_PATTERN_GRAPHS):
        emb = _build_base_embedding(pid)
        out[pid] = ConfigPattern(
            id=pid, embedding=emb, gray=frozenset(), odd_faces=())
    for cid in sorted(_CONFIG_ROLES):
        base, uncovered = _CONFIG_ROLES[cid]
        emb = out[base].embedding
        gray = frozenset(range(emb.vertex_count)) - {uncovered}
        out[cid] = ConfigPattern(
            id=cid, embedding=emb, gray=gray,
            odd_faces=tuple(range(emb.face_count)))
    return out


def load_patterns():
    """Load every pattern from the packaged fixture files."""
    from . import fixtures
    out = {}
    for pid in PATTERN_IDS:
        emb = fixtures.load_embedding(f"pattern_{pid}")
        gray, oddface = fixtures.load_roles(f"pattern_{pid}")
        out[pid] = ConfigPattern(
            id=pid, embedding=emb, gray=gray, odd_faces=oddface)
    return out


_PATTERNS = None


def patterns():
    global _PATTERNS
    if _PATTERNS is None:
        _PATTERNS = load_patterns()
    return _PATTERNS


def get_pattern(pid) -> ConfigPattern:
    return patterns()[pid]


# -- closed walks and odd weighted regions -----------------------------------

def canonical_walk(vs):
    """Canonical form of a closed walk: minimum rotation/reflection."""
    k = len(vs)
    best = None
    for seq in (tuple(vs), tuple(reversed(vs))):
        for i in range(k):
            cand = seq[i:] + seq[:i]
            if best is None or cand < best:
                best = cand
    return best


@dataclass(frozen=True)
class OddWeightedRegion:
    boundary_walk: tuple          # canonical vertex walk
    interior_vertex_count: int
    boundary_is_cycle: bool
    interior_vertices: frozenset
    face_ids: tuple


def _closed_walks_upto(emb, max_len):
    """All closed walks of the embedding's graph up to rotation/reflection."""
    srs = emb.srs
    n = srs.vertex_count
    adj = [[] for _ in range(n)]
    for (u, v, _s) in srs.edges:
        adj[u].append(v)
        adj[v].append(u)
    for ws in adj:
        ws.sort()
    seen = set()

    def dfs(start, v, walk):
        for w in adj[v]:
            if w == start and len(walk) >= 2:
                seen.add(canonical_walk(walk))
            if len(walk) < max_len and w >= start:
                dfs(start, w, walk + [w])

    for start in range(n):
        dfs(start, start, [start])
    return sorted(seen)


def _walk_edges(inst_emb, walk):
    srs = inst_emb.srs
    lookup = {}
    for e, (u, v, _s) in enumerate(srs.edges):
        lookup[(u, v)] = e
        lookup[(v, u)] = e
    out = []
    k = len(walk)
    for i in range(k):
        e = lookup.get((walk[i], walk[(i + 1) % k]))
        if e is None:
            return None
        out.append(e)
    return out


def _host_embedding(host):
    return host.quad.embedding if hasattr(host, "quad") else host


def find_odd_weighted_regions(inst, max_boundary_len):
    """All odd weighted regions of the instance bounded by closed walks of
    non-crossing edges with length <= max_boundary_len.

    Enumerates closed walks of Q(G) up to rotation/reflection and keeps
    those bounding a 2-cell whose interior vertex count is odd.  The
    face-merge enumeration in :func:`o1ppg.oracles.odd_regions_by_face_merge`
    is the independent completeness oracle.  Accepts an instance or a bare
    embedded quadrangulation.
    """
    emb = _host_embedding(inst)
    found = {}
    for walk in _closed_walks_upto(emb, max_boundary_len):
        edges = _walk_edges(emb, walk)
        if edges is None:
            continue
        dec = region_decompose(emb, set(edges))
        if dec.region_count < 2:
            # the walk does not separate the surface: its "2-cell side" is
            # everything (e.g. both traversals of an essential triangle);
            # such a disc has no outside and is not a bounded region
            continue
        for region in dec.regions:
            if not region.is_two_cell:
                continue
            bw = region.boundary_walks[0]
            if canonical_walk(bw.vertices) != walk:
                continue
            if len(region.interior_vertices) % 2 == 1:
                found[walk] = OddWeightedRegion(
                    boundary_walk=walk,
                    interior_vertex_count=len(region.interior_vertices),
                    boundary_is_cycle=len(set(walk)) == len(walk),
                    interior_vertices=region.interior_vertices,
                    face_ids=region.face_ids,
                )
    return [found[w] for w in sorted(found)]


def barrier_cycles(inst, length):
    """Barrier cycles of the given length (odd weighted regions whose
    boundary walk is a cycle)."""
    return [r for r in find_odd_weighted_regions(inst, length)
            if r.boundary_is_cycle and len(r.boundary_walk) == length]


def two_cell_regions(inst, boundary_len):
    """All 2-cell regions bounded by separating closed walks of non-crossing
    edges with the exact boundary length, any interior parity.

    The 3-matching certificate needs the interior split by coverage, not
    just its total parity, so this keeps even-interior regions too.
    """
    emb = _host_embedding(inst)
    found = {}
    for walk in _closed_walks_upto(emb, boundary_len):
        if len(walk) != boundary_len:
            continue
        edges = _walk_edges(emb, walk)
        if edges is None:
            continue
        dec = region_decompose(emb, set(edges))
        if dec.region_count < 2:
            continue
        for region in dec.regions:
            if not region.is_two_cell:
                continue
            bw = region.boundary_walks[0]
            if canonical_walk(bw.vertices) != walk:
                continue
            found[walk] = region.interior_vertices
    return sorted(found.items())


# -- projective-bowties -------------------------------------------------------

def _triangles(emb):
    srs = emb.srs
    n = srs.vertex_count
    adj = [set() for _ in range(n)]
    for (u, v, _s) in srs.edges:
        adj[u].add(v)
        adj[v].add(u)
    tris = []
    for u in range(n):
        for v in sorted(adj[u]):
            if v <= u:
                continue
            for w in sorted(adj[u] & adj[v]):
                if w > v:
                    tris.append((u, v, w))
    return tris


def find_projective_bowties(quad):
    """All embedded projective-bowties in the quadrangulation.

    Returns sorted tuples (hub, {a, b}, {c, d}) where hub-a-b and hub-c-d
    are triangles sharing exactly the hub and the union's induced
    sub-embedding has exactly two hexagonal faces.
    """
    emb = quad.embedding if hasattr(quad, "embedding") else quad
    tris = _triangles(emb)
    lookup = {}
    for e, (u, v, _s) in enumerate(emb.srs.edges):
        lookup[(min(u, v), max(u, v))] = e
    out = set()
    for t1, t2 in combinations(tris, 2):
        shared = set(t1) & set(t2)
        if len(shared) != 1:
            continue
        hub = shared.pop()
        edges = set()
        for t in (t1, t2):
            a, b, c = t
            edges |= {lookup[(min(a, b), max(a, b))],
                      lookup[(min(b, c), max(b, c))],
                      lookup[(min(a, c), max(a, c))]}
        dec = region_decompose(emb, edges)
        walks = [w for r in dec.regions for w in r.boundary_walks]
        if sorted(w.length for w in walks) != [6, 6]:
            continue
        p1 = hub
        w1 = frozenset(set(t1) - {hub})
        w2 = frozenset(set(t2) - {hub})
        out.add((p1, tuple(sorted((tuple(sorted(w1)), tuple(sorted(w2)))))))
    return sorted((p1, frozenset(a), frozenset(b))
                  for (p1, (a, b)) in out)


# -- embedded pattern matching ------------------------------------------------

def _restricted_rotation(emb, vertex, edge_set):
    """Host rotation at a vertex filtered to the given edges."""
    return [d for d in emb.srs.rotations[vertex] if (d >> 1) in edge_set]


def _cyclic_match(seq, target):
    """Directions in which cyclic ``seq`` equals ``target``: subset of
    {1, -1}."""
    out = set()
    k = len(seq)
    if k != len(target):
        return out
    if k == 0:
        return {1, -1}
    for i in range(k):
        if all(seq[(i + t) % k] == target[t] for t in range(k)):
            out.add(1)
            break
    for i in range(k):
        if all(seq[(i - t) % k] == target[t] for t in range(k)):
            out.add(-1)
            break
    return out


def match_pattern(host: EmbeddedGraph, pat: ConfigPattern):
    """All injective vertex maps embedding the pattern into the host.

    A map must send pattern edges to host edges, preserve the cyclic
    rotation order up to reflection and the edge signs up to local
    reorientation, and (when the pattern constrains face parities) send
    every pattern face to an odd weighted region of the host.
    """
    psrs = pat.embedding.srs
    pn = psrs.vertex_count
    pedges = [(u, v) for (u, v, _s) in psrs.edges]
    padj = [set() for _ in range(pn)]
    for (u, v) in pedges:
        padj[u].add(v)
        padj[v].add(u)
    hsrs = host.srs
    hn = hsrs.vertex_count
    hadj = [set() for _ in range(hn)]
    hedge = {}
    for e, (u, v, _s) in enumerate(hsrs.edges):
        hadj[u].add(v)
        hadj[v].add(u)
        hedge[(u, v)] = e
        hedge[(v, u)] = e

    # order pattern vertices so each new one touches the mapped prefix
    order = [0]
    placed = {0}
    while len(order) < pn:
        nxt = max((v for v in range(pn) if v not in placed),
                  key=lambda v: (len(padj[v] & placed), -v))
        order.append(nxt)
        placed.add(nxt)

    maps = []

    def extend(idx, phi):
        if idx == pn:
            maps.append(dict(phi))
            return
        v = order[idx]
        anchors = [u for u in padj[v] if u in phi]
        if anchors:
            cands = set(hadj[phi[anchors[0]]])
            for u in anchors[1:]:
                cands &= hadj[phi[u]]
            cands -= set(phi.values())
        else:
            cands = set(range(hn)) - set(phi.values())
        for hv in sorted(cands):
            if len(padj[v]) > len(hadj[hv]):
                continue
            phi[v] = hv
            extend(idx + 1, phi)
            del phi[v]

    extend(0, {})

    accepted = []
    for phi in maps:
        if _embeds(host, pat, phi, hedge) and _parities_ok(host, pat, phi,
                                                           hedge):
            accepted.append(phi)
    return accepted


def _embeds(host, pat, phi, hedge):
    psrs = pat.embedding.srs
    hsrs = host.srs
    edge_map = {}
    for e, (u, v, _s) in enumerate(psrs.edges):
        edge_map[e] = hedge[(phi[u], phi[v])]
    mapped = set(edge_map.values())
    if len(mapped) != len(edge_map):
        return False
    back = {h: p for p, h in edge_map.items()}
    allowed = []
    for v in range(psrs.vertex_count):
        target = [d >> 1 for d in psrs.rotations[v]]
        got = [back[d >> 1] for d in _restricted_rotation(
            host, phi[v], mapped)]
        dirs = _cyclic_match(got, target)
        if not dirs:
            return False
        allowed.append(dirs)
    # sign solvability: f(u) * f(v) = sign_host(phi(e)) * sign_pat(e),
    # with f(v) restricted to rotation-compatible directions
    need = {}
    for e, (u, v, _s) in enumerate(psrs.edges):
        need[(u, v)] = psrs.sign(e) * hsrs.sign(edge_map[e])
    f = [0] * psrs.vertex_count
    for root in range(psrs.vertex_count):
        if f[root]:
            continue
        for choice in sorted(allowed[root], reverse=True):
            trial = list(f)
            trial[root] = choice
            stack = [root]
            ok = True
            while stack and ok:
                x = stack.pop()
                for (a, b), req in need.items():
                    for (p, q) in ((a, b), (b, a)):
                        if p == x:
                            want = req * trial[p]
                            if trial[q] == 0:
                                if want not in allowed[q]:
                                    ok = False
                                    break
                                trial[q] = want
                                stack.append(q)
                            elif trial[q] != want:
                                ok = False
                                break
                    if not ok:
                        break
            if ok:
                f = trial
                break
        else:
            return False
    return True


def _parities_ok(host, pat, phi, hedge):
    if not pat.odd_faces:
        return True
    if len(pat.odd_faces) != pat.embedding.face_count:
        raise AssertionError("partial face-parity constraints unsupported")
    psrs = pat.embedding.srs
    mapped = {hedge[(phi[u], phi[v])] for (u, v, _s) in psrs.edges}
    dec = region_decompose(host, mapped)
    for region in dec.regions:
        if not region.is_two_cell:
            return False
        if len(region.interior_vertices) % 2 == 0:
            return False
    return len(dec.regions) == pat.embedding.face_count


# -- Theorem 1.6 diagnosis ----------------------------------------------------

@dataclass
class CertificateContext:
    """Per-instance cache of the Theorem-1.6 certificate structures."""

    regions6: list               # (walk, interior vertex set), length 6
    config_maps: dict            # pattern id -> list of gray-image vertex sets

    @classmethod
    def build(cls, inst):
        regions6 = two_cell_regions(inst, 6)
        emb = inst.quad.embedding
        config_maps = {}
        for cid in "abcdefg":
            pat = get_pattern(cid)
            entries = []
            for phi in match_pattern(emb, pat):
                gray_img = frozenset(phi[v] for v in pat.gray)
                entries.append((gray_img, dict(phi)))
            config_maps[cid] = entries
        return cls(regions6=regions6, config_maps=config_maps)


def diagnose_3matching(inst, m: Matching, ctx: CertificateContext = None,
                       connectivity=None):
    """Joint verdict of the extendability oracle and the certificates
    for a 3-matching of a 5-connected even-order instance.

    Returns ("extendable", None), ("cert_i", walk),
    ("cert_ii", (pattern_id, phi)), or ("counterexample", detail).
    """
    if inst.n % 2:
        raise OddOrder("diagnosis needs an even order")
    if connectivity is not None and connectivity < 5:
        raise NotFiveConnected("diagnosis applies to 5-connected instances")
    if m.k != 3:
        raise ValueError("diagnosis takes 3-matchings")
    if ctx is None:
        ctx = CertificateContext.build(inst)
    vm = m.vertex_set(inst)
    cert = None
    # corrected certificate (i): the region must keep an odd number of
    # vertices uncovered by the matching (a spare matched vertex inside
    # would absorb the parity and the matching can extend)
    for walk, interior in ctx.regions6:
        if set(walk) <= vm and len(interior - vm) % 2 == 1:
            cert = ("cert_i", walk)
            break
    if cert is None:
        for cid in "abcdefg":
            for gray_img, phi in ctx.config_maps[cid]:
                if gray_img <= vm:
                    cert = ("cert_ii", (cid, phi))
                    break
            if cert is not None:
                break
    extendable = is_extendable(inst, m)
    if extendable and cert is None:
        return ("extendable", None)
    if not extendable and cert is not None:
        return cert
    return ("counterexample",
            {"extendable": extendable, "certificate": cert,
             "matching": m.sorted_pairs(inst)})
