"""Structural certificates: odd weighted regions, barrier cycles,
projective-bowties, and the fixed embedded patterns used to classify cuts
and non-extendable 3-matchings.

The odd weighted regions, barrier cycles and length-6 regions are length
and parity filters over a list of ``surface.short_walk_regions`` that the
caller passes in, and Theorem 1.6's sweep reads the 3-matching sweep
(``matching.matching_sweep``) it is given: the audit owns both, so
nothing here is stored on an instance or its embedding.

The pattern matcher drops a map whose signs no vertex flips can fix
before it encodes the map's image.  The nine base patterns ship as .srs
fixtures; the configurations (a)-(g) are roles on four of them, stated
once in ``_CONFIG_ROLES``.
``o1ppg.oracles.build_patterns`` rebuilds the bases from scratch (each is
the unique projective-plane embedding of its graph with the stated face
structure), and the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from . import fixtures
from .graphs import vertex_mask
from .matching import mask_matchings
from .surface import (EmbeddedGraph, _encode_from, _encoder_tables,
                      edge_lookup, region_decompose, restricted_system)


# -- pattern registry --------------------------------------------------------

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

#: the nine base patterns, one fixture file each, then the configurations
PATTERN_IDS = ("I", "II", "III", "IV", "bowtie", "fig4-1", "fig4-2",
               "fig4-3", "fig4-4", "a", "b", "c", "d", "e", "f", "g")


@dataclass(frozen=True)
class ConfigPattern:
    id: str
    embedding: EmbeddedGraph
    gray: frozenset          # vertices that must be covered by the matching
    odd_faces: tuple         # face indices that must map to odd regions


def _with_roles(bases):
    """Every pattern, from the base embeddings ``{base id: embedding}``:
    each base without roles, then each configuration of ``_CONFIG_ROLES``
    on its base's embedding, with every vertex but the uncovered one gray
    and every face odd weighted."""
    out = {pid: ConfigPattern(id=pid, embedding=emb, gray=frozenset(),
                              odd_faces=())
           for pid, emb in bases.items()}
    for cid, (base, uncovered) in sorted(_CONFIG_ROLES.items()):
        emb = bases[base]
        out[cid] = ConfigPattern(
            id=cid, embedding=emb,
            gray=frozenset(range(emb.vertex_count)) - {uncovered},
            odd_faces=tuple(range(emb.face_count)))
    return out


def load_patterns():
    """Every pattern: the nine bases from the packaged fixture files, and
    the configurations (a)-(g) derived from them."""
    return _with_roles({pid: fixtures.load_embedding(f"pattern_{pid}")
                        for pid in PATTERN_IDS if pid not in _CONFIG_ROLES})


@cache
def patterns():
    return load_patterns()


def get_pattern(pid) -> ConfigPattern:
    return patterns()[pid]


# -- odd weighted regions ----------------------------------------------------

def _check_limit(max_len):
    if max_len > 6:
        raise ValueError(f"boundary walks of at most 6 vertices are "
                         f"supported, not {max_len}")


def find_odd_weighted_regions(regions, max_boundary_len):
    """All odd weighted regions bounded by closed walks of non-crossing
    edges with length <= max_boundary_len <= 6, as ``(canonical walk,
    Region)`` sorted by walk: the regions of ``regions``, the host's
    ``surface.short_walk_regions``, with an odd interior vertex count; a
    longer limit raises ``ValueError``.  The face-merge enumeration in
    :func:`o1ppg.oracles.odd_regions_by_face_merge` is the independent
    completeness oracle.
    """
    _check_limit(max_boundary_len)
    return [(walk, region) for walk, region in regions
            if len(walk) <= max_boundary_len
            and len(region.interior_vertices) % 2]


def barrier_cycles(regions, length):
    """Barrier cycles of the given length among ``regions``, the host's
    ``surface.short_walk_regions``: the odd weighted regions whose
    boundary walk is a cycle of that length, as ``(walk, Region)``."""
    return [(walk, region)
            for walk, region in find_odd_weighted_regions(regions, length)
            if len(walk) == length == len(set(walk))]


def two_cell_regions(regions, boundary_len):
    """All 2-cell regions bounded by separating closed walks of non-crossing
    edges with the exact boundary length (at most 6), any interior parity,
    as ``(canonical walk, Region)`` sorted by walk, filtered from
    ``regions``, the host's ``surface.short_walk_regions``; a length above
    6 raises ``ValueError``.  The 3-matching certificate needs the
    interior split by coverage, not just its total parity, so this keeps
    even-interior regions too.
    """
    _check_limit(boundary_len)
    return [(walk, region) for walk, region in regions
            if len(walk) == boundary_len]


# -- projective-bowties -------------------------------------------------------

def find_projective_bowties(emb):
    """All embedded projective-bowties in the quadrangulation embedding
    ``emb``.

    Returns tuples (hub, {a, b}, {c, d}), one per bowtie, sorted by hub and
    then by the two pairs as sorted tuples: the images of the maps of the
    bowtie pattern (``match_pattern``), whose hub is pattern vertex 0 and
    whose triangles are 0-1-2 and 0-3-4.  Two triangles sharing exactly
    the hub form one iff the cut along their edges leaves two hexagonal
    boundary walks; ``o1ppg.oracles.bowties_by_triangle_pairs`` is that
    reference.
    """
    found = set()
    for phi in match_pattern(emb, get_pattern("bowtie")):
        pairs = sorted((tuple(sorted((phi[1], phi[2]))),
                        tuple(sorted((phi[3], phi[4])))))
        found.add((phi[0], *pairs))
    return [(hub, frozenset(a), frozenset(b))
            for (hub, a, b) in sorted(found)]


# -- embedded pattern matching ------------------------------------------------

def _candidate_maps(host: EmbeddedGraph, pat: ConfigPattern):
    """Every injective vertex map ``{pattern vertex: host vertex}`` that
    sends pattern edges to host edges with balanced signs, by backtracking
    over the pattern's vertices, each placed next to a mapped neighbour.

    Vertex flips can give each image edge its pattern edge's sign only if
    the pattern, signed by the products of the two signs, is balanced
    (Harary, "On the notion of balance of a signed graph", 1953), so each
    mapped vertex gets the gauge, or flip, that its mapped neighbours force.
    Vertex sets are masks: a position's candidates are the common host
    neighbours of its anchors (its mapped pattern neighbours), unused and
    of high enough degree, visited in increasing host-vertex order."""
    psrs, hsrs = pat.embedding.srs, host.srs
    padj, hadj = psrs.adjacency_masks(), hsrs.adjacency_masks()
    pneg, hneg = psrs.negative_masks(), hsrs.negative_masks()
    pn = len(padj)
    hdeg = [m.bit_count() for m in hadj]
    # per pattern vertex, the host vertices of at least its degree
    roomy = [vertex_mask(hv for hv, d in enumerate(hdeg)
                         if d >= m.bit_count()) for m in padj]

    # order pattern vertices so each new one touches the mapped prefix, and
    # give each position its anchors with the signs of their pattern edges
    order, placed = [0], 1
    anchors = [()]
    while len(order) < pn:
        v = max((w for w in range(pn) if not placed >> w & 1),
                key=lambda w: ((padj[w] & placed).bit_count(), -w))
        anchors.append(tuple((u, pneg[u] >> v & 1) for u in order
                             if padj[v] >> u & 1))
        order.append(v)
        placed |= 1 << v

    maps = []
    image = [0] * pn
    gauge = [0] * pn        # 1 where a mapped pattern vertex is flipped

    def extend(idx, used):
        if idx == pn:
            maps.append({v: image[v] for v in order})
            return
        v = order[idx]
        cands = roomy[v] & ~used
        one = zero = -1         # host vertices every anchor gauges 1, or 0
        for u, negative in anchors[idx]:
            hu = image[u]
            cands &= hadj[hu]
            flip = hneg[hu] ^ -(gauge[u] ^ negative)
            one, zero = one & flip, zero & ~flip
        cands &= one | zero
        while cands:
            low = cands & -cands
            cands ^= low
            hv = low.bit_length() - 1
            gauge[v] = one >> hv & 1
            image[v] = hv
            extend(idx + 1, used | low)

    extend(0, 0)
    return maps


def match_pattern(host: EmbeddedGraph, pat: ConfigPattern):
    """All injective vertex maps embedding the pattern, a connected simple
    system, into the simple host.

    A candidate map (``_candidate_maps``) embeds the pattern iff the host
    restricted to its image, labelled like the pattern, is the pattern up
    to reflection and vertex flips.  The restriction, encoded from pattern
    dart 0's place on either side, must then give the pattern's encoding
    from (0, +1) and discovery order: equal encodings give an embedded
    isomorphism, and the same order makes it fix every vertex, so every
    edge.  A pattern with face parities must also send every face to an
    odd weighted region of the host.  ``o1ppg.oracles.embeds_by_flips`` is
    the flip-enumeration reference.
    """
    psrs = pat.embedding.srs
    pedges = [(u, v) for (u, v, _s) in psrs.edges]
    want = _encode_from(*_encoder_tables(psrs), 0, 1)
    hsrs = host.srs
    edge_of = edge_lookup(hsrs)
    accepted = []
    for phi in _candidate_maps(host, pat):
        image_edges = [edge_of[phi[u], phi[v]] for (u, v) in pedges]
        image = restricted_system(
            hsrs, [phi[v] for v in range(psrs.vertex_count)], image_edges)
        tables = _encoder_tables(image)
        start = 0 if image.edges[0][0] == pedges[0][0] else 1
        found = (_encode_from(*tables, start, side) for side in (1, -1))
        if want in found and _parities_ok(host, pat, image_edges):
            accepted.append(phi)
    return accepted


def _parities_ok(host, pat, image_edges):
    """Whether every face of ``pat`` maps to an odd weighted 2-cell region
    of ``host``, cut along ``image_edges``, the host edge ids of the
    pattern's edges under a map."""
    if not pat.odd_faces:
        return True
    if len(pat.odd_faces) != pat.embedding.face_count:
        raise AssertionError("partial face-parity constraints unsupported")
    regions = region_decompose(host, image_edges)
    for region in regions:
        if not region.is_two_cell:
            return False
        if len(region.interior_vertices) % 2 == 0:
            return False
    return len(regions) == pat.embedding.face_count


# -- Theorem 1.6 diagnosis ----------------------------------------------------

@dataclass
class CertificateContext:
    """Per-instance cache of the Theorem-1.6 certificate structures."""

    regions6: list        # (walk, Region), boundary length 6
    config_maps: dict     # pattern id -> match_pattern maps, "abcdefg"
    #: six-vertex mask -> the first certificate that fires on a 3-matching
    #: covering it: ("cert_i", walk) or ("cert_ii", (pattern id, phi))
    certificates: dict

    @classmethod
    def build(cls, inst, regions):
        """The certificates inverted once per instance, in firing order:
        the length-6 regions of ``regions``, the instance's
        ``surface.short_walk_regions``, in turn, then the maps of the patterns
        "abcdefg" in turn, each mask keeping the first that fires on it.

        Corrected certificate (i) fires when the region's boundary is
        covered and its interior keeps an odd number of vertices uncovered
        by the matching (a spare matched vertex inside would absorb the
        parity and the matching can extend): on the walk's vertices plus
        every completion to six vertices that leaves an odd part of the
        interior uncovered.  Certificate (ii) fires when the map's gray
        image, six vertices like the covered set, is that set.
        ``o1ppg.oracles.certificate_by_sets`` is the set-based reference.
        """
        regions6 = two_cell_regions(regions, 6)
        certificates = {}
        singles = [1 << v for v in range(inst.n)]
        for walk, region in regions6:
            wm = vertex_mask(walk)
            im = vertex_mask(region.interior_vertices)
            rest = [b for b in singles if not b & wm]
            for extra in combinations(rest, 6 - wm.bit_count()):
                xm = sum(extra)
                if (im & ~xm).bit_count() & 1:
                    certificates.setdefault(wm | xm, ("cert_i", walk))
        emb = inst.quad.embedding
        by_base = {}
        config_maps = {}
        for cid in "abcdefg":
            pat = get_pattern(cid)
            if len(pat.gray) != 6:
                raise AssertionError(f"pattern {cid}: gray image of "
                                     f"{len(pat.gray)} vertices, not 6")
            # the roles of one base share its embedding and face parities,
            # so they share its maps
            base = _CONFIG_ROLES[cid][0]
            if base not in by_base:
                by_base[base] = match_pattern(emb, pat)
            config_maps[cid] = by_base[base]
            for phi in config_maps[cid]:
                certificates.setdefault(
                    vertex_mask(phi[v] for v in pat.gray),
                    ("cert_ii", (cid, phi)))
        return cls(regions6=regions6, config_maps=config_maps,
                   certificates=certificates)


def diagnose_mask(vm, extendable, ctx: CertificateContext):
    """Joint verdict of the extendability kernel and the certificates for
    the 3-matchings covering the vertex mask ``vm`` of a 5-connected
    even-order instance, given whether they extend (``extendable``, read
    off ``matching.matching_sweep``); the preconditions are the caller's.

    Returns ("extendable", None), ("cert_i", walk),
    ("cert_ii", (pattern_id, phi)), or ("counterexample",
    {"extendable": bool, "certificate": certificate or None}).
    """
    cert = ctx.certificates.get(vm)
    if extendable and cert is None:
        return ("extendable", None)
    if not extendable and cert is not None:
        return cert
    return ("counterexample", {"extendable": extendable, "certificate": cert})


def sweep_three_matchings(inst, sweep, regions):
    """Theorem 1.6 over every 3-matching of a 5-connected even-order
    instance: the verdict counts and the least oracle/certificate
    disagreement as ``(combo, detail)``, or None.

    The verdict depends on the covered vertices alone, so each covered mask
    of ``sweep``, the instance's 3-matching ``matching.matching_sweep``, is
    decided once (``diagnose_mask``, with the sweep's answer on whether it
    extends, and the certificates of ``CertificateContext.build`` on
    ``regions``) and counted as many times as 3-matchings cover it.  A
    disagreement names the least 3-matching, by sorted edge ids, over the
    disagreeing masks, with its mask's detail: the matching at which the
    ordered reference ``o1ppg.oracles.sweep_three_matchings_in_order``
    stops.
    """
    ctx = CertificateContext.build(inst, regions)
    counts = {"extendable": 0, "cert_i": 0, "cert_ii": 0}
    disagreements = []
    for vm, count in sweep.covered.items():
        verdict, detail = diagnose_mask(vm, vm not in sweep.blocked, ctx)
        if verdict == "counterexample":
            disagreements.append((min(mask_matchings(inst, vm)), detail))
        else:
            counts[verdict] += count
    return counts, min(disagreements, default=None)
