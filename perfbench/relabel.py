"""Seeded relabelling of `.srs` embeddings (the text format of o1ppg.srsio).

A relabelled file describes the same embedding under other names: vertex
ids and edge ids are permuted, the two ends of an edge may swap, some
vertices have their local orientation flipped (rotation reversed, signs of
the incident edges negated), and each rotation starts at another dart.
With ``ids=False`` only the last happens.  Every quantity the benchmark
checks is an embedding invariant, so the expected outputs hold at any seed.
Seed 0 is the identity.

This works on the text format on purpose: it does not depend on the
library's classes, which later changes may reshape.
"""

from __future__ import annotations

import random


def parse_srs(text):
    """(vertex_count, [(u, v, sign)], [[dart, ...] per vertex])."""
    nv = ne = None
    edges = {}
    rotations = {}
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#") or parts[0] == "srs":
            continue
        tag = parts[0]
        if tag == "v":
            nv = int(parts[1])
        elif tag == "e":
            ne = int(parts[1])
        elif tag == "edge":
            edges[int(parts[1])] = (int(parts[2]), int(parts[3]),
                                    1 if parts[4] == "+" else -1)
        elif tag == "rot":
            rotations[int(parts[1])] = [
                2 * int(tok[:-1]) + (tok[-1] == "b") for tok in parts[2:]]
        else:
            raise ValueError(f"unknown srs record {tag!r}")
    if nv is None or ne is None or len(edges) != ne or len(rotations) != nv:
        raise ValueError("incomplete srs text")
    return nv, [edges[i] for i in range(ne)], [rotations[v] for v in range(nv)]


def format_srs(nv, edges, rotations):
    lines = ["srs 1", f"v {nv}", f"e {len(edges)}"]
    lines += [f"edge {i} {u} {v} {'+' if s > 0 else '-'}"
              for i, (u, v, s) in enumerate(edges)]
    for v, rot in enumerate(rotations):
        darts = " ".join(f"{d >> 1}{'ab'[d & 1]}" for d in rot)
        lines.append(f"rot {v} {darts}".rstrip())
    return "\n".join(lines) + "\n"


def relabel(text, seed, ids=True):
    """The embedding in ``text`` under a relabelling drawn from ``seed``."""
    nv, edges, rotations = parse_srs(text)
    if seed == 0:
        return format_srs(nv, edges, rotations)
    rng = random.Random(seed)
    ne = len(edges)
    vmap = list(range(nv))
    emap = list(range(ne))
    swap = [False] * ne
    flip = [False] * nv
    if ids:
        rng.shuffle(vmap)
        rng.shuffle(emap)
        swap = [rng.random() < 0.5 for _ in range(ne)]
        flip = [rng.random() < 0.5 for _ in range(nv)]

    new_edges = [None] * ne
    for e, (u, v, s) in enumerate(edges):
        if flip[u] != flip[v]:
            s = -s
        a, b = vmap[u], vmap[v]
        new_edges[emap[e]] = (b, a, s) if swap[e] else (a, b, s)

    def dart(d):
        return 2 * emap[d >> 1] + ((d & 1) ^ swap[d >> 1])

    new_rot = [None] * nv
    for v, rot in enumerate(rotations):
        r = [dart(d) for d in rot]
        if flip[v]:
            r.reverse()
        if r:
            k = rng.randrange(len(r))
            r = r[k:] + r[:k]
        new_rot[vmap[v]] = r
    return format_srs(nv, new_edges, new_rot)
