"""Bitmask matching kernels.

The extendability sweeps call perfect-matching existence tests millions of
times on graphs with n <= 14, and the engine-oracle comparison runs a maximum
matching DP over 10^4 random graphs.  Both kernels have a numba-compiled
version and a pure-Python one; set ``O1PPG_PURE_PY=1`` to force the fallback.
``perfbench/`` times ``pm_exists`` as a layer (``--trace 1``).

Adjacency is an int64 numpy array of neighbor masks.
"""

from __future__ import annotations

import os

import numpy as np

_FORCE_PURE = os.environ.get("O1PPG_PURE_PY", "") not in ("", "0")

try:  # pragma: no cover - exercised through the public wrappers
    if _FORCE_PURE:
        raise ImportError("pure-python kernels forced by O1PPG_PURE_PY")
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


@njit(cache=True)
def _pm_exists_jit(adj, alive):
    pc = 0
    m = alive
    while m:
        m &= m - 1
        pc += 1
    if pc & 1:
        return False
    if pc == 0:
        return True
    pos = np.empty(pc, np.int64)
    m = alive
    i = 0
    while m:
        low = m & (-m)
        v = -1
        t = low
        while t:
            t >>= 1
            v += 1
        pos[i] = v
        i += 1
        m ^= low
    # compressed adjacency: bit j of cadj[i] set iff pos[i]~pos[j]
    cadj = np.zeros(pc, np.int64)
    for a in range(pc):
        row = adj[pos[a]]
        acc = 0
        for b in range(pc):
            if (row >> pos[b]) & 1:
                acc |= 1 << b
        cadj[a] = acc
    size = 1 << pc
    can = np.zeros(size, np.uint8)
    can[0] = 1
    for c in range(1, size):
        low = c & (-c)
        i = -1
        t = low
        while t:
            t >>= 1
            i += 1
        m = (c ^ low) & cadj[i]
        while m:
            wbit = m & (-m)
            m ^= wbit
            if can[c ^ low ^ wbit]:
                can[c] = 1
                break
    return can[size - 1] == 1


def _pm_exists_py(adj, alive):
    if alive.bit_count() & 1:
        return False
    memo = {0: True}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & (-mask)
        v = low.bit_length() - 1
        m = int(adj[v]) & mask
        ok = False
        while m:
            wbit = m & (-m)
            m ^= wbit
            if rec(mask ^ low ^ wbit):
                ok = True
                break
        memo[mask] = ok
        return ok

    return rec(alive)


@njit(cache=True)
def _max_matching_size_jit(adj, alive):
    pc = 0
    m = alive
    while m:
        m &= m - 1
        pc += 1
    if pc == 0:
        return 0
    pos = np.empty(pc, np.int64)
    m = alive
    i = 0
    while m:
        low = m & (-m)
        v = -1
        t = low
        while t:
            t >>= 1
            v += 1
        pos[i] = v
        i += 1
        m ^= low
    cadj = np.zeros(pc, np.int64)
    for a in range(pc):
        row = adj[pos[a]]
        acc = 0
        for b in range(pc):
            if (row >> pos[b]) & 1:
                acc |= 1 << b
        cadj[a] = acc
    size = 1 << pc
    best = np.zeros(size, np.int8)
    for c in range(1, size):
        low = c & (-c)
        i = -1
        t = low
        while t:
            t >>= 1
            i += 1
        rest = c ^ low
        b = best[rest]  # leave pos[i] unmatched
        m = rest & cadj[i]
        while m:
            wbit = m & (-m)
            m ^= wbit
            cand = 1 + best[rest ^ wbit]
            if cand > b:
                b = cand
        best[c] = b
    return int(best[size - 1])


def _max_matching_size_py(adj, alive):
    memo = {0: 0}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & (-mask)
        v = low.bit_length() - 1
        rest = mask ^ low
        b = rec(rest)
        m = int(adj[v]) & rest
        while m:
            wbit = m & (-m)
            m ^= wbit
            cand = 1 + rec(rest ^ wbit)
            if cand > b:
                b = cand
        memo[mask] = b
        return b

    return rec(alive)


@njit(cache=True)
def _min_encoding_jit(nv, ne, rot_flat, rot_start, rot_len, pos_in_rot,
                      dart_vertex, sign, start_darts):
    """Minimum BFS encoding over all start darts and both directions.

    Token stream per dart visit: (edge_label, vertex_label, sign_bit);
    vertex blocks end with -1.  Mirrors the pure-Python encoder exactly.
    """
    L = 6 * ne + nv
    best = np.empty(L, np.int32)
    have = False
    label = np.empty(nv, np.int32)
    hand = np.empty(nv, np.int8)
    entry = np.empty(nv, np.int32)
    order = np.empty(nv, np.int32)
    edge_label = np.empty(ne, np.int32)
    cand = np.empty(L, np.int32)
    for si in range(len(start_darts)):
        for side in (1, -1):
            start = start_darts[si]
            for v in range(nv):
                label[v] = -1
            for e in range(ne):
                edge_label[e] = -1
            root = dart_vertex[start]
            label[root] = 0
            hand[root] = side
            entry[root] = start
            order[0] = root
            nord = 1
            next_edge = 0
            p = 0
            ahead = not have
            qi = 0
            ok = True
            while qi < nord:
                v = order[qi]
                qi += 1
                hv = hand[v]
                base = rot_start[v]
                k = rot_len[v]
                i0 = pos_in_rot[entry[v]]
                for step in range(k):
                    idx = (i0 + step * hv) % k
                    d = rot_flat[base + idx]
                    e = d >> 1
                    el = edge_label[e]
                    if el < 0:
                        el = next_edge
                        edge_label[e] = next_edge
                        next_edge += 1
                    w = dart_vertex[d ^ 1]
                    lw = label[w]
                    if lw < 0:
                        lw = nord
                        label[w] = nord
                        hand[w] = hv * sign[e]
                        entry[w] = d ^ 1
                        order[nord] = w
                        nord += 1
                    sb = 0 if sign[e] * hv * hand[w] > 0 else 1
                    if not ahead:
                        if el > best[p]:
                            ok = False
                            break
                        if el < best[p]:
                            ahead = True
                    cand[p] = el
                    p += 1
                    if not ahead:
                        if lw > best[p]:
                            ok = False
                            break
                        if lw < best[p]:
                            ahead = True
                    cand[p] = lw
                    p += 1
                    if not ahead:
                        if sb > best[p]:
                            ok = False
                            break
                        if sb < best[p]:
                            ahead = True
                    cand[p] = sb
                    p += 1
                if not ok:
                    break
                if not ahead:
                    if -1 > best[p]:
                        ok = False
                        break
                    if -1 < best[p]:
                        ahead = True
                cand[p] = -1
                p += 1
            if ok and (ahead or not have):
                for t in range(p):
                    best[t] = cand[t]
                have = True
    return best


def as_adj_array(adj_masks):
    """Normalize adjacency masks to the array type the kernels expect."""
    if HAS_NUMBA:
        return np.asarray(adj_masks, dtype=np.int64)
    return list(adj_masks)


def pm_exists(adj_masks, alive):
    """Does the subgraph induced on the ``alive`` mask have a perfect
    matching?"""
    if HAS_NUMBA:
        return bool(_pm_exists_jit(adj_masks, alive))
    return _pm_exists_py(adj_masks, alive)


def max_matching_size(adj_masks, alive):
    """Maximum matching cardinality on the ``alive`` mask (DP oracle)."""
    if HAS_NUMBA:
        return int(_max_matching_size_jit(adj_masks, alive))
    return _max_matching_size_py(adj_masks, alive)
