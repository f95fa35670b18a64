"""Bitmask perfect-matching kernel.

The extendability sweeps call the perfect-matching existence test millions
of times on graphs with n <= 14.  ``perfbench/`` times ``pm_exists`` as a
layer (``--trace 1``); ``o1ppg.oracles.max_matching_size`` is its oracle.

Adjacency is a list of neighbor masks indexed by vertex.
"""

from __future__ import annotations


def pm_exists(adj, alive):
    """Does the subgraph induced on the ``alive`` mask have a perfect
    matching?"""
    if alive.bit_count() & 1:
        return False
    memo = {0: True}

    def rec(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        low = mask & (-mask)
        v = low.bit_length() - 1
        m = adj[v] & mask
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
