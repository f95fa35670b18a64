"""Bitmask perfect-matching kernel.

The audit calls the perfect-matching existence test thousands of times
per instance on graphs with n <= 14.  ``perfbench/`` times ``pm_exists``
as a layer (``--trace 1``); ``o1ppg.oracles.max_matching_size`` is its
oracle.

Adjacency is a list of neighbor masks indexed by vertex.  The answer for a
mask depends only on ``adj``, so a caller that tests many masks of one
graph passes one memo to every call.  The one production caller is
``matching.matching_sweep``, one call per covered vertex mask of the
k-matchings, on the memo its caller passes: the audit
(``verify._InstanceAudit``) owns one memo per instance, shared by its
1-, 2- and 3-matching sweeps, and drops it with the sweeps when the audit
object goes.  Every extendability check of the audit reads one of those
sweeps (T1.3 the 1-matching sweep; T1.4, C1.5 and L4.2's 2-matchings the
2-matching sweep; T1.6, NoThreeExt and L4.2's 3-matchings the 3-matching
sweep), ``matching.is_extendable`` included.  A memo maps even-sized alive
masks to their answer and starts as ``{0: True}``; it never holds more
than 2^n entries.
"""

from __future__ import annotations


def pm_exists(adj, alive, memo=None):
    """Does the subgraph induced on the ``alive`` mask have a perfect
    matching?  ``memo`` (default: a fresh one) must only ever have been
    used with this ``adj``."""
    if alive.bit_count() & 1:
        return False
    if memo is None:
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
