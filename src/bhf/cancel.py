"""Cancellation of unit arrows, one kernel for every coefficient kind.

Type D modules and bimodules, U-weighted modules and free F2[U] complexes
all reduce through ``_cancel_all``: cancelling src -> dst with an identity
coefficient (an idempotent, or the polynomial 1) is Gaussian elimination in
characteristic 2, so each zig-zag w -> dst <- src -> t becomes w -> t with
the product of the two outer coefficients, and no inverse or sign enters.
"""

from __future__ import annotations

import heapq


def _adjacency(gens, delta):
    """(src -> {dst: coeff}, dst -> {src: coeff}), with an entry per generator."""
    out = {g: {} for g in gens}
    into = {g: {} for g in gens}
    for (s, t), c in delta.items():
        out[s][t] = into[t][s] = c
    return out, into


def _cancel_all(gens, delta, unit, mul, add):
    """Cancel unit arrows until none remain; deterministic order.

    Each round removes the lexicographically least (src, dst), src != dst,
    with a unit coefficient and rewires w -> dst, src -> t into w -> t with
    the product coefficient, mod 2.  Arrows live in out- and in-adjacency
    maps, so a round touches only the arrows at src and dst.

    Heap invariant: every arrow whose current coefficient is a unit is on
    the heap, because an arrow is pushed whenever it is created or changed
    into a unit.  The heap may also hold stale pairs (cancelled ends, or a
    coefficient no longer a unit); each pop is checked again and stale ones
    are dropped.  So the first live pop is the least unit arrow, the one a
    full re-sort of the arrows would pick.

    ``unit(src, dst, coeff)`` says which arrows may be cancelled; ``mul``
    and ``add`` are the coefficient arithmetic, and a coefficient is zero
    when it is falsy.  ``gens`` is a dict keyed by generator name; its
    values ride along, and the cancelled entries are deleted from it.
    """
    out, into = _adjacency(gens, delta)
    heap = [k for k, c in delta.items() if k[0] != k[1] and unit(*k, c)]
    heapq.heapify(heap)
    while heap:
        s0, t0 = heapq.heappop(heap)
        c0 = out.get(s0, {}).get(t0)
        if c0 is None or not unit(s0, t0, c0):
            continue
        zig = [(w, c) for w, c in into[t0].items() if w not in (s0, t0)]
        zag = [(t, c) for t, c in out[s0].items() if t not in (s0, t0)]
        for g in (s0, t0):
            del gens[g]
            for t in out.pop(g):
                if t in into:
                    del into[t][g]
            for w in into.pop(g):
                if w in out:
                    del out[w][g]
        for w, cw in zig:
            row = out[w]
            for t, ct in zag:
                prod = mul(cw, ct)
                if not prod:
                    continue
                cur = row.get(t)
                tot = prod if cur is None else add(cur, prod)
                if not tot:
                    del row[t]
                    del into[t][w]
                else:
                    row[t] = into[t][w] = tot
                    if w != t and unit(w, t, tot):
                        heapq.heappush(heap, (w, t))
    return gens, {(s, t): c for s, row in out.items() for t, c in row.items()}
