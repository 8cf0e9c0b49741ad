r"""Rotation-space scanning: iterate every rotation system and count faces.

The space of rotation systems of a graph is the product, over vertices, of
the (deg - 1)! cyclic orders of the incident darts (least dart pinned
first, so each cyclic order appears exactly once).  A system is addressed
by a mixed-radix index with vertex 1 as the fastest digit; scanning a
contiguous index range visits systems in a deterministic order, which is
what makes multi-worker runs reproducible.

The scan itself is a face count per system: faces are the orbits of
``d -> succ[d ^ 1]``.  :func:`scan` is the one routine that counts them;
every scan in the package goes through it.  Passing a subset of a
vertex's orders (for instance one order, to pin that vertex) scans the
matching subspace.
"""

from __future__ import annotations

from itertools import permutations

# There is no compiled kernel.  The name stays because the benchmark's
# environment fingerprint reads it.
HAVE_NUMBA = False


def build_orders(darts_by_vertex: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Per-vertex cyclic orders: least dart first, remainder in lex order."""
    out = []
    for darts in darts_by_vertex:
        first, rest = darts[0], darts[1:]
        out.append([(first,) + p for p in permutations(rest)])
    return out


def scan(
    orders: list[list[tuple[int, ...]]],
    nd: int,
    lo: int,
    hi: int,
    target_f: int,
) -> tuple[list[int], list[int]]:
    """Count faces for systems ``lo..hi-1``; collect indices with ``target_f`` faces."""
    nv = len(orders)
    counts = [len(o) for o in orders]
    succ = [0] * nd
    digits = [0] * nv
    idx = lo
    for v in range(nv):
        digits[v] = idx % counts[v]
        idx //= counts[v]

    def set_succ(v: int) -> None:
        cyc = orders[v][digits[v]]
        k = len(cyc)
        for i in range(k):
            succ[cyc[i]] = cyc[(i + 1) % k]

    for v in range(nv):
        set_succ(v)
    hist = [0] * (nd + 2)
    matches: list[int] = []
    stamp = [0] * nd
    cur = 0
    for index in range(lo, hi):
        cur += 1
        f = 0
        for d0 in range(nd):
            if stamp[d0] == cur:
                continue
            f += 1
            d = d0
            while stamp[d] != cur:
                stamp[d] = cur
                d = succ[d ^ 1]
        hist[f] += 1
        if f == target_f:
            matches.append(index)
        v = 0
        while v < nv:
            digits[v] += 1
            if digits[v] < counts[v]:
                set_succ(v)
                break
            digits[v] = 0
            set_succ(v)
            v += 1
    return hist, matches
