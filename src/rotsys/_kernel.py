r"""Rotation-space scanning: count the faces of every rotation system.

The space of rotation systems of a graph is the product, over vertices, of
the (deg - 1)! cyclic orders of the incident darts (least dart pinned
first, so each cyclic order appears exactly once).  A system is addressed
by a mixed-radix index with vertex 1 as the fastest digit; scanning a
contiguous index range visits systems in a deterministic order, which is
what makes multi-worker runs reproducible.

Faces are the orbits of ``d -> succ[d ^ 1]``.  :func:`scan` is the one
routine that counts them; every scan in the package goes through it.
Passing a subset of a vertex's orders (for instance one order, to pin
that vertex) scans the matching subspace.

The scan counts one *context* at a time rather than one system.  It
takes the vertex u with the most orders as the inner vertex; a context
fixes the order at every other vertex.  One trace of the context's darts
counts the faces ``f0`` that avoid u, and walks from each dart e leaving
u to the first dart d entering u, giving the permutation ``P[e] = d ^ 1``
of u's darts.  Under the order rho at u, the faces through u are the
cycles of ``rho . P``, so each of u's digits costs a table lookup:
``f0 + cycles(rho . P)``.  The cycle counts of all of u's orders are
kept per distinct P (there are at most deg(u)! of them) up to
:data:`_MAX_TABLE` digits, and computed per context beyond it.
"""

from __future__ import annotations

import math
from itertools import permutations

# There is no compiled kernel.  The name stays because the benchmark's
# environment fingerprint reads it.
HAVE_NUMBA = False

# Most cycle counts :func:`scan` keeps: rows of len(orders[u]) digits, one
# per distinct P.  Degree 6 needs 720 * 120 = 86,400; a full degree-7
# vertex (5040 * 720) goes over and is counted context by context.
_MAX_TABLE = 1 << 18


def build_orders(darts_by_vertex: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Per-vertex cyclic orders: least dart first, remainder in lex order."""
    out = []
    for darts in darts_by_vertex:
        first, rest = darts[0], darts[1:]
        out.append([(first,) + p for p in permutations(rest)])
    return out


def _row(rhos: list[list[int]], p: tuple[int, ...]) -> tuple[bytes, dict[int, list[int]]]:
    """Cycles of ``rho . p`` for every rho: per digit, and the digits of each count."""
    k = len(p)
    row = bytearray()
    where: dict[int, list[int]] = {}
    for digit, rho in enumerate(rhos):
        seen = [False] * k
        c = 0
        for i in range(k):
            if not seen[i]:
                c += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = rho[p[j]]
        row.append(c)
        where.setdefault(c, []).append(digit)
    return bytes(row), where


def scan(
    orders: list[list[tuple[int, ...]]],
    nd: int,
    lo: int,
    hi: int,
    target_f: int,
) -> tuple[list[int], list[int]]:
    """Count faces for systems ``lo..hi-1``; collect indices with ``target_f`` faces.

    Returns the histogram over face counts ``0..nd+1`` and the matching
    indices in ascending order.
    """
    hist = [0] * (nd + 2)
    matches: list[int] = []
    if hi <= lo:
        return hist, matches
    nv = len(orders)
    counts = [len(o) for o in orders]
    u = counts.index(max(counts))
    place, cu = math.prod(counts[:u]), counts[u]
    block = place * cu
    # u's darts get local labels 0..deg-1 (local[d] is -1 off u), and each
    # of u's orders becomes the successor permutation rho on those labels.
    du = orders[u][0]
    local = [-1] * nd
    for i, d in enumerate(du):
        local[d] = i
    rhos = []
    for cyc in orders[u]:
        rho = [0] * len(cyc)
        for i, d in enumerate(cyc):
            rho[local[d]] = local[cyc[(i + 1) % len(cyc)]]
        rhos.append(rho)
    table: dict[tuple[int, ...], tuple[bytes, dict[int, list[int]]]] = {}
    # Darts that neither leave nor enter u; the others lie on faces through u.
    outer = [d for d in range(nd) if local[d] < 0 and local[d ^ 1] < 0]

    # The other vertices form an odometer in index order: the digits below
    # u (``low``) run fastest, then those above (``high``).  Each order is
    # kept with its rotation by one, which gives the successor of each dart.
    others = [v for v in range(nv) if v != u]
    turns = [[(cyc, cyc[1:] + cyc[:1]) for cyc in orders[v]] if v != u else [] for v in range(nv)]
    succ = [0] * nd
    digits = [0] * nv
    first_high, last_high = lo // block, (hi - 1) // block
    ctx = first_high * place
    for v in others:
        ctx, digits[v] = divmod(ctx, counts[v])
        for a, b in zip(*turns[v][digits[v]]):
            succ[a] = b
    stamp = [0] * nd
    cur = 0
    for high in range(first_high, last_high + 1):
        start = high * block
        whole = lo <= start and start + block <= hi
        # The indices of one context are ``start + low + place * k``, so
        # the contexts of one block interleave: buffer the block's matches.
        buf = matches if place == 1 else []
        for low in range(place):
            if whole:
                klo, khi = 0, cu
            else:
                klo = max(0, -((start + low - lo) // place))
                khi = min(cu, -((start + low - hi) // place))
            if klo < khi:
                cur += 1
                p = []
                for e in du:
                    d = e
                    stamp[d] = cur
                    while local[d ^ 1] < 0:
                        d = succ[d ^ 1]
                        stamp[d] = cur
                    p.append(local[d ^ 1])
                f0 = 0
                for d0 in outer:
                    if stamp[d0] != cur:
                        f0 += 1
                        d = d0
                        while stamp[d] != cur:
                            stamp[d] = cur
                            d = succ[d ^ 1]
                key = tuple(p)
                entry = table.get(key)
                if entry is None:
                    entry = _row(rhos, key)
                    if (len(table) + 1) * cu <= _MAX_TABLE:
                        table[key] = entry
                row, where = entry
                base = start + low
                if klo == 0 and khi == cu:
                    for c, ks in where.items():
                        hist[f0 + c] += len(ks)
                    ks = where.get(target_f - f0)
                    if ks:
                        buf.extend([base + place * k for k in ks])
                else:
                    for k in range(klo, khi):
                        f = f0 + row[k]
                        hist[f] += 1
                        if f == target_f:
                            buf.append(base + place * k)
            for v in others:
                digit = digits[v] + 1
                if digit == counts[v]:
                    digit = 0
                digits[v] = digit
                for a, b in zip(*turns[v][digit]):
                    succ[a] = b
                if digit:
                    break
        if buf is not matches:
            buf.sort()
            matches.extend(buf)
    return hist, matches
