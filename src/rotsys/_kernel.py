r"""Rotation-space scanning: count the faces of every rotation system.

The space of rotation systems of a graph is the product, over vertices, of
the (deg - 1)! cyclic orders of the incident darts (least dart pinned
first, so each cyclic order appears exactly once).  A system is addressed
by a mixed-radix index with vertex 1 as the fastest digit.

Faces are the orbits of ``d -> succ[d ^ 1]``.  :func:`scan` is the one
routine that counts them; every scan in the package goes through it.
It scans the whole product of the order lists it is given, in one pass;
passing a subset of a vertex's orders (for instance one order, to pin
that vertex) scans the matching subspace.

The scan fixes the vertices' orders one vertex at a time (vertex
elimination) and never traces a whole system.  While the vertices of a
set S are not yet fixed, the faces that avoid S are closed and counted,
and the rest of the fixing is summed up by a permutation P of the
*boundary darts*, the darts at S whose edge leads to a fixed vertex: the
walk that leaves S along dart e re-enters it at dart ``P[e]``.  Fixing
the order rho at a vertex w of S gives the state of ``S - {w}`` and
closes the faces whose cycles of ``rho . P`` stay inside w's darts.  The
faces of every completion depend on the state alone, so each level keeps
the face-count histogram of the completions of each state it meets (up
to :data:`_MAX_TABLE` states per scan; beyond that they are
recomputed), and the last vertex counts the cycles of ``rho . P`` for all
its orders at once (:func:`_row`).  A second walk descends only into states whose
histogram holds the face count still needed, which finds the matching
indices.

Vertices are eliminated greedily, each time the one that leaves the
fewest boundary darts (the one with fewer orders on ties), which keeps
the states few and short; levels with one order, such as a pinned
vertex, are stepped through without branching or memoising.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import permutations

# There is no compiled kernel.  The name stays because the benchmark's
# environment fingerprint reads it.
HAVE_NUMBA = False

# Most states one :func:`scan` memoises, over all levels.  A state
# costs a few hundred bytes; the pinned K6 space needs about 3,000.
_MAX_TABLE = 1 << 16


def build_orders(darts_by_vertex: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Per-vertex cyclic orders: least dart first, remainder in lex order."""
    out = []
    for darts in darts_by_vertex:
        first, rest = darts[0], darts[1:]
        out.append([(first,) + p for p in permutations(rest)])
    return out


def _row(rhos: list[list[int]], p: tuple[int, ...]) -> dict[int, list[int]]:
    """The digits of each cycle count of ``rho . p``, over every rho."""
    k = len(p)
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
        where.setdefault(c, []).append(digit)
    return where


def _elimination_order(orders: list[list[tuple[int, ...]]], vertex_of: list[int]) -> list[int]:
    """Vertices in the order they are fixed: each time the one leaving the fewest boundary darts.

    Fixing w adds its edges to unfixed vertices to the boundary and removes
    those to fixed ones, so its key is ``deg - 2 * (edges to fixed
    vertices)``, kept up to date as vertices are fixed; ties go to fewer
    orders, then to the lower vertex.
    """
    key: list[tuple[int, int, int] | None] = [(len(o[0]), len(o), v) for v, o in enumerate(orders)]
    heap = list(key)
    heapify(heap)
    seq = []
    while heap:
        top = heappop(heap)
        w = top[2]
        if key[w] != top:
            continue  # fixed already, or a stale key
        seq.append(w)
        key[w] = None
        for d in orders[w][0]:
            x = vertex_of[d ^ 1]
            kx = key[x]
            if kx is not None:
                key[x] = kx = (kx[0] - 2, kx[1], x)
                heappush(heap, kx)
    return seq


class _Level:
    """The fixing of one vertex w: how a state of the level maps to the next.

    Positions of a state are the boundary darts; ``code`` maps a position
    of ``p + tail`` to its position in the next state, or to ``~a`` when it
    is w's a-th dart.  ``tail`` adds, per dart of w whose edge leads to an
    unfixed vertex, an exit to the dart at the other end (now a boundary
    dart) and a head for the walk that enters w along that edge.  ``rs[o]``
    holds, for order o and at index ``~a``, the position of ``p + tail``
    that follows w's a-th dart under o.
    """

    __slots__ = ("code", "heads", "tail", "deg", "rs")

    def __init__(self, code: list[int], heads: list[int], tail: tuple[int, ...], deg: int, rs: list[list[int]]):
        self.code, self.heads, self.tail, self.deg, self.rs = code, heads, tail, deg, rs


def _levels(
    orders: list[list[tuple[int, ...]]], seq: list[int], vertex_of: list[int]
) -> tuple[list[_Level], list[list[int]]]:
    """The levels of all but the last vertex of ``seq``, and the last vertex's orders as successor lists."""
    fixed = [False] * len(orders)
    bound: list[int] = []  # the boundary darts, in state order
    levels = []
    for w in seq[:-1]:
        darts = orders[w][0]
        deg = len(darts)
        at = {d: i for i, d in enumerate(bound)}
        loc = {d: a for a, d in enumerate(darts)}
        inner = [a for a, d in enumerate(darts) if not fixed[vertex_of[d ^ 1]]]
        m, nn = len(bound), len(inner)
        kept = [i for i, d in enumerate(bound) if d not in loc]
        code = [~loc[d] if d in loc else 0 for d in bound]
        for t, i in enumerate(kept):
            code[i] = t
        code += [len(kept) + j for j in range(nn)] + [~a for a in inner]
        exit_at = {darts[a]: m + j for j, a in enumerate(inner)}
        rs = []
        for cyc in orders[w]:
            fwd = [0] * deg
            for i, d in enumerate(cyc):
                s = cyc[i + 1 - deg]
                fwd[loc[d]] = at[s] if s in at else exit_at[s]
            rs.append(fwd[::-1])
        heads = kept + list(range(m + nn, m + 2 * nn))
        levels.append(_Level(code, heads, tuple(range(m, m + 2 * nn)), deg, rs))
        bound = [bound[i] for i in kept] + [darts[a] ^ 1 for a in inner]
        fixed[w] = True
    at = {d: i for i, d in enumerate(bound)}
    rhos = []
    for cyc in orders[seq[-1]]:
        rho = [0] * len(cyc)
        for i, d in enumerate(cyc):
            rho[at[d]] = at[cyc[i + 1 - len(cyc)]]
        rhos.append(rho)
    return levels, rhos


def _step(lv: _Level, rs: list[int], p: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The next state after fixing the vertex of ``lv`` by successors ``rs``, and the faces it closes."""
    code = lv.code
    pe = p + lv.tail
    mark = [0] * lv.deg
    q = []
    for i in lv.heads:
        x = code[pe[i]]
        while x < 0:
            mark[x] = 1
            x = code[pe[rs[x]]]
        q.append(x)
    closed = 0
    if 0 in mark:
        for x in range(-lv.deg, 0):
            if not mark[x]:
                closed += 1
                while not mark[x]:
                    mark[x] = 1
                    x = code[pe[rs[x]]]
    return tuple(q), closed


class _Scan:
    """One scan: its levels, the radix place of each level's vertex, and the memo.

    A histogram is one integer with ``width`` bits per face count, wide
    enough for the number of systems in the space, so merging two costs one
    shift and one add.
    """

    __slots__ = ("levels", "place", "rhos", "last", "width", "memo", "rows", "room")

    def __init__(self, levels: list[_Level], place: list[int], rhos: list[list[int]], size: int):
        self.levels, self.place, self.rhos = levels, place, rhos
        self.last = len(levels)
        self.width = size.bit_length()
        self.memo: list[dict[tuple[int, ...], int]] = [{} for _ in range(self.last + 1)]
        self.rows: dict[tuple[int, ...], dict[int, list[int]]] = {}
        self.room = _MAX_TABLE


def _through(b: _Scan, k: int, p: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    """Step over the one-order levels from ``k``.

    Returns the next level that branches (or the last), its state and the
    faces closed on the way.  A one-order level's digit is 0, so it adds
    nothing to an index.
    """
    closed = 0
    while k < b.last and len(b.levels[k].rs) == 1:
        p, c = _step(b.levels[k], b.levels[k].rs[0], p)
        closed += c
        k += 1
    return k, p, closed


def _hist(b: _Scan, k: int, p: tuple[int, ...]) -> int:
    """The face-count histogram of the completions of state ``p`` at level ``k``."""
    memo = b.memo[k]
    h = memo.get(p)
    if h is None:
        h = _expand(b, k, p)
        if b.room > 0:
            memo[p] = h
            b.room -= 1
    return h


def _where(b: _Scan, p: tuple[int, ...]) -> dict[int, list[int]]:
    """:func:`_row` of state ``p`` at the last level, memoised like the histograms."""
    where = b.rows.get(p)
    if where is None:
        where = _row(b.rhos, p)
        if b.room > 0:
            b.rows[p] = where
            b.room -= 1
    return where


def _expand(b: _Scan, k: int, p: tuple[int, ...]) -> int:
    """:func:`_hist` of a state not in the memo."""
    width = b.width
    if k == b.last:
        return sum(len(ks) << width * c for c, ks in _where(b, p).items())
    lv = b.levels[k]
    tally: dict[tuple[tuple[int, ...], int], int] = {}
    for rs in lv.rs:
        child = _step(lv, rs, p)
        tally[child] = tally.get(child, 0) + 1
    hist = 0
    for (q, c), times in tally.items():
        k2, q2, c2 = _through(b, k + 1, q)
        hist += times * _hist(b, k2, q2) << width * (c + c2)
    return hist


def _collect(b: _Scan, k: int, p: tuple[int, ...], need: int) -> list[int]:
    """The indices of the completions of state ``p`` at level ``k`` with ``need`` more faces.

    The walk goes level by level, and the partial indices that reach one
    state with one face count still needed are stepped on together, so no
    state is stepped twice for one count.
    """
    width = b.width
    mask = (1 << width) - 1
    frontier = {(p, need): [0]}
    while k < b.last:
        lv, place = b.levels[k], b.place[k]
        below: dict[tuple[tuple[int, ...], int], list[int]] = {}
        for (p, need), bases in frontier.items():
            for d, rs in enumerate(lv.rs):
                q, c = _step(lv, rs, p)
                k2, q2, c2 = _through(b, k + 1, q)
                n2 = need - c - c2
                if n2 >= 0 and _hist(b, k2, q2) >> width * n2 & mask:
                    off = d * place
                    below.setdefault((q2, n2), []).extend([i + off for i in bases])
        frontier, k = below, k2
    place = b.place[k]
    out: list[int] = []
    for (p, need), bases in frontier.items():
        for d in _where(b, p).get(need, ()):
            off = d * place
            out.extend([i + off for i in bases])
    return out


def scan(orders: list[list[tuple[int, ...]]], nd: int, target_f: int) -> tuple[list[int], list[int]]:
    """Count faces for every system of the product of ``orders``; collect those with ``target_f`` faces.

    Every vertex needs at least one order.  Returns the histogram over face
    counts ``0..nd+1`` and the matching indices in ascending order.
    """
    vertex_of = [0] * nd
    for v, o in enumerate(orders):
        for d in o[0]:
            vertex_of[d] = v
    seq = _elimination_order(orders, vertex_of)
    levels, rhos = _levels(orders, seq, vertex_of)
    places = [1]
    for o in orders:
        places.append(places[-1] * len(o))
    b = _Scan(levels, [places[w] for w in seq], rhos, places[-1])
    k, p, closed = _through(b, 0, ())
    top = _hist(b, k, p)
    mask = (1 << b.width) - 1
    hist = [0] * (nd + 2)
    for f in range(closed, nd + 2):
        hist[f] = top >> b.width * (f - closed) & mask
    matches: list[int] = []
    if 0 <= target_f - closed and top >> b.width * (target_f - closed) & mask:
        matches = sorted(_collect(b, k, p, target_f - closed))
    return hist, matches
