r"""Rotation-space scanning: count the faces of every rotation system.

The space of rotation systems of a graph is the product, over vertices, of
the (deg - 1)! cyclic orders of the incident darts (least dart pinned
first, so each cyclic order appears exactly once).  A system is addressed
by a mixed-radix index with vertex 1 as the fastest digit.

Faces are the orbits of ``d -> succ[d ^ 1]``.  Two routines count them,
both over the whole product of the order lists they are given, in one
pass; passing a subset of a vertex's orders (for instance one order, to
pin that vertex) scans the matching subspace.  :func:`scan` gives the
histogram over every face count and the systems with one of them;
:func:`matches` gives only the systems with one face count, and skips the
parts of the space that cannot reach it.

Both fix the vertices' orders one vertex at a time (vertex elimination)
and never trace a whole system.  While the vertices of a set S are not yet
fixed, the faces that avoid S are closed and counted, and the rest of the
fixing is summed up by a permutation P of the *boundary darts*, the darts
at S whose edge leads to a fixed vertex: the walk that leaves S along dart
e re-enters it at dart ``P[e]``.  Fixing the order rho at a vertex w of S
gives the state of ``S - {w}`` and closes the faces whose cycles of
``rho . P`` stay inside w's darts.  The faces of every completion depend on
the state alone, so each level keeps the face-count histogram of the
completions of each state it meets (up to :data:`_MAX_TABLE` states per
scan; beyond that they are recomputed), and the last level groups its
orders by the faces they close from each state it meets (:func:`_where`).
A second walk descends only into states whose histogram holds the face
count still needed, which finds the matching indices.

:func:`matches` bounds the faces a state can still close, pruning on face
length as Brinkmann's genus algorithm does (Ars Math. Contemp., 2022).
Every face is at least ell darts long, where ell is the girth when every
vertex has degree at least 2: a face walk then never turns back along the
dart it came by, so it holds a cycle.  A vertex of degree 1 lets a face
walk one edge both ways, and ell is 1.  Each state also carries the
length of its open walks, one per boundary dart, capped at ell.  The darts
not yet on a closed face are those walks and the darts joining two unfixed
vertices, and each face still to close takes some of them whose capped
lengths sum to at least ell (a face through a capped walk has ell from it
alone; any other has its true length).  So a state at which that sum, over
ell, is below the faces still needed has no matching completion, and is
dropped.  The memo is still keyed by the state alone, since the lengths
only decide what to drop: a state's histogram is exact from the fewest
faces needed of it so far, and is expanded again when a later visit needs
fewer.  Where no state above the last level can fall short (as a level's
boundary darts, free darts and the most walks of two darts it can hold
show), the lengths would cut nothing, and :func:`matches` keeps none and
runs as :func:`scan` does.

The vertices with one order (pinned, or of degree at most 2) are fixed
first, in one loop, so the recursion is only as deep as the vertices
that branch.  Within each group vertices are eliminated greedily, each
time the one that leaves the fewest boundary darts (the one with fewer
orders on ties), which keeps the states few and short.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import permutations

# There is no compiled kernel.  The name stays because the benchmark's
# environment fingerprint reads it.
HAVE_NUMBA = False

# Most states one :func:`scan` or :func:`matches` memoises, over all
# levels.  A state costs a few hundred bytes; the pinned K6 space needs
# about 3,000.
_MAX_TABLE = 1 << 16


def build_orders(darts_by_vertex: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Per-vertex cyclic orders: least dart first, remainder in lex order.

    This is the one place that numbers a vertex's orders: a digit of a
    system's index, and every table :class:`rotation_space.RotationSpace`
    keys by digit, read them off these lists.
    """
    out = []
    for darts in darts_by_vertex:
        first, rest = darts[0], darts[1:]
        out.append([(first,) + p for p in permutations(rest)])
    return out


def _elimination_order(orders: list[list[tuple[int, ...]]], vertex_of: list[int]) -> list[int]:
    """Vertices in the order they are fixed: each time the one leaving the fewest boundary darts.

    Every vertex with one order comes before every vertex that branches.
    Fixing w adds its edges to unfixed vertices to the boundary and removes
    those to fixed ones, so its key is ``deg - 2 * (edges to fixed
    vertices)``, kept up to date as vertices are fixed; ties go to fewer
    orders, then to the lower vertex.
    """
    key: list[tuple[bool, int, int, int] | None] = [
        (len(o) > 1, len(o[0]), len(o), v) for v, o in enumerate(orders)
    ]
    heap = list(key)
    heapify(heap)
    seq = []
    while heap:
        top = heappop(heap)
        w = top[3]
        if key[w] != top:
            continue  # fixed already, or a stale key
        seq.append(w)
        key[w] = None
        for d in orders[w][0]:
            x = vertex_of[d ^ 1]
            kx = key[x]
            if kx is not None:
                key[x] = kx = (kx[0], kx[1] - 2, kx[2], x)
                heappush(heap, kx)
    return seq


def _shortest_face(orders: list[list[tuple[int, ...]]], vertex_of: list[int]) -> int:
    """ell: the girth when every vertex has degree at least 2, else 1 (see the module docstring)."""
    if any(len(o[0]) < 2 for o in orders):
        return 1
    n = len(orders)
    best = len(vertex_of)
    # The graph is loopless, so no cycle is shorter than 2, or than 3 without parallel edges.
    least = 3 if all(len({vertex_of[d ^ 1] for d in o[0]}) == len(o[0]) for o in orders) else 2
    for s in range(n):
        if best == least:
            break
        dist, via = [-1] * n, [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            if 2 * dist[u] >= best:
                break
            for d in orders[u][0]:
                if d >> 1 != via[u]:
                    v = vertex_of[d ^ 1]
                    if dist[v] < 0:
                        dist[v], via[v] = dist[u] + 1, d >> 1
                        queue.append(v)
                    elif dist[u] + dist[v] + 1 < best:
                        best = dist[u] + dist[v] + 1
    return best


class _Level:
    """The fixing of one vertex w: how a state of the level maps to the next.

    Positions of a state are the boundary darts; ``code`` maps a position
    of ``p + tail`` to its position in the next state, or to ``~a`` when it
    is w's a-th dart.  ``tail`` adds, per dart of w whose edge leads to an
    unfixed vertex, an exit to the dart at the other end (now a boundary
    dart) and a head for the walk that enters w along that edge; each is a
    walk of one dart (``ones`` holds their lengths).  ``rs[o]`` holds, for
    order o and at index ``~a``, the position of ``p + tail`` that follows
    w's a-th dart under o.  Once w is fixed, ``free`` darts join two unfixed
    vertices, and at most ``pairs`` walks are two darts long: such a walk
    passes a fixed vertex by two darts adjacent in its order whose edges
    lead to unfixed vertices.
    """

    __slots__ = ("code", "heads", "tail", "ones", "deg", "rs", "free", "pairs")

    def __init__(
        self, code: list[int], heads: list[int], tail: tuple[int, ...], deg: int, rs: list[list[int]],
        free: int, pairs: int,
    ):
        self.code, self.heads, self.tail, self.deg, self.rs = code, heads, tail, deg, rs
        self.ones = (1,) * len(tail)
        self.free, self.pairs = free, pairs


def _levels(orders: list[list[tuple[int, ...]]], seq: list[int], vertex_of: list[int]) -> list[_Level]:
    """The level of each vertex of ``seq``; the last one's darts all lead to fixed vertices, so it has no heads."""
    fixed = [False] * len(orders)
    bound: list[int] = []  # the boundary darts, in state order
    free, pairs = len(vertex_of), 0
    opened = [0] * len(orders)  # per fixed vertex, its darts to unfixed ones

    def adjacent(v: int) -> int:  # the most pairs of such darts adjacent at v
        return opened[v] - (0 < opened[v] < len(orders[v][0]))

    levels = []
    for w in seq:
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
        for d in darts:
            x = vertex_of[d ^ 1]
            if fixed[x]:
                pairs -= adjacent(x)
                opened[x] -= 1
                pairs += adjacent(x)
        fixed[w], opened[w] = True, nn
        free -= 2 * nn
        pairs += adjacent(w)
        levels.append(_Level(code, heads, tuple(range(m, m + 2 * nn)), deg, rs, free, pairs))
        bound = [bound[i] for i in kept] + [darts[a] ^ 1 for a in inner]
    return levels


def _step(
    lv: _Level, rs: list[int], p: tuple[int, ...], ls: tuple[int, ...], cap: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Fix the vertex of ``lv`` by successors ``rs``: the next state, its walks' lengths, the faces closed.

    ``ls`` holds the lengths of the walks of state ``p``, capped at ``cap``;
    with ``cap`` 0 no lengths are kept, and the lengths are ``()``.
    """
    code = lv.code
    pe = p + lv.tail
    mark = [0] * lv.deg
    q = []
    lq: tuple[int, ...] = ()
    if cap:
        le = ls + lv.ones
        ns = []
        for i in lv.heads:
            n = le[i]
            x = code[pe[i]]
            while x < 0:
                mark[x] = 1
                y = rs[x]
                n += le[y]
                x = code[pe[y]]
            q.append(x)
            ns.append(n if n < cap else cap)
        lq = tuple(ns)
    else:  # the same walk, without the lengths
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
    return tuple(q), lq, closed


class _Scan:
    """One scan: its levels, the radix place of each level's vertex, the memo, and ``cap``.

    A histogram is one integer with ``width`` bits per face count, wide
    enough for the number of systems in the space, so merging two costs one
    shift and one add.  ``memo[k]`` maps a state of level k to the fewest
    faces needed of it so far and its histogram, exact from that count up;
    ``rows`` maps a state of the last level, ``last``, to its :func:`_where` row.
    ``cap`` is ell when the walks' lengths are kept, and 0 when they are not.
    """

    __slots__ = ("levels", "place", "last", "cap", "width", "memo", "rows", "room")

    def __init__(self, levels: list[_Level], place: list[int], size: int, cap: int):
        self.levels, self.place, self.cap = levels, place, cap
        self.last = len(levels) - 1
        self.width = size.bit_length()
        self.memo: list[dict[tuple[int, ...], tuple[int, int]]] = [{} for _ in levels]
        self.rows: dict[tuple[int, ...], dict[int, list[int]]] = {}
        self.room = _MAX_TABLE


def _hist(b: _Scan, k: int, p: tuple[int, ...], ls: tuple[int, ...], need: int) -> int:
    """The face-count histogram of the completions of state ``p`` at level ``k``, exact from ``need`` up."""
    memo = b.memo[k]
    got = memo.get(p)
    if got is not None and got[0] <= need:
        return got[1]
    h = _expand(b, k, p, ls, need)
    if got is not None or b.room > 0:
        memo[p] = (need, h)
        b.room -= got is None
    return h


def _where(b: _Scan, p: tuple[int, ...]) -> dict[int, list[int]]:
    """The last level's digits by the faces each order closes from state ``p``, memoised like the histograms."""
    where = b.rows.get(p)
    if where is None:
        lv = b.levels[b.last]
        where = {}
        for digit, rs in enumerate(lv.rs):
            where.setdefault(_step(lv, rs, p, (), 0)[2], []).append(digit)
        if b.room > 0:
            b.rows[p] = where
            b.room -= 1
    return where


def _expand(b: _Scan, k: int, p: tuple[int, ...], ls: tuple[int, ...], need: int) -> int:
    """:func:`_hist` of a state not in the memo (or memoised from more faces needed)."""
    width = b.width
    if k == b.last:
        return sum(len(ks) << width * c for c, ks in _where(b, p).items())
    lv, cap = b.levels[k], b.cap
    tally: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
    for rs in lv.rs:
        child = _step(lv, rs, p, ls, cap)
        tally[child] = tally.get(child, 0) + 1
    hist = 0
    for (q, lq, c), times in tally.items():
        n2 = need - c if need > c else 0
        if cap and sum(lq) + lv.free < cap * n2:
            continue  # cannot close n2 more faces
        hist += times * _hist(b, k + 1, q, lq, n2) << width * c
    return hist


def _collect(b: _Scan, k: int, p: tuple[int, ...], ls: tuple[int, ...], need: int) -> list[int]:
    """The indices of the completions of state ``p`` at level ``k`` with ``need`` more faces.

    The walk goes level by level, and the partial indices that reach one
    state with one face count still needed are stepped on together, so no
    state is stepped twice for one count.
    """
    width, cap = b.width, b.cap
    mask = (1 << width) - 1
    frontier = {(p, need): (ls, [0])}
    while k < b.last:
        lv, place = b.levels[k], b.place[k]
        below: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], list[int]]] = {}
        for (p, need), (ls, bases) in frontier.items():
            for d, rs in enumerate(lv.rs):
                q, lq, c = _step(lv, rs, p, ls, cap)
                n2 = need - c
                if n2 < 0 or cap and sum(lq) + lv.free < cap * n2:
                    continue
                if _hist(b, k + 1, q, lq, n2) >> width * n2 & mask:
                    off = d * place
                    got = below.get((q, n2))
                    if got is None:
                        below[q, n2] = (lq, [i + off for i in bases])
                    else:
                        got[1].extend([i + off for i in bases])
        frontier, k = below, k + 1
    place = b.place[k]
    out: list[int] = []
    for (p, need), (_, bases) in frontier.items():
        for d in _where(b, p).get(need, ()):
            off = d * place
            out.extend([i + off for i in bases])
    return out


def _start(
    orders: list[list[tuple[int, ...]]], nd: int, bounded: bool
) -> tuple[_Scan, int, tuple[int, ...], tuple[int, ...], int]:
    """The scan of the product of ``orders``, stepped through its one-order levels.

    Returns the scan, the first level that branches, its state and walk
    lengths (capped at ell when ``bounded``, else none kept), and the faces
    closed on the way.
    """
    vertex_of = [0] * nd
    for v, o in enumerate(orders):
        for d in o[0]:
            vertex_of[d] = v
    seq = _elimination_order(orders, vertex_of)
    levels = _levels(orders, seq, vertex_of)
    places = [1]
    for o in orders:
        places.append(places[-1] * len(o))
    cap = _shortest_face(orders, vertex_of) if bounded else 0
    b = _Scan(levels, [places[w] for w in seq], places[-1], cap)
    # The one-order levels come first; each adds digit 0 to an index.
    k, p, ls, closed = 0, (), (), 0
    while k < b.last and len(levels[k].rs) == 1:
        p, ls, c = _step(levels[k], levels[k].rs[0], p, ls, cap)
        closed += c
        k += 1
    return b, k, p, ls, closed


def scan(orders: list[list[tuple[int, ...]]], nd: int, target_f: int) -> tuple[list[int], list[int]]:
    """Count faces for every system of the product of ``orders``; collect those with ``target_f`` faces.

    Every vertex needs at least one order.  Returns the histogram over face
    counts ``0..nd+1`` and the matching indices in ascending order.
    """
    b, k, p, ls, closed = _start(orders, nd, False)
    top = _hist(b, k, p, ls, 0)
    mask = (1 << b.width) - 1
    hist = [0] * (nd + 2)
    for f in range(closed, nd + 2):
        hist[f] = top >> b.width * (f - closed) & mask
    found: list[int] = []
    if 0 <= target_f - closed and top >> b.width * (target_f - closed) & mask:
        found = sorted(_collect(b, k, p, ls, target_f - closed))
    return hist, found


def matches(orders: list[list[tuple[int, ...]]], nd: int, target_f: int) -> list[int]:
    """The indices, ascending, of the systems of the product of ``orders`` with ``target_f`` faces.

    Every vertex needs at least one order.  The same as ``scan(orders, nd,
    target_f)[1]``, but states whose open walks are too short to close the
    faces still needed are not expanded (see the module docstring).
    """
    b, k, p, ls, closed = _start(orders, nd, True)
    need, cap = target_f - closed, b.cap
    if need < 0:
        return []
    # The least capped length the walks below a level can sum to: at most
    # ``pairs`` of them are two darts long, the rest three or more.
    two, three = min(2, cap), min(3, cap)
    if all(three * len(lv.heads) - (three - two) * lv.pairs + lv.free >= cap * need for lv in b.levels[k : b.last - 1]):
        b.cap, ls = 0, ()  # no state above the last level can fall short
    if not _hist(b, k, p, ls, need if b.cap else 0) >> b.width * need & (1 << b.width) - 1:
        return []
    return sorted(_collect(b, k, p, ls, need))
