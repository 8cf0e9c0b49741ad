"""The rotation space of a graph, its pinned subspace and the orbit pass of Aut(G) on it.

A :class:`RotationSpace` numbers the rotation systems of a graph, pins one
vertex to one order per orbit of its stabiliser (joined by reversal) and,
when that leaves one order, a second vertex to one order per orbit of what
keeps it, and walks the orbits of Aut(G) x mirror within that pinned
subspace, handing each orbit's first member to its caller as it decoded it,
so no caller decodes a system.  Both pins find their orbits by one walk over
a vertex's orders (:meth:`RotationSpace._firsts`).  The automorphisms it
applies come from one stabiliser chain rebased at the first pinned vertex
(:func:`canon._automorphism_chain`), by sifting, so no list of the group is
ever built.  :mod:`rotsys.enumeration` drives it.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from . import _kernel
from .canon import _automorphism_chain, _check_guard
from .core import MultiGraph

# An automorphism acts on dart positions (see RotationSpace) as ``(fwd, inv)``:
# the bytes of each position's image and of its preimage, extended to 256
# entries by the identity, so that either one serves as a translate table.
Element = tuple[bytes, bytes]
# An Element with a flip flag: a flipped element acts on cyclic orders composed
# with the mirror, as one that reverses the pinned order it keeps must.
Flipped = tuple[bytes, bytes, bool]
IDENTITY = bytes(range(256))


def _compose(a: Element, b: Element) -> Element:
    """``a`` applied after ``b``: one ``bytes.translate`` for each direction."""
    return b[0].translate(a[0]), a[1].translate(b[1])


def _products(levels: list[list[Element]]) -> Iterator[Element]:
    """Every product ``t_1 ... t_k`` of one element per level, depth first."""

    def walk(node: Element, i: int) -> Iterator[Element]:
        if i == len(levels):
            yield node
        else:
            for t in levels[i]:
                yield from walk(_compose(node, t), i + 1)

    return walk((IDENTITY, IDENTITY), 0)


class _Rebased(NamedTuple):
    """Aut(G) from its stabiliser chain rebased at a vertex w, on dart positions.

    The chain's base runs w, then w's neighbours, then the other vertices
    (see :func:`canon._automorphism_chain`), so the levels after w's make
    up w's stabiliser: those of the neighbours and of the parallel classes
    at w act on w's darts, and the products of the others fix them all.
    """

    vertex: int  # w (0-based)
    order: int  # |Aut G|, the product of the level sizes
    moving: dict[int, Element]  # per vertex u of w's orbit, one automorphism taking w to u
    near: list[tuple[int, int, dict[int, Element] | None]]  # per neighbour b: a position toward b, b, b's level
    acting: list[list[Element]]  # the levels that act on w's darts
    fixing: list[list[Element]]  # the levels whose products fix every dart at w


class RotationSpace:
    """The space of rotation systems of a graph, and its pinned subspace, indexable by integer.

    Vertex ``v`` contributes ``(deg(v) - 1)!`` cyclic orders (least dart
    pinned first); systems are numbered in mixed radix with vertex 1 as the
    fastest digit.  The pinned subspace keeps only the representative
    orders at the vertex with the most orders (see :attr:`_pinned`) and,
    when it keeps one, the least order of each orbit at a second vertex
    (see :attr:`_pins`); both come from one walk over a vertex's orders
    (:meth:`_firsts`).  Every class, up to isomorphism and mirror image,
    has a member there, so the orbit pass works in it alone.  Aut(G), which
    the pins and the orbit pass act with, is one stabiliser chain rebased at
    that vertex (:attr:`_chain`), built once per space like the tables, the
    pins and the landing lists; no list of the whole group is ever built.
    """

    def __init__(self, graph: MultiGraph):
        self.graph = graph
        self.orders = _kernel.build_orders(list(graph.darts_at))
        self.counts = [len(o) for o in self.orders]
        self.total = math.prod(self.counts)
        self._holdings: dict[int, list[Flipped]] = {}
        self._landings: dict[tuple[int, int], list[Element]] = {}

    @cached_property
    def pinned_orders(self) -> list[list[tuple[int, ...]]]:
        """The order lists of the pinned subspace: at each pinned vertex, its kept orders only (see :attr:`_pins`).

        They are shared, so callers must not change them.
        """
        orders = list(self.orders)
        for w, kept in self._pins:
            orders[w] = [orders[w][d] for d in kept]
        return orders

    # Images under Aut(G) are computed on dart *positions*: the darts
    # numbered contiguously by vertex, in ``graph.darts_at`` order.  A
    # system is the bytes ``succ`` of the position of each position's
    # rotation successor, and an automorphism an :data:`Element`; the image
    # of the system is the conjugate ``fwd[succ[inv[p]]]``, two translates.
    # Darts fit a byte (the size guard is checked before the positions are
    # built), and unlike small tuples, freed bytes are not kept on the
    # interpreter's free lists.

    @cached_property
    def _positions(self) -> tuple[bytes, bytes]:
        """The dart at each position, and the position of each dart."""
        _check_guard(self.graph.n, self.graph.edge_count)
        darts = bytes(d for ds in self.graph.darts_at for d in ds)
        position = bytearray(len(darts))
        for p, d in enumerate(darts):
            position[d] = p
        return darts, bytes(position)

    @cached_property
    def _ends(self) -> tuple[bytes, bytes]:
        """Translate tables of each position's partner: its position, and its vertex (0-based)."""
        darts, position = self._positions
        dv = self.graph.dart_vertex
        pad = bytes(256 - len(darts))
        return bytes(position[d ^ 1] for d in darts) + pad, bytes(dv[d ^ 1] - 1 for d in darts) + pad

    @cached_property
    def _vertex_tables(self) -> list[tuple[slice, list[bytes], dict[bytes, int], list[int]]]:
        """Per vertex: the slice of its positions, its keys, its table and its mirror digits.

        The key of each cyclic order of :attr:`orders`, in digit order, is
        its slice of ``succ``: the position of each position's successor.
        The table maps it back to the digit; the mirror digits give the
        digit of each order's reversal.  Vertices of one degree share the
        work: their keys are the first one's shifted to their positions,
        and their mirror digits are the first one's.
        """
        position = self._positions[1]  # the size guard, before any position is written to a byte
        position += bytes(256 - len(position))  # a translate table
        firsts: dict[int, tuple[int, list[bytes], list[int]]] = {}  # per degree: its first vertex's start, keys, mirrors
        tables = []
        start = 0
        for orders in self.orders:
            k = len(orders[0])
            if k in firsts:
                first, keys, rev = firsts[k]
                shift = bytes(first) + bytes(range(start, start + k)) + bytes(256 - first - k)
                keys = [key.translate(shift) for key in keys]
            else:
                keys = []
                for cyc in orders:
                    p = bytes(cyc).translate(position)  # the positions, in cyclic order
                    keys.append(bytes.maketrans(p, p[1:] + p[:1])[start : start + k])
                digit = {cyc: i for i, cyc in enumerate(orders)}
                rev = [digit[cyc[:1] + cyc[:0:-1]] for cyc in orders]
                firsts[k] = start, keys, rev
            tables.append((slice(start, start + k), keys, {key: i for i, key in enumerate(keys)}, rev))
            start += k
        return tables

    @cached_property
    def _chain(self) -> _Rebased:
        """Aut(G) from :func:`canon._automorphism_chain` rebased at the pinned vertex w, on dart positions.

        w has the most cyclic orders, the lowest on ties; the base runs w,
        then w's neighbours, then the other vertices.
        """
        g = self.graph
        w = self.counts.index(max(self.counts))
        darts, position = self._positions
        nd = len(darts)
        pad, tail = bytes(256 - nd), bytes(range(nd, 256))
        position += pad
        cut = self._vertex_tables[w][0]
        far = self._ends[1]
        toward: dict[int, int] = {}  # each neighbour -> the first position at w toward it
        for p in range(cut.start, cut.stop):
            toward.setdefault(far[p], p)
        base = [w, *toward, *(x for x in range(g.n) if x != w and x not in toward)]
        levels = []
        for level in _automorphism_chain(g, [x + 1 for x in base]):
            elements = {}
            for point, t in level:
                fwd = darts.translate(t + pad).translate(position)
                elements[point - nd if point >= nd else point] = (
                    fwd + tail, bytes(sorted(range(nd), key=fwd.__getitem__)) + tail
                )
            levels.append((level[0][0], elements))
        dv = g.dart_vertex
        vertex_levels = {b - nd: e for b, e in levels if b >= nd}
        acts = [b - nd in toward if b >= nd else w + 1 in (dv[b], dv[b ^ 1]) for b, _ in levels]
        return _Rebased(
            vertex=w,
            order=math.prod(len(e) for _, e in levels),
            moving=vertex_levels.get(w, {w: (IDENTITY, IDENTITY)}),
            near=[(p, b, vertex_levels.get(b)) for b, p in toward.items()],
            acting=[list(e.values()) for (_, e), a in zip(levels, acts) if a],
            fixing=[list(e.values()) for (b, e), a in zip(levels, acts) if not a and b != nd + w],
        )

    def _cycle(self, digit: int) -> bytes:
        """The positions of order ``digit`` at the pinned vertex, in cyclic order."""
        position = self._positions[1]
        return bytes(position[d] for d in self.orders[self._chain.vertex][digit])

    def _sift(self, phi: bytes) -> Element | None:
        """The automorphism fixing the pinned vertex v that maps its darts as ``phi`` does, from :attr:`_chain`; ``None`` if none does.

        ``phi`` holds the image of each of v's positions, in order.  For
        each neighbour, the image of a dart toward it names the image of
        the neighbour; its level's element giving that image (the identity
        for no move) is divided out of ``phi``, as in Sims's sifting.  What
        is left must keep every dart toward the neighbour it leads to, and
        then only permutes the darts within parallel classes at v: those
        bijections are automorphisms, built here directly.
        """
        partner, far = self._ends
        cut = self._vertex_tables[self._chain.vertex][0]
        fwd = inv = IDENTITY
        for p, b, level in self._chain.near:
            y = far[phi[p - cut.start]]
            if y != b:
                t = level and level.get(y)
                if not t:
                    return None
                phi = phi.translate(t[1])
                fwd, inv = t[0].translate(fwd), inv.translate(t[1])
        if phi.translate(far) != far[cut]:
            return None
        c, c_inv = bytearray(IDENTITY), bytearray(IDENTITY)
        for p, q in enumerate(phi, cut.start):
            c[p], c[partner[p]] = q, partner[q]
            c_inv[q], c_inv[partner[q]] = p, partner[p]
        return bytes(c).translate(fwd), inv.translate(c_inv)

    def _aligned(self, a: int, b: int, first: bool = False) -> list[Flipped]:
        """The automorphisms fixing the pinned vertex v that carry its order ``a`` onto ``b`` or ``b``'s reversal, one per map of v's darts.

        Each of the ``deg`` rotations of ``a``'s cycle onto a target's maps
        v's darts, and is kept when :meth:`_sift` finds an automorphism
        making it; its flag tells whether it lands on the reversal (never
        when ``b`` is its own reversal).  With ``first``, the search stops
        at the first one.
        """
        cut, _, _, rev = self._vertex_tables[self._chain.vertex]
        k = cut.stop - cut.start
        where = bytearray(k)  # the place of each of v's positions in a's cycle
        for i, p in enumerate(self._cycle(a)):
            where[p - cut.start] = i
        pad = bytes(256 - k)
        found = []
        for target in dict.fromkeys((b, rev[b])):
            cycle = self._cycle(target) * 2
            for j in range(k):
                s = self._sift(where.translate(cycle[j : j + k] + pad))
                if s is not None:
                    found.append((*s, target != b))
                    if first:
                        return found
        return found

    def _firsts(self, w: int, acting: list[Flipped]) -> list[int]:
        """For each cyclic order of vertex ``w`` (0-based), by digit, the least order of its orbit under ``acting``.

        ``acting`` is a group, each element acting on ``w``'s orders as
        rho -> h rho, or as rho -> rev(h rho) when it is flipped.  The digits
        are walked in order, so each orbit is met first at its least order,
        and every element is applied to that order.
        """
        cut, keys, table, rev = self._vertex_tables[w]
        acting = [(f, i[cut], flip) for f, i, flip in acting]
        first = [-1] * len(keys)
        for digit in range(len(keys)):
            if first[digit] < 0:
                succ = bytes(cut.start) + keys[digit] + bytes(256 - cut.stop)
                for f, i, flip in acting:
                    x = table[i.translate(succ).translate(f)]
                    first[rev[x] if flip else x] = digit
        return first

    @cached_property
    def _pinned(self) -> tuple[int, list[int]]:
        """The pinned vertex v (0-based), and for each of its cyclic orders the least order of its orbit under v's stabiliser in Aut(G), joined by reversal.

        v is :attr:`_chain`'s vertex, the one with the most cyclic orders
        (the lowest on ties).  The least order of each orbit is its
        representative.

        An element of that group, or its composite with reversal, maps a
        system to one of its class up to mirror image and sends the order
        at v to any other of its orbit, so every class has a member whose
        order there is a representative, or a mirror image with one.

        The stabiliser is P K: P, the maps it makes on v's darts, has order
        the product of the chain's levels acting there, and K is
        :attr:`_fixing`.  So by orbit-stabiliser digit 0's orbit under it
        and the mirror has ``2|P||K| / |H|`` orders, H being
        :meth:`_holding`'s for order 0.  When that is all of them, as at
        theta(m)'s vertices, the ``2 deg`` sifts that build H settle the
        vertex.  Otherwise :meth:`_firsts` walks the orders under every
        element of P, once as it is and once flipped.  With one
        representative, :attr:`_pins` pins a second vertex.
        """
        w = self._chain.vertex
        acting = self._chain.acting
        if 2 * math.prod(map(len, acting)) * len(self._fixing) == len(self._holding(0)) * self.counts[w]:
            return w, [0] * self.counts[w]
        return w, self._firsts(w, [(f, i, flip) for f, i in _products(acting) for flip in (False, True)])

    @cached_property
    def _fixing(self) -> list[Element]:
        """The automorphisms that fix every dart at the pinned vertex."""
        return list(_products(self._chain.fixing))

    def _holding(self, r: int) -> list[Flipped]:
        """The automorphisms fixing the pinned vertex that keep its order ``r``, a representative, or reverse it, each flagged when it reverses it.

        They are :meth:`_aligned`'s from ``r`` onto ``r``, each times every
        element of :attr:`_fixing`, which keeps the flag as it keeps every
        dart at v; each ``inv`` is cut to the darts, as :meth:`orbits`
        applies it.  The list is built on first need and kept.
        """
        found = self._holdings.get(r)
        if found is None:
            nd = 2 * self.graph.edge_count
            found = self._holdings[r] = [
                (f, i[:nd], a[2]) for a in self._aligned(r, r) for f, i in (_compose(a, k) for k in self._fixing)
            ]
        return found

    @cached_property
    def _pins(self) -> list[tuple[int, list[int]]]:
        """The pinned vertices (0-based), each with the digits of the orders it keeps.

        The first is :attr:`_pinned`'s vertex v with its representatives.
        When v keeps one, r, a second vertex u is pinned under H, the
        automorphisms of :meth:`_holding` for r.  Those of H that fix a
        vertex act on its orders, each flipped one composed with the mirror
        so that it keeps r at v, and :meth:`_firsts` walks them.  So each
        class's member with r at v goes by H to one with the least order of
        its orbit at u, the order u keeps.  u is the vertex with the fewest
        orbits per order, the lowest on ties; none is pinned when every
        vertex has as many orbits as orders.
        """
        v, first = self._pinned
        pins = [(v, sorted(set(first)))]
        if len(pins[0][1]) > 1:
            return pins
        holding = self._holding(0)
        candidates = []  # per vertex but v: its orbits per order, the vertex and its kept digits
        for w, (cut, keys, _, _) in enumerate(self._vertex_tables):
            if w != v:
                kept = sorted(set(self._firsts(w, [h for h in holding if cut.start <= h[0][cut.start] < cut.stop])))
                candidates.append((len(kept) / len(keys), w, kept))
        ratio, u, kept = min(candidates)  # a loopless graph with an edge has a second vertex
        return pins + [(u, kept)] if ratio < 1 else pins

    def _landing(self, u: int, digit: int) -> list[Element]:
        """The automorphisms that take vertex ``u`` with order ``digit`` to a representative at the first pinned vertex.

        They map ``u`` to the pinned vertex v, and the order to a
        representative there or to a representative's reversal; so they are
        the automorphisms whose image of a system with that order at ``u``,
        or the image's reversal, has a representative at v, as every image
        in the pinned subspace has.  One automorphism t
        of :attr:`_chain` takes ``u`` to v, and the order to one in
        the orbit of a representative r.  If that order is neither r nor its
        reversal, one sifted alignment q carries it there; the others are
        those of :meth:`_holding` for r after q t.  The list is built on
        first need and kept.
        """
        found = self._landings.get((u, digit))
        if found is None:
            v, least = self._pinned
            found = []
            move = self._chain.moving.get(u)
            if move is not None:
                t = move[1], move[0]
                cut_u, keys, _, _ = self._vertex_tables[u]
                cut_v, _, table, rev = self._vertex_tables[v]
                succ = bytes(cut_u.start) + keys[digit] + bytes(256 - cut_u.stop)
                at = table[t[1][cut_v].translate(succ).translate(t[0])]
                r = least[at]
                if at != r and at != rev[r]:
                    t = _compose(self._aligned(at, r, first=True)[0], t)
                found = [_compose(h, t) for h in self._holding(r)]
            self._landings[u, digit] = found
        return found

    def _system(self, index: int) -> tuple[list[int], bytes]:
        """System ``index`` of the pinned subspace: its digit in :attr:`orders` at each vertex, and its ``succ``, padded to 256 bytes."""
        digits = []
        for orders in self.pinned_orders:
            index, digit = divmod(index, len(orders))
            digits.append(digit)
        for w, kept in self._pins:
            digits[w] = kept[digits[w]]
        succ = b"".join(keys[d] for (_, keys, _, _), d in zip(self._vertex_tables, digits))
        return digits, succ + bytes(256 - len(succ))

    def faces(self, succ: bytes) -> int:
        """The face count of a system given as its ``succ``, as :meth:`orbits` yields it: the cycles of ``p -> succ[partner[p]]`` on dart positions."""
        step = self._ends[0][: 2 * self.graph.edge_count].translate(succ)
        seen = bytearray(len(step))
        faces = 0
        for p in range(len(step)):
            faces += not seen[p]
            while not seen[p]:
                seen[p] = 1
                p = step[p]
        return faces

    def orbits(self, indices: Sequence[int]) -> Iterator[tuple[int, int, int, bool, list[int], bytes]]:
        """First index, size, group order and achirality of each orbit met in ``indices``, in their order, and that first member.

        The member is given as the pass decoded it (:meth:`_system`): its
        digit in :attr:`orders` at each vertex, from which a caller reads
        its rotations, and its ``succ``, whose faces :meth:`faces` counts.

        ``indices`` number systems of the pinned subspace (see
        :attr:`pinned_orders`).  Two systems of one labelled graph are
        isomorphic exactly when an automorphism of the graph maps one onto
        the other, so the orbits under Aut(G) are the iso classes, and with
        the reversals of the images they are the equivalence classes, the
        orbits under Aut(G) x mirror walked here.  An achiral orbit is one
        iso class; a chiral one is two, each the mirror of the other.  Each
        system met has its images in the subspace marked, so later members
        of its orbit are skipped.  Images keep the face count: given the
        matches of a pinned scan, every matching class is met once.

        Only the automorphisms of :meth:`_landing`, for each vertex and the
        system's order there, are applied (40 of K5's 120), whatever the
        size of the group; an image that misses the orders kept at a second
        pinned vertex is dropped.  They include every one that maps the system to
        itself, whose number is its group order, and every one that maps it
        to its reversal, which exists exactly when it is achiral; both hold
        for the whole class.  The orbit's size in the whole space is, by
        orbit-stabiliser, ``2 |Aut G| / (order (1 + achiral))``.

        Marks go in a bitmap of ``ceil(subspace / 8)`` bytes, or in a set
        when ``indices`` are too few for the bitmap to pay (a set entry
        costs about 64 bytes).  The tables and automorphism lists used are
        kept on the space and shared with later passes.
        """
        vertices = self._vertex_tables
        rebased = self._chain
        counts = [len(orders) for orders in self.pinned_orders]
        places = [math.prod(counts[:w]) for w in range(len(counts))]
        total = math.prod(counts)
        pinned = dict(self._pins)
        # Per vertex: its slice and, for each key, the part of the index it
        # gives an image and the image's reversal.  A pinned vertex lists
        # the keys it keeps or whose reversal it keeps, with -total for the
        # part a key does not give, so an index below 0 lies outside.
        pins, rest = [], []
        for w, (cut, keys, _, rev) in enumerate(vertices):
            kept = pinned.get(w, range(len(keys)))
            straight = {keys[d]: k * places[w] for k, d in enumerate(kept)}
            mirrored = {keys[rev[d]]: k * places[w] for k, d in enumerate(kept)}
            if w in pinned:
                both = straight.keys() | mirrored.keys()
                pins.append((cut, {key: (straight.get(key, -total), mirrored.get(key, -total)) for key in both}))
            else:
                rest.append((cut, straight, mirrored))
        miss = -total, -total
        sources = sorted(rebased.moving)
        bits = bytearray(-(-total // 8)) if len(indices) * 512 >= total else None
        marked: set[int] = set()
        for index in indices:
            if (index in marked) if bits is None else bits[index >> 3] >> (index & 7) & 1:
                continue
            digits, succ = self._system(index)
            hits = []
            order = 0
            achiral = False
            for fwd, inv in chain.from_iterable(self._landing(u, digits[u]) for u in sources):
                image = inv.translate(succ).translate(fwd)
                j = jm = 0
                for cut, both in pins:
                    a, b = both.get(image[cut], miss)
                    j += a
                    jm += b
                if j >= 0:
                    for cut, straight, _ in rest:
                        j += straight[image[cut]]
                    order += j == index
                    hits.append(j)
                if jm >= 0:
                    for cut, _, mirrored in rest:
                        jm += mirrored[image[cut]]
                    achiral = achiral or jm == index
                    hits.append(jm)
            for j in hits:
                if bits is None:
                    marked.add(j)
                else:
                    bits[j >> 3] |= 1 << (j & 7)
            yield index, 2 * rebased.order // (order * (1 + achiral)), order, achiral, digits, succ
