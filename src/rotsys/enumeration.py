r"""Exhaustive rotation-system enumeration and the guided expansion pipelines.

The two ways to the same answer:

* scan every rotation system of a graph (all products of cyclic orders),
  filter by genus or face count, and deduplicate canonically;
* expand small one-face embeddings by genus-preserving surgery, stage by
  stage, deduplicating after every stage.

Both are implemented here and cross-checked by the verification suites.
The expansion chains start from the three one-face rotation systems of the
five-edge theta graph on the double torus (automorphism group orders 2, 10
and 5), which the chord-diagram analysis shows to be the only ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import _kernel
from .canon import (
    DedupMode,
    EmbeddingClass,
    _automorphism_chain,
    _check_guard,
    _check_mode,
    _graph_tables,
    _orbit_classes,
    _same_graph,
    _stage_classes,
    dedup,
)
from .core import (
    BudgetExceeded,
    Embedding,
    InvalidEmbedding,
    MultiGraph,
    RotsysError,
    _check_connected,
    complete,
    complete_bipartite,
    k4_plus,
    k5_minus_edge,
    make_embedding,
    theta,
    triangle_multi,
    wheel,
)
from .polygon import PolygonWord, word_key
from .surgery import (
    CornerRef,
    SplitSpec,
    add_edge_in_face,
    all_splits,
    split_vertex,
    subdivide_edge,
)

DEFAULT_BUDGET = 10**9

# Automorphism groups up to this order are kept on each RotationSpace, as
# forward and inverse position permutations (about 4.8 MB at 40 edges),
# with the lists of those that land in the pinned subspace; larger ones are
# walked again from the space's stabiliser chain for every orbit and every
# pin representative.
MAX_STORED_AUTOMORPHISMS = 1 << 14


class RotationSpace:
    """The space of rotation systems of a graph, and its pinned subspace, indexable by integer.

    Vertex ``v`` contributes ``(deg(v) - 1)!`` cyclic orders (least dart
    pinned first); systems are numbered in mixed radix with vertex 1 as the
    fastest digit.  The pinned subspace keeps only the representative
    orders at the vertex that :attr:`_pin` chooses, whose digit then runs
    over those; every class, up to isomorphism and mirror image, has a
    member there, so the orbit pass works in it alone.  The automorphism
    group of the graph, which the orbit pass and the pin act with, is built
    once per space, as a stabiliser chain (see
    :func:`canon._automorphism_chain`) whose products are its elements; so
    are the position and vertex tables they use, the pin and, up to
    :data:`MAX_STORED_AUTOMORPHISMS`, the list of those products and the
    lists of those that land in the pinned subspace.
    """

    def __init__(self, graph: MultiGraph):
        self.graph = graph
        self.orders = _kernel.build_orders(list(graph.darts_at))
        self.counts = [len(o) for o in self.orders]
        self.total = math.prod(self.counts)
        self._moved: dict[tuple[int, int], list[tuple[bytes, bytes]]] = {}
        self._landings: dict[tuple[int, int], list[tuple[bytes, bytes]]] = {}

    @cached_property
    def pinned_orders(self) -> list[list[tuple[int, ...]]]:
        """The order lists of the pinned subspace: at the pinned vertex, its representatives only.

        They are shared, so callers must not change them.
        """
        v, reps = self._pin
        orders = list(self.orders)
        orders[v] = [orders[v][d] for d in reps]
        return orders

    def embedding_at(self, index: int) -> Embedding:
        """System ``index`` of the pinned subspace."""
        rotations = []
        for orders in self.pinned_orders:
            index, digit = divmod(index, len(orders))
            rotations.append(orders[digit])
        # orders are least-dart-first, i.e. already normalized
        return Embedding(self.graph, tuple(rotations))

    # Images under Aut(G) are computed on dart *positions*: the darts
    # numbered contiguously by vertex, in ``graph.darts_at`` order.  A
    # system is the bytes ``succ`` of the position of each position's
    # rotation successor, and an automorphism the bytes ``fwd`` of each
    # position's image and ``inv`` of its preimage; the image of the system
    # is the conjugate ``fwd[succ[inv[p]]]``, two translates.  Darts fit a
    # byte (the size guard is checked before the positions are built), and
    # unlike small tuples, freed bytes are not kept on the interpreter's
    # free lists.

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
    def _vertex_tables(self) -> list[tuple[slice, list[bytes], dict[bytes, int], list[int]]]:
        """Per vertex: the slice of its positions, its keys, its table and its mirror digits.

        The key of each cyclic order, in digit order, is its slice of
        ``succ``, and the table maps it back to the digit; the mirror digits
        give the digit of each order's reversal.
        """
        position = self._positions[1]

        def successors(cyc: tuple[int, ...], start: int) -> bytes:
            out = bytearray(len(cyc))
            for d, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                out[position[d] - start] = position[nxt]
            return bytes(out)

        tables = []
        start = 0
        for orders in self.orders:
            end = start + len(orders[0])
            keys = [successors(cyc, start) for cyc in orders]
            table = {key: digit for digit, key in enumerate(keys)}
            tables.append((slice(start, end), keys, table, [table[successors(cyc[::-1], start)] for cyc in orders]))
            start = end
        return tables

    @cached_property
    def _chain(self) -> list[list[tuple[bytes, bytes]]]:
        """Aut(G) as the levels of :func:`canon._automorphism_chain`, built once per space.

        Each element is ``(fwd, inv + pad)``: its position permutation and
        the inverse of that (the positions sorted by their image), padded as
        a translate table.
        """
        darts, position = self._positions
        nd = len(darts)
        pad = bytes(256 - nd)
        position += pad
        chain = []
        for level in _automorphism_chain(self.graph):
            fwds = [darts.translate(t[:nd] + pad).translate(position) for _, t in level]
            chain.append([(fwd, bytes(sorted(range(nd), key=fwd.__getitem__)) + pad) for fwd in fwds])
        return chain

    def _conjugations(self) -> Iterator[tuple[bytes, bytes]]:
        """Every automorphism of the graph as ``(fwd, inv)`` position permutations.

        They are the products ``t_1 ... t_k`` of one element per level of
        the chain, walked depth first: a node's ``fwd`` is its parent's
        composed with the level's element, ``inv(t_k) ... inv(t_1)`` its
        inverse, one ``bytes.translate`` each.
        """
        chain = self._chain
        identity = bytes(range(2 * self.graph.edge_count))
        pad = bytes(256 - len(identity))

        def walk(fwd: bytes, inv: bytes, i: int) -> Iterator[tuple[bytes, bytes]]:
            table = fwd + pad
            if i + 1 < len(chain):
                for t, t_inv in chain[i]:
                    yield from walk(t.translate(table), inv.translate(t_inv), i + 1)
            else:
                for t, t_inv in chain[i]:
                    yield t.translate(table), inv.translate(t_inv)

        return walk(identity, identity, 0) if chain else iter(((identity, identity),))

    @cached_property
    def _stored_conjugations(self) -> list[tuple[bytes, bytes]] | None:
        """Aut(G) as a list, built once per space, or ``None`` above :data:`MAX_STORED_AUTOMORPHISMS`."""
        if math.prod(map(len, self._chain)) > MAX_STORED_AUTOMORPHISMS:
            return None
        return list(self._conjugations())

    def _moving(self, u: int, w: int) -> Iterable[tuple[bytes, bytes]]:
        """The automorphisms that map vertex ``u`` to ``w`` (0-based).

        A stored group gives a list, built on first need and kept; a larger
        one is walked again from the chain.
        """
        cut_u, cut_w = self._vertex_tables[u][0], self._vertex_tables[w][0]
        stored = self._stored_conjugations
        found = (x for x in stored or self._conjugations() if cut_w.start <= x[0][cut_u.start] < cut_w.stop)
        if stored is None:
            return found
        if (u, w) not in self._moved:
            self._moved[u, w] = list(found)
        return self._moved[u, w]

    def _landing(self, u: int, digit: int) -> list[tuple[bytes, bytes]]:
        """The stored automorphisms that take vertex ``u`` with order ``digit`` into the pinned subspace.

        They map ``u`` to the pinned vertex, and the order to a
        representative there or to a representative's reversal; so they are
        the automorphisms whose image of a system with that order at ``u``,
        or the image's reversal, lies in the subspace.  The list is built on
        first need and kept.
        """
        found = self._landings.get((u, digit))
        if found is None:
            v, reps = self._pin
            (cut_u, keys, _, _), (cut_v, _, table, rev) = self._vertex_tables[u], self._vertex_tables[v]
            lands = {*reps, *(rev[r] for r in reps)}
            pad = bytes(256 - 2 * self.graph.edge_count)
            succ = bytes(cut_u.start) + keys[digit] + bytes(256 - cut_u.stop)
            found = self._landings[u, digit] = [
                (fwd, inv) for fwd, inv in self._moving(u, v)
                if table[inv.translate(succ).translate(fwd + pad)[cut_v]] in lands
            ]
        return found

    def orbits(self, indices: Sequence[int]) -> Iterator[tuple[int, int, int, bool]]:
        """First index, size, group order and achirality of each orbit met in ``indices``, in their order.

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
        system's order there, are applied (40 of K5's 120); a group above
        :data:`MAX_STORED_AUTOMORPHISMS` is walked whole from the chain.
        They include every one that maps the system to itself, whose number
        is its group order, and every one that maps it to its reversal,
        which exists exactly when it is achiral; both hold for the whole
        class.  The orbit's size in the whole space is, by
        orbit-stabiliser, ``2 |Aut G| / (order (1 + achiral))``.

        Marks go in a bitmap of ``ceil(subspace / 8)`` bytes, or in a set
        when ``indices`` are too few for the bitmap to pay (a set entry
        costs about 64 bytes).  The tables and automorphism lists used are
        kept on the space and shared with later passes.
        """
        v, reps = self._pin
        vertices = self._vertex_tables
        aut = math.prod(map(len, self._chain))
        pad = bytes(256 - 2 * self.graph.edge_count)
        counts = [len(orders) for orders in self.pinned_orders]
        places = [math.prod(counts[:w]) for w in range(len(counts))]
        total = math.prod(counts)
        rest = [(cut, table, rev, place) for w, ((cut, _, table, rev), place) in enumerate(zip(vertices, places)) if w != v]
        cut_v, _, table_v, rev_v = vertices[v]
        place_v = places[v]
        rep_at = {d: k for k, d in enumerate(reps)}
        stored = self._stored_conjugations
        sources = [u for u in range(len(vertices)) if stored is not None and self._moving(u, v)]
        bits = bytearray(-(-total // 8)) if len(indices) * 512 >= total else None
        marked: set[int] = set()
        for index in indices:
            if (index in marked) if bits is None else bits[index >> 3] >> (index & 7) & 1:
                continue
            digits, high = [], index
            for count in counts:
                high, digit = divmod(high, count)
                digits.append(digit)
            digits[v] = reps[digits[v]]
            succ = b"".join(keys[d] for (_, keys, _, _), d in zip(vertices, digits)) + pad
            hits = []
            order = 0
            achiral = False
            if stored is None:  # walked whole; the images outside the subspace are skipped below
                elements: Iterable[tuple[bytes, bytes]] = self._conjugations()
            else:
                elements = chain.from_iterable(self._landing(u, digits[u]) for u in sources)
            for fwd, inv in elements:
                image = inv.translate(succ).translate(fwd + pad)
                at_v = table_v[image[cut_v]]
                k, km = rep_at.get(at_v), rep_at.get(rev_v[at_v])
                if k is not None:
                    j = k * place_v
                    for cut, table, _, place in rest:
                        j += table[image[cut]] * place
                    order += j == index
                    hits.append(j)
                if km is not None:
                    j = km * place_v
                    for cut, table, rev, place in rest:
                        j += rev[table[image[cut]]] * place
                    achiral = achiral or j == index
                    hits.append(j)
            for j in hits:
                if bits is None:
                    marked.add(j)
                else:
                    bits[j >> 3] |= 1 << (j & 7)
            yield index, 2 * aut // (order * (1 + achiral)), order, achiral

    @cached_property
    def _pin(self) -> tuple[int, list[int]]:
        """A vertex (0-based) and the digits of one order per orbit at it.

        The orbits are those of the vertex's stabiliser in Aut(G), joined by
        reversal, on its cyclic orders; the representative of an orbit is
        its least digit.  An element of that group, or its composite with
        reversal, maps a system to one of its class up to mirror image and
        sends the order at the vertex to any other of its orbit, so every
        class has a member whose order there is a representative, or a
        mirror image with one.  The vertex has the fewest representatives
        per order, the lowest one on ties.  The stabiliser of each vertex
        is collected once (see :meth:`_moving`), and its images are taken
        as in :meth:`orbits`, of a system that has the order at the vertex.
        """
        vertices = self._vertex_tables
        firsts = [keys[0] for _, keys, _, _ in vertices]
        pad = bytes(256 - 2 * self.graph.edge_count)
        best: tuple[int, list[int]] | None = None
        for v, (cut, keys, table, rev) in enumerate(vertices):
            reps = [0]
            if len(keys) > 1:
                reps, seen = [], bytearray(len(keys))
                head, tail = b"".join(firsts[:v]), b"".join(firsts[v + 1:]) + pad
                for digit, key in enumerate(keys):
                    if seen[digit]:
                        continue
                    reps.append(digit)
                    succ = head + key + tail
                    for fwd, inv in self._moving(v, v):
                        image = table[inv.translate(succ).translate(fwd + pad)[cut]]
                        seen[image] = seen[rev[image]] = 1
            if best is None or len(reps) * self.counts[best[0]] < len(best[1]) * len(keys):
                best = v, reps
        assert best is not None
        return best


def rotation_space_size(graph: MultiGraph) -> int:
    """Number of rotation systems of ``graph``, which must be connected with an edge."""
    if graph.edge_count == 0:
        raise InvalidEmbedding("graph has no edges, so it has no rotation systems")
    _check_connected(graph)
    return math.prod(math.factorial(graph.degree(v) - 1) for v in range(1, graph.n + 1))


def _check_budget(graph: MultiGraph, budget: int) -> None:
    """Refuse a space over ``budget`` before any of its orders are built.

    The budget bounds the systems addressed, i.e. the size of the whole
    rotation space, not the work done: a pinned scan covers part of the
    space and expands far fewer states than the systems it covers.
    """
    total = rotation_space_size(graph)
    if total > budget:
        raise BudgetExceeded(total, budget)


def scan_rotation_space(
    graph: MultiGraph,
    target_f: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[dict[int, int], list[int]]:
    """Face-count histogram over all systems, plus indices with ``target_f`` faces.

    ``target_f = -1`` collects no indices (histogram only).
    """
    _check_budget(graph, budget)
    hist, matches = _kernel.scan(RotationSpace(graph).orders, 2 * graph.edge_count, target_f)
    return {f: c for f, c in enumerate(hist) if c}, matches


def _target_faces(graph: MultiGraph, genus: int | None, faces: int | None) -> int:
    if genus is None and faces is None:
        raise ValueError("give a genus or a face count to filter on")
    n, m = graph.n, graph.edge_count
    if genus is not None:
        f = 2 - 2 * genus - n + m
        if faces is not None and faces != f:
            raise ValueError(f"genus {genus} forces f = {f}, not {faces}")
        return f
    assert faces is not None
    return faces


def exhaustive_classes(
    graph: MultiGraph,
    *,
    genus: int | None = None,
    faces: int | None = None,
    mode: DedupMode = "iso",
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> list[EmbeddingClass]:
    """Embedding classes of ``graph`` with the given genus or face count.

    Only the pinned subspace is scanned for the face count: the systems
    whose order at one vertex is one of its representatives (see
    :attr:`RotationSpace._pin`).  The scan (:func:`_kernel.matches`) lists
    only the systems with that face count, and drops the partial systems
    whose open face walks are too short to close as many faces; it builds
    no histogram.  The matches are then walked in index
    order of the subspace: each one not yet marked starts a new orbit under
    Aut(G) x mirror, which is marked within the subspace (see
    :meth:`RotationSpace.orbits`) and gives its group order and
    achirality.  The class records are built from the orbit's first member
    (see :func:`canon._orbit_classes`): an achiral orbit is one class and
    takes one stream set; a chiral one takes two, for the keys of the
    member and of its reversal, and is two classes in ``iso`` mode and one
    in ``equivalence`` mode.  The records are those :func:`dedup` gives for
    the matches, sorted by canonical key.  ``workers`` has no effect.
    """
    _check_mode(mode)
    f = _target_faces(graph, genus, faces)
    rotation_space_size(graph)  # refuses a graph with no rotation space
    if f < 1:
        return []
    _check_budget(graph, budget)
    space = RotationSpace(graph)
    matches = _kernel.matches(space.pinned_orders, 2 * graph.edge_count, f)
    classes = [
        c for i, _, order, achiral in space.orbits(matches)
        for c in _orbit_classes(space.embedding_at(i), mode, order, achiral)
    ]
    return sorted(classes, key=lambda c: c.canonical_key)


@dataclass(frozen=True)
class GenusRecord:
    """Per-genus class counts of a genus distribution."""

    genus: int
    iso_classes: int
    equivalence_classes: int
    orientable: int
    non_orientable: int
    group_orders: tuple[int, ...]
    raw_systems: int


@dataclass(frozen=True)
class GenusDistribution:
    """Embedding classes of a graph, grouped by genus over the full space."""

    records: tuple[GenusRecord, ...]

    def equivalence_counts(self) -> dict[int, int]:
        return {r.genus: r.equivalence_classes for r in self.records}

    def spectrum(self) -> tuple[int, ...]:
        return tuple(r.genus for r in self.records)

    def total_equivalence(self) -> int:
        return sum(r.equivalence_classes for r in self.records)


def genus_distribution(
    graph: MultiGraph,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> GenusDistribution:
    """Classes per genus across the whole rotation space of ``graph``.

    One sequential pass over the pinned subspace in index order (1,296 of
    K5's 7,776 systems), with no face-count scan and no canonical key: each
    system not yet marked starts a new equivalence class and has its orbit
    under Aut(G) x mirror marked within the subspace (see
    :meth:`RotationSpace.orbits`).  Every class has a member there.  The
    orbit gives the class's group order, achirality and size in the whole
    space, one face trace of its first member gives its genus, and
    ``raw_systems`` sums the orbit sizes.  The counts are those of
    :func:`dedup` over the whole space.  ``workers`` has no effect.
    """
    _check_budget(graph, budget)
    space = RotationSpace(graph)
    by_genus: dict[int, list[tuple[int, int, bool]]] = {}
    for i, size, order, achiral in space.orbits(range(math.prod(map(len, space.pinned_orders)))):
        genus = space.embedding_at(i).face_set.stats.genus
        by_genus.setdefault(genus, []).append((size, order, achiral))
    records = []
    for genus in sorted(by_genus):
        orbits = by_genus[genus]
        non_orientable = sum(achiral for _, _, achiral in orbits)
        records.append(
            GenusRecord(
                genus=genus,
                iso_classes=2 * len(orbits) - non_orientable,
                equivalence_classes=len(orbits),
                orientable=len(orbits) - non_orientable,
                non_orientable=non_orientable,
                group_orders=tuple(sorted(order for _, order, _ in orbits)),
                raw_systems=sum(size for size, _, _ in orbits),
            )
        )
    return GenusDistribution(tuple(records))


def theta_embeddings(
    m: int,
    genus: int,
    *,
    mode: DedupMode = "iso",
    budget: int = DEFAULT_BUDGET,
) -> list[EmbeddingClass]:
    """Classes of the m-edge theta graph at the given genus.

    Every embedding of a theta graph is isomorphic to one whose first
    vertex carries the identity rotation (relabel the edges), so only the
    ``(m - 1)!`` rotations of the second vertex are scanned, and the
    budget bounds that number.  The scan (:func:`_kernel.matches`) lists
    only the rotations with the genus's face count; the matches are then
    deduplicated.
    """
    graph = theta(m)  # refuses m < 1
    f = m - 2 * genus
    if f < 1:
        return []
    if math.factorial(m - 1) > budget:
        raise BudgetExceeded(math.factorial(m - 1), budget)
    u_orders, v_orders = _kernel.build_orders(list(graph.darts_at))
    pinned = [u_orders[:1], v_orders]
    matches = _kernel.matches(pinned, 2 * m, f)
    return dedup((Embedding(graph, (pinned[0][0], v_orders[i])) for i in matches), mode)


# ---------------------------------------------------------------------------
# Chord diagrams: the face pattern of one-face two-vertex embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChordDiagram:
    """A perfect matching on cyclically ordered positions, canonicalized.

    Positions are 0-based around the facial walk of a one-face two-vertex
    embedding; each chord pairs the two traversals of an edge.  Chords join
    positions of opposite parity (the walk alternates between the two
    vertices) and never adjacent positions (no digon face).  The stored
    form is canonical under rotation and reflection: the word signing each
    chord ``+`` at its first position and ``-`` at its second is put in
    :func:`polygon.word_key` form, and the chords are the sorted position
    pairs of the key's letters.
    """

    size: int
    chords: tuple[tuple[int, int], ...]

    @staticmethod
    def canonical(size: int, pairs: list[tuple[int, int]]) -> "ChordDiagram":
        for i, j in pairs:
            if (i - j) % 2 == 0:
                raise ValueError(f"chord {(i, j)} joins positions of equal parity")
            if (i - j) % size in (1, size - 1):
                raise ValueError(f"chord {(i, j)} joins adjacent positions")
        if sorted(p for pair in pairs for p in pair) != list(range(size)):
            raise ValueError(f"chords {pairs} do not pair each of {size} positions once")
        word: list = [None] * size
        for letter, (i, j) in enumerate(pairs, 1):
            word[min(i, j)], word[max(i, j)] = (letter, 1), (letter, -1)
        where: dict[int, list[int]] = {}
        for pos, (letter, _) in enumerate(word_key(PolygonWord(tuple(word)))):
            where.setdefault(letter, []).append(pos)
        return ChordDiagram(size, tuple(sorted(map(tuple, where.values()))))

    def chord_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(min((i - j) % self.size, (j - i) % self.size) for i, j in self.chords))


def face_pattern(e: Embedding) -> ChordDiagram:
    """Chord diagram pairing the two traversals of each edge on the face."""
    if e.graph.n != 2:
        raise RotsysError("face_pattern needs a two-vertex embedding")
    faces = e.face_set
    if faces.stats.f != 1:
        raise RotsysError(f"face_pattern needs one face, got {faces.stats.f}")
    walk = faces.faces[0]
    where: dict[int, list[int]] = {}
    for pos, d in enumerate(walk):
        where.setdefault(d >> 1, []).append(pos)
    return ChordDiagram.canonical(len(walk), [(p[0], p[1]) for p in where.values()])


def _valid_matchings(size: int) -> list[tuple[tuple[int, int], ...]]:
    """All matchings on ``size`` cyclic positions obeying the chord rules."""
    out: list[tuple[tuple[int, int], ...]] = []

    def extend(free: list[int], acc: list[tuple[int, int]]) -> None:
        if not free:
            out.append(tuple(sorted(acc)))
            return
        i = free[0]
        for j in free[1:]:
            if (i - j) % 2 == 0 or (i - j) % size in (1, size - 1):
                continue
            acc.append((i, j))
            extend([x for x in free if x not in (i, j)], acc)
            acc.pop()

    extend(list(range(size)), [])
    return out


@dataclass(frozen=True)
class ChordAnalysis:
    """Case analysis of one-face five-edge theta patterns on ten positions."""

    labelled_classes: tuple[tuple[tuple[int, int], ...], ...]
    canonical_diagrams: tuple[ChordDiagram, ...]
    realizable: tuple[ChordDiagram, ...]
    unrealized: tuple[ChordDiagram, ...]


def theta5_chord_analysis() -> ChordAnalysis:
    """Enumerate the ten-position chord diagrams and mark the realizable ones.

    Labelled classes normalize a matching by rotating a shortest chord, if
    one of length three exists, onto positions (0, 3) -- oriented forward,
    which is where reflection gets spent -- and reading the rest of the
    cycle as is; the only matching without a length-three chord pairs every
    position with its antipode.  Canonical diagrams quotient fully by
    rotation and reflection.  A diagram is realizable when some one-face
    embedding of the five-edge theta graph produces it.
    """
    size = 10
    matchings = _valid_matchings(size)

    labelled = [m for m in matchings if (0, 3) in m]
    labelled += [m for m in matchings if 3 not in ChordDiagram.canonical(size, list(m)).chord_lengths()]

    canonical = sorted(
        {ChordDiagram.canonical(size, list(m)) for m in matchings},
        key=lambda d: d.chords,
    )
    realized = {face_pattern(c.representative) for c in theta_embeddings(5, 2)}
    realizable = tuple(d for d in canonical if d in realized)
    unrealized = tuple(d for d in canonical if d not in realized)
    return ChordAnalysis(tuple(labelled), tuple(canonical), realizable, unrealized)


# ---------------------------------------------------------------------------
# Guided expansion pipelines
# ---------------------------------------------------------------------------

# The three one-face double-torus rotation systems of theta(5), written as
# edge-id rotations at the two vertices; automorphism groups have orders
# 2, 10 and 5.  The chord analysis and the exhaustive scan both confirm
# that these are the only one-face systems up to isomorphism.
THETA5_ROTATIONS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((1, 2, 3, 4, 5), (1, 2, 4, 5, 3)),
    ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
    ((1, 2, 3, 4, 5), (1, 4, 2, 5, 3)),
)


def theta5_embeddings() -> list[Embedding]:
    g = theta(5)
    return [make_embedding(g, rot) for rot in THETA5_ROTATIONS]


def theta5_classes() -> list[EmbeddingClass]:
    """The three double-torus classes of theta(5), from the fixed systems."""
    classes = dedup(theta5_embeddings(), "equivalence")
    assert len(classes) == 3
    return classes


def _edge_additions(e: Embedding, target: MultiGraph) -> list[Embedding]:
    """All single-edge insertions into faces of ``e`` whose graph is isomorphic to ``target``.

    The graph of an insertion is ``e.graph`` plus the new edge, whatever
    its corners, so each vertex pair is tested against ``target`` once, by
    isomorphism, and only the corners of accepted pairs are built.
    """
    g = e.graph
    faces = e.face_set.faces
    dv = g.dart_vertex
    target_tables = _graph_tables(target)
    accepted: dict[tuple[int, int], bool] = {}
    out = []
    for fi, walk in enumerate(faces):
        for i in range(len(walk)):
            for j in range(i + 1, len(walk)):
                x, y = dv[walk[i]], dv[walk[j]]
                if x == y:
                    continue
                pair = (x, y) if x < y else (y, x)
                if pair not in accepted:
                    accepted[pair] = _same_graph(MultiGraph(g.n, g.edges + (pair,)), target, target_tables)
                if accepted[pair]:
                    out.append(add_edge_in_face(e, CornerRef(fi, i), CornerRef(fi, j)))
    return out


def _subdivide_and_join(e: Embedding, target: MultiGraph) -> list[Embedding]:
    """Subdivide each copy of a doubled edge, then join the new vertex in."""
    g = e.graph
    doubled = [
        eid for eid, (u, v) in enumerate(g.edges, start=1) if g.multiplicity(u, v) == 2
    ]
    out = []
    for eid in doubled:
        out.extend(_edge_additions(subdivide_edge(e, eid), target))
    return out


def _path_splits(e: Embedding, vertex: int) -> list[Embedding]:
    """Expand a degree-5 vertex into a path of three (2 + 1 + 2 darts)."""
    out = []
    deg = e.degree(vertex)
    if deg != 5:
        raise ValueError("path expansion expects a degree-5 vertex")
    for s in range(deg):
        first = split_vertex(e, SplitSpec(vertex, s, 2, e.graph.edge_count + 1))
        mid = first.graph.n  # the fresh vertex holding the remaining three darts
        m1_dart = 2 * first.graph.edge_count - 1
        rot_mid = first.rot[mid - 1]
        idx = rot_mid.index(m1_dart)
        out.append(split_vertex(first, SplitSpec(mid, idx, 2, first.graph.edge_count + 1)))
    return out


@dataclass(frozen=True)
class K33PipelineResult:
    """Expansion of the theta(5) classes to complete bipartite K33."""

    theta5: tuple[EmbeddingClass, ...]
    candidates_per_class: tuple[int, ...]
    classes: tuple[EmbeddingClass, ...]


def pipeline_k33_stages() -> K33PipelineResult:
    """Double path splits of the theta(5) classes, filtered to K33, deduped."""
    k33 = complete_bipartite(3, 3)
    theta5 = theta5_classes()
    k33_tables = _graph_tables(k33)
    counts = []
    candidates: list[Embedding] = []
    for c in theta5:
        mine = []
        for first in _path_splits(c.representative, 1):
            mine.extend(emb for emb in _path_splits(first, 2))
        mine = [emb for emb in mine if _same_graph(emb.graph, k33, k33_tables)]
        counts.append(len(mine))
        candidates.extend(mine)
    classes = dedup(candidates, "equivalence")
    return K33PipelineResult(tuple(theta5), tuple(counts), tuple(classes))


def pipeline_k33() -> list[EmbeddingClass]:
    """The double-torus classes of K33 obtained by expansion."""
    return list(pipeline_k33_stages().classes)


@dataclass(frozen=True)
class K5PipelineResult:
    """The expansion chain from theta(5) up to K5 on the double torus."""

    theta5: tuple[EmbeddingClass, ...]
    t123_iso: tuple[EmbeddingClass, ...]
    t123: tuple[EmbeddingClass, ...]
    k4_plus: tuple[EmbeddingClass, ...]
    w4: tuple[EmbeddingClass, ...]
    k5_minus_candidates: tuple[int, int]  # (from w4, from k4_plus)
    k5_minus_iso: tuple[EmbeddingClass, ...]
    k5_minus: tuple[EmbeddingClass, ...]
    k5_iso: tuple[EmbeddingClass, ...]
    k5: tuple[EmbeddingClass, ...]


@lru_cache(maxsize=1)
def pipeline_k5_stages() -> K5PipelineResult:
    """Run the expansion chain, deduplicating after every stage."""
    theta5 = theta5_classes()

    t123_candidates: list[Embedding] = []
    for c in theta5:
        t123_candidates.extend(all_splits(c.representative, triangle_multi(1, 2, 3)))
    t123_iso, t123 = _stage_classes(t123_candidates)

    k4p_graph = k4_plus()
    k4p_candidates: list[Embedding] = []
    for c in t123:
        k4p_candidates.extend(all_splits(c.representative, k4p_graph))
    k4p = dedup(k4p_candidates, "equivalence")

    w4_graph = wheel(4)
    w4_candidates: list[Embedding] = []
    for c in k4p:
        w4_candidates.extend(all_splits(c.representative, w4_graph))
    w4 = dedup(w4_candidates, "equivalence")

    k5m_graph = k5_minus_edge()
    from_w4: list[Embedding] = []
    for c in w4:
        from_w4.extend(_edge_additions(c.representative, k5m_graph))
    from_k4p: list[Embedding] = []
    for c in k4p:
        from_k4p.extend(_subdivide_and_join(c.representative, k5m_graph))
    k5m_candidates = from_w4 + from_k4p
    k5m_iso, k5m = _stage_classes(k5m_candidates)

    k5_graph = complete(5)
    k5_candidates: list[Embedding] = []
    for c in k5m:
        k5_candidates.extend(_edge_additions(c.representative, k5_graph))
    k5_iso, k5 = _stage_classes(k5_candidates)

    return K5PipelineResult(
        theta5=tuple(theta5),
        t123_iso=tuple(t123_iso),
        t123=tuple(t123),
        k4_plus=tuple(k4p),
        w4=tuple(w4),
        k5_minus_candidates=(len(from_w4), len(from_k4p)),
        k5_minus_iso=tuple(k5m_iso),
        k5_minus=tuple(k5m),
        k5_iso=tuple(k5_iso),
        k5=tuple(k5),
    )


def pipeline_k5() -> list[EmbeddingClass]:
    """The double-torus classes of K5 obtained by the expansion chain."""
    return list(pipeline_k5_stages().k5)
