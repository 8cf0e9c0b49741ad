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
from functools import lru_cache
from typing import Sequence

from . import _kernel
from .canon import (
    DedupMode,
    EmbeddingClass,
    Layout,
    _check_guard,
    _check_mode,
    _degrees_fit,
    _orbit_classes,
    _same_graph,
    _stage_classes,
    _target,
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
from .surgery import SplitSpec, _graph, _insert, _split, _splits, subdivide_edge
from .rotation_space import RotationSpace

DEFAULT_BUDGET = 10**9


def rotation_space_size(graph: MultiGraph) -> int:
    """Number of rotation systems of ``graph``, which must be connected with an edge."""
    if graph.edge_count == 0:
        raise InvalidEmbedding("graph has no edges, so it has no rotation systems")
    _check_connected(graph)
    return math.prod(math.factorial(graph.degree(v) - 1) for v in range(1, graph.n + 1))


def _check_budget(space: str, size: int, budget: int) -> None:
    """Refuse a space of ``size`` systems over ``budget`` before any of its orders are built.

    The budget bounds the systems addressed, i.e. the size of the whole
    rotation space (for theta graphs, the (m - 1)! with one vertex
    pinned), not the work done: a pinned scan covers part of the space
    and expands far fewer states than the systems it covers.
    """
    if size > budget:
        raise BudgetExceeded(space, size, budget)


def scan_rotation_space(
    graph: MultiGraph,
    target_f: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[dict[int, int], list[int]]:
    """Face-count histogram over all systems, plus indices with ``target_f`` faces.

    ``target_f = -1`` collects no indices (histogram only).  The order lists
    come from :func:`_kernel.build_orders`, with no :class:`RotationSpace`,
    so this unpinned scan shares no code with the pinned pass it checks.
    """
    _check_budget("rotation space", rotation_space_size(graph), budget)
    hist, matches = _kernel.scan(_kernel.build_orders(list(graph.darts_at)), target_f)
    return {f: c for f, c in enumerate(hist) if c}, matches


def _target_faces(graph: MultiGraph, genus: int | None, faces: int | None) -> int:
    if genus is None and faces is None:
        raise ValueError("give a genus or a face count to filter on")
    n, m = graph.n, graph.edge_count
    if genus is not None:
        if genus < 0:
            raise ValueError(f"genus {genus} is negative")
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
    whose order at one vertex, or two, is one that vertex keeps (see
    :attr:`RotationSpace._pins`).  The scan (:func:`_kernel.matches`) lists
    only the systems with that face count, and drops the partial systems
    whose open face walks are too short to close as many faces; it builds no
    histogram.  The matches are then walked in index order of the subspace:
    each one not yet marked starts a new orbit under Aut(G) x mirror, which
    is marked within the subspace (see :meth:`RotationSpace.orbits`) and
    gives its group order and achirality.  The class records come from the
    orbit's first member as the pass decoded it, keyed as laid out, as the
    chains key theirs, and never built (see :func:`canon._orbit_classes`):
    an achiral orbit is one class and takes one stream set; a chiral one
    takes two, for the keys of the member and of its reversal, and is two
    classes in ``iso`` mode and one in ``equivalence`` mode.  The records
    are those :func:`dedup` gives for the matches, sorted by canonical key.
    The automorphisms applied come from one stabiliser chain rebased at the
    pinned vertex, by sifting (see :meth:`RotationSpace._landing`); no list
    of the group is built, so its size does not set the cost of an orbit.
    ``workers`` has no effect.
    """
    _check_mode(mode)
    f = _target_faces(graph, genus, faces)
    size = rotation_space_size(graph)  # refuses a graph with no rotation space
    if f < 1 or (f + graph.n - graph.edge_count) % 2:  # no system has f faces (Euler: n - m + f is even)
        return []
    _check_budget("rotation space", size, budget)
    return _pinned_classes(graph, f, mode)


def _pinned_classes(graph: MultiGraph, f: int, mode: DedupMode) -> list[EmbeddingClass]:
    """The classes with ``f`` faces, from the pinned scan and the orbit pass (see :func:`exhaustive_classes`)."""
    space = RotationSpace(graph)
    matches = _kernel.matches(space.pinned_orders, f)
    classes = []
    for _, _, order, achiral, digits, _ in space.orbits(matches):
        rot = [orders[d] for orders, d in zip(space.orders, digits)]
        classes += _orbit_classes((graph.n, graph.dart_vertex, rot), mode, order, achiral)
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

    One sequential pass over the pinned subspace in index order (864 of
    K5's 7,776 systems), with no face-count scan and no canonical key: each
    system not yet marked starts a new equivalence class and has its orbit
    under Aut(G) x mirror marked within the subspace (see
    :meth:`RotationSpace.orbits`).  Every class has a member there.  The
    orbit gives the class's group order, achirality and size in the whole
    space, the face count of its first member, which the pass yields as it
    decoded it (:meth:`RotationSpace.faces`), gives its genus, and
    ``raw_systems`` sums the orbit sizes.  No embedding is built.  The
    counts are those of :func:`dedup` over the whole space.  ``workers``
    has no effect.
    """
    _check_budget("rotation space", rotation_space_size(graph), budget)
    space = RotationSpace(graph)
    by_genus: dict[int, list[tuple[int, int, bool]]] = {}
    for _, size, order, achiral, _, succ in space.orbits(range(math.prod(map(len, space.pinned_orders)))):
        genus = (2 - graph.n + graph.edge_count - space.faces(succ)) // 2
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
    """Classes of the m-edge theta graph at the given genus, as :func:`exhaustive_classes` gives them.

    The same pinned scan and orbit pass run on ``theta(m)``.  Aut(theta(m))
    is every bijection of the edges, with or without the swap of the two
    vertices, and the stabiliser of a vertex has one orbit on its cyclic
    orders, found by ``2m`` sifts of its chain; so one order is pinned, and
    the other vertex keeps one of each orbit of the ``2m`` automorphisms
    that keep that order or reverse it (78 of theta(7)'s 720).  The budget
    bounds its ``(m - 1)!`` orders, before any is built, not the whole space.
    Each class then costs one stream set, and a chiral one one more (18 for
    theta(7) at genus 3).
    """
    graph = theta(m)  # refuses m < 1
    _check_mode(mode)
    f = _target_faces(graph, genus, None)  # refuses a negative genus
    if f < 1:
        return []
    _check_budget("pinned subspace", math.factorial(m - 1), budget)
    return _pinned_classes(graph, f, mode)


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


def theta5_classes() -> list[EmbeddingClass]:
    """The three double-torus classes of theta(5), from the fixed systems."""
    classes = dedup([make_embedding(theta(5), rot) for rot in THETA5_ROTATIONS], "equivalence")
    assert len(classes) == 3
    return classes


def _edge_additions(e: Embedding, target: MultiGraph) -> list[Layout]:
    """All single-edge insertions into faces of ``e`` whose graph is isomorphic to ``target``, as layouts.

    The graph of an insertion is ``e.graph`` plus the new edge, whatever
    its corners, so each vertex pair is settled once, and only the corners
    of accepted pairs are laid out (:func:`surgery._insert`, with the next
    free edge id), none built.  A pair (x, y) raises the degrees of x and
    y by one; a pair whose degrees then do not sort to ``target``'s is
    dropped before any graph is made, and the others are tested against
    ``target`` by isomorphism.  Both graphs are held to the size guard of
    the graph tests.
    """
    g = e.graph
    _check_guard(g.n, g.edge_count + 1)
    _check_guard(target.n, target.edge_count)
    faces = e.face_set.faces
    dv = g.dart_vertex
    degrees = [len(darts) for darts in g.darts_at]
    target_degrees = list(target.degree_sequence())
    target_tables = _target(target)
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
                    dx, dy = degrees[x - 1], degrees[y - 1]
                    fits = _degrees_fit(degrees, (dx, dy), (dx + 1, dy + 1), target_degrees)
                    accepted[pair] = fits and _same_graph(MultiGraph(g.n, g.edges + (pair,)), target, target_tables)
                if accepted[pair]:
                    out.append(_insert(g.n, dv, e.rot, walk[i], walk[j], g.edge_count + 1))
    return out


def _subdivide_and_join(e: Embedding, target: MultiGraph) -> list[Layout]:
    """Subdivide each copy of a doubled edge, then join the new vertex in."""
    g = e.graph
    doubled = [eid for eid, (u, v) in enumerate(g.edges, start=1) if g.multiplicity(u, v) == 2]
    return [layout for eid in doubled for layout in _edge_additions(subdivide_edge(e, eid), target)]


def _path_split(n: int, dart_vertex: Sequence[int], rot: Sequence[Sequence[int]], vertex: int, start: int) -> Layout:
    """Lay out the path of three (2 + 1 + 2 darts) that a degree-5 ``vertex`` expands into, by two :func:`_split` calls.

    The first split keeps the two darts from ``start``; the new edge's
    dart is then last of the four at ``n + 1``, at index 3, so the second
    split keeps it and the next dart there and moves the other two on.
    """
    m = len(dart_vertex) // 2 + 1
    mid = _split(n, dart_vertex, rot, SplitSpec(vertex, start, 2, m))
    return _split(*mid, SplitSpec(n + 1, 3, 2, m + 1))


@dataclass(frozen=True)
class K33PipelineResult:
    """Expansion of the theta(5) classes to complete bipartite K33."""

    theta5: tuple[EmbeddingClass, ...]
    candidates_per_class: tuple[int, ...]
    classes: tuple[EmbeddingClass, ...]


def pipeline_k33_stages() -> K33PipelineResult:
    """Double path splits of the theta(5) classes, filtered to K33, deduped.

    The 5 x 5 path expansions of each class's vertices 1 and 2 are tested
    by the graphs of the layouts :func:`_path_split` gives, and K33's are
    keyed as they are; none is built.
    """
    k33 = complete_bipartite(3, 3)
    k33_tables = _target(k33)
    theta5 = theta5_classes()
    counts = []
    candidates: list[Layout] = []
    for c in theta5:
        e = c.representative
        mine = []
        for s in range(5):
            first = _path_split(e.graph.n, e.graph.dart_vertex, e.rot, 1, s)
            for t in range(5):
                layout = _path_split(*first, 2, t)
                if _same_graph(_graph(*layout[:2]), k33, k33_tables):
                    mine.append(layout)
        counts.append(len(mine))
        candidates.extend(mine)
    classes = _stage_classes(candidates)[1]
    return K33PipelineResult(tuple(theta5), tuple(counts), tuple(classes))


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


def _expand(classes: Sequence[EmbeddingClass], grow, target: MultiGraph) -> list[Layout]:
    """The layouts ``grow`` gives from each class representative toward ``target``, in class order."""
    return [layout for c in classes for layout in grow(c.representative, target)]


@lru_cache(maxsize=1)
def pipeline_k5_stages() -> K5PipelineResult:
    """Run the expansion chain, deduplicating after every stage.

    A stage keys its candidates as laid out (:func:`surgery._splits`,
    :func:`_edge_additions`) and builds none of them; the next expands the
    class representatives, decoded from their keys.
    """
    theta5 = theta5_classes()
    t123_iso, t123 = _stage_classes(_expand(theta5, _splits, triangle_multi(1, 2, 3)))
    k4p = _stage_classes(_expand(t123, _splits, k4_plus()))[1]
    w4 = _stage_classes(_expand(k4p, _splits, wheel(4)))[1]
    k5m_graph = k5_minus_edge()
    from_w4, from_k4p = _expand(w4, _edge_additions, k5m_graph), _expand(k4p, _subdivide_and_join, k5m_graph)
    k5m_iso, k5m = _stage_classes(from_w4 + from_k4p)
    k5_iso, k5 = _stage_classes(_expand(k5m, _edge_additions, complete(5)))
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
