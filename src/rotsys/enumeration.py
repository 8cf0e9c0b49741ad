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
from itertools import islice
from typing import Iterator, Sequence

from . import _kernel
from .canon import (
    DedupMode,
    EmbeddingClass,
    _check_mode,
    _class_data,
    _class_record,
    _same_graph,
    _stage_classes,
    dedup,
    graph_automorphisms,
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
    trace_faces,
    triangle_multi,
    wheel,
)
from .surgery import (
    CornerRef,
    SplitSpec,
    add_edge_in_face,
    all_splits,
    split_vertex,
    subdivide_edge,
)

DEFAULT_BUDGET = 10**9

# Automorphism groups up to this order are kept in memory by
# RotationSpace.orbits (about 2 MB at 40 edges); larger ones are
# generated afresh for every orbit.
MAX_STORED_AUTOMORPHISMS = 1 << 14


def _stored_automorphisms(graph: MultiGraph) -> list[bytes] | None:
    """Aut(G) as a list, or ``None`` above :data:`MAX_STORED_AUTOMORPHISMS`."""
    stored = list(islice(graph_automorphisms(graph), MAX_STORED_AUTOMORPHISMS + 1))
    return stored if len(stored) <= MAX_STORED_AUTOMORPHISMS else None


class RotationSpace:
    """The full space of rotation systems of a graph, indexable by integer.

    Vertex ``v`` contributes ``(deg(v) - 1)!`` cyclic orders (least dart
    pinned first); systems are numbered in mixed radix with vertex 1 as the
    fastest digit.
    """

    def __init__(self, graph: MultiGraph):
        self.graph = graph
        self.orders = _kernel.build_orders(list(graph.darts_at))
        self.counts = [len(o) for o in self.orders]
        self.total = math.prod(self.counts)

    def rotations_at(self, index: int) -> tuple[tuple[int, ...], ...]:
        rot = []
        for v in range(self.graph.n):
            index, digit = divmod(index, self.counts[v])
            rot.append(self.orders[v][digit])
        return tuple(rot)

    def embedding_at(self, index: int) -> Embedding:
        # orders are least-dart-first, i.e. already normalized
        return Embedding(self.graph, self.rotations_at(index))

    def orbits(self, indices: Sequence[int], mode: DedupMode = "iso") -> Iterator[tuple[int, int]]:
        """First index and size of each orbit met in ``indices``, in their order.

        Two systems of one labelled graph are isomorphic exactly when an
        automorphism of the graph maps one onto the other, so the orbits
        under Aut(G) are the iso classes; in ``equivalence`` mode the
        reversals of the images join the orbit as well.  Each system met is
        mapped by every automorphism, and the images are marked, so later
        members of its orbit are skipped.  Images keep the face count:
        given the matches of a scan, every matching class is met once.  The
        size counts the images marked, including those outside ``indices``.

        Marks go in a bitmap of ``ceil(total / 8)`` bytes, or in a set when
        ``indices`` are too few for the bitmap to pay (a set entry costs
        about 64 bytes).  The other memory used beyond the space itself is
        one ``order -> digit`` table per vertex, and the automorphisms when
        there are at most :data:`MAX_STORED_AUTOMORPHISMS`; larger groups
        are generated afresh for each orbit.
        """
        _check_mode(mode)
        return self._orbits(indices, mode == "equivalence", _stored_automorphisms(self.graph))

    def _orbits(self, indices: Sequence[int], mirror: bool, stored: list[bytes] | None) -> Iterator[tuple[int, int]]:
        # Darts fit a byte (graph_automorphisms enforces its edge guard), so
        # orders and their images are bytes: unlike small tuples, freed
        # bytes are not kept on the interpreter's free lists, and an image
        # is one translate through the permutation padded to 256 bytes.
        # Per dart: the pinned first dart, the order -> digit table and the
        # radix place of its vertex.  An image is rotated to start at the
        # pinned dart before the lookup.
        at_vertex = []
        place = 1
        for orders, count in zip(self.orders, self.counts):
            at_vertex.append((orders[0][0], {bytes(cyc): digit for digit, cyc in enumerate(orders)}, place))
            place *= count
        at_dart = [at_vertex[v - 1] for v in self.graph.dart_vertex]
        pad = bytes(256 - len(at_dart))
        bits = bytearray(-(-self.total // 8)) if len(indices) * 512 >= self.total else None
        marked: set[int] = set()
        for index in indices:
            if (index in marked) if bits is None else bits[index >> 3] >> (index & 7) & 1:
                continue
            rot = list(map(bytes, self.rotations_at(index)))
            size = 0
            for perm in graph_automorphisms(self.graph) if stored is None else stored:
                padded = perm + pad
                j = jm = 0
                for cyc in rot:
                    img = cyc.translate(padded)
                    first, table, place = at_dart[img[0]]
                    k = img.index(first)
                    if k:
                        img = img[k:] + img[:k]
                    j += table[img] * place
                    if mirror:
                        jm += table[img[:1] + img[:0:-1]] * place
                for k in (j, jm) if mirror else (j,):
                    if bits is None:
                        if k not in marked:
                            marked.add(k)
                            size += 1
                    elif not bits[k >> 3] >> (k & 7) & 1:
                        bits[k >> 3] |= 1 << (k & 7)
                        size += 1
            yield index, size

    def _pin(self, mirror: bool, stored: list[bytes] | None) -> tuple[int, list[int]]:
        """A vertex (0-based) and the digits of one order per orbit at it.

        The orbits are those of the vertex's stabiliser in Aut(G), joined by
        reversal when ``mirror``, on its cyclic orders; the representative
        of an orbit is its least digit.  An element of that group maps a
        system to one of its class and sends the order at the vertex to any
        other of its orbit, so every class has a member whose order there is
        a representative.  The vertex has the fewest representatives per
        order, the lowest one on ties.  Images are ``bytes`` as in
        :meth:`orbits`, and groups above :data:`MAX_STORED_AUTOMORPHISMS` are
        generated afresh for each representative.
        """
        best: tuple[int, list[int]] | None = None
        pad = bytes(256 - 2 * self.graph.edge_count)
        for v, orders in enumerate(self.orders):
            reps = [0]
            if len(orders) > 1:
                first, reps, seen = orders[0][0], [], set()
                for digit, cyc in enumerate(map(bytes, orders)):
                    if cyc in seen:
                        continue
                    reps.append(digit)
                    for perm in graph_automorphisms(self.graph) if stored is None else stored:
                        if self.graph.dart_vertex[perm[first]] != v + 1:
                            continue  # moves v
                        img = cyc.translate(perm + pad)
                        k = img.index(first)
                        img = img[k:] + img[:k]
                        seen.add(img)
                        if mirror:
                            seen.add(img[:1] + img[:0:-1])
            if best is None or len(reps) * self.counts[best[0]] < len(best[1]) * len(orders):
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

    One vertex is pinned (see :meth:`RotationSpace._pin`): only the systems
    whose order there is one of its representatives are scanned for their
    face count.  The matches are then walked in index order of the full
    space: each one not yet marked starts a new class and has its orbit
    under Aut(G), or Aut(G) x mirror, marked (see
    :meth:`RotationSpace.orbits`).  Only these first members go to
    :func:`dedup`, so each class costs two stream sets in either mode.
    Output is sorted by canonical key.  ``workers`` has no effect.
    """
    _check_mode(mode)
    f = _target_faces(graph, genus, faces)
    rotation_space_size(graph)  # refuses a graph with no rotation space
    if f < 1:
        return []
    _check_budget(graph, budget)
    space = RotationSpace(graph)
    mirror = mode == "equivalence"
    stored = _stored_automorphisms(graph)
    v, reps = space._pin(mirror, stored)
    orders = list(space.orders)
    orders[v] = [orders[v][d] for d in reps]
    _, matches = _kernel.scan(orders, 2 * graph.edge_count, f)
    # Back to the full space: the digits below v keep their places, v's
    # digit becomes its representative's, and the digits above move up.
    place, count = math.prod(space.counts[:v]), space.counts[v]
    for j, i in enumerate(matches):
        high, low = divmod(i, place)
        high, d = divmod(high, len(reps))
        matches[j] = low + place * (reps[d] + count * high)
    firsts = [i for i, _ in space._orbits(matches, mirror, stored)]
    return dedup((space.embedding_at(i) for i in firsts), mode)


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

    One sequential pass over the space in index order, with no face-count
    scan: each system not yet marked starts a new equivalence class and has
    its orbit under Aut(G) x mirror marked (see :meth:`RotationSpace.orbits`).
    The class of each first member is built as :func:`dedup` builds it, in
    orbit order, and bucketed by genus; ``raw_systems`` sums the orbit
    sizes.  ``workers`` has no effect.
    """
    _check_budget(graph, budget)
    space = RotationSpace(graph)
    by_genus: dict[int, list[tuple[EmbeddingClass, int]]] = {}
    for i, size in space.orbits(range(space.total), "equivalence"):
        c = _class_record(*_class_data(space.embedding_at(i), "equivalence"))
        by_genus.setdefault(c.genus, []).append((c, size))
    records = []
    for genus in sorted(by_genus):
        classes = [c for c, _ in by_genus[genus]]
        iso = sum(1 if c.chirality == "non_orientable" else 2 for c in classes)
        records.append(
            GenusRecord(
                genus=genus,
                iso_classes=iso,
                equivalence_classes=len(classes),
                orientable=sum(1 for c in classes if c.chirality == "orientable"),
                non_orientable=sum(1 for c in classes if c.chirality == "non_orientable"),
                group_orders=tuple(sorted(c.group_order for c in classes)),
                raw_systems=sum(size for _, size in by_genus[genus]),
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
    budget bounds that number.
    """
    graph = theta(m)  # refuses m < 1
    f = m - 2 * genus
    if f < 1:
        return []
    if math.factorial(m - 1) > budget:
        raise BudgetExceeded(math.factorial(m - 1), budget)
    u_orders, v_orders = _kernel.build_orders(list(graph.darts_at))
    pinned = [u_orders[:1], v_orders]
    _, matches = _kernel.scan(pinned, 2 * m, f)
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
    form is the lexicographic minimum over all rotations and reflections.
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
        best = None
        for reflect in (False, True):
            for r in range(size):
                img = []
                for i, j in pairs:
                    a = ((-i if reflect else i) + r) % size
                    b = ((-j if reflect else j) + r) % size
                    img.append((min(a, b), max(a, b)))
                img.sort()
                key = tuple(img)
                if best is None or key < best:
                    best = key
        assert best is not None
        return ChordDiagram(size, best)

    def chord_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(min((i - j) % self.size, (j - i) % self.size) for i, j in self.chords))


def face_pattern(e: Embedding) -> ChordDiagram:
    """Chord diagram pairing the two traversals of each edge on the face."""
    if e.graph.n != 2:
        raise RotsysError("face_pattern needs a two-vertex embedding")
    faces = trace_faces(e)
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
    faces = trace_faces(e).faces
    dv = g.dart_vertex
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
                    accepted[pair] = _same_graph(MultiGraph(g.n, g.edges + (pair,)), target)
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
    counts = []
    candidates: list[Embedding] = []
    for c in theta5:
        mine = []
        for first in _path_splits(c.representative, 1):
            mine.extend(emb for emb in _path_splits(first, 2))
        mine = [emb for emb in mine if _same_graph(emb.graph, k33)]
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
