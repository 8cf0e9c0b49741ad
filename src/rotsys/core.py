r"""Loopless multigraphs, rotation systems, face tracing and Euler genus.

A 2-cell embedding of a graph in an orientable surface is encoded by a
*rotation system*: a cyclic order of the incident edge-ends (darts) at each
vertex.  Edge ``i`` (1-based) contributes two darts, ``2*(i-1)`` at its first
endpoint and ``2*(i-1) + 1`` at its second, so the partner of dart ``d`` is
always ``d ^ 1``.  Faces are the orbits of ``d -> succ[d ^ 1]``, where
``succ`` is the rotation successor at each vertex: cross the edge, then turn
to the next dart at the vertex you arrive at.  With that one (fixed)
convention the face count, and hence the genus via Euler's formula
``n - e + f = 2 - 2g``, is determined by the rotations alone.

Loops are excluded throughout, so a rotation can equivalently be written as
a list of edge ids (each edge meets a vertex through at most one dart).
Parallel edges are first-class: they carry distinct edge ids and darts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class RotsysError(Exception):
    """Base class for errors raised by this package."""


class InvalidEmbedding(RotsysError, ValueError):
    """Rotation data does not describe a valid embedding."""


class SizeGuardExceeded(RotsysError):
    """Instance is larger than the configured safety bound."""


class BudgetExceeded(RotsysError):
    """Rotation space has more systems than the configured budget.

    The budget bounds the systems addressed (the whole space), not the
    states a scan expands.
    """

    def __init__(self, required: int, budget: int):
        super().__init__(f"rotation space has {required} systems, budget is {budget}")
        self.required = required
        self.budget = budget


def partner(dart: int) -> int:
    """The other dart of the same edge."""
    return dart ^ 1


def dart_edge(dart: int) -> int:
    """1-based edge id of a dart."""
    return dart // 2 + 1


@dataclass(frozen=True)
class MultiGraph:
    """A loopless multigraph with labelled vertices and edges.

    Vertices are ``1..n``.  Edge ids are ``1..len(edges)``; ``edges[i-1]``
    is the (first, second) endpoint pair of edge ``i``.  Parallel edges are
    allowed, loops are not.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        for eid, (u, v) in enumerate(self.edges, start=1):
            if u == v:
                raise ValueError(f"edge {eid} is a loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {eid} endpoint out of range: ({u}, {v})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def dart_vertex(self) -> tuple[int, ...]:
        """Vertex at which each dart sits, indexed by dart."""
        table = []
        for u, v in self.edges:
            table.append(u)
            table.append(v)
        return tuple(table)

    @cached_property
    def darts_at(self) -> tuple[tuple[int, ...], ...]:
        """Sorted darts incident to each vertex, indexed by vertex-1."""
        buckets: list[list[int]] = [[] for _ in range(self.n)]
        for d, v in enumerate(self.dart_vertex):
            buckets[v - 1].append(d)
        return tuple(tuple(b) for b in buckets)

    def degree(self, v: int) -> int:
        return len(self.darts_at[v - 1])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.darts_at))

    def multiplicity(self, u: int, v: int) -> int:
        key = (min(u, v), max(u, v))
        return sum(1 for a, b in self.edges if (min(a, b), max(a, b)) == key)

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid - 1]


@dataclass(frozen=True)
class SurfaceStats:
    """Euler data of an embedding: n - eps + f = 2 - 2*genus."""

    n: int
    eps: int
    f: int
    genus: int


@dataclass(frozen=True)
class FaceSet:
    """The facial boundary walks of an embedding.

    Each face is a tuple of darts; the walk crosses the edge of each dart
    from the dart's vertex to its partner's vertex.  Faces are rotated so
    their least dart comes first and sorted by that dart, which makes the
    output deterministic.
    """

    faces: tuple[tuple[int, ...], ...]
    stats: SurfaceStats

    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(f) for f in self.faces))


def _normalize_cycle(darts: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(darts)
    if not seq:
        return seq
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


@dataclass(frozen=True)
class Embedding:
    """A multigraph together with a rotation system.

    ``rot[v-1]`` is the cyclic dart order at vertex ``v``, stored least dart
    first so that equal embeddings compare equal.  Instances are immutable;
    construct them through :func:`make_embedding` (which validates) or the
    surgery operations.
    """

    graph: MultiGraph
    rot: tuple[tuple[int, ...], ...]

    @cached_property
    def succ(self) -> tuple[int, ...]:
        """Rotation successor of each dart (at the same vertex)."""
        table = [0] * (2 * self.graph.edge_count)
        for cycle in self.rot:
            k = len(cycle)
            for i, d in enumerate(cycle):
                table[d] = cycle[(i + 1) % k]
        return tuple(table)

    def rotation_edges(self, v: int) -> tuple[int, ...]:
        """Rotation at ``v`` as edge ids (valid because loops are excluded)."""
        return tuple(dart_edge(d) for d in self.rot[v - 1])

    def degree(self, v: int) -> int:
        return len(self.rot[v - 1])


def embedding_from_darts(graph: MultiGraph, rotations: Iterable[Sequence[int]]) -> Embedding:
    """Build an embedding from per-vertex dart sequences, with validation."""
    rot = tuple(_normalize_cycle(r) for r in rotations)
    if len(rot) != graph.n:
        raise InvalidEmbedding(f"expected {graph.n} rotations, got {len(rot)}")
    seen = [False] * (2 * graph.edge_count)
    for v0, cycle in enumerate(rot):
        for d in cycle:
            if not (0 <= d < 2 * graph.edge_count):
                raise InvalidEmbedding(f"unknown dart {d} at vertex {v0 + 1}")
            if graph.dart_vertex[d] != v0 + 1:
                raise InvalidEmbedding(
                    f"dart of edge {dart_edge(d)} listed at vertex {v0 + 1}, "
                    f"but it sits at vertex {graph.dart_vertex[d]}"
                )
            if seen[d]:
                raise InvalidEmbedding(f"dart of edge {dart_edge(d)} listed twice")
            seen[d] = True
    if not all(seen):
        missing = seen.index(False)
        raise InvalidEmbedding(
            f"edge {dart_edge(missing)} missing from the rotation of vertex "
            f"{graph.dart_vertex[missing]}"
        )
    _check_connected(graph)
    return Embedding(graph, rot)


def make_embedding(graph: MultiGraph, rotations: Iterable[Sequence[int]]) -> Embedding:
    """Build an embedding from per-vertex edge-id sequences.

    ``rotations[v-1]`` lists, in cyclic order, the edges incident to vertex
    ``v``.  Raises :class:`InvalidEmbedding` on a missing or duplicated
    incidence, or an edge listed at a vertex it does not meet.
    """
    dart_rot: list[list[int]] = []
    for v0, edge_ids in enumerate(rotations):
        v = v0 + 1
        darts = []
        for eid in edge_ids:
            if not (1 <= eid <= graph.edge_count):
                raise InvalidEmbedding(f"unknown edge id {eid} at vertex {v}")
            u, w = graph.edges[eid - 1]
            if v == u:
                darts.append(2 * (eid - 1))
            elif v == w:
                darts.append(2 * (eid - 1) + 1)
            else:
                raise InvalidEmbedding(f"edge {eid} listed at vertex {v}, but joins {u} and {w}")
        dart_rot.append(darts)
    return embedding_from_darts(graph, dart_rot)


def from_neighbor_lists(neighbors: Sequence[Sequence[int]]) -> Embedding:
    """Build a simple-graph embedding from per-vertex neighbor rotations.

    ``neighbors[v-1]`` is the cyclic list of vertices adjacent to ``v``.
    Only simple graphs can be described this way; inconsistent or repeated
    adjacencies are rejected.
    """
    n = len(neighbors)
    ordered: set[tuple[int, int]] = set()
    for v0, nbrs in enumerate(neighbors):
        v = v0 + 1
        if len(set(nbrs)) != len(nbrs):
            raise InvalidEmbedding(f"vertex {v} lists a neighbor twice")
        for w in nbrs:
            if w == v:
                raise InvalidEmbedding(f"vertex {v} lists itself as a neighbor")
            if not (1 <= w <= n):
                raise InvalidEmbedding(f"vertex {v} lists unknown neighbor {w}")
            ordered.add((v, w))
    for v, w in ordered:
        if (w, v) not in ordered:
            raise InvalidEmbedding(f"edge {v}-{w} is listed at {v} but not at {w}")
    pairs = sorted({(min(v, w), max(v, w)) for v, w in ordered})
    graph = MultiGraph(n, tuple(pairs))
    eid_of = {pair: i + 1 for i, pair in enumerate(pairs)}
    rotations = [
        [eid_of[(min(v0 + 1, w), max(v0 + 1, w))] for w in nbrs]
        for v0, nbrs in enumerate(neighbors)
    ]
    return make_embedding(graph, rotations)


def _check_connected(g: MultiGraph) -> None:
    """Raise :class:`InvalidEmbedding` unless every vertex is reachable from vertex 1."""
    nbrs: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < g.n:
        raise InvalidEmbedding(f"disconnected graph: {g.n - len(seen)} of {g.n} vertices unreachable from vertex 1")


def trace_faces(e: Embedding) -> FaceSet:
    """Facial walks of ``e`` as orbits of ``d -> succ[d ^ 1]``."""
    g = e.graph
    nd = 2 * g.edge_count
    succ = e.succ
    visited = [False] * nd
    faces = [] if nd else [()]  # a single bare vertex bounds one spherical face, with an empty walk
    for d0 in range(nd):
        if visited[d0]:
            continue
        walk = []
        d = d0
        while not visited[d]:
            visited[d] = True
            walk.append(d)
            d = succ[d ^ 1]
        faces.append(tuple(walk))  # starts at its least dart, so faces are sorted by it
    chi = g.n - g.edge_count + len(faces)
    if chi % 2 != 0 or chi > 2:
        raise AssertionError(f"impossible Euler characteristic {chi}")
    stats = SurfaceStats(g.n, g.edge_count, len(faces), (2 - chi) // 2)
    return FaceSet(tuple(faces), stats)


def surface_stats(e: Embedding) -> SurfaceStats:
    """Vertex/edge/face counts and the orientable genus of ``e``."""
    return trace_faces(e).stats


def reverse(e: Embedding) -> Embedding:
    """The embedding with every rotation reversed (the mirror image)."""
    return Embedding(e.graph, tuple(_normalize_cycle(tuple(reversed(c))) for c in e.rot))


def face_vertices(e: Embedding, face: Sequence[int]) -> tuple[int, ...]:
    """Vertices visited along a facial walk, one per dart occurrence."""
    return tuple(e.graph.dart_vertex[d] for d in face)


# ---------------------------------------------------------------------------
# Named graph constructors
# ---------------------------------------------------------------------------


def _graph_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> MultiGraph:
    ordered = sorted((min(u, v), max(u, v)) for u, v in pairs)
    return MultiGraph(n, tuple(ordered))


def complete(n: int) -> MultiGraph:
    if n < 2:
        raise ValueError("complete(n) needs n >= 2")
    return _graph_from_pairs(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def complete_bipartite(m: int, n: int) -> MultiGraph:
    if m < 1 or n < 1:
        raise ValueError("complete_bipartite needs positive part sizes")
    return _graph_from_pairs(m + n, [(u, m + v) for u in range(1, m + 1) for v in range(1, n + 1)])


def theta(m: int) -> MultiGraph:
    """Two vertices joined by ``m`` parallel edges."""
    if m < 1:
        raise ValueError("theta(m) needs m >= 1")
    return MultiGraph(2, tuple((1, 2) for _ in range(m)))


def triangle_multi(i: int, j: int, k: int) -> MultiGraph:
    """Triangle whose edges have multiplicities ``i``, ``j``, ``k``."""
    if min(i, j, k) < 1:
        raise ValueError("triangle_multi needs positive multiplicities")
    pairs = [(1, 2)] * i + [(1, 3)] * j + [(2, 3)] * k
    return _graph_from_pairs(3, pairs)


def k4_plus() -> MultiGraph:
    """K4 with one edge doubled."""
    pairs = [(1, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    return _graph_from_pairs(4, pairs)


def wheel(rim: int) -> MultiGraph:
    """Cycle of ``rim`` vertices plus a hub adjacent to all of them."""
    if rim < 3:
        raise ValueError("wheel needs a rim of length >= 3")
    hub = rim + 1
    pairs = [(i, i % rim + 1) for i in range(1, rim + 1)]
    pairs += [(i, hub) for i in range(1, rim + 1)]
    return _graph_from_pairs(rim + 1, pairs)


def k5_minus_edge() -> MultiGraph:
    """K5 with the edge between vertices 4 and 5 removed."""
    pairs = [(u, v) for u in range(1, 6) for v in range(u + 1, 6) if (u, v) != (4, 5)]
    return _graph_from_pairs(5, pairs)


def circulant(n: int, connections: Iterable[int]) -> MultiGraph:
    """Circulant graph: ``i`` adjacent to ``i + s`` (mod n) for each ``s``."""
    conns = sorted(set(s % n for s in connections))
    if any(s == 0 for s in conns):
        raise ValueError("circulant connection 0 would create loops")
    pairs = set()
    for i in range(n):
        for s in conns:
            j = (i + s) % n
            pairs.add((min(i, j) + 1, max(i, j) + 1))
    return _graph_from_pairs(n, pairs)


def prism(n: int) -> MultiGraph:
    """Cycle(n) x K2."""
    if n < 3:
        raise ValueError("prism needs n >= 3")
    pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    pairs += [(n + i, n + i % n + 1) for i in range(1, n + 1)]
    pairs += [(i, n + i) for i in range(1, n + 1)]
    return _graph_from_pairs(2 * n, pairs)


def cube() -> MultiGraph:
    return prism(4)


def octahedron() -> MultiGraph:
    return circulant(6, [1, 2])


def petersen() -> MultiGraph:
    pairs = [(i, i % 5 + 1) for i in range(1, 6)]
    pairs += [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    pairs += [(i, i + 5) for i in range(1, 6)]
    return _graph_from_pairs(10, pairs)


def complement(g: MultiGraph) -> MultiGraph:
    """Simple-graph complement; rejects multigraphs with parallel edges."""
    present = set()
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        if key in present:
            raise ValueError("complement is only defined for simple graphs")
        present.add(key)
    pairs = [
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if (u, v) not in present
    ]
    return _graph_from_pairs(g.n, pairs)


_SPEC_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(?:\(([^()]*(?:\([^()]*\)[^()]*)*)\))?\s*$", re.I)


def build_graph(spec: str) -> MultiGraph:
    """Build a named graph from a constructor descriptor.

    Examples: ``complete(5)``, ``complete_bipartite(3,3)``, ``theta(5)``,
    ``triangle_multi(1,2,3)``, ``k4_plus``, ``wheel(4)``, ``k5_minus_edge``,
    ``circulant(8,1,4)``, ``prism(3)``, ``cube``, ``octahedron``,
    ``petersen``, ``complement(cube)``.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"cannot parse graph spec {spec!r}")
    name = m.group(1).lower()
    args = m.group(2)
    if name == "complement":
        if args is None:
            raise ValueError("complement(...) needs an inner graph spec")
        return complement(build_graph(args))
    int_args = [int(a) for a in args.split(",")] if args else []
    table = {
        "complete": lambda: complete(*int_args),
        "complete_bipartite": lambda: complete_bipartite(*int_args),
        "theta": lambda: theta(*int_args),
        "triangle_multi": lambda: triangle_multi(*int_args),
        "k4_plus": k4_plus,
        "wheel": lambda: wheel(*int_args) if int_args else wheel(4),
        "k5_minus_edge": k5_minus_edge,
        "circulant": lambda: circulant(int_args[0], int_args[1:]),
        "prism": lambda: prism(*int_args),
        "cube": cube,
        "octahedron": octahedron,
        "petersen": petersen,
    }
    if name not in table:
        raise ValueError(f"unknown graph constructor {name!r}")
    if name == "circulant" and len(int_args) < 2:
        raise ValueError("circulant(n, s1, ...) needs at least one connection")
    return table[name]()
