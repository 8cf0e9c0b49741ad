r"""Genus-preserving embedding surgery.

Edge contraction and vertex splitting are mutually inverse, as are edge
deletion (when the edge borders two distinct faces) and edge insertion
inside a face.  All five operations preserve the genus; contraction and
splitting also preserve the face count, while deletion and insertion lower
and raise it by one.  Each result is laid out as the :data:`canon.Layout`
that keys read, and built from it through the validating embedding
constructor; the expansion chains key split and insertion layouts unbuilt.

Edge ids stay contiguous: removing edge ``k`` shifts every larger id down
by one, and inserting an edge *with* id ``k`` shifts larger ids up.  This
makes the inverse pairs label-exact: splitting with ``new_edge_id = k`` and
contracting edge ``k`` afterwards returns the original embedding verbatim.

Corners: a position ``i`` on a facial walk names the angular sector at the
vertex of ``walk[i]`` between the walk's arrival there and its departure
along ``walk[i]``; equivalently, the slot just before ``walk[i]`` in that
vertex's rotation.  A vertex of degree d has d corners, one per occurrence
on the facial walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .canon import Layout, _check_guard, _degrees_fit, _same_graph, _target
from .core import (
    Embedding,
    InvalidEmbedding,
    MultiGraph,
    embedding_from_darts,
)


@dataclass(frozen=True)
class SplitSpec:
    """How to split a vertex in two.

    ``arc_start`` and ``arc_len`` select a contiguous arc of the vertex's
    normalized rotation; the arc goes to the first half of the split (which
    keeps the vertex id) and the rest to a fresh vertex ``n + 1``.  Both
    sides must be nonempty (``1 <= arc_len <= degree - 1``).
    """

    vertex: int
    arc_start: int
    arc_len: int
    new_edge_id: int


@dataclass(frozen=True)
class CornerRef:
    """A corner: a dart occurrence position on a facial walk."""

    face_index: int
    position: int


def _shift_dart_up(d: int, new_eid: int) -> int:
    """Dart relabel when an edge is inserted with id ``new_eid``."""
    return d + 2 if (d >> 1) + 1 >= new_eid else d


def _shift_dart_down(d: int, removed_eid: int) -> int:
    return d - 2 if (d >> 1) + 1 > removed_eid else d


def _graph(n: int, dart_vertex: Sequence[int]) -> MultiGraph:
    """The graph of a layout: edge ``i`` joins the vertices of darts ``2i - 2`` and ``2i - 1``."""
    return MultiGraph(n, tuple(zip(dart_vertex[::2], dart_vertex[1::2])))


def _rebuild(n: int, dart_vertex: Sequence[int], rot: Iterable[Sequence[int]]) -> Embedding:
    return embedding_from_darts(_graph(n, dart_vertex), rot)


def contract_edge(e: Embedding, edge_id: int) -> Embedding:
    """Contract a non-parallel edge; the merged vertex keeps the smaller id.

    The merged rotation splices the two endpoint rotations at the removed
    darts.  Genus and face count are unchanged.  Contracting one of a set
    of parallel edges would create a loop and is rejected.
    """
    g = e.graph
    if not (1 <= edge_id <= g.edge_count):
        raise ValueError(f"unknown edge id {edge_id}")
    p, q = g.edges[edge_id - 1]
    if g.multiplicity(p, q) > 1:
        raise InvalidEmbedding(
            f"edge {edge_id} is parallel to another {p}-{q} edge; contracting it would create a loop"
        )
    a, b = min(p, q), max(p, q)

    def vmap(w: int) -> int:
        return a if w == b else w - (w > b)

    rot_p, rot_q = e.rot[p - 1], e.rot[q - 1]
    i, j = rot_p.index(2 * edge_id - 2), rot_q.index(2 * edge_id - 1)
    merged = [*rot_p[i + 1 :], *rot_p[:i], *rot_q[j + 1 :], *rot_q[:j]]

    new_dv = [vmap(w) for d, w in enumerate(g.dart_vertex) if d >> 1 != edge_id - 1]
    new_rot = [[_shift_dart_down(d, edge_id) for d in (merged if w == a else r)] for w, r in enumerate(e.rot, 1) if w != b]
    return _rebuild(g.n - 1, new_dv, new_rot)


def _split(n: int, dart_vertex: Sequence[int], rot: Sequence[Sequence[int]], spec: SplitSpec) -> Layout:
    """Lay out a split as lists: the result's vertex count, dart vertices and rotations, nothing built.

    The arc, then the new edge's dart, stays at ``spec.vertex``; the rest
    of its rotation, then the new edge's other dart, moves to vertex
    ``n + 1``, where that dart is last.  Each moving dart now sits at
    ``n + 1``; the new edge ``(vertex, n + 1)`` takes id
    ``spec.new_edge_id``, shifting larger ids up; only an id below the
    next free one shifts darts, as in :func:`_insert`.  ``spec`` is taken
    as valid for ``rot``, whose cycles may start anywhere, and the
    rotations it leaves alone may be shared with the result.
    """
    v, m, s = spec.vertex, spec.new_edge_id, spec.arc_start
    turned = [*rot[v - 1][s:], *rot[v - 1][:s]]
    rest_set = set(turned[spec.arc_len :])
    d_new = 2 * (m - 1)
    new_dv = [n + 1 if d in rest_set else w for d, w in enumerate(dart_vertex)]
    new_dv[d_new:d_new] = (v, n + 1)
    if d_new < len(dart_vertex):
        rot = [[_shift_dart_up(d, m) for d in r] for r in rot]
        turned = [_shift_dart_up(d, m) for d in turned]
    new_rot = list(rot)
    new_rot[v - 1] = turned[: spec.arc_len] + [d_new]
    new_rot.append(turned[spec.arc_len :] + [d_new + 1])
    return n + 1, new_dv, new_rot


def split_vertex(e: Embedding, spec: SplitSpec) -> Embedding:
    """Split a vertex along a contiguous rotation arc, adding a new edge.

    The arc (plus a dart of the new edge, appended after it) stays at the
    original vertex; the remaining darts (plus the other new dart at the
    splice point) move to vertex ``n + 1``.  Inverse of
    :func:`contract_edge` applied to ``spec.new_edge_id``.  The split is
    laid out by :func:`_split` and built once.
    """
    g = e.graph
    v = spec.vertex
    if not (1 <= v <= g.n):
        raise ValueError(f"unknown vertex {v}")
    k = len(e.rot[v - 1])
    if not (1 <= spec.arc_len <= k - 1):
        raise ValueError(f"arc_len {spec.arc_len} out of range for degree {k}")
    if not (0 <= spec.arc_start < k):
        raise ValueError(f"arc_start {spec.arc_start} out of range for degree {k}")
    if not (1 <= spec.new_edge_id <= g.edge_count + 1):
        raise ValueError(f"new_edge_id {spec.new_edge_id} out of range")
    return _rebuild(*_split(g.n, g.dart_vertex, e.rot, spec))


def delete_edge(e: Embedding, edge_id: int) -> tuple[Embedding, CornerRef, CornerRef]:
    """Delete an edge whose two sides lie on distinct faces.

    The two faces merge (f drops by one, genus is unchanged).  Returns the
    embedding together with the two corners, in the result's face list,
    where :func:`add_edge_in_face` re-inserts the edge label-exactly.  An
    edge with both sides on one face, a pendant one among them, raises
    ``InvalidEmbedding``; an unknown id raises ``ValueError``.
    """
    g = e.graph
    if not (1 <= edge_id <= g.edge_count):
        raise ValueError(f"unknown edge id {edge_id}")
    d0 = 2 * (edge_id - 1)
    walk = next(w for w in e.face_set.faces if d0 in w)
    if d0 + 1 in walk:
        raise InvalidEmbedding(
            f"both sides of edge {edge_id} lie on one face; deleting it would change the genus"
        )
    new_dv = [w for d, w in enumerate(g.dart_vertex) if d >> 1 != edge_id - 1]
    new_rot = [[_shift_dart_down(d, edge_id) for d in r if d >> 1 != edge_id - 1] for r in e.rot]
    result = _rebuild(g.n, new_dv, new_rot)
    at = {d: (fi, pos) for fi, walk in enumerate(result.face_set.faces) for pos, d in enumerate(walk)}
    s0, s1 = (_shift_dart_down(e.succ[d], edge_id) for d in (d0, d0 + 1))
    return result, CornerRef(*at[s0]), CornerRef(*at[s1])


def add_edge_in_face(
    e: Embedding,
    corner_u: CornerRef,
    corner_v: CornerRef,
    new_edge_id: int | None = None,
) -> Embedding:
    """Insert an edge across a face, between two corners at distinct vertices.

    The face splits in two (f rises by one, genus is unchanged).  Corners
    refer to positions in ``trace_faces(e)``, the walks kept on ``e``
    (``e.face_set``), so inserting at the corners of walks already traced
    traces none again.  ``new_edge_id`` defaults to the next free id.
    """
    g = e.graph
    faces = e.face_set.faces
    if corner_u.face_index != corner_v.face_index:
        raise InvalidEmbedding("corners lie on different faces")
    if not (0 <= corner_u.face_index < len(faces)):
        raise ValueError(f"face index {corner_u.face_index} out of range")
    walk = faces[corner_u.face_index]
    if not (0 <= corner_u.position < len(walk) and 0 <= corner_v.position < len(walk)):
        raise ValueError("corner position out of range")
    du = walk[corner_u.position]
    dw = walk[corner_v.position]
    x = g.dart_vertex[du]
    if x == g.dart_vertex[dw]:
        raise InvalidEmbedding(f"both corners sit at vertex {x}")
    m = g.edge_count + 1 if new_edge_id is None else new_edge_id
    if not (1 <= m <= g.edge_count + 1):
        raise ValueError(f"new_edge_id {m} out of range")
    return _rebuild(*_insert(g.n, g.dart_vertex, e.rot, du, dw, m))


def _insert(n: int, dart_vertex: Sequence[int], rot: Sequence[Sequence[int]], du: int, dw: int, m: int) -> Layout:
    """Lay out an insertion as lists, as :func:`_split` does a split.

    Edge ``m`` joins the vertices of darts ``du`` and ``dw``, two corners
    of one face at distinct vertices; each new dart goes just before its
    corner's dart.  Only an ``m`` below the next free id shifts darts up.
    """
    d_new = 2 * (m - 1)
    x, y = dart_vertex[du], dart_vertex[dw]
    new_dv = list(dart_vertex)
    new_dv[d_new:d_new] = (x, y)
    if d_new < len(dart_vertex):
        rot = [[_shift_dart_up(d, m) for d in r] for r in rot]
        du, dw = _shift_dart_up(du, m), _shift_dart_up(dw, m)
    new_rot = [list(r) for r in rot]
    new_rot[x - 1].insert(new_rot[x - 1].index(du), d_new)
    new_rot[y - 1].insert(new_rot[y - 1].index(dw), d_new + 1)
    return n, new_dv, new_rot


def subdivide_edge(e: Embedding, edge_id: int) -> Embedding:
    """Replace an edge by a path of two through a new degree-2 vertex.

    The first half keeps ``edge_id`` (now ending at the new vertex
    ``n + 1``); the second half is appended as the last edge id.  Faces and
    genus are unchanged; each incident facial walk grows by one dart per
    traversal direction.
    """
    g = e.graph
    if not (1 <= edge_id <= g.edge_count):
        raise ValueError(f"unknown edge id {edge_id}")
    v = g.edges[edge_id - 1][1]
    x = g.n + 1
    d1 = 2 * edge_id - 1              # the v-side dart of edge_id, moving to x
    d2 = 2 * g.edge_count             # the new edge's dart at x; d2 + 1 is its dart at v
    new_dv = [*g.dart_vertex, x, v]
    new_dv[d1] = x
    new_rot = [list(r) for r in e.rot]
    rv = new_rot[v - 1]
    rv[rv.index(d1)] = d2 + 1
    new_rot.append([d1, d2])
    return _rebuild(g.n + 1, new_dv, new_rot)


def partition_split_specs(e: Embedding, vertex: int) -> list[SplitSpec]:
    """All splits of a vertex, one per unordered arc/complement partition.

    A spec and its complementary arc produce the same embedding up to the
    naming of the two halves, so only arcs of length at most half the
    degree are listed (and for even degree, only half the starts at exactly
    half length).  The new edge takes the next free id.
    """
    k = e.degree(vertex)
    m = e.graph.edge_count + 1
    specs = []
    for arc_len in range(1, k // 2 + 1):
        starts = range(k // 2) if 2 * arc_len == k else range(k)
        for s in starts:
            specs.append(SplitSpec(vertex, s, arc_len, m))
    return specs


def all_splits(e: Embedding, target: MultiGraph) -> list[Embedding]:
    """One-split expansions of ``e`` whose graph is isomorphic to ``target``.

    ``target`` must have exactly one vertex more than ``e``.  The result is
    the raw candidate list, one entry per unordered split partition of each
    vertex (see :func:`partition_split_specs`), in vertex order; it is
    empty when ``target`` does not have one edge more either.  Splitting a
    degree-k vertex with an arc of length a replaces degree k by a + 1 and
    k - a + 1, so a split whose degrees do not sort to ``target``'s is
    dropped before any graph is made.  The others are laid out by
    :func:`_split` and tested against ``target`` by the graph of that
    layout (see :func:`_splits`); only accepted splits are built, from the
    same layout.  ``target`` is held to the size guard of the graph tests.
    """
    return [_rebuild(*layout) for layout in _splits(e, target)]


def _splits(e: Embedding, target: MultiGraph) -> list[Layout]:
    """The layouts of :func:`all_splits`, in its order, none of them built."""
    g = e.graph
    if target.n != g.n + 1:
        raise ValueError("target must have exactly one vertex more than the embedding")
    if target.edge_count != g.edge_count + 1:
        return []
    _check_guard(target.n, target.edge_count)
    degrees = [len(darts) for darts in g.darts_at]
    target_degrees = list(target.degree_sequence())
    target_tables = _target(target)
    out = []
    for v, k in enumerate(degrees, start=1):
        for spec in partition_split_specs(e, v):
            a = spec.arc_len
            if not _degrees_fit(degrees, (k,), (a + 1, k - a + 1), target_degrees):
                continue
            layout = _split(g.n, g.dart_vertex, e.rot, spec)
            if _same_graph(_graph(*layout[:2]), target, target_tables):
                out.append(layout)
    return out
