r"""Isomorphism, canonical keys, automorphism counts and deduplication.

Two embeddings are isomorphic when a vertex bijection together with an edge
bijection carries one rotation system to the other.  The canonical key used
here is the lexicographically least *rooted serialization* over all root
darts: starting from a root dart, a deterministic traversal relabels
vertices and edges in first-encounter order and writes the rotation system
down in those labels.  Isomorphisms permute root darts and commute with the
traversal, so two embeddings are isomorphic exactly when their least
serializations agree; and because an automorphism fixing a dart is the
identity, every distinct serialization of one embedding occurs with the
same multiplicity, which *is* the automorphism group order.

The least serialization is found by pruning breadth first, as in the
search trees of canonical labelling.  A serialization's third byte is the
degree of its root's vertex, so only roots at vertices of least degree are
ranked, by an exact prefix of their serializations read off the rotations
(the first block's neighbour labels, the second block's degree and its
second dart), and only those with the least prefix are started.  They all
advance together, one vertex block at a time, and after each block only
the roots whose block is the least one go on.  A root writes its whole
block, then compares it with the least block of the roots before it, and
drops out when its block is above it.  The roots left at the end are
those reaching the least serialization, so the key and the group order
are those of the full set of serializations.

Mirror images: reversing all rotations gives the reflected embedding.  An
embedding isomorphic to its own reversal is called non-orientable (achiral);
otherwise orientable (chiral).  Equivalence-mode deduplication identifies an
embedding with its reversal by keying on the smaller of the two keys.  The
reversal is keyed in place, by reading the rotations of the embedding
backwards, so no reversed embedding is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Literal, Sequence

from .core import (
    Embedding,
    MultiGraph,
    SizeGuardExceeded,
    embedding_from_darts,
)

ORIENTABLE = "orientable"
NON_ORIENTABLE = "non_orientable"

Chirality = Literal["orientable", "non_orientable"]
DedupMode = Literal["iso", "equivalence"]

MAX_VERTICES = 16
# Darts must fit a byte in the permutations of _automorphism_chain, and
# darts and vertices in RotationSpace's images.
MAX_EDGES = 40


def _check_guard(n: int, m: int) -> None:
    if n > MAX_VERTICES or m > MAX_EDGES:
        raise SizeGuardExceeded(
            f"instance with {n} vertices / {m} edges exceeds guard "
            f"({MAX_VERTICES} vertices / {MAX_EDGES} edges)"
        )


Layout = tuple[int, Sequence[int], Sequence[Sequence[int]]]
"""A map as keys read it: its vertex count, the vertex of each dart, and each vertex's rotation, from any dart on."""


def _layout(e: Embedding) -> Layout:
    return e.graph.n, e.graph.dart_vertex, e.rot


def _steps(dv: Sequence[int], rot: Iterable[Sequence[int]], mirror: bool = False) -> list[list[tuple[int, int, int]]]:
    """Per dart, the darts around its vertex from it on, as ``(partner vertex, edge, partner dart)``.

    Each rotation of a :data:`Layout` is read as a cycle, and backwards with ``mirror``.
    """
    steps: list = [None] * len(dv)
    for r in rot:
        if mirror:
            r = r[::-1]
        k = len(r)
        ring = [(dv[d ^ 1], d >> 1, d ^ 1) for d in r] * 2
        for i, d in enumerate(r):
            steps[d] = ring[i : i + k]
    return steps


def _block(
    steps: list[tuple[int, int, int]],
    starts: list[int],
    vlab: list[int],
    elab: list[int],
    next_edge_label: int,
    least: list[int] | None,
) -> tuple[list[int] | None, int]:
    """One vertex block of a rooted traversal, and the next free edge label.

    ``steps`` are the :func:`_steps` of the dart through which the vertex
    was discovered.  A partner vertex met for the first time gets the next
    vertex label (``vlab`` holds ``-1`` for unlabelled vertices) and its
    partner dart is appended to ``starts``; an edge met for the first time
    gets ``next_edge_label`` (``elab`` alike).  The block is a list: the
    vertex's degree, then (neighbor label, edge label) for each dart of its
    rotation.

    ``least`` is the least block of the other roots at this index so far
    (``None`` for the first).  The block is written whole, then compared
    with it once: a block above ``least`` gives ``None``, one that ties it
    is returned as ``least`` itself, and one below it as written.
    """
    out = [len(steps)]
    for w, k, p in steps:
        wl = vlab[w]
        if wl < 0:
            wl = vlab[w] = len(starts)
            starts.append(p)
        el = elab[k]
        if el < 0:
            el = elab[k] = next_edge_label
            next_edge_label += 1
        out.append(wl)
        out.append(el)
    if least is not None:
        if out == least:
            return least, next_edge_label
        if out > least:
            return None, next_edge_label
    return out, next_edge_label


def _roots(steps: list[list[tuple[int, int, int]]], rot: Sequence[Sequence[int]], low: int) -> list[int]:
    """The roots of degree ``low`` whose streams start with the least exact prefix.

    After the counts, a root ``d`` at ``v0`` has this prefix: block 0's
    neighbour labels (its edge labels are ``0..low-1`` from every root),
    the degree of ``d``'s far end ``w1``, which opens block 1, and block
    1's pair after ``(0, 0)``, for the next dart at ``w1`` (none when
    ``w1`` has degree 1).  With ``y1`` the far end of that dart, the pair
    is ``(0, its edge's place in block 0)`` when ``y1`` is ``v0``, and
    else ``(y1's label, low)``, a new label when ``y1`` is no neighbour of
    ``v0``.  Distinct neighbours label block 0 ``1..low`` from every root,
    above any repeat, and ``y1``'s label is then one lookup of its place
    around ``v0``.  Every root reaching the least stream has the least
    prefix, so the key and the group order are those of all the roots.
    """
    ones = tuple(range(1, low + 1))
    best = None
    roots: list[int] = []
    for r in rot:
        if len(r) != low:
            continue
        ring = steps[r[0]]
        at = {w: j for j, (w, _, _) in enumerate(ring)}
        distinct = len(at) == low
        for i, (_, _, back) in enumerate(ring):
            d = back ^ 1  # the root, at place i around v0
            after = steps[back]  # block 1's steps: from d^1 at w1, back to v0 first
            if distinct:
                pattern = ones
            else:
                lab: dict[int, int] = {}
                for w, _, _ in steps[d]:
                    lab.setdefault(w, len(lab) + 1)
                pattern = tuple([lab[w] for w, _, _ in steps[d]])
            if len(after) == 1:
                prefix = pattern, 1
            else:
                y, k, _ = after[1]
                if distinct:
                    j = at.get(y)
                    prefix = pattern, len(after), low + 1 if j is None else (j - i) % low + 1, low
                elif y == after[0][0]:
                    prefix = pattern, len(after), 0, [e for _, e, _ in steps[d]].index(k)
                else:
                    prefix = pattern, len(after), lab.get(y, len(lab) + 1), low
            if prefix == best:
                roots.append(d)
            elif best is None or prefix < best:
                best = prefix
                roots = [d]
    return roots


def _least(layout: Layout, mirror: bool = False) -> tuple[bytes, int]:
    """The least stream of a map and how often it occurs: the canonical key and the group order.

    A root's stream is the graph's vertex and edge counts, then the
    :func:`_block` of each vertex in label order.  The roots of least
    degree whose streams start with the least exact prefix (see
    :func:`_roots`) advance one block at a time, and only the roots whose
    block is the least at that index go on; a root with no block left
    emits the empty block, which is least, as a stream that is a prefix of
    another is less.  Each root writes its whole block, even one that drops out,
    and compares it once with the least block of the roots before it.  The
    roots left at the end all give the least stream: their number is the
    group order.  A root's state is ``[starts, vertex labels, edge labels,
    next edge label]``, as :func:`_block` takes them.  The map is read as
    its :data:`Layout`, so it need not be built.  With ``mirror`` all of
    this is that of its reversal, read off the reversed rotations.
    """
    n, dv, rot = layout
    steps = _steps(dv, rot, mirror)
    if not steps:
        # The one-vertex graph (the only connected edgeless one): one vertex
        # block of degree 0, and no root dart.
        return bytes([1, 0, 0]), 1
    m = len(dv) // 2
    live = []
    for d in _roots(steps, rot, min(map(len, steps))):
        vlab = [-1] * (n + 1)
        vlab[dv[d]] = 0
        live.append([[d], vlab, [-1] * m, 0])
    key = bytearray((n, m))
    for i in range(n):
        best = None
        survivors = []
        for state in live:
            starts = state[0]
            if i < len(starts):
                block, state[3] = _block(steps[starts[i]], starts, state[1], state[2], state[3], best)
            else:  # no block left: the empty block, below any other
                block = best if best == [] else []
            if block is best:  # a tie: _block hands back the least block itself
                survivors.append(state)
            elif block is not None:
                best = block
                survivors = [state]
        live = survivors
        if not best:
            break
        key += bytes(best)
    return bytes(key), len(live)


def canonical_key(e: Embedding) -> bytes:
    """Canonical byte key: equal keys iff isomorphic embeddings."""
    _check_guard(e.graph.n, e.graph.edge_count)
    return _least(_layout(e))[0]


def canonical_embedding(key: bytes) -> Embedding:
    """Decode a canonical key back into its representative embedding.

    A key holds ``n`` and ``m``, then ``n`` blocks of ``2m`` darts in all,
    so it is ``2 + n + 4m`` bytes long; any other length, or blocks whose
    degrees do not add up to it, or edge labels that do not pair up, raise
    ``ValueError("malformed canonical key")``, and so do keys whose blocks
    make no graph an embedding can have: one with no vertex, a loop, or
    more than one component.  A rooted serialization that is not the least
    one is refused alike: the embedding it decodes to is keyed once, and
    its key must be ``key``.
    """
    e = _decode(key)
    if _least(_layout(e))[0] != key:
        raise ValueError("malformed canonical key")
    return e


def _decode(key: bytes) -> Embedding:
    """:func:`canonical_embedding` without its check that ``key`` is least, for keys from :func:`_least`."""
    if len(key) < 2 or len(key) != 2 + key[0] + 4 * key[1]:
        raise ValueError("malformed canonical key")
    n, m = key[0], key[1]
    pos = 2
    darts_left = 2 * m  # so no block reads past the end
    ends: list[list[tuple[int, int]]] = [[] for _ in range(m)]  # per edge label: (vertex, neighbor) of each dart
    dart_rot: list[list[int]] = []
    for v0 in range(n):
        deg = key[pos]
        darts_left -= deg
        if darts_left < 0:
            raise ValueError("malformed canonical key")
        block = key[pos + 1 : pos + 1 + 2 * deg]
        pos += 1 + 2 * deg
        darts = []
        for wl, el in zip(block[::2], block[1::2]):
            if el >= m or len(ends[el]) == 2:
                raise ValueError("malformed canonical key")
            darts.append(2 * el + len(ends[el]))  # the edge's first dart is met at its first end
            ends[el].append((v0, wl))
        dart_rot.append(darts)
    edges = []
    for occ in ends:
        if len(occ) != 2 or occ[0][1] != occ[1][0] or occ[1][1] != occ[0][0]:
            raise ValueError("malformed canonical key")
        edges.append((occ[0][0] + 1, occ[1][0] + 1))
    try:
        return embedding_from_darts(MultiGraph(n, tuple(edges)), dart_rot)
    except ValueError:  # no vertex, a loop or a disconnected graph
        raise ValueError("malformed canonical key") from None


def automorphism_group_order(e: Embedding) -> int:
    """Order of the group of (vertex, edge) bijections fixing the rotations.

    Rotation-preserving maps only; maps carrying the rotations to their
    reversals are not counted.
    """
    _check_guard(e.graph.n, e.graph.edge_count)
    return _least(_layout(e))[1]


@dataclass(frozen=True)
class EmbeddingClass:
    """An isomorphism (or mirror-equivalence) class of embeddings.

    The representative, decoded from the key, and its genus and face
    degrees, from one face trace, are made on first read and then kept.
    """

    canonical_key: bytes
    group_order: int
    chirality: Chirality

    @cached_property
    def representative(self) -> Embedding:
        return _decode(self.canonical_key)

    @cached_property
    def genus(self) -> int:
        return self.representative.face_set.stats.genus

    @cached_property
    def face_degrees(self) -> tuple[int, ...]:
        return self.representative.face_set.face_lengths()


def _check_mode(mode: str) -> None:
    if mode not in ("iso", "equivalence"):
        raise ValueError(f"unknown dedup mode {mode!r}")


def _mirror_keys(layouts: Iterable[Layout]) -> Iterator[tuple[bytes, bytes, int]]:
    """``(key, key of the reversal, group order)`` of each of ``layouts``, in input order.

    Each input costs one stream set, and its reversal one more only when
    its key has not been met yet, as an input's or as a reversal's: the
    reversal's key depends on the key alone.  The reversal is keyed in
    place (``_least(layout, mirror=True)``), not built.  Isomorphic maps
    and mirror images have groups of the same order, so the order holds for
    the key's class and its mirror's.
    """
    mirror: dict[bytes, bytes] = {}  # each key met -> the key of its reversal
    for layout in layouts:
        _check_guard(layout[0], len(layout[1]) // 2)
        key, order = _least(layout)
        rkey = mirror.get(key)
        if rkey is None:
            rkey = _least(layout, mirror=True)[0]
            mirror[key], mirror[rkey] = rkey, key
        yield key, rkey, order


def _class_record(key: bytes, order: int, achiral: bool) -> EmbeddingClass:
    """The class of ``key``; nothing is decoded or traced until a field of its representative is read."""
    return EmbeddingClass(key, order, NON_ORIENTABLE if achiral else ORIENTABLE)


def _orbit_classes(layout: Layout, mode: DedupMode, order: int, achiral: bool) -> list[EmbeddingClass]:
    """The class records of the orbit of the map ``layout`` under Aut(G) x mirror, whose group order and achirality are known.

    They are the records :func:`dedup` gives for the map and its reversal.
    One stream set gives the canonical key of the map, read as laid out,
    which names the one class of an achiral orbit; a chiral orbit takes one
    more, for its reversal's key (keyed in place), and is the two classes
    of those keys in ``iso`` mode and the one class of the lesser key in
    ``equivalence`` mode.
    """
    keys = [_least(layout)[0]]
    if not achiral:
        keys.append(_least(layout, mirror=True)[0])
        if mode == "equivalence":
            keys = [min(keys)]
    return [_class_record(key, order, achiral) for key in keys]


def chirality(e: Embedding) -> Chirality:
    """``non_orientable`` when ``e`` is isomorphic to its own reversal.

    Two stream sets: the keys of ``e`` and of its reversal, compared.
    """
    ((key, rkey, _),) = _mirror_keys([_layout(e)])
    return NON_ORIENTABLE if key == rkey else ORIENTABLE


def classify(embeddings: Iterable[Embedding], mode: DedupMode = "iso") -> tuple[list[EmbeddingClass], list[bytes]]:
    """The classes of ``embeddings``, sorted by key, and the class key of each input.

    The classes come from one :func:`_mirror_keys` pass: the class key is
    the input's key in ``iso`` mode and the lesser of it and its reversal's
    key in ``equivalence`` mode, and a class is achiral when the two agree.
    So each input costs one stream set, and one more for its reversal only
    when its key was not met before, in either mode.  Inputs known to lie
    in distinct orbits under Aut(G) x mirror, with their group orders and
    achirality known, are cheaper through :func:`_orbit_classes`, as the
    orbit pass of the exhaustive classification gives them.
    """
    _check_mode(mode)
    keys: list[bytes] = []
    classes: dict[bytes, tuple[int, bool]] = {}
    for key, rkey, order in _mirror_keys(map(_layout, embeddings)):
        keys.append(key if mode == "iso" else min(key, rkey))
        classes[keys[-1]] = order, key == rkey
    return [_class_record(key, *classes[key]) for key in sorted(classes)], keys


def dedup(embeddings: Iterable[Embedding], mode: DedupMode = "iso") -> list[EmbeddingClass]:
    """Group embeddings into classes by their class keys, sorted by key (see :func:`classify`)."""
    return classify(embeddings, mode)[0]


def _stage_classes(candidates: Iterable[Layout]) -> tuple[list[EmbeddingClass], list[EmbeddingClass]]:
    """Iso and equivalence classes of a pipeline stage's candidates, given as their :data:`Layout`.

    Stages carry embeddings up to equivalence, so a chiral candidate stands
    for itself and its mirror and both chiralities enter the iso classes.
    The records are those of ``dedup(c + reversals, "iso")`` and
    ``dedup(c, "equivalence")``, split from the one :func:`_mirror_keys`
    pass that ``dedup`` uses: a candidate's key and its reversal's key each
    name an iso class, and the lesser names the equivalence class.  So
    every equivalence class is also an iso class, with the same group
    order and achirality, and the two lists share its record.
    """
    iso: dict[bytes, tuple[int, bool]] = {}
    equivalence: set[bytes] = set()
    for key, rkey, order in _mirror_keys(candidates):
        iso[key] = iso[rkey] = order, key == rkey
        equivalence.add(min(key, rkey))
    records = {key: _class_record(key, *iso[key]) for key in sorted(iso)}
    return list(records.values()), [records[key] for key in sorted(equivalence)]


# ---------------------------------------------------------------------------
# Multigraph (embedding-free) isomorphism helpers
# ---------------------------------------------------------------------------


def _mult_matrix(g: MultiGraph) -> list[list[int]]:
    m = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for u, v in g.edges:
        m[u][v] += 1
        m[v][u] += 1
    return m


def _vertex_profiles(mat: list[list[int]]) -> list[tuple]:
    """Per vertex of a multiplicity matrix: its degree and sorted multiplicities."""
    return [(sum(row), tuple(sorted(filter(None, row)))) for row in mat[1:]]


GraphTables = tuple[list[list[int]], list[tuple]]


def _graph_tables(g: MultiGraph) -> GraphTables:
    """The multiplicity matrix of ``g`` and its vertex profiles, as the search takes them."""
    mat = _mult_matrix(g)
    return mat, _vertex_profiles(mat)


def _vertex_isomorphisms(g: GraphTables, h: GraphTables, fixed: Sequence[int] = ()) -> Iterator[list[int]]:
    """Vertex maps of the isomorphisms from one multigraph onto another, by backtracking.

    ``g`` and ``h`` are the :func:`_graph_tables` of two graphs with the
    same number of vertices; passing one graph's tables twice gives its
    automorphisms.  Each yielded list maps vertex ``v`` of the first to
    ``image[v]`` of the second (index 0 unused) and carries every edge
    multiplicity over.  Vertices ``1..len(fixed)`` may only go to
    ``fixed``, in order.  The list is reused between yields.
    """
    mat, profiles = g
    hmat, hprofiles = h
    n = len(profiles)
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def fits(v: int, w: int) -> bool:
        """Whether ``v -> w`` keeps the profile and the multiplicities to ``1..v-1``."""
        if used[w] or hprofiles[w - 1] != profiles[v - 1]:
            return False
        row, hrow = mat[v], hmat[w]
        for u in range(1, v):
            if row[u] != hrow[image[u]]:
                return False
        return True

    def extend(v: int) -> Iterator[list[int]]:
        if v > n:
            yield image
            return
        for w in range(1, n + 1):
            if fits(v, w):
                image[v] = w
                used[w] = True
                yield from extend(v + 1)
                used[w] = False
        image[v] = 0

    for v, w in enumerate(fixed, 1):
        if not fits(v, w):
            return iter(())
        image[v] = w
        used[w] = True
    return extend(len(fixed) + 1)


def _triangles(g: MultiGraph) -> list[int]:
    """Per vertex of ``g``, sorted: its triangles, each counted once for each of its edges at the vertex.

    Each edge ``uv`` adds the common neighbours of ``u`` and ``v``, read
    off neighbour bitmasks, to both ends, so on a simple graph this is
    twice the number of triangles at each vertex.  Isomorphisms keep it.
    """
    bits = [0] * (g.n + 1)
    for u, v in g.edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    count = [0] * (g.n + 1)
    for u, v in g.edges:
        common = (bits[u] & bits[v]).bit_count()
        count[u] += common
        count[v] += common
    return sorted(count[1:])


# A graph that others are tested against: its tables, sorted profiles and triangle counts.
Target = tuple[GraphTables, list[tuple], list[int]]


def _target(h: MultiGraph) -> Target:
    """What :func:`_same_graph` reads of ``h``, built once for every graph tested against it."""
    ht = _graph_tables(h)
    return ht, sorted(ht[1]), _triangles(h)


def _same_graph(g: MultiGraph, h: MultiGraph, target: Target) -> bool:
    """Whether ``g`` and ``h`` are isomorphic multigraphs (rotations ignored).

    ``target`` is the :func:`_target` of ``h``.  The answer, and the size
    guard on both graphs, are those of ``multigraph_key(g) ==
    multigraph_key(h)``; but only graphs with equal sizes, equal sorted
    vertex profiles and equal :func:`_triangles` reach the search, which
    takes the tables built for the profile check and stops at the first
    vertex map.  ``g``'s triangles are counted only when its profiles tie.
    The triangle counts stay out of the profiles, which the search and
    :func:`_automorphism_chain` compare vertex by vertex.
    """
    for x in (g, h):
        _check_guard(x.n, x.edge_count)
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gt = _graph_tables(g)
    ht, profiles, triangles = target
    if sorted(gt[1]) != profiles or _triangles(g) != triangles:
        return False
    return next(_vertex_isomorphisms(gt, ht), None) is not None


def _degrees_fit(degrees: Sequence[int], old: Sequence[int], new: Sequence[int], target: list[int]) -> bool:
    """Whether ``degrees`` with the entries ``old`` replaced by ``new`` sort to ``target``.

    ``degrees`` are a graph's vertex degrees and ``target`` the sorted ones
    of the graph it is tested against.  A candidate made by one surgery
    step differs from its parent's degrees by ``old -> new``, so this
    settles it without building its graph: degrees that differ give vertex
    profiles that differ, and :func:`_same_graph` would answer ``False``.
    """
    out = list(degrees)
    for d in old:
        out.remove(d)
    out += new
    out.sort()
    return out == target


def _darts_toward(g: MultiGraph) -> dict[tuple[int, int], list[int]]:
    """``(u, v) ->`` the darts at ``u`` of the edges joining ``u`` and ``v``."""
    dv = g.dart_vertex
    toward: dict[tuple[int, int], list[int]] = {}
    for d in range(2 * g.edge_count):
        toward.setdefault((dv[d], dv[d ^ 1]), []).append(d)
    return toward


def _automorphism_chain(g: MultiGraph, base: Sequence[int] | None = None) -> list[list[tuple[int, bytes]]]:
    """Aut(G) as a stabiliser chain: per level, each image of its base point and an element giving it.

    Elements are permutations of the darts ``0..2m-1``.  A base point is a
    dart, or ``2m + v - 1`` for vertex ``v``, and so is its image.  Every
    automorphism is, in exactly one way, a product ``t_1 t_2 ... t_k``
    (``t_k`` applied first) of one element per level.  The first element
    of a level is the identity, whose image is the base point.

    The vertex levels come first, with base points the vertices in ``base``
    order (``1..n`` by default): the level of the ``i``-th holds one
    automorphism fixing those before it per image, each found by a
    first-leaf search of :func:`_vertex_isomorphisms` with that prefix
    fixed, on the tables relabelled so that the base runs ``1..n`` (the
    identity needs no search), ``n(n - 1)/2`` in all; a rotation space
    builds one chain, based at its pinned vertex.  A vertex map moves darts
    canonically: the ``j``-th dart from ``u`` toward ``v`` goes to the
    ``j``-th from its image of ``u`` toward its image of ``v``.  Then, for
    each parallel class in the order of :func:`_darts_toward`, the
    bijections of its ``k`` edges form ``k - 1`` levels of ``S_k``, with
    base points its darts at its lower end: level ``j`` moves each dart from
    place ``j`` on to place ``j`` and shifts the darts between up by one
    place, darts at the other end alike.  So after the vertex levels the
    images of a class's remaining places stay in ascending order, and a
    parallel level's elements come in the order of the images they give.
    Levels with the identity alone are left out, so the group order is the
    product of the level sizes.
    """
    _check_guard(g.n, g.edge_count)
    n, nd = g.n, 2 * g.edge_count
    dv = g.dart_vertex
    toward = _darts_toward(g)
    slot = {d: j for ds in toward.values() for j, d in enumerate(ds)}
    identity = bytes(range(nd))
    at = [0, *(base or range(1, n + 1))]  # the vertex relabelled i
    mat, profiles = _graph_tables(g)
    tables = [[mat[x][y] for y in at] for x in at], [profiles[x - 1] for x in at[1:]]
    chain = []
    for i in range(1, n + 1):
        level = [(nd + at[i] - 1, identity)]
        for w in range(i + 1, n + 1):
            found = next(_vertex_isomorphisms(tables, tables, (*range(1, i), w)), None)
            if found is not None:
                image = [0] * (n + 1)
                for x, y in zip(at, found):
                    image[x] = at[y]
                darts = [toward[image[dv[d]], image[dv[d ^ 1]]][slot[d]] for d in range(nd)]
                level.append((nd + at[w] - 1, bytes(darts)))
        chain.append(level)
    for (u, v), ds in toward.items():
        if u > v:
            continue
        for j in range(len(ds) - 1):
            places = ds[j:]
            level = []
            for d in places:
                rotation = bytearray(identity)
                for a, b in zip(places, [d] + [x for x in places if x != d]):
                    rotation[a], rotation[a ^ 1] = b, b ^ 1
                level.append((d, bytes(rotation)))
            chain.append(level)
    return [level for level in chain if len(level) > 1]


def graph_automorphism_count(g: MultiGraph) -> int:
    """Number of (vertex, edge) automorphism pairs of the multigraph.

    Rotations are ignored.  The count is the product of the level sizes of
    :func:`_automorphism_chain`: the orbit sizes of the vertices under
    their predecessors' stabilisers, times ``mult!`` per parallel class.
    No automorphism beyond the chain's transversals is built.
    """
    return math.prod(map(len, _automorphism_chain(g)))


def multigraph_key(g: MultiGraph) -> bytes:
    """Canonical key of the underlying multigraph (rotations ignored).

    Minimal serialization of the multiplicity matrix over vertex orderings,
    searched with profile grouping and prefix pruning.
    """
    _check_guard(g.n, g.edge_count)
    mat, profiles = _graph_tables(g)
    n = g.n
    best: list[int] | None = None
    order: list[int] = []
    used = [False] * (n + 1)
    prefix: list[int] = []

    def extend() -> None:
        nonlocal best
        depth = len(order)
        if depth == n:
            if best is None or prefix < best:
                best = list(prefix)
            return
        for w in range(1, n + 1):
            if used[w]:
                continue
            row = [mat[w][u] for u in order] + list(profiles[w - 1][:1])
            prefix.extend(row)
            if best is not None and prefix > best[: len(prefix)]:
                del prefix[-len(row):]
                continue
            used[w] = True
            order.append(w)
            extend()
            order.pop()
            used[w] = False
            del prefix[-len(row):]

    extend()
    assert best is not None
    return bytes([n, g.edge_count]) + bytes(best)
