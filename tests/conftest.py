"""Shared helpers: seeded random embeddings and relabelings."""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest

from rotsys import MultiGraph, canon, enumeration, make_embedding, surgery, theta
from rotsys.core import Embedding, embedding_from_darts


def random_embedding(rng: random.Random, max_vertices: int = 6, extra_edges: int = 6) -> Embedding:
    """A random connected loopless multigraph with a random rotation system."""
    n = rng.randint(2, max_vertices)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    pairs = [(verts[i - 1], verts[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, extra_edges)):
        u, v = rng.sample(range(1, n + 1), 2)
        pairs.append((u, v))
    graph = MultiGraph(n, tuple(sorted((min(u, v), max(u, v)) for u, v in pairs)))
    rot = []
    for v in range(1, n + 1):
        darts = list(graph.darts_at[v - 1])
        rest = darts[1:]
        rng.shuffle(rest)
        rot.append([darts[0]] + rest)
    return embedding_from_darts(graph, rot)


def random_graphs(seed: int, count: int = 30) -> list[MultiGraph]:
    """Random loopless multigraphs, many with parallel edges."""
    rng = random.Random(seed)
    return [random_embedding(rng, max_vertices=5, extra_edges=4).graph for _ in range(count)]


def system_at(graph: MultiGraph, orders, index: int) -> Embedding:
    """System ``index`` of the product of ``orders``, in mixed radix with vertex 1 the fastest digit.

    Given a ``RotationSpace``'s ``orders`` it indexes the whole rotation
    space, as the plain scan numbers it; given its ``pinned_orders`` it
    indexes the pinned subspace, as ``RotationSpace.orbits`` numbers it.
    """
    rot = []
    for o in orders:
        index, digit = divmod(index, len(o))
        rot.append(o[digit])
    return Embedding(graph, tuple(rot))


def product_automorphisms(g: MultiGraph):
    """Every automorphism of ``g`` as a dart permutation (``bytes``), by plain search.

    Each vertex map from the full backtracking of
    ``canon._vertex_isomorphisms`` is combined, by ``product``, with every
    permutation of each parallel class's image darts.  No stabiliser
    chain is used, so the result checks the chain independently.
    """
    toward = canon._darts_toward(g)
    ends = [(u, v) for u, v in toward if u < v]
    tables = canon._graph_tables(g)
    for image in canon._vertex_isomorphisms(tables, tables):
        images = [toward[(image[u], image[v])] for u, v in ends]
        for choice in product(*map(permutations, images)):
            perm = [0] * (2 * g.edge_count)
            for (u, v), chosen in zip(ends, choice):
                for d, t in zip(toward[(u, v)], chosen):
                    perm[d] = t
                    perm[d ^ 1] = t ^ 1
            yield bytes(perm)


def random_relabel(rng: random.Random, e: Embedding) -> Embedding:
    """``e`` with its vertices and then its edges shuffled by ``rng``: an isomorphic embedding."""
    g = e.graph
    vperm = list(range(1, g.n + 1))
    rng.shuffle(vperm)
    eperm = list(range(1, g.edge_count + 1))
    rng.shuffle(eperm)
    edges = [(0, 0)] * g.edge_count
    rot: list[list[int]] = [[] for _ in range(g.n)]
    for (u, v), k in zip(g.edges, eperm):
        edges[k - 1] = (vperm[u - 1], vperm[v - 1])
    for v, darts in enumerate(e.rot):
        rot[vperm[v] - 1] = [2 * eperm[d >> 1] - 2 + (d & 1) for d in darts]
    return embedding_from_darts(MultiGraph(g.n, tuple(edges)), rot)


@pytest.fixture
def theta5_systems():
    """The three one-face double-torus systems, by automorphism group order."""
    g = theta(5)
    return {
        2: make_embedding(g, [(1, 2, 3, 4, 5), (1, 2, 4, 5, 3)]),
        10: make_embedding(g, [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5)]),
        5: make_embedding(g, [(1, 2, 3, 4, 5), (1, 4, 2, 5, 3)]),
    }


@pytest.fixture
def stream_sets(monkeypatch):
    """``count(fn)``: ``fn()`` and the number of stream sets it took.

    A stream set is one search of ``canon._least`` for the least rooted
    serialization of a map, given as its layout, or, with ``mirror``, of
    its reversal.
    """
    taken = [0]
    original = canon._least

    def counted(layout, mirror=False):
        taken[0] += 1
        return original(layout, mirror)

    def count(fn):
        taken[0] = 0
        return fn(), taken[0]

    monkeypatch.setattr(canon, "_least", counted)
    return count


@pytest.fixture
def stream_blocks(monkeypatch):
    """``count(fn)``: ``fn()`` and the root-blocks it emitted.

    A root-block is one call of ``canon._block``: the next vertex block of
    one root's traversal, as ``canon._least`` advances every live root,
    counted once per call, whether the root goes on after it or drops out.
    """
    emitted = [0]
    original = canon._block

    def counted(steps, starts, vlab, elab, next_edge_label, least):
        emitted[0] += 1
        return original(steps, starts, vlab, elab, next_edge_label, least)

    def count(fn):
        emitted[0] = 0
        return fn(), emitted[0]

    monkeypatch.setattr(canon, "_block", counted)
    return count


@pytest.fixture
def graph_tests(monkeypatch):
    """``count(fn)``: ``fn()``, its graph tests and the searches they started.

    A graph test is one call of ``canon._same_graph``, counted under the
    names that ``enumeration`` and ``surgery`` imported from ``canon``; a
    search is one call of ``canon._vertex_isomorphisms``, which only tests
    past the size and profile checks start.
    """
    tests = [0]
    searches = [0]
    same_graph = canon._same_graph
    isomorphisms = canon._vertex_isomorphisms

    def counted_test(g, h, ht):
        tests[0] += 1
        return same_graph(g, h, ht)

    def counted_search(g, h, fixed=()):
        searches[0] += 1
        return isomorphisms(g, h, fixed)

    def count(fn):
        tests[0] = searches[0] = 0
        return fn(), tests[0], searches[0]

    for module in (canon, enumeration, surgery):
        monkeypatch.setattr(module, "_same_graph", counted_test)
    monkeypatch.setattr(canon, "_vertex_isomorphisms", counted_search)
    return count
