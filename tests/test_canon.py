"""Canonical keys, witnesses, automorphisms, chirality, deduplication."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import permutations

import pytest

from rotsys import (
    NON_ORIENTABLE,
    ORIENTABLE,
    IsoWitness,
    MultiGraph,
    SizeGuardExceeded,
    apply_iso,
    are_isomorphic,
    automorphism_group_order,
    build_graph,
    canonical_key,
    chirality,
    complete,
    complete_bipartite,
    dedup,
    from_neighbor_lists,
    graph_automorphism_count,
    make_embedding,
    multigraph_key,
    octahedron,
    petersen,
    prism,
    reverse,
    theta,
    trace_faces,
)
from rotsys.canon import (
    _least,
    _mult_matrix,
    _same_graph,
    _stream_from,
    _vertex_profiles,
    canonical_embedding,
    graph_automorphisms,
)
from rotsys.core import k5_minus_edge
from rotsys.enumeration import RotationSpace, genus_distribution, pipeline_k5_stages
from rotsys.suites import TORUS_TABLE

from conftest import random_embedding, random_graphs, random_relabel

# The published unique double-torus system of K33, vertices A..F as 1..6.
K33_NEIGHBOR_ROTATIONS = [
    [2, 3, 5],
    [1, 6, 4],
    [1, 6, 4],
    [2, 5, 3],
    [1, 6, 4],
    [2, 3, 5],
]


class TestCanonicalKey:
    def test_relabel_invariance(self, theta5_systems):
        rng = random.Random(11)
        for e in theta5_systems.values():
            k = canonical_key(e)
            for _ in range(60):
                assert canonical_key(random_relabel(rng, e)) == k

    def test_three_theta5_keys_distinct(self, theta5_systems):
        keys = {canonical_key(e) for e in theta5_systems.values()}
        assert len(keys) == 3

    def test_key_decodes_to_isomorphic_embedding(self):
        rng = random.Random(12)
        for _ in range(80):
            e = random_embedding(rng)
            k = canonical_key(e)
            rep = canonical_embedding(k)
            assert canonical_key(rep) == k
            assert trace_faces(rep).face_lengths() == trace_faces(e).face_lengths()

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            canonical_key(_embedding_of_complete(17))


def _embedding_of_complete(n):
    g = complete(n)
    rot = []
    for v in range(1, n + 1):
        rot.append([eid for eid, (a, b) in enumerate(g.edges, start=1) if v in (a, b)])
    return make_embedding(g, rot)


def _plain_least(e):
    """Key, group order and first root from every root's full stream."""
    s = [_stream_from(e, d) for d in range(2 * e.graph.edge_count)]
    key = min(s)
    return key, s.count(key), s.index(key)


class TestLeast:
    """``_least`` prunes roots; it must agree with serializing every root."""

    @staticmethod
    def orders_checked(embeddings):
        orders = set()
        for e in embeddings:
            for x in (e, reverse(e)):
                least = _least(x)
                assert least == _plain_least(x)
                orders.add(least[1])
        return orders

    def test_every_system_of_small_graphs(self):
        orders = set()
        for g in (complete(4), complete_bipartite(3, 3), theta(5), complete(5), k5_minus_edge()):
            space = RotationSpace(g)
            orders |= self.orders_checked(map(space.embedding_at, range(space.total)))
        assert orders == {1, 2, 3, 4, 5, 6, 10, 12, 18, 20}

    def test_random_multigraphs(self):
        rng = random.Random(19)
        embeddings = []
        for g in random_graphs(23, 40):
            space = RotationSpace(g)
            embeddings += [space.embedding_at(rng.randrange(space.total)) for _ in range(25)]
        assert any(len(set(e.graph.edges)) < e.graph.edge_count for e in embeddings)
        self.orders_checked(embeddings)

    def test_conftest_group_orders(self, theta5_systems):
        for order, e in theta5_systems.items():
            assert self.orders_checked([e]) == {order}

    def test_roots_started_and_finished(self, stream_roots):
        # Only least-degree roots start (all 20 darts of K5); most are cut
        # against the least stream so far.  Serializing every root, a K5
        # chain would start and finish 17,060.
        assert stream_roots(lambda: genus_distribution(complete(5)))[1:] == (2000, 498)
        pipeline_k5_stages.cache_clear()
        try:
            assert stream_roots(pipeline_k5_stages)[1:] == (6930, 1629)
        finally:
            pipeline_k5_stages.cache_clear()


class TestIsomorphism:
    def test_witness_for_relabeling(self, theta5_systems):
        rng = random.Random(13)
        e = theta5_systems[5]
        for _ in range(40):
            e2 = random_relabel(rng, e)
            w = are_isomorphic(e, e2)
            assert w is not None
            assert canonical_key(apply_iso(e, w)) == canonical_key(e2)

    def test_non_isomorphic_theta5(self, theta5_systems):
        assert are_isomorphic(theta5_systems[10], theta5_systems[5]) is None

    def test_one_vertex_graph(self):
        e = make_embedding(MultiGraph(1, ()), [()])
        assert are_isomorphic(e, e) == IsoWitness(vertex_map={1: 1}, edge_map={})
        key = canonical_key(e)
        assert key == bytes([1, 0, 0])
        assert canonical_embedding(key) == e
        (c,) = dedup([e, e], "equivalence")
        assert (c.genus, c.group_order, c.chirality) == (0, 1, NON_ORIENTABLE)
        assert trace_faces(e).faces == ((),)
        assert c.face_degrees == (0,)

    def test_genus_and_groups_agree_on_equal_keys(self):
        rng = random.Random(14)
        for _ in range(40):
            e = random_embedding(rng)
            e2 = random_relabel(rng, e)
            assert automorphism_group_order(e) == automorphism_group_order(e2)
            assert trace_faces(e).stats.genus == trace_faces(e2).stats.genus


class TestAutomorphisms:
    def test_theta5_group_orders(self, theta5_systems):
        assert {g: automorphism_group_order(e) for g, e in theta5_systems.items()} == {
            2: 2,
            10: 10,
            5: 5,
        }

    def test_graph_automorphism_counts(self):
        assert graph_automorphism_count(complete_bipartite(3, 3)) == 72
        assert graph_automorphism_count(complete(5)) == 120
        assert graph_automorphism_count(complete(2)) == 2
        assert graph_automorphism_count(petersen()) == 120
        assert graph_automorphism_count(theta(5)) == 2 * 120  # vertex swap x parallel copies

    def test_embedding_group_divides_graph_group(self):
        rng = random.Random(15)
        for _ in range(60):
            e = random_embedding(rng)
            assert graph_automorphism_count(e.graph) % automorphism_group_order(e) == 0

    @staticmethod
    def check_generator(g):
        perms = list(graph_automorphisms(g))
        assert len(perms) == len(set(perms)) == graph_automorphism_count(g)
        nd = 2 * g.edge_count
        dv = g.dart_vertex
        for perm in perms:
            assert sorted(perm) == list(range(nd))
            vmap = {}
            for d in range(nd):
                assert perm[d ^ 1] == perm[d] ^ 1
                assert vmap.setdefault(dv[d], dv[perm[d]]) == dv[perm[d]]
            assert sorted(vmap.values()) == sorted(vmap)

    def test_generator_on_torus_table_graphs(self):
        for name, spec, *_, aut, _ in TORUS_TABLE:
            g = build_graph(spec)
            assert graph_automorphism_count(g) == aut, name
            self.check_generator(g)

    def test_generator_with_parallel_edges(self):
        self.check_generator(theta(5))
        assert len(list(graph_automorphisms(theta(5)))) == 240
        rng = random.Random(31)
        parallel = 0
        for _ in range(30):
            g = random_embedding(rng, max_vertices=5, extra_edges=5).graph
            parallel += len(set(map(frozenset, g.edges))) < g.edge_count
            self.check_generator(g)
        assert parallel >= 10

    def test_generator_guard_keeps_darts_in_a_byte(self):
        assert len(list(graph_automorphisms(theta(2)))) == 4
        with pytest.raises(SizeGuardExceeded):
            next(graph_automorphisms(theta(129), max_edges=200))


class TestChirality:
    def test_theta5_all_achiral(self, theta5_systems):
        for e in theta5_systems.values():
            assert chirality(e) == NON_ORIENTABLE

    def test_k33_double_torus_achiral(self):
        e = from_neighbor_lists(K33_NEIGHBOR_ROTATIONS)
        assert trace_faces(e).stats.genus == 2
        assert chirality(e) == NON_ORIENTABLE

    def test_chirality_of_reverse(self):
        rng = random.Random(16)
        for _ in range(40):
            e = random_embedding(rng)
            assert chirality(e) == chirality(reverse(e))


class TestDedup:
    def test_chiral_pair_merges_in_equivalence_mode(self):
        rng = random.Random(17)
        e = None
        for _ in range(500):
            cand = random_embedding(rng)
            if chirality(cand) == ORIENTABLE:
                e = cand
                break
        assert e is not None
        both = [e, reverse(e)]
        assert len(dedup(both, "iso")) == 2
        assert len(dedup(both, "equivalence")) == 1

    def test_sorted_and_deterministic(self):
        rng = random.Random(18)
        embs = [random_embedding(rng) for _ in range(30)]
        classes = dedup(embs, "iso")
        keys = [c.canonical_key for c in classes]
        assert keys == sorted(keys)
        shuffled = list(embs)
        rng.shuffle(shuffled)
        assert [c.canonical_key for c in dedup(shuffled, "iso")] == keys

    def test_class_invariants_populated(self, theta5_systems):
        classes = dedup(theta5_systems.values(), "equivalence")
        assert sorted(c.group_order for c in classes) == [2, 5, 10]
        assert all(c.genus == 2 and c.face_degrees == (10,) for c in classes)

    def test_iso_equals_two_orientable_plus_non(self):
        rng = random.Random(19)
        embs = []
        for _ in range(60):
            e = random_embedding(rng)
            embs += [e, reverse(e)]
        iso = dedup(embs, "iso")
        eq = dedup(embs, "equivalence")
        orientable = sum(1 for c in eq if c.chirality == ORIENTABLE)
        non = len(eq) - orientable
        assert len(iso) == 2 * orientable + non

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            dedup([], "both")

    def test_stream_sets_per_input_and_per_class(self, stream_sets):
        # equivalence: each input's own and its reversal's, none per class;
        # iso: each input's own, plus the representative's reversal per class.
        rng = random.Random(20)
        embs = [random_embedding(rng) for _ in range(20)]
        embs += [random_relabel(rng, e) for e in embs] + [reverse(e) for e in embs[:10]]
        for mode, per_input, per_class in (("equivalence", 2, 0), ("iso", 1, 1)):
            classes, taken = stream_sets(lambda: dedup(embs, mode))
            assert len(classes) < len(embs)
            assert taken == per_input * len(embs) + per_class * len(classes)


class TestMultigraphKey:
    def test_invariance(self):
        rng = random.Random(20)
        for _ in range(40):
            e = random_embedding(rng)
            e2 = random_relabel(rng, e)
            assert multigraph_key(e.graph) == multigraph_key(e2.graph)

    def test_distinguishes(self):
        assert multigraph_key(prism(3)) != multigraph_key(complete_bipartite(3, 3))
        assert multigraph_key(theta(3)) != multigraph_key(theta(4))


def _relabelled_graph(rng, g):
    """``g`` with its vertices permuted and its edges shuffled."""
    vperm = list(range(1, g.n + 1))
    rng.shuffle(vperm)
    edges = [(vperm[v - 1], vperm[u - 1]) for u, v in g.edges]
    rng.shuffle(edges)
    return MultiGraph(g.n, tuple(edges))


def _plus(g, *extra):
    return MultiGraph(g.n, g.edges + extra)


# Equal sizes and equal sorted vertex profiles, yet not isomorphic.
K5_MINUS = k5_minus_edge()  # vertices 4 and 5 are not adjacent
PROFILE_TWINS = [
    (prism(3), complete_bipartite(3, 3)),
    (_plus(prism(3), (1, 2)), _plus(prism(3), (1, 4))),
    (_plus(K5_MINUS, (1, 2), (1, 4), (3, 5)), _plus(K5_MINUS, (1, 2), (3, 4), (3, 5))),
]


def _plain_automorphism_count(g):
    """Vertex permutations keeping every multiplicity, times the parallel-edge bijections."""
    mult = Counter(frozenset(e) for e in g.edges)
    vertex_maps = sum(
        all(mult[frozenset(p[u - 1] for u in pair)] == k for pair, k in mult.items())
        for p in permutations(range(1, g.n + 1))
    )
    return vertex_maps * math.prod(math.factorial(k) for k in mult.values())


class TestSameGraph:
    """``_same_graph`` against comparing ``multigraph_key``."""

    @staticmethod
    def check_pairs(pairs):
        graphs = {id(g): g for pair in pairs for g in pair}
        keys = {i: multigraph_key(g) for i, g in graphs.items()}
        same = 0
        for g, h in pairs:
            equal = keys[id(g)] == keys[id(h)]
            assert _same_graph(g, h) == equal
            same += equal
        return same

    def test_torus_table_pairs(self):
        graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE]
        assert self.check_pairs([(g, h) for g in graphs for h in graphs]) == len(graphs)

    def test_random_graphs_and_relabellings(self):
        rng = random.Random(37)
        graphs = random_graphs(41, 40)
        relabelled = [_relabelled_graph(rng, g) for g in graphs]
        assert self.check_pairs(list(zip(graphs, relabelled))) == len(graphs)
        assert any(len(set(g.edges)) < g.edge_count for g in graphs)
        assert self.check_pairs([(g, h) for g in graphs for h in relabelled]) > len(graphs)

    def test_profile_twins(self):
        for g, h in PROFILE_TWINS:
            assert sorted(_vertex_profiles(_mult_matrix(g))) == sorted(_vertex_profiles(_mult_matrix(h)))
            assert self.check_pairs([(g, h), (h, g), (g, g)]) == 1

    def test_size_guard_on_both_graphs(self):
        big = complete(17)
        for g, h in ((big, complete(5)), (complete(5), big)):
            with pytest.raises(SizeGuardExceeded):
                _same_graph(g, h)

    def test_automorphism_counts_of_the_named_graphs(self):
        graphs = [g for pair in PROFILE_TWINS for g in pair]
        graphs += [K5_MINUS, complete(4), complete(5), theta(5), octahedron()]
        for g in graphs:
            count = _plain_automorphism_count(g)
            assert graph_automorphism_count(g) == count
            assert len(set(graph_automorphisms(g))) == count
