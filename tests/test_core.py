"""Multigraphs, rotation systems, face tracing, Euler statistics."""

from __future__ import annotations

import random
import re

import pytest

from rotsys import (
    InvalidEmbedding,
    MultiGraph,
    build_graph,
    complement,
    complete,
    complete_bipartite,
    circulant,
    cube,
    from_neighbor_lists,
    k4_plus,
    k5_minus_edge,
    make_embedding,
    octahedron,
    petersen,
    prism,
    reverse,
    surface_stats,
    theta,
    trace_faces,
    triangle_multi,
    wheel,
)

from conftest import random_embedding


class TestConstructors:
    def test_theta5(self):
        g = theta(5)
        assert g.n == 2 and g.edge_count == 5
        assert all(pair == (1, 2) for pair in g.edges)

    def test_triangle_multi(self):
        g = triangle_multi(1, 2, 3)
        assert g.n == 3 and g.edge_count == 6
        assert g.degree_sequence() == (3, 4, 5)

    def test_complete2(self):
        assert complete(2).edges == ((1, 2),)

    def test_edge_numbering_sorted_with_parallel_copies_consecutive(self):
        g = k4_plus()
        assert g.edges == ((1, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_wheel(self):
        g = wheel(4)
        assert g.n == 5 and g.edge_count == 8
        assert g.degree_sequence() == (3, 3, 3, 3, 4)

    def test_k5_minus_edge(self):
        g = k5_minus_edge()
        assert g.edge_count == 9 and g.degree_sequence() == (3, 3, 4, 4, 4)

    def test_sizes(self):
        assert (petersen().n, petersen().edge_count) == (10, 15)
        assert (cube().n, cube().edge_count) == (8, 12)
        assert (octahedron().n, octahedron().edge_count) == (6, 12)
        assert (prism(3).n, prism(3).edge_count) == (6, 9)
        assert circulant(8, [1, 4]).edge_count == 12
        assert complement(cube()).edge_count == 16
        assert complete_bipartite(3, 4).edge_count == 12

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            MultiGraph(2, ((1, 1),))
        with pytest.raises(ValueError):
            circulant(5, [0])

    def test_complement_needs_simple(self):
        with pytest.raises(ValueError):
            complement(theta(2))

    def test_build_graph_specs(self):
        assert build_graph("theta(5)").edge_count == 5
        assert build_graph("complement(cube)").edge_count == 16
        assert build_graph("circulant(8,1,4)").edge_count == 12
        assert build_graph("complete_bipartite(3,3)").n == 6
        assert build_graph("wheel") == build_graph("wheel(4)") == wheel(4)
        assert build_graph("wheel(5)") == wheel(5)
        for spec in ("no_such_graph(3)", "circulant(0,1)"):
            with pytest.raises(ValueError):
                build_graph(spec)

    @pytest.mark.parametrize(
        "spec",
        ["complete", "complete_bipartite(3)", "wheel(4,5)", "theta(1,2)", "theta()", "triangle_multi(1,2)",
         "k4_plus(9)", "petersen(1)", "circulant(8)", "prism", "complement(complete)"],
    )
    def test_build_graph_refuses_a_wrong_argument_count(self, spec):
        with pytest.raises(ValueError, match="wrong number of arguments"):
            build_graph(spec)

    @pytest.mark.parametrize("spec", ["complete(x)", "theta(5.0)", "circulant(8,1,y)"])
    def test_build_graph_refuses_an_argument_that_is_not_an_integer(self, spec):
        with pytest.raises(ValueError, match=rf"graph spec {re.escape(repr(spec))} must be integers"):
            build_graph(spec)


class TestMakeEmbedding:
    def test_theta5_number2(self, theta5_systems):
        e = theta5_systems[10]
        assert e.rotation_edges(1) == (1, 2, 3, 4, 5)
        assert e.rotation_edges(2) == (1, 2, 3, 4, 5)

    def test_k2(self):
        e = make_embedding(complete(2), [[1], [1]])
        assert surface_stats(e) == trace_faces(e).stats

    def test_missing_dart_rejected(self):
        with pytest.raises(InvalidEmbedding):
            make_embedding(theta(5), [(1, 2, 3, 4, 5), (1, 2, 3, 4)])

    def test_duplicate_dart_rejected(self):
        with pytest.raises(InvalidEmbedding):
            make_embedding(theta(5), [(1, 2, 3, 4, 5), (1, 2, 3, 4, 4)])

    def test_wrong_vertex_rejected(self):
        g = complete(3)
        with pytest.raises(InvalidEmbedding):
            make_embedding(g, [(1, 2), (1, 2), (2, 3)])

    def test_cyclic_normalization(self):
        g = theta(3)
        a = make_embedding(g, [(1, 2, 3), (1, 3, 2)])
        b = make_embedding(g, [(3, 1, 2), (2, 1, 3)])
        assert a == b
        assert trace_faces(a) == trace_faces(b)


class TestFaceTracing:
    def test_theta5_faces(self, theta5_systems):
        for e in theta5_systems.values():
            fs = trace_faces(e)
            assert fs.stats.f == 1 and len(fs.faces[0]) == 10
            assert fs.stats.genus == 2

    def test_k2_single_face(self):
        fs = trace_faces(make_embedding(complete(2), [[1], [1]]))
        assert fs.face_lengths() == (2,)
        assert fs.stats.genus == 0

    def test_planar_theta3(self):
        e = make_embedding(theta(3), [(1, 2, 3), (1, 3, 2)])
        assert trace_faces(e).face_lengths() == (2, 2, 2)
        assert surface_stats(e).genus == 0

    def test_toroidal_theta3(self):
        e = make_embedding(theta(3), [(1, 2, 3), (1, 2, 3)])
        assert trace_faces(e).face_lengths() == (6,)
        assert surface_stats(e).genus == 1

    def test_darts_partition_and_lengths(self):
        rng = random.Random(42)
        for _ in range(100):
            e = random_embedding(rng)
            fs = trace_faces(e)
            darts = [d for walk in fs.faces for d in walk]
            assert sorted(darts) == list(range(2 * e.graph.edge_count))
            assert sum(fs.face_lengths()) == 2 * e.graph.edge_count
            assert fs.stats.genus >= 0
            chi = fs.stats.n - fs.stats.eps + fs.stats.f
            assert chi % 2 == 0


class TestReverse:
    def test_involution(self):
        rng = random.Random(3)
        for _ in range(50):
            e = random_embedding(rng)
            assert reverse(reverse(e)) == e

    def test_reverse_preserves_stats(self, theta5_systems):
        rng = random.Random(4)
        for e in list(theta5_systems.values()) + [random_embedding(rng) for _ in range(50)]:
            assert surface_stats(reverse(e)) == surface_stats(e)

    def test_reversed_theta5_one_face(self, theta5_systems):
        assert trace_faces(reverse(theta5_systems[10])).stats.f == 1

    def test_k2_fixed(self):
        e = make_embedding(complete(2), [[1], [1]])
        assert reverse(e) == e


class TestNeighborLists:
    def test_round_trip(self):
        e = from_neighbor_lists([[2, 3], [1, 3], [1, 2]])
        assert e.graph.n == 3 and e.graph.edge_count == 3

    def test_inconsistent_rejected(self):
        with pytest.raises(InvalidEmbedding):
            from_neighbor_lists([[2, 3], [1], [1, 2]])

    def test_repeated_neighbor_rejected(self):
        with pytest.raises(InvalidEmbedding):
            from_neighbor_lists([[2, 2], [1, 1]])

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidEmbedding):
            from_neighbor_lists([[2], [1], [4], [3]])
