"""Contraction, splitting, deletion, insertion, subdivision."""

from __future__ import annotations

import random

import pytest

from rotsys import (
    MultiGraph,
    CornerRef,
    InvalidEmbedding,
    SplitSpec,
    add_edge_in_face,
    all_splits,
    canonical_key,
    complete,
    contract_edge,
    delete_edge,
    dedup,
    from_neighbor_lists,
    k4_plus,
    make_embedding,
    multigraph_key,
    split_vertex,
    subdivide_edge,
    surface_stats,
    theta,
    trace_faces,
    triangle_multi,
    wheel,
)
from rotsys.enumeration import pipeline_k5_stages, theta5_classes

from conftest import random_embedding
from test_canon import K33_NEIGHBOR_ROTATIONS


class TestSplitContract:
    def test_round_trip_label_exact(self):
        rng = random.Random(101)
        done = 0
        while done < 300:
            e = random_embedding(rng)
            v = rng.randint(1, e.graph.n)
            deg = e.degree(v)
            if deg < 2:
                continue
            spec = SplitSpec(
                v, rng.randrange(deg), rng.randint(1, deg - 1), rng.randint(1, e.graph.edge_count + 1)
            )
            e2 = split_vertex(e, spec)
            assert surface_stats(e2).genus == surface_stats(e).genus
            assert surface_stats(e2).f == surface_stats(e).f
            assert contract_edge(e2, spec.new_edge_id) == e
            done += 1

    def test_contract_preserves_faces_and_genus(self, theta5_systems):
        e = theta5_systems[2]
        for spec_start in range(5):
            e2 = split_vertex(e, SplitSpec(1, spec_start, 2, 6))
            back = contract_edge(e2, 6)
            assert back == e

    def test_contract_parallel_rejected(self):
        e = make_embedding(theta(3), [(1, 2, 3), (1, 2, 3)])
        with pytest.raises(InvalidEmbedding):
            contract_edge(e, 1)

    def test_t123_contracts_to_theta5(self):
        theta5_keys = {c.canonical_key for c in theta5_classes()}
        for cls in pipeline_k5_stages().t123:
            e = cls.representative
            single = [
                eid
                for eid, (u, v) in enumerate(e.graph.edges, start=1)
                if e.graph.multiplicity(u, v) == 1
            ]
            assert len(single) == 1
            contracted = contract_edge(e, single[0])
            assert multigraph_key(contracted.graph) == multigraph_key(theta(5))
            st = surface_stats(contracted)
            assert st.genus == 2 and st.f == 1
            assert canonical_key(contracted) in theta5_keys

    def test_k33_contracts_to_theta5(self):
        # contract the four bold edges AC, AE, BD, BF (A..F as 1..6)
        e = from_neighbor_lists(K33_NEIGHBOR_ROTATIONS)
        where = {label: label for label in range(1, 7)}  # live vertex id per original label
        for a_lbl, b_lbl in ((1, 3), (1, 5), (2, 4), (2, 6)):
            u, v = where[a_lbl], where[b_lbl]
            eid = next(
                i
                for i, (p, q) in enumerate(e.graph.edges, start=1)
                if {p, q} == {u, v}
            )
            e = contract_edge(e, eid)
            merged, gone = min(u, v), max(u, v)
            for lbl, cur in where.items():
                if cur == gone:
                    where[lbl] = merged
                elif cur > gone:
                    where[lbl] = cur - 1
        assert multigraph_key(e.graph) == multigraph_key(theta(5))
        st = surface_stats(e)
        assert st.genus == 2 and st.f == 1
        assert canonical_key(e) in {c.canonical_key for c in theta5_classes()}

    def test_split_degree2_vertex_becomes_a_path(self):
        # middle vertex of a 3-vertex path: the split subdivides the through path
        path3 = make_embedding(MultiGraph(3, ((1, 2), (2, 3))), [[1], [1, 2], [2]])
        split = split_vertex(path3, SplitSpec(2, 0, 1, 3))
        assert split.graph.degree_sequence() == (1, 1, 2, 2)
        # degree-2 vertex of a triangle: the cycle lengthens to a 4-cycle
        e = make_embedding(complete(3), [(1, 2), (1, 3), (2, 3)])
        e2 = split_vertex(e, SplitSpec(1, 0, 1, 4))
        assert e2.graph.degree_sequence() == (2, 2, 2, 2)

    def test_bad_specs_rejected(self, theta5_systems):
        e = theta5_systems[10]
        with pytest.raises(ValueError):
            split_vertex(e, SplitSpec(1, 0, 5, 6))
        with pytest.raises(ValueError):
            split_vertex(e, SplitSpec(1, 0, 0, 6))
        with pytest.raises(ValueError):
            split_vertex(e, SplitSpec(1, 0, 2, 9))


class TestDeleteAdd:
    def test_round_trip_label_exact(self):
        rng = random.Random(102)
        done = 0
        while done < 300:
            e = random_embedding(rng)
            faces = trace_faces(e)
            face_of = {}
            for fi, walk in enumerate(faces.faces):
                for d in walk:
                    face_of[d] = fi
            candidates = [
                eid
                for eid in range(1, e.graph.edge_count + 1)
                if face_of[2 * (eid - 1)] != face_of[2 * eid - 1]
            ]
            if not candidates:
                continue
            eid = rng.choice(candidates)
            result, cu, cv = delete_edge(e, eid)
            assert surface_stats(result).genus == surface_stats(e).genus
            assert surface_stats(result).f == surface_stats(e).f - 1
            assert add_edge_in_face(result, cu, cv, eid) == e
            done += 1

    def test_same_face_rejected_in_genus_preserving_mode(self, theta5_systems):
        with pytest.raises(InvalidEmbedding):
            delete_edge(theta5_systems[10], 1)

    def test_unknown_edge_ids_rejected(self, theta5_systems):
        e = theta5_systems[10]
        for eid in (0, e.graph.edge_count + 1):
            with pytest.raises(ValueError, match="unknown edge id"):
                delete_edge(e, eid)

    def test_pendant_edge_lies_on_one_face(self):
        # A triangle with a pendant edge 4 at vertex 3: the two darts of
        # edge 4 follow each other on one facial walk.
        g = MultiGraph(4, ((1, 2), (2, 3), (1, 3), (3, 4)))
        e = make_embedding(g, [[1, 3], [1, 2], [2, 3, 4], [4]])
        with pytest.raises(InvalidEmbedding, match="lie on one face"):
            delete_edge(e, 4)

    def test_k2_plus_edge_gives_spherical_digon(self):
        e = make_embedding(complete(2), [[1], [1]])
        e2 = add_edge_in_face(e, CornerRef(0, 0), CornerRef(0, 1), 2)
        assert multigraph_key(e2.graph) == multigraph_key(theta(2))
        st = surface_stats(e2)
        assert st.f == 2 and st.genus == 0

    def test_corners_on_distinct_faces_rejected(self):
        e = make_embedding(theta(3), [(1, 2, 3), (1, 3, 2)])  # planar, 3 faces
        with pytest.raises(InvalidEmbedding):
            add_edge_in_face(e, CornerRef(0, 0), CornerRef(1, 0), 4)

    def test_corners_at_same_vertex_rejected(self, theta5_systems):
        walk = trace_faces(theta5_systems[10]).faces[0]
        dv = theta5_systems[10].graph.dart_vertex
        i, j = [p for p in range(len(walk)) if dv[walk[p]] == 1][:2]
        with pytest.raises(InvalidEmbedding):
            add_edge_in_face(theta5_systems[10], CornerRef(0, i), CornerRef(0, j), 6)


class TestSubdivide:
    def test_theta5_face_grows_by_two(self, theta5_systems):
        e = theta5_systems[2]
        for eid in range(1, 6):
            sub = subdivide_edge(e, eid)
            assert trace_faces(sub).face_lengths() == (12,)
            st = surface_stats(sub)
            assert st.genus == 2 and st.f == 1 and st.n == 3 and st.eps == 6

    def test_contract_either_half(self, theta5_systems):
        e = theta5_systems[5]
        sub = subdivide_edge(e, 2)
        assert contract_edge(sub, sub.graph.edge_count) == e  # second half, label-exact
        assert canonical_key(contract_edge(sub, 2)) == canonical_key(e)

    def test_k4_plus_subdivision_is_homeomorphic_k5_minus_minus(self):
        g = k4_plus()
        rot = [[1, 2, 3, 4], [1, 2, 5, 6], [3, 5, 7], [4, 6, 7]]
        e = make_embedding(g, rot)
        sub = subdivide_edge(e, 1)
        assert sub.graph.degree_sequence() == (2, 3, 3, 4, 4)


class TestAllSplits:
    def test_theta5_to_t123_raw_count(self):
        target = triangle_multi(1, 2, 3)
        total = sum(len(all_splits(c.representative, target)) for c in theta5_classes())
        assert total == 30

    def test_t123_to_k4_plus_at_most_30(self):
        st = pipeline_k5_stages()
        per_class = [len(all_splits(c.representative, k4_plus())) for c in st.t123]
        assert all(x <= 5 for x in per_class)
        assert sum(per_class) <= 30

    def test_theta5_2_has_no_k33_expansion(self, theta5_systems):
        # K3,3 is four splits away from theta(5): all_splits makes one.
        # The K3,3 chain's own test asserts that the group-10 class has no
        # completion.
        from rotsys import complete_bipartite

        for target in (complete_bipartite(3, 3), theta(6)):
            with pytest.raises(ValueError):
                all_splits(theta5_systems[10], target)

    def test_dedup_counts_match_published(self):
        target = triangle_multi(1, 2, 3)
        candidates = []
        for c in theta5_classes():
            candidates.extend(all_splits(c.representative, target))
        eq = dedup(candidates, "equivalence")
        assert len(eq) == 6
        assert sum(1 for c in eq if c.chirality == "orientable") == 2

    def test_wrong_edge_count_target(self, theta5_systems):
        # One vertex more, but not one edge more.
        assert all_splits(theta5_systems[10], triangle_multi(1, 1, 1)) == []
