"""Exhaustive scans, genus distributions, theta classes, chord diagrams."""

from __future__ import annotations

import os
import random
import sys
import tracemalloc

import pytest

from rotsys import (
    NON_ORIENTABLE,
    BudgetExceeded,
    ChordDiagram,
    automorphism_group_order,
    build_graph,
    chirality,
    complete,
    complete_bipartite,
    dedup,
    exhaustive_classes,
    face_pattern,
    genus_distribution,
    graph_automorphism_count,
    make_embedding,
    petersen,
    rotation_space_size,
    theta,
    theta5_chord_analysis,
    theta_embeddings,
    trace_faces,
    wheel,
)
from rotsys import _kernel, enumeration
from rotsys.canon import graph_automorphisms
from rotsys.enumeration import RotationSpace, scan_rotation_space, theta5_classes
from rotsys.suites import TORUS_TABLE

from conftest import random_embedding


def small_torus_graphs():
    """Torus-table graphs with at most 8,000 systems: K4, K5, K3,3, 3-prism, K3,4, cube, C8+, petersen."""
    graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE]
    return [g for g in graphs if rotation_space_size(g) <= 8000]


def random_graphs(seed: int, count: int = 30):
    """Random loopless multigraphs, many with parallel edges."""
    rng = random.Random(seed)
    return [random_embedding(rng, max_vertices=5, extra_edges=4).graph for _ in range(count)]


class TestRotationSpace:
    def test_size(self):
        assert rotation_space_size(theta(5)) == 576
        assert rotation_space_size(complete(5)) == 7776
        assert rotation_space_size(complete_bipartite(3, 3)) == 64
        assert rotation_space_size(complete(6)) == 191102976

    def test_every_index_distinct_and_normalized(self):
        space = RotationSpace(theta(3))
        seen = set()
        for i in range(space.total):
            e = space.embedding_at(i)
            seen.add(e.rot)
        assert len(seen) == space.total == 4

    def test_python_and_numba_kernels_agree(self):
        if not _kernel.numba_enabled():
            pytest.skip("numba unavailable")
        space = RotationSpace(complete_bipartite(3, 4))
        nd = 2 * space.graph.edge_count
        hist_py, match_py = _kernel.scan_py(space.orders, nd, 0, space.total, 5)
        hist_nb, match_nb = _kernel.scan_numba(space.orders, nd, 0, space.total, 5)
        assert hist_py == hist_nb
        assert match_py == match_nb


class TestExhaustive:
    def test_theta5_double_torus(self):
        classes = exhaustive_classes(theta(5), genus=2, mode="equivalence")
        assert len(classes) == 3
        assert sorted(c.group_order for c in classes) == [2, 5, 10]
        assert all(c.chirality == "non_orientable" for c in classes)

    def test_k33_double_torus(self):
        classes = exhaustive_classes(complete_bipartite(3, 3), genus=2, mode="equivalence")
        assert len(classes) == 1
        assert classes[0].chirality == "non_orientable"

    def test_k5_genus3(self):
        classes = exhaustive_classes(complete(5), genus=3, mode="equivalence")
        assert len(classes) == 13
        assert sum(1 for c in classes if c.chirality == "orientable") == 11
        assert all(c.face_degrees == (20,) for c in classes)

    def test_worker_independence(self):
        a = exhaustive_classes(complete_bipartite(3, 4), genus=1, mode="equivalence", workers=1)
        b = exhaustive_classes(complete_bipartite(3, 4), genus=1, mode="equivalence", workers=3)
        assert [c.canonical_key for c in a] == [c.canonical_key for c in b]

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            exhaustive_classes(petersen(), genus=1, budget=10)
        assert err.value.required == 1024

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            exhaustive_classes(theta(5), genus=2, faces=3)
        with pytest.raises(ValueError):
            exhaustive_classes(theta(5))

    def test_impossible_genus_empty(self):
        assert exhaustive_classes(theta(5), genus=3) == []


class TestOrbitMarking:
    """Orbit marking against the plain scan-everything-then-dedup path."""

    @staticmethod
    def check_against_plain_path(g, f):
        space = RotationSpace(g)
        _, matches = scan_rotation_space(g, f)
        for mode in ("iso", "equivalence"):
            plain = dedup((space.embedding_at(i) for i in matches), mode)
            marked = exhaustive_classes(g, faces=f, mode=mode)
            assert [c.canonical_key for c in marked] == [c.canonical_key for c in plain]
            assert marked == plain

    def test_torus_rows_match_plain_path(self):
        for g in small_torus_graphs():
            self.check_against_plain_path(g, 2 - g.n + g.edge_count)

    def test_random_multigraphs_match_plain_path(self):
        for g in random_graphs(41):
            hist, _ = scan_rotation_space(g, -1)
            for f in hist:
                self.check_against_plain_path(g, f)

    def test_orbit_stabiliser(self):
        # |orbit| x |stabiliser| = |group acting|, with the stabiliser taken
        # from automorphism_group_order and chirality independently.
        for g in small_torus_graphs() + random_graphs(43):
            aut = graph_automorphism_count(g)
            space = RotationSpace(g)
            for mode in ("iso", "equivalence"):
                covered = 0
                for i, size in space.orbits(range(space.total), mode):
                    e = space.embedding_at(i)
                    covered += size
                    if mode == "iso":
                        assert size * automorphism_group_order(e) == aut
                    else:
                        achiral = 2 if chirality(e) == NON_ORIENTABLE else 1
                        assert size * automorphism_group_order(e) * achiral == 2 * aut
                assert covered == space.total

    def test_generated_automorphisms_give_the_stored_orbits(self, monkeypatch):
        graphs = [complete(4), complete_bipartite(3, 3), theta(5)] + random_graphs(45, 10)
        for mode in ("iso", "equivalence"):
            stored = [list(RotationSpace(g).orbits(range(rotation_space_size(g)), mode)) for g in graphs]
            monkeypatch.setattr(enumeration, "MAX_STORED_AUTOMORPHISMS", 1)
            assert [list(RotationSpace(g).orbits(range(rotation_space_size(g)), mode)) for g in graphs] == stored
            monkeypatch.undo()

    def test_sparse_marks_give_the_bitmap_orbits(self):
        # Under 1/512 of the space, marks go in a set instead of a bitmap.
        # An orbit's first index is its least, so a prefix of the space
        # meets exactly the orbits that start in it.
        space = RotationSpace(build_graph("octahedron"))
        prefix = range(space.total // 600)
        for mode in ("iso", "equivalence"):
            full = list(space.orbits(range(space.total), mode))
            assert list(space.orbits(prefix, mode)) == [o for o in full if o[0] < len(prefix)]

    @staticmethod
    def orbit_peak_bytes(space, indices):
        tracemalloc.start()
        try:
            found = list(space.orbits(indices, "equivalence"))
            return found, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_with_a_high_degree_vertex(self):
        # The hub of wheel(8) has 5,040 cyclic orders; a table holding every
        # rotation of each would take over 5 MB.  The 161 KB bitmap, the
        # table of the 5,040 stored orders and their digits fit in 1 MB.
        space = RotationSpace(wheel(8))
        found, peak = self.orbit_peak_bytes(space, range(200))
        assert [i for i, _ in found][:3] == [0, 1, 2]
        assert peak < 1 << 20

    def test_memory_with_a_large_automorphism_group(self, monkeypatch):
        # Above the cap the automorphisms are generated for each orbit, so
        # the pass saves most of what the 5,040 of K1,7 take stored.
        g = complete_bipartite(1, 7)
        group_bytes = sum(sys.getsizeof(p) for p in graph_automorphisms(g))
        space = RotationSpace(g)
        stored, stored_peak = self.orbit_peak_bytes(space, range(space.total))
        monkeypatch.setattr(enumeration, "MAX_STORED_AUTOMORPHISMS", 64)
        generated, peak = self.orbit_peak_bytes(space, range(space.total))
        assert generated == stored == [(0, 720)]
        assert peak < stored_peak - group_bytes / 2

    def test_orbits_reject_unknown_mode(self):
        with pytest.raises(ValueError):
            list(RotationSpace(theta(3)).orbits([], "mirror"))


class TestGenusDistribution:
    def test_k5(self):
        d = genus_distribution(complete(5))
        assert d.equivalence_counts() == {1: 6, 2: 31, 3: 13}
        assert d.total_equivalence() == 50
        assert d.spectrum() == (1, 2, 3)

    def test_k33(self):
        d = genus_distribution(complete_bipartite(3, 3))
        assert d.equivalence_counts() == {1: 2, 2: 1}
        assert d.spectrum() == (1, 2)

    def test_k2(self):
        d = genus_distribution(complete(2))
        assert d.equivalence_counts() == {0: 1}

    def test_raw_systems_cover_space(self):
        for g in (complete(5), complete_bipartite(3, 3), theta(5), theta(4)):
            d = genus_distribution(g)
            assert sum(r.raw_systems for r in d.records) == rotation_space_size(g)

    def test_iso_count_weighted_by_graph_group_covers_space(self):
        # sum over iso classes of |Aut(G)| / |Aut(embedding)| = number of systems
        for g in (complete(5), complete_bipartite(3, 3), theta(5)):
            aut_g = graph_automorphism_count(g)
            total = 0
            for rec in genus_distribution(g).records:
                f = 2 - 2 * rec.genus - g.n + g.edge_count
                for c in exhaustive_classes(g, faces=f, mode="iso"):
                    total += aut_g // c.group_order
            assert total == rotation_space_size(g)

    def test_one_pass_and_raw_systems_match_scan(self, monkeypatch):
        scan = enumeration.scan_rotation_space
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return scan(*args, **kwargs)

        monkeypatch.setattr(enumeration, "scan_rotation_space", counted)
        for g in (complete(5), complete_bipartite(3, 3), theta(5)) + tuple(random_graphs(47, 10)):
            calls.clear()
            d = genus_distribution(g)
            assert len(calls) <= 1
            hist, _ = scan(g, -1)
            expect = {(2 - g.n + g.edge_count - f) // 2: c for f, c in hist.items()}
            assert {r.genus: r.raw_systems for r in d.records} == expect

    def test_worker_independence(self):
        for g in (complete(5), complete_bipartite(3, 3)):
            assert genus_distribution(g, workers=1) == genus_distribution(g, workers=3)

    def test_iso_equals_two_orientable_plus_non(self):
        for rec in genus_distribution(complete(5)).records:
            assert rec.iso_classes == 2 * rec.orientable + rec.non_orientable


class TestThetaEmbeddings:
    def test_known_counts(self):
        assert len(theta_embeddings(3, 1)) == 1
        assert len(theta_embeddings(5, 2)) == 3

    def test_matches_exhaustive(self):
        for m, genus in ((3, 1), (4, 1), (5, 2), (5, 1)):
            smart = {c.canonical_key for c in theta_embeddings(m, genus)}
            full = {c.canonical_key for c in exhaustive_classes(theta(m), genus=genus, mode="iso")}
            assert smart == full

    def test_theta7_runs(self):
        classes = theta_embeddings(7, 3, mode="equivalence")
        assert len(classes) > 0
        assert all(c.face_degrees == (14,) for c in classes)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            theta_embeddings(9, 4, budget=10)


class TestChordDiagrams:
    def test_face_patterns_of_theta5(self, theta5_systems):
        lengths = {
            group: face_pattern(e).chord_lengths() for group, e in theta5_systems.items()
        }
        assert lengths[2] == (3, 3, 3, 3, 5)
        assert lengths[10] == (5, 5, 5, 5, 5)
        assert lengths[5] == (3, 3, 3, 3, 3)

    def test_pattern_is_class_invariant(self, theta5_systems):
        import conftest

        rng = random.Random(77)
        for e in theta5_systems.values():
            d = face_pattern(e)
            for _ in range(20):
                assert face_pattern(conftest.random_relabel(rng, e)) == d

    def test_analysis_counts(self):
        an = theta5_chord_analysis()
        assert len(an.labelled_classes) == 5
        assert len(an.canonical_diagrams) == 4
        assert len(an.realizable) == 3
        assert len(an.unrealized) == 1
        assert an.unrealized[0].chord_lengths() == (3, 3, 5, 5, 5)

    def test_labelled_classes_cover_all_diagrams(self):
        an = theta5_chord_analysis()
        canon = {ChordDiagram.canonical(10, list(m)) for m in an.labelled_classes}
        assert canon == set(an.canonical_diagrams)

    def test_realized_are_the_three_theta5_patterns(self, theta5_systems):
        an = theta5_chord_analysis()
        assert set(an.realizable) == {face_pattern(e) for e in theta5_systems.values()}

    def test_invalid_chords_rejected(self):
        with pytest.raises(ValueError):
            ChordDiagram.canonical(10, [(0, 2)])  # equal parity
        with pytest.raises(ValueError):
            ChordDiagram.canonical(10, [(0, 1)])  # adjacent
