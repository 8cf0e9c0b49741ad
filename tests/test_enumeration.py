"""Exhaustive scans, genus distributions, theta classes, chord diagrams."""

from __future__ import annotations

import math
import os
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from rotsys import (
    NON_ORIENTABLE,
    BudgetExceeded,
    ChordDiagram,
    Embedding,
    InvalidEmbedding,
    MultiGraph,
    automorphism_group_order,
    build_graph,
    canonical_key,
    chirality,
    complement,
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

from conftest import random_graphs


def small_torus_graphs():
    """Torus-table graphs with at most 8,000 systems: K4, K5, K3,3, 3-prism, K3,4, cube, C8+, petersen."""
    graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE]
    return [g for g in graphs if rotation_space_size(g) <= 8000]


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

    def test_kernel_matches_trace_faces(self):
        # Random sub-ranges, most starting past 0, where the odometer has
        # to decode its first digits from lo.
        rng = random.Random(51)
        for g in small_torus_graphs() + random_graphs(53):
            space = RotationSpace(g)
            nd = 2 * g.edge_count
            for _ in range(3):
                lo = rng.randrange(space.total)
                hi = rng.randint(lo + 1, min(space.total, lo + 200))
                faces = [trace_faces(space.embedding_at(i)).stats.f for i in range(lo, hi)]
                expect_hist = [faces.count(f) for f in range(nd + 2)]
                for f in sorted(set(faces)) + [-1, nd + 1]:
                    hist, matches = _kernel.scan(space.orders, nd, lo, hi, f)
                    assert hist == expect_hist
                    assert matches == [lo + k for k, fk in enumerate(faces) if fk == f]

    def test_budget_is_checked_before_the_space_is_built(self):
        # K1,10 has 362,880 systems, all cyclic orders of its hub; building
        # them takes about 46 MB, so a peak under 1 MB shows none were built.
        g = complete_bipartite(1, 10)
        calls = (
            lambda: scan_rotation_space(g, 1, budget=10),
            lambda: exhaustive_classes(g, genus=0, budget=10),
            lambda: genus_distribution(g, budget=10),
        )
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceeded) as err:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert err.value.required == 362880
            assert peak < 1 << 20

    def test_graphs_without_a_rotation_space_rejected(self):
        graphs = (
            MultiGraph(1, ()),
            complement(complete(4)),  # four isolated vertices
            complement(complete_bipartite(3, 3)),  # two disjoint triangles
            MultiGraph(3, ((1, 2), (1, 2))),  # isolated vertex 3
        )
        for g in graphs:
            calls = (
                lambda: rotation_space_size(g),
                lambda: scan_rotation_space(g, 1),
                lambda: exhaustive_classes(g, faces=1),
                lambda: exhaustive_classes(g, genus=5),  # a face count below 1
                lambda: genus_distribution(g),
            )
            for call in calls:
                with pytest.raises(InvalidEmbedding):
                    call()


def faces_at(g, orders, index):
    """Face count, by trace_faces, of system ``index`` of the product of ``orders``."""
    rot = []
    for o in orders:
        index, digit = divmod(index, len(o))
        rot.append(o[digit])
    return trace_faces(Embedding(g, tuple(rot))).stats.f


def check_scan(orders, nd, lo, faces):
    """_kernel.scan over ``lo..lo+len(faces)-1`` against those systems' face counts."""
    expect = [faces.count(f) for f in range(nd + 2)]
    for f in sorted(set(faces)) + [-1]:
        hist, matches = _kernel.scan(orders, nd, lo, lo + len(faces), f)
        assert hist == expect
        assert matches == [lo + k for k, fk in enumerate(faces) if fk == f]


def inner_block(orders):
    """The vertex with the most orders, its radix place and the span of one block of its digits.

    The former context kernel took this vertex as its inner vertex; ranges
    cut at these places still split the kernel's aligned blocks.
    """
    counts = [len(o) for o in orders]
    u = counts.index(max(counts))
    place = math.prod(counts[:u])
    return u, place, place * counts[u]


def pinned_orders(g, mode):
    """The order lists that exhaustive_classes passes to the kernel at genus 1."""
    seen = []

    def stub(orders, nd, lo, hi, target_f):
        seen.append(orders)
        return [0] * (nd + 2), []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "scan", stub)
        exhaustive_classes(g, genus=1, mode=mode, workers=1)
    return seen[0]


@pytest.fixture
def expansions(monkeypatch):
    """A one-item list that counts the states the kernel expands (calls of ``_kernel._expand``)."""
    calls = [0]
    original = _kernel._expand

    def counted(b, k, p):
        calls[0] += 1
        return original(b, k, p)

    monkeypatch.setattr(_kernel, "_expand", counted)
    return calls


class TestKernel:
    """The elimination scan: per level, one histogram per boundary-dart state.

    Some test names speak of the former context kernel (an inner vertex
    whose digits were read from a table per traced context); the ranges
    they cut still split the scan's aligned blocks.
    """

    def test_inner_vertex_above_vertex_0_with_split_contexts(self):
        # Every lo, including those inside the u-stride of an earlier
        # context, and hi cutting one system, one stride or one block later.
        o = RotationSpace(complete(5)).orders
        for orders, inner, stride in (([o[0][:3], o[1], o[2][:2], o[3][:1], o[4][:1]], 1, 3),
                                      ([o[0][:2], o[1][:2], o[2], o[3][:1], o[4][2:4]], 2, 4)):
            u, place, block = inner_block(orders)
            assert (u, place) == (inner, stride)
            total = math.prod(len(x) for x in orders)
            faces = [faces_at(complete(5), orders, i) for i in range(total)]
            for lo in range(total):
                for hi in {lo + 1, lo + place + 1, lo + block + 1, total}:
                    check_scan(orders, 20, lo, faces[lo:min(hi, total)])

    def test_inner_vertex_of_degree_1_and_2(self):
        k4_minus = MultiGraph(4, ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
        graphs = (
            MultiGraph(2, ((1, 2),)),  # degree 1
            MultiGraph(3, ((1, 2), (2, 3))),  # a path from a degree-1 vertex
            MultiGraph(2, ((1, 2), (1, 2))),  # degree 2, parallel edges
            complete(3),
            complete_bipartite(1, 3),  # a degree-3 hub among degree-1 leaves
        )
        for g in graphs:
            orders = RotationSpace(g).orders
            total = math.prod(len(x) for x in orders)
            faces = [faces_at(g, orders, i) for i in range(total)]
            for lo in range(total):
                check_scan(orders, 2 * g.edge_count, lo, faces[lo:])
        # With the degree-3 vertices held to one order, the degree-2 vertex 1 is inner.
        o = RotationSpace(k4_minus).orders
        for a in o[1]:
            for b in o[2]:
                orders = [o[0], [a], [b], o[3]]
                assert inner_block(orders)[0] == 0 and k4_minus.degree(1) == 2
                check_scan(orders, 10, 0, [faces_at(k4_minus, orders, 0)])

    def test_single_order_lists(self):
        rng = random.Random(67)
        g = complete(5)
        o = RotationSpace(g).orders
        pinned = [o[0][4:5]] + o[1:]  # the pinned case: one order, not the first
        for _ in range(5):
            lo = rng.randrange(1296)
            hi = rng.randint(lo + 1, min(1296, lo + 100))
            check_scan(pinned, 20, lo, [faces_at(g, pinned, i) for i in range(lo, hi)])
        for g in [g, build_graph("octahedron")] + random_graphs(69, 10):
            o = RotationSpace(g).orders
            single = [x[i % len(x):][:1] for i, x in enumerate(o)]
            check_scan(single, 2 * g.edge_count, 0, [faces_at(g, single, 0)])

    def test_uncached_rows(self, monkeypatch):
        rng = random.Random(71)
        g = complete(5)
        o = RotationSpace(g).orders
        orders = [o[0][:2]] + o[1:]  # inner vertex 1, place 2
        ranges = [(0, 2592)] + [(lo, rng.randint(lo + 1, min(2592, lo + 40))) for lo in rng.sample(range(2592), 4)]
        faces = {r: [faces_at(g, orders, i) for i in range(*r)] for r in ranges}
        for cap in (0, 6, 18):  # none, one row, three rows kept
            monkeypatch.setattr(_kernel, "_MAX_TABLE", cap)
            for (lo, hi), fs in faces.items():
                check_scan(orders, 20, lo, fs)

    def test_pinned_torus_spaces_match_trace_faces(self):
        rng = random.Random(73)
        for spec in ("circulant(7,1,2)", "circulant(8,1,2)", "complete_bipartite(4,4)"):
            g = build_graph(spec)
            for mode in ("iso", "equivalence"):
                orders = pinned_orders(g, mode)
                total = math.prod(len(x) for x in orders)
                _, _, block = inner_block(orders)
                for lo in [total - block // 2 - 1] + [rng.randrange(total) for _ in range(3)]:
                    hi = min(total, lo + rng.randint(1, 2 * block + 2))
                    check_scan(orders, 2 * g.edge_count, lo, [faces_at(g, orders, i) for i in range(lo, hi)])

    def test_pinned_c8_2_and_k44_whole_ranges(self):
        # Every match has the torus face count by trace_faces, a seeded
        # sample of 2,000 other systems does not, and the histogram covers
        # the whole space.
        rng = random.Random(79)
        for spec in ("circulant(8,1,2)", "complete_bipartite(4,4)"):
            g = build_graph(spec)
            f = g.edge_count - g.n  # genus 1
            for mode in ("iso", "equivalence"):
                orders = pinned_orders(g, mode)
                total = math.prod(len(x) for x in orders)
                hist, matches = _kernel.scan(orders, 2 * g.edge_count, 0, total, f)
                assert sum(hist) == total
                assert hist[f] == len(matches) > 0
                assert matches == sorted(set(matches))
                assert all(faces_at(g, orders, i) == f for i in matches)
                hit = set(matches)
                others = [i for i in rng.sample(range(total), 2000 + len(hit)) if i not in hit][:2000]
                assert len(others) == 2000
                assert all(faces_at(g, orders, i) != f for i in others)

    def test_memo_cap_on_a_pinned_sub_range(self, monkeypatch, expansions):
        # With no state, one state and three states memoised, the rest are
        # recomputed; every cap gives the systems' own face counts.
        g = build_graph("circulant(7,1,2)")
        orders = pinned_orders(g, "equivalence")
        total = math.prod(len(x) for x in orders)
        lo = total // 3 + 5
        faces = [faces_at(g, orders, i) for i in range(lo, lo + 1500)]
        expanded = {}
        default = _kernel._MAX_TABLE
        for cap in (default, 0, 1, 3):
            monkeypatch.setattr(_kernel, "_MAX_TABLE", cap)
            expansions[0] = 0
            check_scan(orders, 28, lo, faces)
            expanded[cap] = expansions[0]
        assert expanded[0] > expanded[3] > expanded[default]

    def test_states_expanded_on_pinned_c8_2(self, expansions):
        # The former context kernel traced 139,968 contexts of this space
        # (839,808 systems, 6 orders at its inner vertex).
        g = build_graph("circulant(8,1,2)")
        orders = pinned_orders(g, "equivalence")
        total = math.prod(len(x) for x in orders)
        hist, matches = _kernel.scan(orders, 32, 0, total, 8)
        assert total == 839808 and hist[8] == len(matches) == 319
        assert expansions[0] == 1566

    def test_large_graphs_with_tiny_spaces(self):
        # A 200-cycle has one system; with a parallel edge it has 402 darts
        # (more than a byte addresses) and 4 systems.
        n = 200
        cycle = MultiGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))
        assert scan_rotation_space(cycle, 2) == ({2: 1}, [0])
        g = MultiGraph(n, cycle.edges + ((1, 2),))
        space = RotationSpace(g)
        assert 2 * g.edge_count > 256 and space.total == 4
        faces = [trace_faces(space.embedding_at(i)).stats.f for i in range(4)]
        for lo in range(4):
            for hi in range(lo + 1, 5):
                check_scan(space.orders, 2 * g.edge_count, lo, faces[lo:hi])


class TestScanAgainstDistribution:
    """The scan's histogram against the raw systems per genus of genus_distribution.

    genus_distribution makes no face-count scan: it marks orbits and traces
    one system per class, so it is an independent path to the same counts.
    """

    @staticmethod
    def check(g):
        hist, _ = scan_rotation_space(g, -1)
        raw = {2 - 2 * r.genus - g.n + g.edge_count: r.raw_systems for r in genus_distribution(g).records}
        assert hist == raw

    def test_torus_rows(self):
        graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE]
        small = [g for g in graphs if rotation_space_size(g) <= 50_000]
        assert len(small) == 9
        for g in small:
            self.check(g)

    def test_random_multigraphs(self):
        for g in random_graphs(59):
            self.check(g)


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
        # The pins of the octahedron and C7(2) keep 2 and 3 orders, so the
        # chunks map matches back through several representatives.
        for spec, reps in (("complete_bipartite(3,4)", 1), ("octahedron", 2), ("circulant(7,1,2)", 3)):
            g = build_graph(spec)
            assert len(RotationSpace(g)._pin(True, list(graph_automorphisms(g)))[1]) == reps
            for mode in ("iso", "equivalence"):
                a = exhaustive_classes(g, genus=1, mode=mode, workers=1)
                b = exhaustive_classes(g, genus=1, mode=mode, workers=3)
                assert [c.canonical_key for c in a] == [c.canonical_key for c in b]
                assert a == b

    def test_worker_independence_with_mid_context_chunks(self):
        g = build_graph("circulant(8,1,2)")
        for mode in ("iso", "equivalence"):
            # Up to 3 workers the chunks of the pinned space start on the
            # blocks of the inner vertex's digits; 5 workers start them
            # inside one, splitting its contexts.
            orders = pinned_orders(g, mode)
            step = -(-math.prod(len(x) for x in orders) // 5)
            assert step % inner_block(orders)[2]
            keys = [[c.canonical_key for c in exhaustive_classes(g, genus=1, mode=mode, workers=w)]
                    for w in (1, 2, 3, 5)]
            assert keys[0] == keys[1] == keys[2] == keys[3]

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


class TestPin:
    """The pinned vertex of exhaustive_classes and its representative orders."""

    @staticmethod
    def stabiliser_orbits(g, v, mirror):
        """Orbits of Stab(v), with reversal when ``mirror``, on the cyclic orders at v (0-based)."""
        darts = g.darts_at[v]
        group = [p for p in graph_automorphisms(g) if p[darts[0]] in darts]

        def normal(cyc):
            k = cyc.index(min(cyc))
            return tuple(cyc[k:] + cyc[:k])

        orbit_of = {}
        for cyc in RotationSpace(g).orders[v]:
            if cyc in orbit_of:
                continue
            images = {normal([p[d] for d in cyc]) for p in group}
            if mirror:
                images |= {normal(list(reversed(c))) for c in images}
            for c in images:
                orbit_of[c] = cyc
        return orbit_of

    def test_representatives_are_a_transversal_at_the_best_vertex(self):
        for g in small_torus_graphs() + random_graphs(57):
            space = RotationSpace(g)
            for mirror in (False, True):
                v, reps = space._pin(mirror, list(graph_automorphisms(g)))
                orbit_of = self.stabiliser_orbits(g, v, mirror)
                assert reps == sorted(reps) and reps[0] == 0
                assert sorted(orbit_of[space.orders[v][d]] for d in reps) == sorted(set(orbit_of.values()))
                # the fewest orbits per order, ties to the lowest vertex
                ratios = [Fraction(len(set(self.stabiliser_orbits(g, w, mirror).values())), space.counts[w])
                          for w in range(g.n)]
                assert v == ratios.index(min(ratios))
                assert Fraction(len(reps), space.counts[v]) == min(ratios)

    def test_generated_automorphisms_give_the_stored_pin(self):
        for g in [complete(5), build_graph("octahedron"), theta(5)] + random_graphs(59, 10):
            space = RotationSpace(g)
            for mirror in (False, True):
                assert space._pin(mirror, None) == space._pin(mirror, list(graph_automorphisms(g)))

    def test_systems_scanned(self, monkeypatch):
        scanned = []

        def counted(orders, nd, lo, hi, target_f):
            scanned.append(hi - lo)
            return [0] * (nd + 2), []

        monkeypatch.setattr(_kernel, "scan", counted)
        for spec, pinned in (("complete_bipartite(4,4)", 279936), ("complete_bipartite(3,5)", 18432),
                             ("circulant(8,1,2)", 839808)):
            g = build_graph(spec)
            scanned.clear()
            exhaustive_classes(g, genus=1, mode="equivalence")
            assert sum(scanned) == pinned
            scanned.clear()
            scan_rotation_space(g, -1)  # the oracle stays a full scan
            assert sum(scanned) == rotation_space_size(g)

    def test_space_built_once(self, monkeypatch):
        built = []
        init = RotationSpace.__init__

        def counted(self, graph):
            built.append(graph)
            init(self, graph)

        monkeypatch.setattr(RotationSpace, "__init__", counted)
        exhaustive_classes(complete_bipartite(3, 4), genus=1)
        assert len(built) == 1


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


class TestGroupOrder:
    """Group orders against the graph automorphisms that commute with the rotation."""

    @staticmethod
    def commuting(e):
        succ = e.succ
        return sum(
            all(perm[succ[d]] == succ[perm[d]] for d in range(len(perm)))
            for perm in graph_automorphisms(e.graph)
        )

    def test_group_order_counts_commuting_automorphisms(self):
        mirrored = 0  # equivalence classes keyed by the reversal of their input
        for g in small_torus_graphs() + random_graphs(61):
            space = RotationSpace(g)
            for i, _ in space.orbits(range(space.total), "iso"):
                e = space.embedding_at(i)
                order = self.commuting(e)
                assert automorphism_group_order(e) == order
                for mode in ("iso", "equivalence"):
                    (c,) = dedup([e], mode)
                    assert c.group_order == order
                    assert self.commuting(c.representative) == order
                    mirrored += c.canonical_key != canonical_key(e)
        assert mirrored > 0


class TestStreamSets:
    def test_k5(self, stream_sets):
        # Two per class: 50 classes in the distribution, 45 iso and 31
        # equivalence classes at genus 2.
        assert stream_sets(lambda: genus_distribution(complete(5)))[1] == 100
        assert stream_sets(lambda: exhaustive_classes(complete(5), genus=2, mode="iso"))[1] == 90
        assert stream_sets(lambda: exhaustive_classes(complete(5), genus=2, mode="equivalence"))[1] == 62


class TestThetaEmbeddings:
    def test_known_counts(self):
        assert len(theta_embeddings(3, 1)) == 1
        assert len(theta_embeddings(5, 2)) == 3

    def test_matches_exhaustive(self):
        for m, genus in ((3, 1), (4, 1), (5, 2), (5, 1), (6, 1), (6, 2)):
            for mode in ("iso", "equivalence"):
                smart = theta_embeddings(m, genus, mode=mode)
                full = exhaustive_classes(theta(m), genus=genus, mode=mode)
                assert [c.canonical_key for c in smart] == [c.canonical_key for c in full]
                assert smart == full

    def test_theta7_runs(self):
        classes = theta_embeddings(7, 3, mode="equivalence")
        assert len(classes) > 0
        assert all(c.face_degrees == (14,) for c in classes)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            theta_embeddings(9, 4, budget=10)

    def test_no_edges_rejected(self):
        for m, genus in ((0, 0), (0, 1), (-1, 0)):
            with pytest.raises(ValueError):
                theta_embeddings(m, genus)


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
