"""Exhaustive scans, genus distributions, theta classes, chord diagrams."""

from __future__ import annotations

import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from rotsys import (
    NON_ORIENTABLE,
    BudgetExceeded,
    ChordDiagram,
    GenusRecord,
    InvalidEmbedding,
    MultiGraph,
    SizeGuardExceeded,
    automorphism_group_order,
    build_graph,
    canonical_key,
    chirality,
    circulant,
    complement,
    complete,
    complete_bipartite,
    dedup,
    exhaustive_classes,
    face_pattern,
    genus_distribution,
    graph_automorphism_count,
    k4_plus,
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
from rotsys.canon import class_key
from rotsys.enumeration import RotationSpace, scan_rotation_space, theta5_classes
from rotsys.suites import TORUS_TABLE, TORUS_TABLE_EXTRA

from conftest import product_automorphisms, random_graphs, system_at


def small_torus_graphs():
    """Torus-table graphs with at most 8,000 systems: K4, K5, K3,3, 3-prism, K3,4, cube, C8+, petersen."""
    graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE]
    return [g for g in graphs if rotation_space_size(g) <= 8000]


def pinned_size(space):
    """Number of systems of the pinned subspace of ``space``."""
    return math.prod(map(len, space.pinned_orders))


class TestRotationSpace:
    def test_size(self):
        assert rotation_space_size(theta(5)) == 576
        assert rotation_space_size(complete(5)) == 7776
        assert rotation_space_size(complete_bipartite(3, 3)) == 64
        assert rotation_space_size(complete(6)) == 191102976

    def test_every_index_distinct_and_normalized(self):
        # The pinned subspace indexes distinct systems of the whole space.
        for g in (theta(3), complete(4), complete_bipartite(3, 3), k4_plus()):
            space = RotationSpace(g)
            whole = {system_at(g, space.orders, i).rot for i in range(space.total)}
            pinned = [space.embedding_at(i).rot for i in range(pinned_size(space))]
            assert len(whole) == space.total
            assert len(set(pinned)) == len(pinned) and set(pinned) <= whole

    def test_kernel_matches_trace_faces(self):
        # Random products of sliced order lists, of at most 200 systems.
        rng = random.Random(51)
        for g in small_torus_graphs() + random_graphs(53):
            space = RotationSpace(g)
            nd = 2 * g.edge_count
            for _ in range(3):
                orders = sliced(rng, space.orders, 200)
                faces = all_faces(g, orders)
                expect_hist = [faces.count(f) for f in range(nd + 2)]
                for f in sorted(set(faces)) + [-1, nd + 1]:
                    hist, matches = _kernel.scan(orders, nd, f)
                    assert hist == expect_hist
                    assert matches == [k for k, fk in enumerate(faces) if fk == f]

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
    return trace_faces(system_at(g, orders, index)).stats.f


def all_faces(g, orders):
    """Face counts, by trace_faces, of every system of the product of ``orders``, in index order."""
    return [faces_at(g, orders, i) for i in range(math.prod(len(o) for o in orders))]


def check_scan(orders, nd, faces):
    """_kernel.scan over the whole product of ``orders`` against its systems' face counts."""
    expect = [faces.count(f) for f in range(nd + 2)]
    for f in sorted(set(faces)) + [-1]:
        hist, matches = _kernel.scan(orders, nd, f)
        assert hist == expect
        assert matches == [k for k, fk in enumerate(faces) if fk == f]


def slices(o):
    """Every non-empty contiguous slice of the list ``o``."""
    return [o[a:b] for a in range(len(o)) for b in range(a + 1, len(o) + 1)]


def sliced(rng, orders, most):
    """A random contiguous slice of each vertex's orders, with at most ``most`` systems in all.

    The vertices take their slices in a random order, each at most as long
    as the room the earlier ones leave.
    """
    out = list(orders)
    room = most
    for v in rng.sample(range(len(orders)), len(orders)):
        size = rng.randint(1, min(len(orders[v]), room))
        a = rng.randint(0, len(orders[v]) - size)
        out[v] = orders[v][a:a + size]
        room //= size
    return out


def pinned_orders(g):
    """The order lists that exhaustive_classes passes to the kernel at genus 1, the same in either mode."""
    seen = []

    def stub(orders, nd, target_f):
        seen.append(orders)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "matches", stub)
        for mode in ("iso", "equivalence"):
            exhaustive_classes(g, genus=1, mode=mode)
    assert seen[0] == seen[1]
    return seen[0]


@pytest.fixture
def expansions(monkeypatch):
    """A one-item list that counts the states the kernel expands (calls of ``_kernel._expand``)."""
    calls = [0]
    original = _kernel._expand

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(_kernel, "_expand", counted)
    return calls


class TestKernel:
    """The elimination scan: per level, one histogram per boundary-dart state.

    Each test scans whole products of sliced order lists; a part of a space
    is scanned that way.
    """

    def test_inner_vertex_above_vertex_0_with_split_contexts(self):
        # Every product of one contiguous slice per vertex, of two spaces
        # whose vertex with the most orders is not vertex 0.
        g = complete(5)
        o = RotationSpace(g).orders
        for base in ([o[0][:3], o[1], o[2][:2], o[3][:1], o[4][:1]],
                     [o[0][:2], o[1][:2], o[2], o[3][:1], o[4][2:4]]):
            for orders in itertools.product(*map(slices, base)):
                check_scan(list(orders), 20, all_faces(g, orders))

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
            for orders in itertools.product(*map(slices, RotationSpace(g).orders)):
                check_scan(list(orders), 2 * g.edge_count, all_faces(g, orders))
        # With the degree-3 vertices held to one order, only the degree-2 vertices remain.
        o = RotationSpace(k4_minus).orders
        assert k4_minus.degree(1) == k4_minus.degree(4) == 2
        for a in o[1]:
            for b in o[2]:
                orders = [o[0], [a], [b], o[3]]
                check_scan(orders, 10, all_faces(k4_minus, orders))

    def test_single_order_lists(self):
        rng = random.Random(67)
        g = complete(5)
        o = RotationSpace(g).orders
        pinned = [o[0][4:5]] + o[1:]  # the pinned case: one order, not the first
        for _ in range(5):
            orders = sliced(rng, pinned, 100)
            check_scan(orders, 20, all_faces(g, orders))
        # Each vertex pinned in turn: where degrees differ, a pinned vertex
        # is still fixed before every vertex that branches, even one of
        # lower degree.
        mixed = [wheel(4), k4_plus(), complete_bipartite(3, 4)] + random_graphs(69, 10)
        for h in mixed:
            o = RotationSpace(h).orders
            for v in range(h.n):
                orders = [x[-1:] if w == v else x for w, x in enumerate(o)]
                check_scan(orders, 2 * h.edge_count, all_faces(h, orders))
        for g in [g, build_graph("octahedron")] + random_graphs(69, 10):
            o = RotationSpace(g).orders
            single = [x[i % len(x):][:1] for i, x in enumerate(o)]
            check_scan(single, 2 * g.edge_count, all_faces(g, single))

    def test_one_order_vertices_are_fixed_first(self):
        # scan steps the one-order levels in a loop and recurses only into
        # the levels that branch.
        spaces = [pinned_orders(build_graph(spec)) for _, spec, *_ in TORUS_TABLE + TORUS_TABLE_EXTRA]
        for h in random_graphs(69, 10):
            o = RotationSpace(h).orders
            spaces += [[x[-1:] if w == v else x for w, x in enumerate(o)] for v in range(h.n)]
        for orders in spaces:
            vertex_of = {d: v for v, o in enumerate(orders) for d in o[0]}
            seq = _kernel._elimination_order(orders, [vertex_of[d] for d in range(len(vertex_of))])
            assert sorted(seq) == list(range(len(orders)))
            branches = [len(orders[w]) > 1 for w in seq]
            assert branches == sorted(branches)

    def test_uncached_rows(self, monkeypatch):
        rng = random.Random(71)
        g = complete(5)
        o = RotationSpace(g).orders
        whole = [o[0][:2]] + o[1:]  # 2,592 systems
        spaces = [whole] + [sliced(rng, whole, 40) for _ in range(4)]
        faces = [all_faces(g, orders) for orders in spaces]
        for cap in (0, 6, 18):  # none, one row, three rows kept
            monkeypatch.setattr(_kernel, "_MAX_TABLE", cap)
            for orders, fs in zip(spaces, faces):
                check_scan(orders, 20, fs)

    def test_pinned_torus_spaces_match_trace_faces(self):
        rng = random.Random(73)
        for spec in ("circulant(7,1,2)", "circulant(8,1,2)", "complete_bipartite(4,4)"):
            g = build_graph(spec)
            pinned = pinned_orders(g)
            for _ in range(4):
                orders = sliced(rng, pinned, 80)
                check_scan(orders, 2 * g.edge_count, all_faces(g, orders))

    def test_pinned_c8_2_and_k44_whole_ranges(self):
        # Every match has the torus face count by trace_faces, a seeded
        # sample of 2,000 other systems does not, and the histogram covers
        # the whole space.
        rng = random.Random(79)
        for spec in ("circulant(8,1,2)", "complete_bipartite(4,4)"):
            g = build_graph(spec)
            f = g.edge_count - g.n  # genus 1
            orders = pinned_orders(g)
            total = math.prod(len(x) for x in orders)
            hist, matches = _kernel.scan(orders, 2 * g.edge_count, f)
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
        pinned = pinned_orders(g)
        orders = pinned[:3] + [o[2:4] for o in pinned[3:]]  # 1,728 systems
        faces = all_faces(g, orders)
        expanded = {}
        default = _kernel._MAX_TABLE
        for cap in (default, 0, 1, 3):
            monkeypatch.setattr(_kernel, "_MAX_TABLE", cap)
            expansions[0] = 0
            check_scan(orders, 28, faces)
            expanded[cap] = expansions[0]
        assert expanded[0] > expanded[3] > expanded[default]

    def test_states_expanded_on_pinned_c8_2(self, expansions):
        g = build_graph("circulant(8,1,2)")
        orders = pinned_orders(g)
        hist, matches = _kernel.scan(orders, 32, 8)
        assert math.prod(len(x) for x in orders) == 839808 and hist[8] == len(matches) == 319
        assert expansions[0] == 1566

    def test_large_graphs_with_tiny_spaces(self):
        # A 200-cycle has one system; with a parallel edge it has 402 darts
        # (more than a byte addresses) and 4 systems.  The scan takes no
        # size guard, which only the byte tables of the orbit pass need.
        n = 200
        cycle = MultiGraph(n, tuple((i, i + 1) for i in range(1, n)) + ((1, n),))
        assert scan_rotation_space(cycle, 2) == ({2: 1}, [0])
        # A 3,000-cycle: its one-order levels are stepped in a loop, not
        # one recursive call each.
        big = MultiGraph(3000, tuple((i, i + 1) for i in range(1, 3000)) + ((1, 3000),))
        assert scan_rotation_space(big, 2) == ({2: 1}, [0])
        g = MultiGraph(n, cycle.edges + ((1, 2),))
        space = RotationSpace(g)
        assert 2 * g.edge_count > 256 and space.total == 4
        for orders in itertools.product(*map(slices, space.orders)):
            check_scan(list(orders), 2 * g.edge_count, all_faces(g, orders))


def check_matches(orders, least=0):
    """_kernel.matches against scan's matches, for every face count from ``least`` to nd/2 + 2."""
    nd = sum(len(o[0]) for o in orders)
    hist, _ = _kernel.scan(orders, nd, -1)
    for f in range(least, nd // 2 + 3):
        expect = _kernel.scan(orders, nd, f)[1] if hist[f] else []
        assert _kernel.matches(orders, nd, f) == expect, f


def pendant(g):
    """``g`` with one more vertex, of degree 1, joined to vertex 1."""
    return MultiGraph(g.n + 1, g.edges + ((1, g.n + 1),))


class TestMatches:
    """The face-length bounded pass against the histogram scan."""

    def test_shortest_face(self):
        cycle = MultiGraph(200, tuple((i, i + 1) for i in range(1, 200)) + ((1, 200),))
        graphs = ((complete(5), 3), (complete_bipartite(4, 4), 4), (petersen(), 5), (build_graph("cube"), 4),
                  (theta(3), 2), (cycle, 200), (pendant(complete(4)), 1))
        for g, ell in graphs:
            orders = RotationSpace(g).orders
            vertex_of = [0] * (2 * g.edge_count)
            for v, o in enumerate(orders):
                for d in o[0]:
                    vertex_of[d] = v
            assert _kernel._shortest_face(orders, vertex_of) == ell

    def test_torus_rows_pinned(self):
        for _, spec, *_ in TORUS_TABLE:
            check_matches(pinned_orders(build_graph(spec)))
        # K6 from 8 faces up: at genus 2 and 3 (7 and 5 faces) its pinned
        # space holds about 10^5 and 10^6 matches, too many to list in Tier-1.
        check_matches(pinned_orders(complete(6)), 8)

    def test_whole_spaces(self):
        # Simple graphs (ell 3 and 4), theta graphs with one vertex pinned
        # and random multigraphs (ell 2), and graphs with a vertex of
        # degree 1 (ell 1).
        k5_minus = MultiGraph(5, tuple(e for e in complete(5).edges if e != (4, 5)))
        for g in (complete(5), k5_minus, complete_bipartite(3, 3), pendant(complete(4)), pendant(wheel(4))):
            check_matches(RotationSpace(g).orders)
        for m in range(2, 8):
            u, v = RotationSpace(theta(m)).orders
            check_matches([u[:1], v])
        for g in random_graphs(83):
            check_matches(RotationSpace(g).orders)

    def test_sliced_and_uncached(self, monkeypatch):
        rng = random.Random(89)
        spaces = [sliced(rng, pinned_orders(build_graph(spec)), 3000)
                  for spec in ("circulant(8,1,2)", "complete_bipartite(4,4)", "complement(cube)", "petersen")]
        spaces += [sliced(rng, RotationSpace(g).orders, 500) for g in random_graphs(97, 10)]
        spaces += [sliced(rng, RotationSpace(pendant(complete(5))).orders, 2000)]
        for cap in (_kernel._MAX_TABLE, 0, 1, 3):
            monkeypatch.setattr(_kernel, "_MAX_TABLE", cap)
            for orders in spaces:
                check_matches(orders)

    def test_states_expanded(self, expansions):
        # The bound cuts the states of pinned K4,4 and C8(2) at genus 1; on
        # pinned octahedron no state above the last level can fall short,
        # so the pass keeps no lengths and expands the states scan does.
        for spec, f, scanned, bounded in (("complete_bipartite(4,4)", 8, 1668, 219),
                                          ("circulant(8,1,2)", 8, 1566, 989), ("octahedron", 6, 238, 238)):
            g = build_graph(spec)
            orders = pinned_orders(g)
            expansions[0] = 0
            found = _kernel.scan(orders, 2 * g.edge_count, f)[1]
            assert expansions[0] == scanned
            expansions[0] = 0
            assert _kernel.matches(orders, 2 * g.edge_count, f) == found
            assert expansions[0] == bounded


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

    def test_k7_torus(self, expansions):
        # Two routes to one count: the orbit pass over the bounded scan's
        # matches, and the 240 systems with 14 faces that the unbounded scan
        # of the whole 3.6 * 10^14 space measured.
        classes = exhaustive_classes(complete(7), genus=1, budget=10**15)
        assert expansions[0] == 1595
        assert [c.group_order for c in classes] == [42, 42]
        assert sum(5040 // c.group_order for c in classes) == 240
        mirror = dedup([c.representative for c in classes], "equivalence")
        assert [c.chirality for c in mirror] == ["orientable"]

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

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_classes(theta(3), genus=1, mode="mirror")


class TestOrbitMarking:
    """Orbit marking against the plain scan-everything-then-dedup path."""

    @staticmethod
    def check_against_plain_path(g, f):
        space = RotationSpace(g)
        _, matches = scan_rotation_space(g, f)
        for mode in ("iso", "equivalence"):
            plain = dedup((system_at(g, space.orders, i) for i in matches), mode)
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

    def test_orbit_stabiliser(self, monkeypatch):
        # |orbit| x |stabiliser| = |group acting|, with the stabiliser taken
        # from automorphism_group_order and chirality independently; the
        # orbit's own group order and achirality must agree with them, for
        # stored automorphisms and, with the cap at 1, generated ones.  An
        # orbit under Aut(G) x mirror is one iso class of |Aut G| / order
        # systems when achiral, and two when chiral.  The pass visits the
        # pinned subspace only, yet the sizes of the orbits it meets cover
        # the whole space, and with stored automorphisms it meets each
        # equivalence class once, at its first member in the subspace.
        graphs = small_torus_graphs() + random_graphs(43)
        for cap in (enumeration.MAX_STORED_AUTOMORPHISMS, 1):
            monkeypatch.setattr(enumeration, "MAX_STORED_AUTOMORPHISMS", cap)
            for g in graphs:
                aut = graph_automorphism_count(g)
                space = RotationSpace(g)
                covered = 0
                pinned = range(pinned_size(space))
                found = list(space.orbits(pinned))
                for i, size, order, achiral in found:
                    e = space.embedding_at(i)
                    covered += size
                    assert order == automorphism_group_order(e)
                    assert achiral == (chirality(e) == NON_ORIENTABLE)
                    assert size * order == (1 if achiral else 2) * aut
                assert covered == space.total
                if cap > 1:
                    firsts: dict[bytes, int] = {}
                    for i in pinned:
                        firsts.setdefault(class_key(space.embedding_at(i), "equivalence"), i)
                    assert [i for i, *_ in found] == sorted(firsts.values())

    def test_generated_automorphisms_give_the_stored_orbits(self, monkeypatch):
        graphs = [complete(4), complete_bipartite(3, 3), theta(5)] + random_graphs(45, 10)
        stored = [list(space.orbits(range(pinned_size(space)))) for space in map(RotationSpace, graphs)]
        monkeypatch.setattr(enumeration, "MAX_STORED_AUTOMORPHISMS", 1)
        generated = [list(space.orbits(range(pinned_size(space)))) for space in map(RotationSpace, graphs)]
        assert generated == stored

    def test_sparse_marks_give_the_bitmap_orbits(self):
        # Under 1/512 of the pinned subspace, marks go in a set instead of a
        # bitmap.  An orbit's first index is its least in the subspace, so a
        # prefix of the subspace meets exactly the orbits that start in it.
        space = RotationSpace(build_graph("octahedron"))
        size = pinned_size(space)
        prefix = range(size // 600)
        assert len(prefix) * 512 < size
        full = list(space.orbits(range(size)))
        assert list(space.orbits(prefix)) == [o for o in full if o[0] < len(prefix)]

    @staticmethod
    def orbit_peak_bytes(space, indices):
        tracemalloc.start()
        try:
            found = list(space.orbits(indices))
            return found, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_with_a_high_degree_vertex(self):
        # The hub of wheel(8) has 5,040 cyclic orders; a table holding every
        # rotation of each would take over 5 MB.  The table of the 5,040
        # orders and their digits, the digits of their reversals, the pin's
        # marks on them and the 6.5 KB bitmap of the 51,712 systems of the
        # pinned subspace fit in 1 MB.
        space = RotationSpace(wheel(8))
        found, peak = self.orbit_peak_bytes(space, range(200))
        assert pinned_size(space) == 51712
        assert [i for i, *_ in found][:3] == [0, 1, 2]
        assert peak < 1 << 20

    def test_memory_with_a_large_automorphism_group(self, monkeypatch):
        # Above the cap the automorphisms are generated for the pin and for
        # each orbit, so the pass saves most of what the 5,040 of K1,7 take
        # stored.  A space keeps the group it stored, so the cap is lowered
        # before a second space is built.  The center is pinned, and its
        # stabiliser, the whole group, has one orbit on its 720 orders.
        g = complete_bipartite(1, 7)
        group_bytes = sum(sys.getsizeof(p) for p in product_automorphisms(g))
        space = RotationSpace(g)
        stored, stored_peak = self.orbit_peak_bytes(space, range(1))
        assert len(space._stored_conjugations) == 5040
        assert pinned_size(space) == 1
        monkeypatch.setattr(enumeration, "MAX_STORED_AUTOMORPHISMS", 64)
        space = RotationSpace(g)
        generated, peak = self.orbit_peak_bytes(space, range(1))
        assert space._stored_conjugations is None
        assert space._moved == space._landings == {}
        assert generated == stored == [(0, 720, 7, True)]
        assert peak < stored_peak - group_bytes / 2

    def test_k5_applies_40_of_120_automorphisms_per_class(self, monkeypatch):
        # Each vertex of K5 goes to the pinned one under 24 automorphisms;
        # 4 of them carry its order to the one representative there, and 4
        # to its reversal.  Every orbit under Aut(G) x mirror takes those
        # 5 x 8: the 6 + 31 + 13 equivalence classes at genus 1, 2 and 3.
        # At genus 2, 17 orbits are achiral and 14 chiral, so both modes
        # walk the same 31 orbits for the 45 iso or 31 equivalence classes.
        landing = RotationSpace._landing
        applied = []

        def counted(self, u, digit):
            found = landing(self, u, digit)
            applied.append(len(found))
            return found

        monkeypatch.setattr(RotationSpace, "_landing", counted)
        space = RotationSpace(complete(5))
        found = list(space.orbits(range(pinned_size(space))))
        assert len(found) == 6 + 31 + 13
        assert len(applied) == 5 * len(found)
        assert sum(applied) == 40 * len(found)
        for mode, classes in (("iso", 45), ("equivalence", 31)):
            applied.clear()
            assert len(exhaustive_classes(complete(5), genus=2, mode=mode)) == classes
            assert sum(applied) == 40 * 31 == 1240


class TestPin:
    """The pinned vertex of exhaustive_classes and its representative orders."""

    @staticmethod
    def stabiliser_orbits(g, v):
        """Orbits of Stab(v), joined by reversal, on the cyclic orders at v (0-based)."""
        darts = g.darts_at[v]
        group = [p for p in product_automorphisms(g) if p[darts[0]] in darts]

        def normal(cyc):
            k = cyc.index(min(cyc))
            return tuple(cyc[k:] + cyc[:k])

        orbit_of = {}
        for cyc in RotationSpace(g).orders[v]:
            if cyc in orbit_of:
                continue
            images = {normal([p[d] for d in cyc]) for p in group}
            images |= {normal(list(reversed(c))) for c in images}
            for c in images:
                orbit_of[c] = cyc
        return orbit_of

    def test_representatives_are_a_transversal_at_the_best_vertex(self):
        for g in small_torus_graphs() + random_graphs(57):
            space = RotationSpace(g)
            v, reps = space._pin
            orbit_of = self.stabiliser_orbits(g, v)
            assert reps == sorted(reps) and reps[0] == 0
            assert sorted(orbit_of[space.orders[v][d]] for d in reps) == sorted(set(orbit_of.values()))
            # the fewest orbits per order, ties to the lowest vertex
            ratios = [Fraction(len(set(self.stabiliser_orbits(g, w).values())), space.counts[w])
                      for w in range(g.n)]
            assert v == ratios.index(min(ratios))
            assert Fraction(len(reps), space.counts[v]) == min(ratios)

    def test_generated_automorphisms_give_the_stored_pin(self, monkeypatch):
        graphs = [complete(5), build_graph("octahedron"), theta(5)] + random_graphs(59, 10)
        stored = [RotationSpace(g) for g in graphs]
        assert all(space._stored_conjugations for space in stored)  # kept under the default cap
        monkeypatch.setattr(enumeration, "MAX_STORED_AUTOMORPHISMS", 1)
        generated = [RotationSpace(g) for g in graphs]
        for space, other in zip(stored, generated):
            assert other._stored_conjugations is None
            assert other._pin == space._pin

    def test_systems_scanned(self, monkeypatch):
        scanned = []

        def counted(orders, nd, target_f):
            scanned.append(math.prod(len(o) for o in orders))
            return []

        monkeypatch.setattr(_kernel, "matches", counted)
        monkeypatch.setattr(_kernel, "scan", lambda orders, nd, f: ([0] * (nd + 2), counted(orders, nd, f)))
        for spec, pinned in (("complete_bipartite(4,4)", 279936), ("complete_bipartite(3,5)", 18432),
                             ("circulant(8,1,2)", 839808)):
            g = build_graph(spec)
            for mode in ("iso", "equivalence"):
                scanned.clear()
                exhaustive_classes(g, genus=1, mode=mode)
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

    def test_visits_the_pinned_subspace(self, monkeypatch):
        # The orbit pass walks only the systems whose order at the pinned
        # vertex is a representative; their orbits still cover the space.
        orbits = RotationSpace.orbits
        visited = []

        def counted(self, indices):
            visited.append(len(indices))
            return orbits(self, indices)

        monkeypatch.setattr(RotationSpace, "orbits", counted)
        for g, pinned in ((complete(5), 1296), (complete_bipartite(3, 4), 576), (theta(5), 24),
                          (complete_bipartite(3, 3), 32)):
            visited.clear()
            d = genus_distribution(g)
            assert visited == [pinned]
            assert sum(r.raw_systems for r in d.records) == rotation_space_size(g)

    def test_iso_equals_two_orientable_plus_non(self):
        for rec in genus_distribution(complete(5)).records:
            assert rec.iso_classes == 2 * rec.orientable + rec.non_orientable

    @staticmethod
    def plain_records(g):
        """The records by the plain path: scan per face count, dedup, count the classes."""
        space = RotationSpace(g)
        hist, _ = scan_rotation_space(g, -1)
        records = []
        for f in sorted(hist, reverse=True):
            _, matches = scan_rotation_space(g, f)
            classes = dedup((system_at(g, space.orders, i) for i in matches), "equivalence")
            non = sum(c.chirality == NON_ORIENTABLE for c in classes)
            records.append(GenusRecord(
                genus=(2 - g.n + g.edge_count - f) // 2,
                iso_classes=2 * len(classes) - non,
                equivalence_classes=len(classes),
                orientable=len(classes) - non,
                non_orientable=non,
                group_orders=tuple(sorted(c.group_order for c in classes)),
                raw_systems=len(matches),
            ))
        return tuple(records)

    def test_torus_rows_match_plain_path(self):
        graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE]
        small = [g for g in graphs if rotation_space_size(g) <= 50_000]
        assert len(small) == 9
        for g in small:
            assert genus_distribution(g).records == self.plain_records(g)

    def test_random_multigraphs_match_plain_path(self):
        graphs = random_graphs(67)
        assert any(len(set(g.edges)) < g.edge_count for g in graphs)
        for g in graphs:
            assert genus_distribution(g).records == self.plain_records(g)

    def test_size_guard(self):
        # The guard is checked before any orbit and before the byte tables
        # of the pass: a 130-cycle plus a chord has 262 darts, more than a
        # byte addresses, and only 4 systems.
        chorded = MultiGraph(130, tuple((i, i + 1) for i in range(1, 130)) + ((1, 130), (1, 3)))
        assert rotation_space_size(chorded) == 4
        for g in (circulant(17, [1]), chorded):
            with pytest.raises(SizeGuardExceeded):
                genus_distribution(g)
            with pytest.raises(SizeGuardExceeded):
                exhaustive_classes(g, genus=0)


class TestGroupOrder:
    """Group orders against the graph automorphisms that commute with the rotation."""

    @staticmethod
    def commuting(e, groups):
        """How many automorphisms of ``e.graph`` commute with ``e``'s rotation; ``groups`` caches them per graph."""
        if e.graph not in groups:
            groups[e.graph] = list(product_automorphisms(e.graph))
        succ = e.succ
        return sum(all(perm[succ[d]] == succ[perm[d]] for d in range(len(perm))) for perm in groups[e.graph])

    def test_group_order_counts_commuting_automorphisms(self):
        mirrored = 0  # equivalence classes keyed by the reversal of their input
        groups: dict = {}
        for g in small_torus_graphs() + random_graphs(61):
            space = RotationSpace(g)
            for i, _, order_of_orbit, _ in space.orbits(range(pinned_size(space))):
                e = space.embedding_at(i)
                order = self.commuting(e, groups)
                assert automorphism_group_order(e) == order == order_of_orbit
                for mode in ("iso", "equivalence"):
                    (c,) = dedup([e], mode)
                    assert c.group_order == order
                    assert self.commuting(c.representative, groups) == order
                    mirrored += c.canonical_key != canonical_key(e)
        assert mirrored > 0


class TestStreamSets:
    def test_k5(self, stream_sets):
        # None for the distribution, whose orbits give the group orders and
        # chirality.  One per orbit under Aut(G) x mirror for its key, and
        # one more per chiral orbit for its reversal's, in either mode: 31 =
        # 17 achiral + 14 chiral orbits at genus 2 (the 45 iso classes), and
        # 13 = 2 + 11 at genus 3.
        assert stream_sets(lambda: genus_distribution(complete(5)))[1] == 0
        assert stream_sets(lambda: exhaustive_classes(complete(5), genus=2, mode="iso"))[1] == 45
        assert stream_sets(lambda: exhaustive_classes(complete(5), genus=2, mode="equivalence"))[1] == 45
        assert stream_sets(lambda: exhaustive_classes(complete(5), genus=3, mode="equivalence"))[1] == 24


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
