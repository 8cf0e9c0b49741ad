"""Exhaustive scans, genus distributions, theta classes, chord diagrams."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

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
    classify,
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
from rotsys import _kernel, canon, core, enumeration, rotation_space
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


def representatives(space):
    """The pinned vertex of ``space`` and its representatives: the digits that are the least order of their orbit."""
    v, first = space._pinned
    return v, [d for d, f in enumerate(first) if d == f]


def differential_graphs():
    """The graphs the pin and landing lists are checked on: the 14 torus rows, random multigraphs, theta(2..8), W6, K1,7."""
    graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE] + random_graphs(59)
    return graphs + [theta(m) for m in range(2, 9)] + [wheel(6), complete_bipartite(1, 7)]


def normal(cyc):
    """A cyclic order as a tuple, least dart first."""
    k = cyc.index(min(cyc))
    return tuple(cyc[k:]) + tuple(cyc[:k])


def relabelled(e, perm):
    """The rotations of the image of ``e`` under the dart permutation ``perm``, each least dart first."""
    dv = e.graph.dart_vertex
    rot: list = [None] * e.graph.n
    for r in e.rot:
        image = [perm[d] for d in r]
        rot[dv[image[0]] - 1] = normal(image)
    return tuple(rot)


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
            pinned = [system_at(g, space.pinned_orders, i).rot for i in range(pinned_size(space))]
            assert len(whole) == space.total
            assert len(set(pinned)) == len(pinned) and set(pinned) <= whole

    def test_vertex_tables_against_each_order(self):
        # The keys read off each vertex's order list, and shifted for later
        # vertices of one degree, against each order's successors written
        # out one by one; the mirror digit against the reversed order's digit.
        for g in [theta(7), wheel(6), complete_bipartite(1, 7), complete_bipartite(2, 4)] + random_graphs(71, 10):
            space = RotationSpace(g)
            darts, position = space._positions
            for orders, (cut, keys, table, rev) in zip(space.orders, space._vertex_tables):
                assert [darts[p] for p in range(cut.start, cut.stop)] == sorted(orders[0])
                for digit, cyc in enumerate(orders):
                    key = bytearray(len(cyc))
                    for d, nxt in zip(cyc, cyc[1:] + cyc[:1]):
                        key[position[d] - cut.start] = position[nxt]
                    assert keys[digit] == key and table[keys[digit]] == digit
                    assert orders[rev[digit]] == (cyc[0], *cyc[:0:-1])

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
                    hist, matches = _kernel.scan(orders, f)
                    assert hist == expect_hist
                    assert matches == [k for k, fk in enumerate(faces) if fk == f]

    def test_faces_against_trace_faces(self):
        # Every member that the orbit pass yields over the whole pinned
        # subspace of the torus rows with at most 8,000 systems, and of
        # random multigraphs, which have parallel edges: its digits give the
        # rotations of the system at its index, and RotationSpace.faces
        # counts that system's faces as trace_faces does.
        graphs = small_torus_graphs() + random_graphs(73)
        assert any(len(set(g.edges)) < g.edge_count for g in graphs)
        for g in graphs:
            space = RotationSpace(g)
            for i, _, _, _, digits, succ in space.orbits(range(pinned_size(space))):
                e = system_at(g, space.pinned_orders, i)
                assert tuple(orders[d] for orders, d in zip(space.orders, digits)) == e.rot
                assert space.faces(succ) == trace_faces(e).stats.f

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
        hist, matches = _kernel.scan(orders, f)
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

    def stub(orders, target_f):
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


@pytest.fixture
def built(monkeypatch):
    """A Counter of the embeddings built, faces traced and class keys decoded while the test runs."""
    counts = Counter()
    init, trace, decode = core.Embedding.__init__, core.trace_faces, canon._decode

    def counted_init(self, *args, **kwargs):
        counts["embeddings"] += 1
        init(self, *args, **kwargs)

    def counted_trace(e):
        counts["traces"] += 1
        return trace(e)

    def counted_decode(key):
        counts["decodes"] += 1
        return decode(key)

    monkeypatch.setattr(core.Embedding, "__init__", counted_init)
    monkeypatch.setattr(core, "trace_faces", counted_trace)
    monkeypatch.setattr(canon, "_decode", counted_decode)
    return counts


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
            hist, matches = _kernel.scan(orders, f)
            assert sum(hist) == total
            assert hist[f] == len(matches) > 0
            assert matches == sorted(set(matches))
            assert all(faces_at(g, orders, i) == f for i in matches)
            hit = set(matches)
            others = [i for i in rng.sample(range(total), 2000 + len(hit)) if i not in hit][:2000]
            assert len(others) == 2000
            assert all(faces_at(g, orders, i) != f for i in others)

    def test_last_level_against_trace_faces(self, monkeypatch):
        # Spaces whose last vertex eliminated has the most orders: theta(m)'s
        # vertex 2 with vertex 1 held to one order (up to 720 orders),
        # wheel(5)'s hub with each rim vertex held to one (24), and 2,916
        # systems of pinned K4,4, whose 6-face systems matches finds with
        # the walks' lengths kept.  Every histogram and match list is the
        # plain filter over trace_faces.
        caps = set()
        expand = _kernel._expand

        def counted(b, *args):
            caps.add(b.cap)
            return expand(b, *args)

        monkeypatch.setattr(_kernel, "_expand", counted)
        spaces = []
        for m in range(2, 8):
            u, v = RotationSpace(theta(m)).orders
            spaces.append((theta(m), [u[:1], v]))
        w = wheel(5)
        spaces.append((w, [o if w.degree(v) == 5 else o[:1] for v, o in enumerate(RotationSpace(w).orders, 1)]))
        k44 = build_graph("complete_bipartite(4,4)")
        spaces.append((k44, [o[3:6] if v in (1, 2, 3, 5) else o for v, o in enumerate(pinned_orders(k44))]))
        for g, orders in spaces:
            nd = 2 * g.edge_count
            vertex_of = {d: v for v, o in enumerate(orders) for d in o[0]}
            seq = _kernel._elimination_order(orders, [vertex_of[d] for d in range(nd)])
            assert len(orders[seq[-1]]) == max(map(len, orders))
            faces = all_faces(g, orders)
            check_scan(orders, nd, faces)
            for f in range(-1, nd + 2):
                assert _kernel.matches(orders, f) == [k for k, fk in enumerate(faces) if fk == f]
        assert len(spaces[5][1][1]) == 720 and len(spaces[6][1][-1]) == 24
        orders = spaces[7][1]
        hist, _ = _kernel.scan(orders, -1)
        assert sum(hist) == 2916 and hist[6] == 68
        caps.clear()
        _kernel.matches(orders, 6)
        assert caps == {4}  # the lengths are kept, capped at K4,4's girth

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
        hist, matches = _kernel.scan(orders, 8)
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
    hist, _ = _kernel.scan(orders, -1)
    for f in range(least, nd // 2 + 3):
        expect = _kernel.scan(orders, f)[1] if hist[f] else []
        assert _kernel.matches(orders, f) == expect, f


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
        # The states scan and matches expand on each torus row's pinned
        # space at genus 1.  On the first five rows matches takes the plain
        # route, keeping no lengths, and expands the states scan does; on
        # the others it keeps them, and the two bounds cut most on K4,4.
        states = {"K4": (7, 7), "K5": (48, 48), "K3,3": (12, 12), "3-prism": (20, 20), "octahedron": (238, 238),
                  "K3,4": (43, 35), "K3,5": (161, 29), "cube": (53, 48), "C8+": (55, 47), "petersen": (83, 54),
                  "C7(2)": (923, 420), "C8(2)": (1566, 522), "complement-of-cube": (526, 176), "K4,4": (667, 35)}
        assert [name for name, *_ in TORUS_TABLE] == list(states)
        for name, spec, *_ in TORUS_TABLE:
            g = build_graph(spec)
            f = g.edge_count - g.n  # genus 1
            orders = pinned_orders(g)
            expansions[0] = 0
            found = _kernel.scan(orders, f)[1]
            scanned, expansions[0] = expansions[0], 0
            assert _kernel.matches(orders, f) == found
            assert (scanned, expansions[0]) == states[name], name
        assert sum(s for s, _ in states.values()) == 4402 and sum(b for _, b in states.values()) == 1691

    def test_euler_bound(self, monkeypatch):
        # Every state the histogram scan memoises closes at most its
        # level's euler + len(p) - cycles(p) faces, the bound matches drops
        # states on, and on most states exactly that many.  Two K4s sharing
        # vertex 1, held to one order, leave two components unfixed; two
        # disjoint K4s have two components at every level.
        started = []
        start, levels = _kernel._start, _kernel._levels

        def with_euler(*args):
            out = levels(*args)
            _kernel._euler(*args, out)
            return out

        monkeypatch.setattr(_kernel, "_start", lambda *args: started.append(start(*args)) or started[-1])
        monkeypatch.setattr(_kernel, "_levels", with_euler)

        def tight(orders):
            """(states at their bound, states) over the memo of one scan of ``orders``."""
            started.clear()
            _kernel.scan(orders, -1)
            b = started[0][0]
            at = 0
            for lv, memo in zip(b.levels, b.memo):
                for p, (_, hist) in memo.items():
                    assert sorted(p) == list(range(len(p)))
                    cycles, seen = 0, set()
                    for i in range(len(p)):
                        cycles += i not in seen
                        while i not in seen:
                            seen.add(i)
                            i = p[i]
                    bound = lv.euler + len(p) - cycles
                    assert hist >> b.width * (bound + 1) == 0
                    at += hist >> b.width * bound & (1 << b.width) - 1 > 0
            return at, sum(map(len, b.memo))

        rows = {name: tight(pinned_orders(build_graph(spec))) for name, spec, *_ in TORUS_TABLE}
        assert rows["C8(2)"] == (958, 1566)
        assert [sum(col) for col in zip(*rows.values())] == [2609, 4402]
        whole = [tight(RotationSpace(g).orders) for g in random_graphs(83)]
        assert [sum(col) for col in zip(*whole)] == [221, 221]
        edges = complete(4).edges
        shared = RotationSpace(MultiGraph(7, edges + tuple((u + 3 * (u > 1), v + 3) for u, v in edges))).orders
        shared[0] = shared[0][:1]
        disjoint = RotationSpace(MultiGraph(8, edges + tuple((u + 4, v + 4) for u, v in edges))).orders
        assert tight(shared) == (6, 14) and tight(disjoint) == (20, 24)
        check_matches(shared)
        check_matches(disjoint)


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
        assert expansions[0] == 1338
        assert [c.group_order for c in classes] == [42, 42]
        assert sum(5040 // c.group_order for c in classes) == 240
        mirror = dedup([c.representative for c in classes], "equivalence")
        assert [c.chirality for c in mirror] == ["orientable"]

    def test_records_decode_on_first_read(self, built):
        # The classification keys each orbit's first member as laid out, so
        # it builds no embedding and decodes and traces nothing.  Reading a
        # record's face degrees decodes its key and traces its
        # representative once; reading them again, or its genus, does
        # neither.
        for call in (lambda: exhaustive_classes(complete(5), genus=2, mode="iso"), lambda: theta_embeddings(7, 3)):
            built.clear()
            classes = call()
            assert built == {}
            built.clear()
            first = [c.face_degrees for c in classes]
            assert built == {"embeddings": len(classes), "decodes": len(classes), "traces": len(classes)}
            built.clear()
            assert [c.face_degrees for c in classes] == first
            assert len({c.genus for c in classes}) == 1 and not built

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

    def test_negative_genus_rejected(self):
        for g in (complete(5), theta(3)):
            with pytest.raises(ValueError, match="genus -1 is negative"):
                exhaustive_classes(g, genus=-1)

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
        graphs = random_graphs(41)
        assert any(len(RotationSpace(g)._pins) == 2 for g in graphs)  # some have a second vertex pinned
        for g in graphs:
            hist, _ = scan_rotation_space(g, -1)
            for f in hist:
                self.check_against_plain_path(g, f)

    def test_orbit_stabiliser(self):
        # |orbit| x |stabiliser| = |group acting|, with the stabiliser taken
        # from automorphism_group_order and chirality independently; the
        # orbit's own group order and achirality must agree with them.  An
        # orbit under Aut(G) x mirror is one iso class of |Aut G| / order
        # systems when achiral, and two when chiral.  The pass visits the
        # pinned subspace only, yet the sizes of the orbits it meets cover
        # the whole space, and it meets each equivalence class once, at its
        # first member in the subspace.
        for g in small_torus_graphs() + random_graphs(43):
            aut = graph_automorphism_count(g)
            space = RotationSpace(g)
            covered = 0
            pinned = range(pinned_size(space))
            found = list(space.orbits(pinned))
            for i, size, order, achiral, *_ in found:
                e = system_at(g, space.pinned_orders, i)
                covered += size
                assert order == automorphism_group_order(e)
                assert achiral == (chirality(e) == NON_ORIENTABLE)
                assert size * order == (1 if achiral else 2) * aut
            assert covered == space.total
            firsts: dict[bytes, int] = {}
            keys = classify([system_at(g, space.pinned_orders, i) for i in pinned], "equivalence")[1]
            for i, key in zip(pinned, keys):
                firsts.setdefault(key, i)
            assert [i for i, *_ in found] == sorted(firsts.values())

    def test_whole_group_gives_the_same_orbits(self):
        # The plain pass: every automorphism, from the plain search, applied
        # to each system met, its images and their reversals marked where
        # they fall in the pinned subspace.
        graphs = [complete(4), complete_bipartite(3, 3), theta(5), theta(6), wheel(6)] + random_graphs(45, 10)
        for g in graphs:
            space = RotationSpace(g)
            group = list(product_automorphisms(g))
            pinned = {}
            for i in range(pinned_size(space)):
                pinned[tuple(map(tuple, system_at(g, space.pinned_orders, i).rot))] = i
            plain, marked = [], set()
            for i in range(pinned_size(space)):
                if i in marked:
                    continue
                e = system_at(g, space.pinned_orders, i)
                order = achiral = 0
                for perm in group:
                    image = relabelled(e, perm)
                    for k, rot in ((0, image), (1, tuple(normal(r[::-1]) for r in image))):
                        j = pinned.get(rot)
                        if j is not None:
                            marked.add(j)
                            order += k == 0 and j == i
                            achiral = achiral or (k == 1 and j == i)
                plain.append((i, 2 * len(group) // (order * (1 + achiral)), order, bool(achiral)))
            assert [o[:4] for o in space.orbits(range(pinned_size(space)))] == plain

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

    def test_memory_with_a_large_automorphism_group(self):
        # No list of the group is built: the center of K1,7 is pinned, its
        # stabiliser, the whole group of 5,040, has one orbit on its 720
        # orders, which 14 sifts show, and the orbit pass applies only the
        # 14 automorphisms that keep the one representative or reverse it.
        # The whole pass, its tables of the 720 orders included, peaks below
        # what the group alone takes as bytes.
        g = complete_bipartite(1, 7)
        group_bytes = sum(sys.getsizeof(p) for p in product_automorphisms(g))
        space = RotationSpace(g)
        found, peak = self.orbit_peak_bytes(space, range(1))
        assert [o[:4] for o in found] == [(0, 720, 7, True)]
        v, first = space._pinned
        assert v == 0 and first == [0] * 720 and space.counts[0] == 720
        assert [len(found) for found in space._landings.values()] == [14]
        assert peak < group_bytes

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
    def stabiliser_orbits(g, v, group):
        """Orbits of Stab(v), joined by reversal, on the cyclic orders at v (0-based), from the plain search's ``group``."""
        darts = g.darts_at[v]
        stabiliser = [p for p in group if p[darts[0]] in darts]
        orbit_of = {}
        for cyc in RotationSpace(g).orders[v]:
            if cyc in orbit_of:
                continue
            images = {normal([p[d] for d in cyc]) for p in stabiliser}
            images |= {normal(list(reversed(c))) for c in images}
            for c in images:
                orbit_of[c] = cyc
        return orbit_of

    def test_representatives_are_a_transversal_at_the_best_vertex(self):
        for g in differential_graphs():
            group = list(product_automorphisms(g))
            space = RotationSpace(g)
            v, reps = representatives(space)
            orbit_of = self.stabiliser_orbits(g, v, group)
            assert reps == sorted(reps) and reps[0] == 0
            assert sorted(orbit_of[space.orders[v][d]] for d in reps) == sorted(set(orbit_of.values()))
            # every order's least order is its orbit's representative
            rep_of = {orbit_of[space.orders[v][d]]: d for d in reps}
            assert space._pinned[1] == [rep_of[orbit_of[cyc]] for cyc in space.orders[v]]
            # the most orders, ties to the lowest vertex
            assert space.counts[v] == max(space.counts) > max(space.counts[:v], default=0)

    def test_second_pin_keeps_a_transversal_at_the_best_vertex(self):
        # H, from the plain search's group: the automorphisms fixing v that
        # keep its one representative r, or reverse it and act composed with
        # the mirror.  Those of H that fix a vertex w act on w's orders; the
        # second pin is at the vertex with the fewest orbits per order, the
        # lowest on ties, and keeps the least order of each orbit.
        made = {1: 0, 2: 0}
        for g in differential_graphs():
            space = RotationSpace(g)
            v, reps = representatives(space)
            made[len(space._pins)] += 1
            if len(reps) > 1:
                assert space._pins == [(v, reps)]
                continue
            r = space.orders[v][reps[0]]
            holding = []
            for perm in product_automorphisms(g):
                image = normal([perm[d] for d in r])
                if perm[r[0]] in r and image in (r, normal(r[::-1])):
                    holding.append((perm, image != r))
            best = (1.0, -1, [])
            for w, orders in enumerate(space.orders):
                if w == v:
                    continue
                acting = [(p, flip) for p, flip in holding if p[orders[0][0]] in orders[0]]
                least = {}
                for cyc in orders:  # in digit order, so each orbit is met first at its least order
                    for p, flip in acting:
                        image = [p[d] for d in cyc]
                        least.setdefault(normal(image[::-1] if flip else image), cyc)
                kept = sorted(orders.index(c) for c in set(least.values()))
                best = min(best, (len(kept) / len(orders), w, kept))
            assert space._pins == [(v, reps)] + ([best[1:]] if best[0] < 1 else [])
        assert made[1] and made[2]
        for spec in ("circulant(8,1,2)", "octahedron"):  # several representatives at v
            space = RotationSpace(build_graph(spec))
            assert len(representatives(space)[1]) > 1 and len(space._pins) == 1

    def test_transitive_shortcut_equals_the_walk(self):
        # Where digit 0's orbit covers every order at v, the 2 deg sifts of
        # the shortcut settle the pin; walking the orders under every element
        # of P, as it is and flipped, must give the same answer.
        for g in [theta(m) for m in range(3, 9)] + [complete_bipartite(1, 7)]:
            space = RotationSpace(g)
            v, first = space._pinned
            group = list(rotation_space._products(space._chain.acting))
            assert 2 * len(group) * len(space._fixing) == len(space._holding(0)) * space.counts[v]  # the shortcut fires
            assert first == space._firsts(v, [(f, i, flip) for f, i in group for flip in (False, True)])

    def test_holding_equals_the_plain_filter(self):
        # _holding(r) against the automorphisms of the plain search's group
        # that fix v and keep its order r (not flipped) or reverse it
        # (flipped), as a set of (map of v's darts, flip) pairs, each listed
        # once for every automorphism fixing all of v's darts.
        for g in differential_graphs():
            space = RotationSpace(g)
            v, reps = representatives(space)
            darts, position = space._positions
            cut = space._vertex_tables[v][0]
            group = list(product_automorphisms(g))
            fixing = sum(all(p[d] == d for d in g.darts_at[v]) for p in group)
            for r in reps:
                cyc = space.orders[v][r]
                expected = set()
                for perm in group:
                    image = normal([perm[d] for d in cyc])
                    if perm[cyc[0]] in cyc and image in (cyc, normal(cyc[::-1])):
                        expected.add((bytes(position[perm[d]] for d in darts[cut]), image != cyc))
                holding = space._holding(r)
                assert {(f[cut], flip) for f, _, flip in holding} == expected
                assert len(holding) == len(expected) * fixing

    def test_landing_lists_equal_the_plain_filter(self):
        # Every landing list, as a set, against the automorphisms of the
        # plain search's group that take u to the pinned vertex v and u's
        # order into the pinned subspace.  Such an automorphism takes u's
        # order rho to a representative or a representative's reversal l
        # exactly when rho is the preimage of l, so each automorphism is
        # listed under u and each of those preimages.
        for g in differential_graphs():
            space = RotationSpace(g)
            v, reps = representatives(space)
            darts, position = space._positions
            nd = len(darts)
            pad = bytes(256 - nd)
            vertices = space._vertex_tables
            at = [w for w, (cut, *_) in enumerate(vertices) for _ in range(cut.start, cut.stop)]
            cut_v, keys_v, _, rev_v = vertices[v]
            expected: dict = {}
            for perm in product_automorphisms(g):
                fwd = bytes(position[perm[d]] for d in darts)
                inv = bytearray(nd)
                for p, q in enumerate(fwd):
                    inv[q] = p
                inv = bytes(inv)
                u = at[inv[cut_v.start]]
                cut_u, _, table_u, _ = vertices[u]
                for d in {*reps, *(rev_v[r] for r in reps)}:
                    succ = bytes(cut_v.start) + keys_v[d] + bytes(256 - cut_v.stop)
                    rho = table_u[fwd[cut_u].translate(succ).translate(inv + pad)]
                    expected.setdefault((u, rho), set()).add((fwd, inv))
            for u, (_, keys, _, _) in enumerate(vertices):
                for digit in range(len(keys)):
                    landing = space._landing(u, digit)
                    found = {(fwd[:nd], inv[:nd]) for fwd, inv in landing}
                    assert len(found) == len(landing)
                    assert found == expected.get((u, digit), set())

    def test_systems_scanned(self, monkeypatch):
        scanned = []

        def counted(orders, target_f):
            scanned.append(math.prod(len(o) for o in orders))
            return []

        monkeypatch.setattr(_kernel, "matches", counted)
        monkeypatch.setattr(_kernel, "scan", lambda orders, f: ([], counted(orders, f)))
        # One face: K3,5 at genus 4; K4,4 and C8(2) have none, as n - m + 1
        # is odd, so no system is scanned.
        for spec, pinned, one_face in (("complete_bipartite(4,4)", 46656, 0), ("complete_bipartite(3,5)", 6144, 6144),
                                       ("circulant(8,1,2)", 839808, 0)):
            g = build_graph(spec)
            for mode in ("iso", "equivalence"):
                scanned.clear()
                exhaustive_classes(g, genus=1, mode=mode)
                assert sum(scanned) == pinned
            scanned.clear()
            assert exhaustive_classes(g, faces=1) == []
            assert sum(scanned) == one_face
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

    def test_theta_raw_systems_follow_the_closed_form(self):
        # With the order at one vertex of theta(m) fixed, 2 c(m+1, f) / (m (m+1))
        # of the other's (m-1)! orders give f = m - 2g faces, c being the
        # unsigned Stirling numbers of the first kind (Zagier 1995; Stanley
        # 2011).  Each fixed order gives as many, so raw_systems at genus g
        # is (m-1)! times that.
        c = [[1]]
        for n in range(1, 10):
            prev = c[-1] + [0]
            c.append([(n - 1) * prev[k] + (prev[k - 1] if k else 0) for k in range(n + 1)])
        for m in range(2, 9):
            want = {}
            for g in range((m - 1) // 2 + 1):
                count, rem = divmod(2 * c[m + 1][m - 2 * g], m * (m + 1))
                assert rem == 0
                want[g] = math.factorial(m - 1) * count
            assert {r.genus: r.raw_systems for r in genus_distribution(theta(m)).records} == want

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
        # The orbit pass walks only the systems whose order at each pinned
        # vertex is one it keeps; their orbits still cover the space.
        orbits = RotationSpace.orbits
        visited = []

        def counted(self, indices):
            visited.append(len(indices))
            return orbits(self, indices)

        monkeypatch.setattr(RotationSpace, "orbits", counted)
        for g, pinned in ((complete(5), 864), (complete_bipartite(3, 4), 288), (theta(5), 8),
                          (complete_bipartite(3, 3), 16)):
            visited.clear()
            d = genus_distribution(g)
            assert visited == [pinned]
            assert sum(r.raw_systems for r in d.records) == rotation_space_size(g)

    def test_builds_no_embedding(self, built):
        # Each orbit's genus comes from RotationSpace.faces on the member the
        # orbit pass yields: no embedding is built, no face traced and no key
        # decoded.
        for g in (complete(5), complete_bipartite(3, 3), theta(7)):
            assert genus_distribution(g).records
        assert not built

    def test_decodes_each_orbit_once(self, monkeypatch):
        # The orbit pass yields each orbit's first member as it decoded it,
        # so the faces of the distribution and the keys of the exhaustive
        # classification read it without a second decode: 50 orbits of K5
        # in all, 31 at genus 2.
        decode = RotationSpace._system
        decoded = []
        monkeypatch.setattr(RotationSpace, "_system", lambda self, index: decoded.append(index) or decode(self, index))
        d = genus_distribution(complete(5))
        assert decoded == sorted(set(decoded)) and len(decoded) == d.total_equivalence() == 50
        decoded.clear()
        assert len(exhaustive_classes(complete(5), genus=2, mode="iso")) == 45
        assert decoded == sorted(set(decoded)) and len(decoded) == 31

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
        assert any(len(RotationSpace(g)._pins) == 2 for g in graphs)  # some have a second vertex pinned
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
            for i, _, order_of_orbit, *_ in space.orbits(range(pinned_size(space))):
                e = system_at(g, space.pinned_orders, i)
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

    # sha256 over each class's key, group order and chirality, recorded
    # from the pinned scan and dedup that theta_embeddings ran before it
    # ran the orbit pass of exhaustive_classes.
    RECORDED = (
        (1, 0, "iso", 1, "d807d2bbeca87736a8fdd54e9e07d1c1f7fa59982bf7c9e7673918f856c8afa4"),
        (1, 0, "equivalence", 1, "d807d2bbeca87736a8fdd54e9e07d1c1f7fa59982bf7c9e7673918f856c8afa4"),
        (2, 0, "iso", 1, "34d8b859525b4e08bcef5f0cb5f8efc2ad02d9965ea8953e7deaebd05ae128f9"),
        (2, 0, "equivalence", 1, "34d8b859525b4e08bcef5f0cb5f8efc2ad02d9965ea8953e7deaebd05ae128f9"),
        (3, 0, "iso", 1, "f43acf7fa1ae929a8434d54e922d92debdf579dce6c4d24798484c3322e3105d"),
        (3, 0, "equivalence", 1, "f43acf7fa1ae929a8434d54e922d92debdf579dce6c4d24798484c3322e3105d"),
        (3, 1, "iso", 1, "4cda0f4e37c12f633a78eb7c904bbb010a0c26ac6b0d7427f00ab5bdf09f8bd1"),
        (3, 1, "equivalence", 1, "4cda0f4e37c12f633a78eb7c904bbb010a0c26ac6b0d7427f00ab5bdf09f8bd1"),
        (4, 0, "iso", 1, "4d48b499636a8e99cbf11f6648679e36bf210516e312e4236d6a7525e47318df"),
        (4, 0, "equivalence", 1, "4d48b499636a8e99cbf11f6648679e36bf210516e312e4236d6a7525e47318df"),
        (4, 1, "iso", 2, "412b75f45f3df0b2933f7fbb4bccb664a57dfd398a747a6dda1f9ebd4e09dae1"),
        (4, 1, "equivalence", 2, "412b75f45f3df0b2933f7fbb4bccb664a57dfd398a747a6dda1f9ebd4e09dae1"),
        (5, 0, "iso", 1, "02e307f56be9f800c1a1283cc2c9f0a8886faca5d3899b33d3a3da95a200526e"),
        (5, 0, "equivalence", 1, "02e307f56be9f800c1a1283cc2c9f0a8886faca5d3899b33d3a3da95a200526e"),
        (5, 1, "iso", 3, "8f9482d15b525da3f34556d47e4dc2c9e71d4e93ac22d8702340880091a4ac6f"),
        (5, 1, "equivalence", 3, "8f9482d15b525da3f34556d47e4dc2c9e71d4e93ac22d8702340880091a4ac6f"),
        (5, 2, "iso", 3, "a614d91b59fd77690b14854abd999095168d2ec8c7ce49458f83ffb3bc29a739"),
        (5, 2, "equivalence", 3, "a614d91b59fd77690b14854abd999095168d2ec8c7ce49458f83ffb3bc29a739"),
        (6, 0, "iso", 1, "6fe142ff995dbdc48a6e59348aacda0b679237b300363de9fe72e978dface7cc"),
        (6, 0, "equivalence", 1, "6fe142ff995dbdc48a6e59348aacda0b679237b300363de9fe72e978dface7cc"),
        (6, 1, "iso", 7, "575d2beca3f64d2e0dfae980e17494a39e9129f62d4ac005a424f2235f98955c"),
        (6, 1, "equivalence", 6, "150a2e3031d08745e71be13fdb6e305f9fe2f8d56ece5388efe9af217e6b6a3f"),
        (6, 2, "iso", 11, "af014e5d04a1863658dd58652624798aff372c5a971f97949c3dde3c26e66deb"),
        (6, 2, "equivalence", 10, "1399595b61219e7c4522a97cbeea535a5a6cd6167cf3333fafd90c856c055bf4"),
        (7, 0, "iso", 1, "1785c1417c81ed91185ea1ab69e68597be277242a5727cca7faca2c5f5ad0928"),
        (7, 0, "equivalence", 1, "1785c1417c81ed91185ea1ab69e68597be277242a5727cca7faca2c5f5ad0928"),
        (7, 1, "iso", 10, "b18b3cf74763a8ad8b9e41832d7540e8e1d37eaf44adf364567e1d077d976d5a"),
        (7, 1, "equivalence", 8, "8aa4abc574bb7ca0c3db96f33d796b869dc13740ffbc75e3aaf9f59db07fa9f7"),
        (7, 2, "iso", 42, "03df2a90f25df8407543df699af47b83cea0498be9948ed7de2814a84638f7e2"),
        (7, 2, "equivalence", 31, "04c6cb4df4fccdc125cf02cd056ee3a0b2f3e0ebe88bbcbe691ac9aed30a17f4"),
        (7, 3, "iso", 18, "ef496283d9e31922adb3dc6033045349ef8cd555eebc644c58a94d8934752672"),
        (7, 3, "equivalence", 16, "2a3d626859d11d19362b62c3a8c6ced9e86a858e9b3e286b8c242b071adcfdc7"),
        (8, 0, "iso", 1, "bd8549cbdcbb951abdc4622047aa366550419f62bfe2c76fb8d5df64d0b6cd60"),
        (8, 0, "equivalence", 1, "bd8549cbdcbb951abdc4622047aa366550419f62bfe2c76fb8d5df64d0b6cd60"),
        (8, 1, "iso", 17, "8806d7eb5ed7ee5fe80d8e19d452b99fabc67f792309dd12ebf298fc718c6251"),
        (8, 1, "equivalence", 13, "4865c5dd0bf340fa37b116e188c4d4d573e7b8b4ff416fb5bc2a66f6d3575b4d"),
        (8, 2, "iso", 140, "1d3a0fa172b54c81b4d93caae886f916a622644a93470354e5caa553508a6f67"),
        (8, 2, "equivalence", 92, "77b6e2f5d2562a4e4e77935dc80134e9c1026edc6f9c42e41946f3679f1b228f"),
        (8, 3, "iso", 211, "8f17532692df92be881aebd281b9290409786feaacfc4b88dd867c0b7c169ac4"),
        (8, 3, "equivalence", 133, "769775e66ad4b30e0679323ba62ef68b480a0a4d028be056b45dd0d9e1ca804d"),
        (9, 4, "iso", 468, "379f4d6fa5ad029f8e1e4d5219a849b73bc1a4593f80314907f5c05da8fd92fd"),
        (9, 4, "equivalence", 283, "91ff05247c297032adbf0c8c77780fcfadda998546be2864b635faa72091440c"),
    )

    @staticmethod
    def class_digest(classes):
        h = hashlib.sha256()
        for c in classes:
            h.update(c.canonical_key + b"|%d|" % c.group_order + c.chirality.encode() + b";")
        return h.hexdigest()

    def test_recorded_classes(self):
        for m, genus, mode, count, digest in self.RECORDED:
            classes = theta_embeddings(m, genus, mode=mode)
            assert (len(classes), self.class_digest(classes)) == (count, digest), (m, genus, mode)

    def test_theta7_by_the_genus_distribution(self):
        # A second route to theta(7)'s one-face classes: the orbit marking
        # of the whole pinned subspace, with no face-count scan and no key.
        (record,) = [r for r in genus_distribution(theta(7)).records if r.genus == 3]
        assert (record.equivalence_classes, record.iso_classes) == (16, 18)
        assert record.equivalence_classes == len(theta_embeddings(7, 3, mode="equivalence"))
        assert record.iso_classes == len(theta_embeddings(7, 3, mode="iso"))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            theta_embeddings(9, 4, budget=10)

    def test_negative_genus_rejected(self):
        for m in (1, 3, 7):
            with pytest.raises(ValueError, match="genus -1 is negative"):
                theta_embeddings(m, -1)

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
