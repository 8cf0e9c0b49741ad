"""Canonical keys, automorphisms, chirality, deduplication."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import permutations

import pytest

from rotsys import (
    NON_ORIENTABLE,
    ORIENTABLE,
    MultiGraph,
    SizeGuardExceeded,
    automorphism_group_order,
    build_graph,
    canonical_key,
    chirality,
    circulant,
    classify,
    complete,
    complete_bipartite,
    cube,
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
    wheel,
)
from rotsys import canon, rotation_space
from rotsys.canon import (
    _automorphism_chain,
    _graph_tables,
    _layout,
    _least,
    _mult_matrix,
    _same_graph,
    _target,
    _triangles,
    _vertex_isomorphisms,
    _vertex_profiles,
    canonical_embedding,
)
from rotsys.core import embedding_from_darts, k5_minus_edge
from rotsys.enumeration import (
    RotationSpace,
    exhaustive_classes,
    genus_distribution,
    pipeline_k5_stages,
    pipeline_k33_stages,
    theta_embeddings,
)
from rotsys.formats import load_appendix_a, load_appendix_b
from rotsys.suites import TORUS_TABLE, run_suite

from conftest import product_automorphisms, random_embedding, random_graphs, random_relabel, system_at

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

    def test_malformed_keys_raise_value_error(self):
        # A key is 2 + n + 4m bytes long: a truncated key, one with bytes
        # left over, and blocks whose degrees overrun the darts are refused
        # before any byte past the end is read.  So are keys of the right
        # length that make no graph an embedding has: no vertex, a loop at
        # vertex 1, and an edge beside an isolated vertex.  So are rooted
        # serializations that are not the least: a K5 double-torus class
        # with a trivial group has 20 distinct ones, and only its key decodes.
        g = MultiGraph(3, ((1, 2), (2, 3), (1, 3)))
        key = canonical_key(embedding_from_darts(g, g.darts_at))
        assert canonical_embedding(key).graph.n == 3
        bad = [key[:-1], key + b"\x00", b"\x03\x03\x02", b"", b"\x01", bytes([3, 3, 7]) + bytes(14)]
        bad += [b"\x00\x00", bytes([1, 1, 2, 0, 0, 0, 0]), bytes([3, 1, 1, 1, 0, 1, 0, 0, 0])]
        c = next(c for c in exhaustive_classes(complete(5), genus=2) if c.group_order == 1)
        serializations = {_plain_traversal(c.representative, d) for d in range(20)}
        assert len(serializations) == 20 and min(serializations) == c.canonical_key
        assert canonical_embedding(c.canonical_key) == c.representative
        bad += sorted(serializations - {c.canonical_key})
        for k in bad:
            with pytest.raises(ValueError, match="malformed canonical key"):
                canonical_embedding(k)


def _embedding_of_complete(n):
    g = complete(n)
    rot = []
    for v in range(1, n + 1):
        rot.append([eid for eid, (a, b) in enumerate(g.edges, start=1) if v in (a, b)])
    return make_embedding(g, rot)


def _plain_traversal(e, root):
    """Serialization of ``e`` relabelled by the traversal rooted at ``root``.

    Vertices receive labels in first-encounter order; the rotation of a
    newly met vertex starts at the dart through which it was discovered.
    Edges are labelled in emission order.  The output is the vertex and
    edge counts, then per vertex in label order: its degree, then
    (neighbor label, edge label) for each dart of its rotation.
    """
    g = e.graph
    dv = g.dart_vertex
    starts = [root]
    vlab = {dv[root]: 0}
    elab = {}
    out = bytearray((g.n, g.edge_count))
    for d0 in starts:
        out.append(len(e.rot[dv[d0] - 1]))
        d = d0
        while True:
            w = dv[d ^ 1]
            if w not in vlab:
                vlab[w] = len(starts)
                starts.append(d ^ 1)
            out += bytes((vlab[w], elab.setdefault(d >> 1, len(elab))))
            d = e.succ[d]
            if d == d0:
                break
    return bytes(out)


def _plain_least(e):
    """Key and group order from every root's full stream."""
    streams = [_plain_traversal(e, d) for d in range(2 * e.graph.edge_count)]
    key = min(streams)
    return key, streams.count(key)


def _root_prefixes(e):
    """Per least-degree root of ``e``: the prefix of its full stream that ``canon._roots`` ranks by, and its branches there.

    The prefix is the counts, block 0, and block 1 up to its second pair
    (its one pair when ``w1`` has degree 1).  The branches are whether
    block 0's labels are ``1..low`` (distinct neighbours) and which of the
    cases of block 1's second pair the root is in.
    """
    low = min(map(len, e.rot))
    out = {}
    for d in range(2 * e.graph.edge_count):
        if len(e.rot[e.graph.dart_vertex[d] - 1]) != low:
            continue
        stream = _plain_traversal(e, d)
        labels = list(stream[3 : 3 + 2 * low : 2])
        kind = "distinct" if labels == list(range(1, low + 1)) else "repeated"
        if stream[3 + 2 * low] == 1:
            out[d] = stream[: 6 + 2 * low], kind, "w1 of degree 1"
        else:
            y1 = stream[6 + 2 * low]
            case = "y1 is v0" if y1 == 0 else "y1 a neighbour of v0" if y1 in labels else "y1 new"
            out[d] = stream[: 8 + 2 * low], kind, case
    return out


class TestLeast:
    """``_least`` prunes roots; it must agree with serializing every root."""

    @staticmethod
    def orders_checked(embeddings):
        # The key and the group order against every root serialized to the
        # end, for each input and its reversal; and the reversal keyed in
        # place (mirror=True) against the reversal built.
        orders = set()
        for e in embeddings:
            rev = reverse(e)
            for x in (e, rev):
                key, order = _least(_layout(x))
                assert (key, order) == _plain_least(x)
                orders.add(order)
            assert _least(_layout(e), mirror=True) == _least(_layout(rev))
        return orders

    def test_every_system_of_small_graphs(self):
        orders = set()
        for g in (complete(4), complete_bipartite(3, 3), theta(5), complete(5), k5_minus_edge()):
            space = RotationSpace(g)
            orders |= self.orders_checked(system_at(g, space.orders, i) for i in range(space.total))
        assert orders == {1, 2, 3, 4, 5, 6, 10, 12, 18, 20}

    def test_random_multigraphs(self):
        rng = random.Random(19)
        embeddings = []
        for g in random_graphs(23, 40):
            space = RotationSpace(g)
            embeddings += [system_at(g, space.orders, rng.randrange(space.total)) for _ in range(25)]
        assert any(len(set(e.graph.edges)) < e.graph.edge_count for e in embeddings)
        self.orders_checked(embeddings)

    def test_conftest_group_orders(self, theta5_systems):
        for order, e in theta5_systems.items():
            assert self.orders_checked([e]) == {order}

    def test_torus_table_classes(self):
        # The genus-1 class representatives of the torus rows, the most
        # symmetric inputs: many least-degree roots tie to the last block.
        reps = []
        for _, spec, *_ in TORUS_TABLE:
            reps += [c.representative for c in exhaustive_classes(build_graph(spec), genus=1)]
        assert max(self.orders_checked(reps)) == 32

    def test_parallel_edges_at_least_degree(self):
        # Every vertex has degree 4 and two parallel pairs, so the roots'
        # first blocks already differ.
        g = MultiGraph(3, ((1, 2), (1, 2), (2, 3), (2, 3), (1, 3), (1, 3)))
        space = RotationSpace(g)
        systems = [system_at(g, space.orders, i) for i in range(space.total)]
        firsts = {_plain_traversal(systems[0], d)[:11] for d in range(12)}
        assert len(firsts) > 1
        self.orders_checked(systems)

    def test_roots_that_run_out_of_blocks(self):
        # K4 beside theta(3), all degree 3: the theta roots run out of
        # blocks after two, and their shorter streams are the least.
        g = MultiGraph(6, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6), (5, 6), (5, 6)))
        space = RotationSpace(g)
        systems = [system_at(g, space.orders, i) for i in range(space.total)]
        self.orders_checked(systems)
        assert all(len(_least(_layout(e))[0]) == 2 + 2 * 7 for e in systems)

    def test_every_branch_of_the_root_ranking(self):
        # _roots keeps the least-degree roots whose stream starts with the
        # least prefix: block 0's neighbour labels, the degree that opens
        # block 1 and block 1's pair after (0, 0).  Every branch of it is
        # met below.  The roots it keeps are those whose full streams start
        # with the least prefix, and the key and the group order of each
        # input and its reversal are those of every root serialized to the
        # end.
        rng = random.Random(35)
        inputs = [random_embedding(rng) for _ in range(300)]
        for g in (
            complete(2),  # w1 of degree 1
            theta(3),  # y1 is v0 at every root
            MultiGraph(4, ((1, 4), (1, 4), (2, 3), (2, 4), (3, 4))),  # distinct and repeated at degree 2
            MultiGraph(3, ((1, 2), (1, 2), (2, 3), (2, 3), (1, 3), (1, 3))),  # repeated at every vertex
        ):
            space = RotationSpace(g)
            inputs += [system_at(g, space.orders, i) for i in range(space.total)]
        self.orders_checked(inputs)
        met = set()
        for e in inputs:
            n, dv, rot = _layout(e)
            low = min(map(len, rot))
            for x, mirror in ((e, False), (reverse(e), True)):
                prefixes = _root_prefixes(x)
                least = min(prefix for prefix, _, _ in prefixes.values())
                kept = sorted(d for d, (prefix, _, _) in prefixes.items() if prefix == least)
                assert sorted(canon._roots(canon._steps(dv, rot, mirror), rot, low)) == kept
                kinds = {kind for _, kind, _ in prefixes.values()}
                met |= kinds | {case for _, _, case in prefixes.values()}
                if len(kinds) == 2:
                    met.add("distinct and repeated")
        assert met == {
            "distinct",
            "repeated",
            "distinct and repeated",
            "w1 of degree 1",
            "y1 is v0",
            "y1 a neighbour of v0",
            "y1 new",
        }

    def test_roots_started_and_finished(self, stream_blocks, stream_sets):
        # Only least-degree roots start (all 20 darts of K5), and all of
        # them advance one vertex block at a time; only those whose block
        # is least go on.  The 50 equivalence classes of K5 take 100
        # stream sets in dedup; the genus distribution, whose orbit pass
        # gives group orders and chirality, takes none.  Serializing every
        # root to the end, the K5 firsts would emit 10,000 root-blocks.
        g = complete(5)
        space = RotationSpace(g)
        pinned = range(math.prod(map(len, space.pinned_orders)))
        firsts = [system_at(g, space.pinned_orders, i) for i, *_ in space.orbits(pinned)]
        assert len(firsts) == 50
        (_, blocks), sets = stream_sets(lambda: stream_blocks(lambda: dedup(firsts, "equivalence")))
        assert (sets, blocks) == (100, 2304)
        (_, blocks), sets = stream_sets(lambda: stream_blocks(lambda: genus_distribution(complete(5))))
        assert (sets, blocks) == (0, 0)
        pipeline_k5_stages.cache_clear()
        try:
            assert stream_blocks(pipeline_k5_stages)[1] == 7391
        finally:
            pipeline_k5_stages.cache_clear()


class TestIsomorphism:
    def test_witness_for_relabeling(self, theta5_systems):
        # A relabelling is an isomorphism, so it keeps the key.
        rng = random.Random(13)
        e = theta5_systems[5]
        for _ in range(40):
            assert canonical_key(random_relabel(rng, e)) == canonical_key(e)

    def test_edges_stored_with_reversed_endpoints(self):
        # The same map with every edge stored the other way round.
        g = complete(5)
        rot = [[i for i, (u, v) in enumerate(g.edges, start=1) if w in (u, v)] for w in range(1, 6)]
        e = make_embedding(g, rot)
        flipped = make_embedding(MultiGraph(5, tuple((v, u) for u, v in g.edges)), rot)
        assert flipped.graph.edges != g.edges
        assert canonical_key(flipped) == canonical_key(e)

    def test_non_isomorphic_theta5(self, theta5_systems):
        assert canonical_key(theta5_systems[10]) != canonical_key(theta5_systems[5])

    def test_one_vertex_graph(self):
        e = make_embedding(MultiGraph(1, ()), [()])
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
        # The plain search's permutations are automorphisms, as many as
        # graph_automorphism_count gives.
        perms = list(product_automorphisms(g))
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
        assert len(list(product_automorphisms(theta(5)))) == 240
        rng = random.Random(31)
        parallel = 0
        for _ in range(30):
            g = random_embedding(rng, max_vertices=5, extra_edges=5).graph
            parallel += len(set(map(frozenset, g.edges))) < g.edge_count
            self.check_generator(g)
        assert parallel >= 10


@pytest.fixture
def vertex_maps(monkeypatch):
    """``count(fn)``: ``fn()``, the searches it started and the vertex maps they reached.

    A search is one call of ``canon._vertex_isomorphisms``; a vertex map is
    one complete map it yields, a leaf of its backtracking.
    """
    searches = [0]
    leaves = [0]
    original = canon._vertex_isomorphisms

    def counted(g, h, fixed=()):
        searches[0] += 1
        for image in original(g, h, fixed):
            leaves[0] += 1
            yield image

    def count(fn):
        searches[0] = leaves[0] = 0
        return fn(), searches[0], leaves[0]

    monkeypatch.setattr(canon, "_vertex_isomorphisms", counted)
    return count


class TestAutomorphismChain:
    """The stabiliser chain against the plain search over every vertex map."""

    @staticmethod
    def graphs():
        graphs = [build_graph(spec) for _, spec, *_ in TORUS_TABLE] + random_graphs(47, 20)
        return graphs + [theta(m) for m in range(2, 8)] + [wheel(6), complete_bipartite(1, 7)]

    def test_count_against_the_generator_and_the_oracle(self):
        graphs = self.graphs()
        assert sum(len(set(map(frozenset, g.edges))) < g.edge_count for g in graphs) >= 10
        for g in graphs:
            count = graph_automorphism_count(g)
            assert count == len(set(product_automorphisms(g)))
            assert count == math.prod(map(len, _automorphism_chain(g)))

    def test_rebased_chains_are_the_automorphisms(self):
        # The products of one element taken from the pinned vertex's level,
        # then from each level acting on its darts, then from each level
        # fixing them, are, as a set of (fwd, inv) pairs, the automorphisms
        # on dart positions, each converted with a plain inverse; each pair
        # is a permutation and its inverse, and no product comes twice.
        # Every base order a space could take is covered too: the chain
        # with each vertex first and its neighbours next gives the same
        # group, without duplicates.
        for g in self.graphs():
            space = RotationSpace(g)
            darts, position = space._positions
            nd = len(darts)
            identity = bytes(range(nd))
            group = set(product_automorphisms(g))
            expected = set()
            for perm in group:
                fwd = bytes(position[perm[d]] for d in darts)
                inv = bytearray(nd)
                for p, q in enumerate(fwd):
                    inv[q] = p
                expected.add((fwd, bytes(inv)))
            rebased = space._chain
            assert rebased.vertex == space.counts.index(max(space.counts))
            levels = [list(rebased.moving.values()), *rebased.acting, *rebased.fixing]
            products = [(fwd[:nd], inv[:nd]) for fwd, inv in rotation_space._products(levels)]
            for fwd, inv in products:
                assert bytes(fwd[p] for p in inv) == identity == bytes(inv[p] for p in fwd)
            assert rebased.order == len(products) == len(set(products)) == len(expected)
            assert set(products) == expected
            for w in range(1, g.n + 1):
                near = sorted({g.dart_vertex[d ^ 1] for d in g.darts_at[w - 1]})
                base = [w, *near, *(x for x in range(1, g.n + 1) if x != w and x not in near)]
                chain = _automorphism_chain(g, base)
                found = [t[:nd] for t in self.products([[t for _, t in level] for level in chain])]
                assert len(found) == len(set(found)) == len(group)
                assert set(found) == group

    @staticmethod
    def products(levels):
        """Every product ``t_1 ... t_k`` of one element per level, ``t_k`` applied first."""
        found = [bytes(range(len(levels[0][0]))) if levels else b""]
        for level in levels:
            found = [bytes(map(node.__getitem__, t)) for node in found for t in level]
        return found

    def test_counts_no_enumeration_could_reach(self):
        # 15! and 2 x 14! vertex maps, about 1e12 and 1e11: the plain search
        # cannot finish, the orbit sizes multiply at once.
        assert graph_automorphism_count(complete_bipartite(1, 15)) == math.factorial(15)
        assert graph_automorphism_count(complete_bipartite(2, 14)) == 2 * math.factorial(14)

    def test_vertex_maps_reached(self, vertex_maps):
        # The plain search reaches all 1,152, 720 and 120 vertex maps; the
        # chain reaches one per transversal element other than the identity,
        # and the searches that fail reach none.
        for g, levels, searches in (
            (complete_bipartite(4, 4), [8, 3, 2, 4, 3, 2], 28),
            (complete_bipartite(3, 5), [3, 2, 5, 4, 3, 2], 28),
            (petersen(), [10, 3, 2, 2], 45),
        ):
            assert [len(level) for level in _automorphism_chain(g)] == levels
            leaves = sum(levels) - len(levels)
            assert vertex_maps(lambda: graph_automorphism_count(g)) == (math.prod(levels), searches, leaves)
        tables = _graph_tables(petersen())
        assert vertex_maps(lambda: sum(1 for _ in canon._vertex_isomorphisms(tables, tables))) == (120, 1, 120)

    def test_one_chain_per_exhaustive_call(self, vertex_maps):
        # The pin and every landing list take their automorphisms from the
        # one chain the space builds, by sifting: no search is repeated.
        # The chain, at the vertex with the most orders, tries every later
        # vertex as the image of each base vertex: n(n - 1)/2 searches.
        # The multigraph below has two vertex orbits besides vertex 1's,
        # and still takes one chain: 10 searches.
        multigraph = MultiGraph(5, ((1, 2), (1, 2), (1, 4), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)))
        for g, genus, searches in ((complete(5), 2, 10), (theta(7), 3, 1), (complete_bipartite(3, 5), 1, 28),
                                   (complete_bipartite(5, 3), 1, 28), (multigraph, 1, 10)):
            classes, found, _ = vertex_maps(lambda: exhaustive_classes(g, genus=genus, mode="equivalence"))
            assert classes and found == searches

    def test_one_chain_call_per_space(self, monkeypatch):
        # One exhaustive_classes or genus_distribution call builds one
        # stabiliser chain, whatever the vertex orbits of the graph.
        calls = []
        original = rotation_space._automorphism_chain

        def counted(g, *args):
            calls.append(g)
            return original(g, *args)

        monkeypatch.setattr(rotation_space, "_automorphism_chain", counted)
        monkeypatch.setattr(canon, "_automorphism_chain", counted)
        for _, spec, *_ in TORUS_TABLE:
            calls.clear()
            assert exhaustive_classes(build_graph(spec), genus=1)
            assert len(calls) == 1
        for g in random_graphs(61, 20):
            calls.clear()
            genera = genus_distribution(g).spectrum()
            assert len(calls) == 1
            calls.clear()
            assert exhaustive_classes(g, genus=genera[-1])
            assert len(calls) == 1


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
        # In both modes: one per input, plus one for its reversal when its
        # key was met neither as an earlier input's nor as an earlier
        # input's reversal's.
        rng = random.Random(20)
        embs = [random_embedding(rng) for _ in range(20)]
        embs += [random_relabel(rng, e) for e in embs] + [reverse(e) for e in embs[:10]]
        met: set[bytes] = set()
        expected = len(embs)
        for e in embs:
            key = canonical_key(e)
            if key not in met:
                expected += 1
                met |= {key, canonical_key(reverse(e))}
        assert expected < len(embs) + 20
        for mode in ("equivalence", "iso"):
            classes, taken = stream_sets(lambda: dedup(embs, mode))
            assert len(classes) < len(embs)
            assert taken == expected

    def test_stream_sets_of_the_library_dedups(self, stream_sets):
        # theta(7) at genus 3: one per equivalence class (16), and one more
        # for each of the 2 chiral ones, in either mode.  The appendix
        # systems are pairwise non-equivalent, so each takes its own and its
        # reversal's.
        for mode in ("equivalence", "iso"):
            assert stream_sets(lambda: theta_embeddings(7, 3, mode=mode))[1] == 18
        assert stream_sets(pipeline_k33_stages)[1] == 16
        for load, sets in ((load_appendix_a, 62), (load_appendix_b, 26)):
            embs = [r.embedding for r in load()]
            assert stream_sets(lambda: dedup(embs, "equivalence"))[1] == sets

    def test_stream_sets_of_the_appendix_suites(self, stream_sets):
        # One classification pass per table gives the classes, the class
        # keys and the chiralities: each entry's key and its reversal's
        # (62 and 26).  appendixB's exhaustive K5 classes at genus 3 add one
        # per class and one per chiral class (13 + 11).  The expansion chain
        # that appendixA compares with is warmed first.
        pipeline_k5_stages()
        for name, sets in (("appendixA", 62), ("appendixB", 26 + 24)):
            report, taken = stream_sets(lambda: run_suite(name))
            assert report.passed and taken == sets


def _theta7_one_face():
    """The one-face (genus 3) systems of theta(7) with vertex 1's order fixed."""
    g = theta(7)
    embs = (make_embedding(g, [range(1, 8), (1, *p)]) for p in permutations(range(2, 8)))
    return [e for e in embs if trace_faces(e).stats.f == 1]


class TestDedupDifferential:
    """``dedup``, ``classify``'s class keys and ``chirality`` against keying every input plainly."""

    @staticmethod
    def inputs():
        rng = random.Random(47)
        embs = [random_embedding(rng) for _ in range(40)]
        embs += [random_relabel(rng, e) for e in embs[::2]] + [reverse(e) for e in embs[1::3]]
        embs += [reverse(random_relabel(rng, e)) for e in embs[::5]]
        rng.shuffle(embs)
        return embs + _theta7_one_face()

    @pytest.mark.parametrize("mode", ["iso", "equivalence"])
    def test_against_the_plain_path(self, mode):
        embs = self.inputs()
        plain = {}
        ckeys = []
        for e in embs:
            key, rkey = canonical_key(e), canonical_key(reverse(e))
            ckey = key if mode == "iso" else min(key, rkey)
            chir = NON_ORIENTABLE if key == rkey else ORIENTABLE
            ckeys.append(ckey)
            assert chirality(e) == chir
            plain.setdefault(ckey, (automorphism_group_order(e), chir))
        assert classify(embs, mode)[1] == ckeys
        classes = dedup(embs, mode)
        assert [c.canonical_key for c in classes] == sorted(plain)
        assert {c.chirality for c in classes} == {ORIENTABLE, NON_ORIENTABLE}
        assert len(classes) < len(embs)
        for c in classes:
            assert (c.group_order, c.chirality) == plain[c.canonical_key]
            assert c.representative == canonical_embedding(c.canonical_key)
            faces = trace_faces(c.representative)
            assert (c.genus, c.face_degrees) == (faces.stats.genus, faces.face_lengths())


def _embedding_on(g):
    """An embedding of ``g``: each vertex's darts in label order."""
    return embedding_from_darts(g, g.darts_at)


GUARDED = {
    "canonical_key": canonical_key,
    "automorphism_group_order": automorphism_group_order,
    "chirality": chirality,
    "class_key-iso": lambda e: classify([e], "iso")[1],
    "class_key-equivalence": lambda e: classify([e], "equivalence")[1],
    "dedup-iso": lambda e: dedup([e], "iso"),
    "dedup-equivalence": lambda e: dedup([e], "equivalence"),
    "graph_automorphism_count": lambda e: graph_automorphism_count(e.graph),
    "multigraph_key": lambda e: multigraph_key(e.graph),
}


@pytest.mark.parametrize("name", list(GUARDED))
@pytest.mark.parametrize(
    "graph",
    [theta(41), MultiGraph(17, tuple((v, v % 17 + 1) for v in range(1, 18)))],
    ids=["41-edges", "17-vertices"],
)
def test_size_guard_of_every_public_function(name, graph):
    e = _embedding_on(graph)
    with pytest.raises(SizeGuardExceeded):
        GUARDED[name](e)


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


# Equal sizes and equal sorted vertex profiles, yet not isomorphic.  The
# triangle counts tell the first three pairs apart; the cube and C8+ (the
# Moebius ladder circulant(8,1,4)) have no triangles, so only the search
# does.
K5_MINUS = k5_minus_edge()  # vertices 4 and 5 are not adjacent
PROFILE_TWINS = [
    (prism(3), complete_bipartite(3, 3)),
    (_plus(prism(3), (1, 2)), _plus(prism(3), (1, 4))),
    (_plus(K5_MINUS, (1, 2), (1, 4), (3, 5)), _plus(K5_MINUS, (1, 2), (3, 4), (3, 5))),
    (cube(), circulant(8, (1, 4))),
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
            assert _same_graph(g, h, _target(h)) == equal
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

    def test_triangle_counts_settle_before_the_search(self, graph_tests):
        # 3-prism and K33 tie on profiles but not on triangles, so no search
        # starts; the cube and C8+ tie on both, and the search answers.
        for (g, h), searches in zip(PROFILE_TWINS, (0, 0, 0, 1)):
            assert (_triangles(g) == _triangles(h)) == searches
            assert graph_tests(lambda: canon._same_graph(g, h, _target(h))) == (False, 1, searches)
        assert _triangles(cube()) == [0] * 8

    def test_size_guard_on_both_graphs(self):
        big = complete(17)
        for g, h in ((big, complete(5)), (complete(5), big)):
            with pytest.raises(SizeGuardExceeded):
                _same_graph(g, h, _target(h))

    def test_automorphism_counts_of_the_named_graphs(self):
        graphs = [g for pair in PROFILE_TWINS for g in pair]
        graphs += [K5_MINUS, complete(4), complete(5), theta(5), octahedron()]
        for g in graphs:
            count = _plain_automorphism_count(g)
            assert graph_automorphism_count(g) == count
