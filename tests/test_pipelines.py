"""The expansion chains from theta(5) to K33 and K5."""

from __future__ import annotations

import random
from collections import Counter

from rotsys import (
    canon,
    complete,
    core,
    complete_bipartite,
    enumeration,
    exhaustive_classes,
    reverse,
    surgery,
    trace_faces,
)
from rotsys.enumeration import (
    RotationSpace,
    _edge_additions,
    _path_split,
    _subdivide_and_join,
    pipeline_k33_stages,
    pipeline_k5_stages,
    theta5_classes,
)
from rotsys.canon import (
    _layout,
    _mirror_keys,
    _same_graph,
    _stage_classes,
    _target,
    automorphism_group_order,
    canonical_key,
    dedup,
    multigraph_key,
)
from rotsys.core import k4_plus, k5_minus_edge, triangle_multi, wheel
from rotsys.surgery import (
    CornerRef,
    SplitSpec,
    _graph,
    _rebuild,
    _splits,
    add_edge_in_face,
    all_splits,
    partition_split_specs,
    split_vertex,
    subdivide_edge,
)

from conftest import random_graphs, random_relabel, system_at


def _split(classes):
    orc = sum(1 for c in classes if c.chirality == "orientable")
    return orc, len(classes) - orc


class TestK5Chain:
    def test_t123_stage(self):
        st = pipeline_k5_stages()
        assert len(st.t123_iso) == 8
        assert len(st.t123) == 6
        assert _split(st.t123) == (2, 4)

    def test_k4_plus_stage(self):
        st = pipeline_k5_stages()
        assert len(st.k4_plus) == 5
        assert _split(st.k4_plus) == (2, 3)

    def test_w4_stage(self):
        st = pipeline_k5_stages()
        assert len(st.w4) == 4
        assert _split(st.w4) == (1, 3)
        # each W4 embedding has a single face of length 16
        for c in st.w4:
            assert c.face_degrees == (16,)

    def test_w4_addition_count_is_18_each(self):
        st = pipeline_k5_stages()
        for c in st.w4:
            assert len(_edge_additions(c.representative, k5_minus_edge())) == 18

    def test_k4_plus_subdivide_join_count_is_24_each(self):
        st = pipeline_k5_stages()
        for c in st.k4_plus:
            assert len(_subdivide_and_join(c.representative, k5_minus_edge())) == 24

    def test_k5_minus_stage(self):
        st = pipeline_k5_stages()
        assert st.k5_minus_candidates == (72, 120)
        assert len(st.k5_minus_iso) == 60
        assert len(st.k5_minus) == 39
        assert _split(st.k5_minus) == (21, 18)

    def test_k5_minus_matches_exhaustive(self):
        st = pipeline_k5_stages()
        exh = exhaustive_classes(k5_minus_edge(), genus=2, mode="iso")
        assert {c.canonical_key for c in exh} == {c.canonical_key for c in st.k5_minus_iso}

    def test_k5_stage(self):
        st = pipeline_k5_stages()
        assert len(st.k5_iso) == 45
        assert len(st.k5) == 31
        assert _split(st.k5) == (14, 17)
        assert Counter(c.group_order for c in st.k5) == {1: 27, 2: 1, 4: 2, 5: 1}
        (order5,) = [c for c in st.k5 if c.group_order == 5]
        assert order5.chirality == "non_orientable"

    def test_k5_matches_exhaustive(self):
        st = pipeline_k5_stages()
        exh = exhaustive_classes(complete(5), genus=2, mode="iso")
        assert {c.canonical_key for c in exh} == {c.canonical_key for c in st.k5_iso}
        exh_eq = exhaustive_classes(complete(5), genus=2, mode="equivalence")
        assert {c.canonical_key for c in exh_eq} == {c.canonical_key for c in st.k5}


def _stage_candidates(st):
    """The candidates of each stage of ``st``, laid out again from the stage before, as the chain keys them."""
    k5m, k5 = k5_minus_edge(), complete(5)
    return {
        "t123": [x for c in st.theta5 for x in _splits(c.representative, triangle_multi(1, 2, 3))],
        "k4_plus": [x for c in st.t123 for x in _splits(c.representative, k4_plus())],
        "w4": [x for c in st.k4_plus for x in _splits(c.representative, wheel(4))],
        "k5_minus": [x for c in st.w4 for x in _edge_additions(c.representative, k5m)]
        + [x for c in st.k4_plus for x in _subdivide_and_join(c.representative, k5m)],
        "k5": [x for c in st.k5_minus for x in _edge_additions(c.representative, k5)],
    }


def _built_stage_candidates(st):
    """The same candidates as :func:`_stage_candidates`, in its order, each built through ``embedding_from_darts``.

    Every split and every insertion is built by ``split_vertex`` and
    ``add_edge_in_face`` first and then filtered by graph key, so no
    layout, degree gate or graph test of the chain makes this list.
    """
    k5m, k5 = k5_minus_edge(), complete(5)
    return {
        "t123": [e for c in st.theta5 for e in _split_then_filtered(c.representative, triangle_multi(1, 2, 3))[0]],
        "k4_plus": [e for c in st.t123 for e in _split_then_filtered(c.representative, k4_plus())[0]],
        "w4": [e for c in st.k4_plus for e in _split_then_filtered(c.representative, wheel(4))[0]],
        "k5_minus": [e for c in st.w4 for e in _added_then_filtered(c.representative, k5m)[0]]
        + [e for c in st.k4_plus for d in _doubled_subdivisions(c.representative) for e in _added_then_filtered(d, k5m)[0]],
        "k5": [e for c in st.k5_minus for e in _added_then_filtered(c.representative, k5)[0]],
    }


def _built(layouts):
    """``layouts`` built through the validating ``embedding_from_darts``."""
    return [_rebuild(*layout) for layout in layouts]


def _doubled_subdivisions(e):
    g = e.graph
    return [subdivide_edge(e, eid) for eid, (u, v) in enumerate(g.edges, start=1) if g.multiplicity(u, v) == 2]


def _added_then_filtered(e, target):
    """The insertions of one edge into ``e`` whose graph is ``target``'s, all built first; and all of them."""
    target_key = multigraph_key(target)
    faces = trace_faces(e).faces
    dv = e.graph.dart_vertex
    built = []
    for fi, walk in enumerate(faces):
        for i in range(len(walk)):
            for j in range(i + 1, len(walk)):
                if dv[walk[i]] != dv[walk[j]]:
                    built.append(add_edge_in_face(e, CornerRef(fi, i), CornerRef(fi, j)))
    return [cand for cand in built if multigraph_key(cand.graph) == target_key], built


def _split_then_filtered(e, target):
    """The splits of ``e`` whose graph is ``target``'s, all built first; and all of them."""
    tables = _target(target)
    children = [split_vertex(e, spec) for v in range(1, e.graph.n + 1) for spec in partition_split_specs(e, v)]
    return [child for child in children if _same_graph(child.graph, target, tables)], children


def _near_misses(candidates, target):
    """How many ``candidates`` have ``target``'s degrees but another graph."""
    key = multigraph_key(target)
    return sum(
        1
        for cand in candidates
        if cand.graph.degree_sequence() == target.degree_sequence() and multigraph_key(cand.graph) != key
    )


def _relabelled_graph(rng, g):
    """``g`` with its vertices and edge order shuffled."""
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
    rng.shuffle(edges)
    return core.MultiGraph(g.n, tuple(edges))


class TestStageShortcuts:
    """The stage helpers against the plain build-everything-then-dedup path."""

    def _check_stage_classes(self, layouts, candidates):
        # The records of the layouts, keyed as they are, against those of
        # the same maps built.
        iso, eq = _stage_classes(layouts)
        assert iso == dedup(candidates + [reverse(e) for e in candidates], "iso")
        assert eq == dedup(candidates, "equivalence")
        # Each equivalence class is one of the iso classes, record and all.
        assert {id(c) for c in eq} <= {id(c) for c in iso}
        return eq

    def test_stage_classes_on_every_pipeline_stage(self):
        st = pipeline_k5_stages()
        stages, built = _stage_candidates(st), _built_stage_candidates(st)
        assert len(stages["k5_minus"]) == sum(st.k5_minus_candidates)
        for name, layouts in stages.items():
            self._check_stage_classes(layouts, built[name])

    def test_keyed_layouts_match_the_built_candidates(self, monkeypatch):
        # Every stage of a cold chain keys its candidates as layouts and
        # builds none of them.  Each layout builds, through the validating
        # embedding_from_darts, a connected embedding of its stage's target
        # graph: the one the build-everything-then-filter construction
        # builds at its place.  Keyed, the layouts give that construction's
        # records: per candidate the key, its reversal's key and the group
        # order, and per stage its classes, in order.
        keyed = []

        def record(layouts):
            return keyed.append(list(layouts)) or _stage_classes(keyed[-1])

        monkeypatch.setattr(enumeration, "_stage_classes", record)
        pipeline_k5_stages.cache_clear()
        try:
            st = pipeline_k5_stages()
        finally:
            pipeline_k5_stages.cache_clear()
        built = _built_stage_candidates(st)
        assert [len(layouts) for layouts in keyed] == [len(built[name]) for name in built] == [30, 20, 14, 192, 209]
        targets = (triangle_multi(1, 2, 3), k4_plus(), wheel(4), k5_minus_edge(), complete(5))
        for layouts, candidates, target in zip(keyed, built.values(), targets):
            assert _built(layouts) == candidates
            assert all(multigraph_key(e.graph) == multigraph_key(target) and trace_faces(e).stats.genus == 2 for e in candidates)
            assert list(_mirror_keys(layouts)) == [
                (canonical_key(e), canonical_key(reverse(e)), automorphism_group_order(e)) for e in candidates
            ]
            self._check_stage_classes(layouts, candidates)

    def test_stage_classes_on_random_embeddings(self):
        # Random systems of random multigraphs, with relabelled and mirrored
        # copies, so classes meet each other's members and their mirrors.
        rng = random.Random(83)
        embs = []
        for g in random_graphs(85, 12):
            space = RotationSpace(g)
            embs += [system_at(g, space.orders, rng.randrange(space.total)) for _ in range(3)]
        embs += [random_relabel(rng, e) for e in embs[::2]] + [reverse(e) for e in embs[1::3]]
        rng.shuffle(embs)
        eq = self._check_stage_classes([_layout(e) for e in embs], embs)
        assert {c.chirality for c in eq} == {"orientable", "non_orientable"}
        assert len(eq) < len(embs)

    def test_edge_additions_match_the_build_every_candidate_filter(self):
        st = pipeline_k5_stages()
        k5m, k5 = k5_minus_edge(), complete(5)
        cases = [(c.representative, k5m) for c in st.w4]
        cases += [(e, k5m) for c in st.k4_plus for e in _doubled_subdivisions(c.representative)]
        cases += [(c.representative, k5) for c in st.k5_minus]
        assert len(cases) == 4 + 5 * 2 + 39
        for e, target in cases:
            assert _built(_edge_additions(e, target)) == _added_then_filtered(e, target)[0]

    def test_edge_additions_on_random_embeddings(self):
        # Targets are relabelled graphs of some insertion, so candidates of
        # the same degrees but another graph (parallel edges, other
        # neighbours) meet the graph test past the degree gate.
        rng = random.Random(29)
        near_misses = accepted = 0
        for g in random_graphs(31, 25):
            space = RotationSpace(g)
            e = system_at(g, space.orders, rng.randrange(space.total))
            for _ in range(2):
                x, y = rng.sample(range(1, g.n + 1), 2)
                target = _relabelled_graph(rng, core.MultiGraph(g.n, g.edges + ((x, y),)))
                want, built = _added_then_filtered(e, target)
                assert _built(_edge_additions(e, target)) == want
                accepted += len(want)
                near_misses += _near_misses(built, target)
        assert accepted > 0 and near_misses > 0

    def test_all_splits_match_the_build_every_split_filter(self):
        # all_splits settles each split before building it; building every
        # split and filtering by graph gives the same list, in order.
        st = pipeline_k5_stages()
        cases = [(c.representative, triangle_multi(1, 2, 3)) for c in st.theta5]
        cases += [(c.representative, k4_plus()) for c in st.t123]
        cases += [(c.representative, wheel(4)) for c in st.k4_plus]
        assert len(cases) == 3 + 6 + 5
        kept = built = 0
        for e, target in cases:
            want, children = _split_then_filtered(e, target)
            assert all_splits(e, target) == want
            kept += len(want)
            built += len(children)
        assert (kept, built) == (64, 264)

    def test_all_splits_on_random_embeddings(self):
        # Targets are relabelled graphs of one split, as for edge additions.
        rng = random.Random(37)
        near_misses = accepted = 0
        for g in random_graphs(41, 25):
            space = RotationSpace(g)
            e = system_at(g, space.orders, rng.randrange(space.total))
            for _ in range(2):
                spec = rng.choice([spec for v in range(1, g.n + 1) for spec in partition_split_specs(e, v)])
                target = _relabelled_graph(rng, split_vertex(e, spec).graph)
                want, children = _split_then_filtered(e, target)
                assert all_splits(e, target) == want
                accepted += len(want)
                near_misses += _near_misses(children, target)
        assert accepted > 0 and near_misses > 0

    def test_cold_k5_chain_work_counts(self, stream_sets, graph_tests, monkeypatch):
        # Cleared before and after, so no other test meets a cache state
        # it did not expect.  No pipeline path computes a graph key.
        def no_key(g, **kwargs):
            raise AssertionError("multigraph_key called")

        built = Counter()
        class_record, graph_tables, degrees_fit = canon._class_record, canon._graph_tables, canon._degrees_fit
        decode, triangles = canon._decode, canon._triangles

        def counted_record(key, order, achiral):
            built["records"] += 1
            return class_record(key, order, achiral)

        def counted_decode(key):
            built["decodes"] += 1
            return decode(key)

        def counted_tables(g):
            built["tables"] += 1
            return graph_tables(g)

        def counted_triangles(g):
            built["triangles"] += 1
            return triangles(g)

        def counted_trace(e):
            built["traces"] += 1
            return trace_faces(e)

        layout, insertion, build = surgery._split, surgery._insert, surgery.embedding_from_darts
        shift = surgery._shift_dart_up

        def counted_layout(n, dart_vertex, rot, spec):
            built["layouts"] += 1
            return layout(n, dart_vertex, rot, spec)

        def counted_shift(d, new_eid):
            built["shifts"] += 1
            return shift(d, new_eid)

        def counted_insertion(n, dart_vertex, rot, du, dw, m):
            built["insertion layouts"] += 1
            return insertion(n, dart_vertex, rot, du, dw, m)

        def counted_build(graph, rot):
            built["surgery builds"] += 1
            return build(graph, rot)

        def counted_degrees(degrees, old, new, target):
            fits = degrees_fit(degrees, old, new, target)
            built["degree gates"] += 1
            built["settled by degrees"] += not fits
            return fits

        monkeypatch.setattr(canon, "_class_record", counted_record)
        monkeypatch.setattr(canon, "_decode", counted_decode)
        monkeypatch.setattr(surgery, "_split", counted_layout)
        monkeypatch.setattr(enumeration, "_insert", counted_insertion)
        monkeypatch.setattr(surgery, "embedding_from_darts", counted_build)
        monkeypatch.setattr(surgery, "_shift_dart_up", counted_shift)
        for module in (core, canon, enumeration, surgery):
            monkeypatch.setattr(module, "trace_faces", counted_trace, raising=False)
        monkeypatch.setattr(canon, "_graph_tables", counted_tables)
        monkeypatch.setattr(canon, "_triangles", counted_triangles)
        for module in (canon, enumeration, surgery):
            monkeypatch.setattr(module, "multigraph_key", no_key, raising=False)
            monkeypatch.setattr(module, "_degrees_fit", counted_degrees)
        pipeline_k5_stages.cache_clear()
        try:
            (st, tests, searches), sets = stream_sets(lambda: graph_tests(pipeline_k5_stages))
        finally:
            pipeline_k5_stages.cache_clear()
        assert sets == 556
        # Each of the 793 vertex pairs and splits is first settled by its
        # degrees; 631 fail there, and only the other 162 build a graph
        # for a graph test.
        assert built["degree gates"] == 793
        assert built["settled by degrees"] == 631
        assert (tests, searches) == (162, 130)
        # One record per distinct iso class key of each stage: the
        # equivalence classes of a stage share the records of its iso
        # classes.  The K4+ and W4 stages keep only their equivalence
        # classes, so the mirror records of their 2 + 1 chiral classes are
        # built and dropped (125 records when those two stages built
        # equivalence records only).  Each graph test builds its
        # candidate's tables; each call of all_splits or
        # _edge_additions builds its target's once (67 calls), with the
        # target's triangle counts.  A candidate's triangles are counted
        # only when its profiles tie, in the 130 tests that reach the
        # search (260 calls when each test counted both graphs').
        iso_stages = (st.theta5, st.t123_iso, st.k4_plus, st.w4, st.k5_minus_iso, st.k5_iso)
        chiral = sum(c.chirality == "orientable" for c in st.k4_plus + st.w4)
        assert built["records"] == 128 == sum(map(len, iso_stages)) + chiral
        assert built["tables"] == 162 + 67
        assert built["triangles"] == 130 + 67
        # A record decodes its representative on first read only: the chain
        # reads those of the classes it expands (3 theta(5), 6 T123, 5 K4+,
        # 4 W4 and 39 K5-e), each once.
        assert built["decodes"] == 3 + 6 + 5 + 4 + 39
        # Faces are traced once per embedding and kept on it, and records
        # trace none: once for each representative that edges are added to
        # (the 4 W4 and 39 K5-e classes), and once for each of the 10
        # subdivided K4+ systems.  The 401 insertions and the
        # _edge_additions calls on those reuse the walks (135 traces when
        # every record traced its representative).
        assert built["traces"] == 4 + 39 + 10
        # The chain settles each of the 264 splits (of the 793) by its
        # degrees or, for 80, by the graph of its one layout (144 layouts
        # when split_vertex laid out each again), and keys the 64 that pass
        # as laid out; it lays out the 401 accepted insertions and keys
        # them alike.  Surgery builds only the 10 subdivisions, whose faces
        # are traced; it built 64 + 401 + 10 when every split and insertion
        # was built through embedding_from_darts to be keyed.
        assert built["layouts"] == 80
        assert built["insertion layouts"] == 401
        assert built["surgery builds"] == 10
        # Every split and insertion takes the next free edge id, so no dart
        # is shifted (1,320 shifts when _split shifted every dart).
        assert built["shifts"] == 0


class TestK33Chain:
    def test_classes(self):
        res = pipeline_k33_stages()
        assert len(res.classes) == 1
        assert res.classes[0].chirality == "non_orientable"
        exh = exhaustive_classes(complete_bipartite(3, 3), genus=2, mode="equivalence")
        assert res.classes[0].canonical_key == exh[0].canonical_key

    def test_no_completions_from_the_group10_class(self):
        res = pipeline_k33_stages()
        by_group = dict(zip((c.group_order for c in res.theta5), res.candidates_per_class))
        assert by_group[10] == 0
        assert by_group[2] == 4  # published count of labelled extensions via the central edge
        assert sum(res.candidates_per_class) > 0

    def test_path_split_lists_build_what_split_vertex_builds(self, monkeypatch):
        # Every double path expansion of the theta(5) classes, built from
        # _path_split's lists, equals the one two split_vertex calls per
        # path build, the second at the new edge's dart of the first path
        # as built.  Filtered by graph key they are the chain's completions.
        def built_path(e, vertex, start):
            first = split_vertex(e, SplitSpec(vertex, start, 2, e.graph.edge_count + 1))
            mid, m1_dart = first.graph.n, 2 * first.graph.edge_count - 1
            return split_vertex(first, SplitSpec(mid, first.rot[mid - 1].index(m1_dart), 2, first.graph.edge_count + 1))

        expansions = []
        for c in theta5_classes():
            e = c.representative
            for s in range(5):
                first = _path_split(e.graph.n, e.graph.dart_vertex, e.rot, 1, s)
                first_built = built_path(e, 1, s)
                assert _rebuild(*first) == first_built
                for t in range(5):
                    expansions.append(_rebuild(*_path_split(*first, 2, t)))
                    assert expansions[-1] == built_path(first_built, 2, t)
        assert len(expansions) == 75
        keyed = []
        monkeypatch.setattr(enumeration, "_stage_classes", lambda layouts: keyed.append(layouts) or _stage_classes(layouts))
        res = pipeline_k33_stages()
        k33_key = multigraph_key(complete_bipartite(3, 3))
        completions = [emb for emb in expansions if multigraph_key(emb.graph) == k33_key]
        assert _built(keyed[-1]) == completions
        assert len(completions) == 9
        # Keyed as laid out, the completions give the records of the same
        # completions built: per completion and for the chain's one class.
        assert list(_mirror_keys(keyed[-1])) == [
            (canonical_key(e), canonical_key(reverse(e)), automorphism_group_order(e)) for e in completions
        ]
        assert list(res.classes) == dedup(completions, "equivalence")

    def test_k33_chain_work_counts(self, graph_tests, monkeypatch):
        # 3 classes x 5 paths at vertex 1, then x 5 paths at vertex 2: the
        # 75 double path expansions are laid out as lists (two _split calls
        # per path, 180 in all), their graphs tested, and the 9 completions
        # keyed as laid out.  53 candidates pass the profile check, and the
        # 44 cubic ones with triangles (3-prisms) stop at the triangle
        # counts, so 9 searches start (53 before that gate).  No
        # split_vertex call and no build is left; building the first split
        # of every path and then each completion took 114, and building
        # the completions alone 9.  Each graph test builds its candidate's
        # tables, and K33's are built once, with its triangle counts; the
        # 53 candidates whose profiles tie count theirs (106 calls when each
        # test counted both graphs').  Every split takes the next free edge
        # id and shifts no dart (3,390 shifts when every dart was).
        built = Counter()
        graph_tables, layout, build = canon._graph_tables, surgery._split, surgery.embedding_from_darts
        shift, triangles = surgery._shift_dart_up, canon._triangles

        def counted_tables(g):
            built["tables"] += 1
            return graph_tables(g)

        def counted_triangles(g):
            built["triangles"] += 1
            return triangles(g)

        def counted_layout(n, dart_vertex, rot, spec):
            built["layouts"] += 1
            return layout(n, dart_vertex, rot, spec)

        def counted_build(graph, rot):
            built["builds"] += 1
            return build(graph, rot)

        def counted_shift(d, new_eid):
            built["shifts"] += 1
            return shift(d, new_eid)

        def no_split(e, spec):
            raise AssertionError("split_vertex called")

        monkeypatch.setattr(canon, "_graph_tables", counted_tables)
        monkeypatch.setattr(canon, "_triangles", counted_triangles)
        for module in (enumeration, surgery):
            monkeypatch.setattr(module, "split_vertex", no_split, raising=False)
            monkeypatch.setattr(module, "_split", counted_layout)
            monkeypatch.setattr(module, "embedding_from_darts", counted_build, raising=False)
        monkeypatch.setattr(surgery, "_shift_dart_up", counted_shift)
        res, tests, searches = graph_tests(pipeline_k33_stages)
        assert (tests, searches) == (75, 9)
        assert built["tables"] == 75 + 1
        assert built["triangles"] == 53 + 1
        assert built["layouts"] == 2 * (15 + 75)
        assert sum(res.candidates_per_class) == 9
        assert built["builds"] == 0
        assert built["shifts"] == 0

    def test_all_completions_share_one_key(self):
        k33 = complete_bipartite(3, 3)
        k33_key = multigraph_key(k33)
        k33_tables = _target(k33)
        completions = []
        for c in theta5_classes():
            e = c.representative
            for s in range(5):
                first = _path_split(e.graph.n, e.graph.dart_vertex, e.rot, 1, s)
                for n, dart_vertex, rot in (_path_split(*first, 2, t) for t in range(5)):
                    if _same_graph(_graph(n, dart_vertex), k33, k33_tables):
                        completions.append(_rebuild(n, dart_vertex, rot))
        assert len(completions) == 9
        assert all(multigraph_key(e.graph) == k33_key for e in completions)
        keys = {canonical_key(e) for e in completions}
        assert len(keys) == 1

    def test_completions_are_one_face_double_torus(self):
        res = pipeline_k33_stages()
        rep = res.classes[0].representative
        stats = trace_faces(rep).stats
        assert stats.f == 1 and stats.genus == 2
