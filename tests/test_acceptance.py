"""Acceptance gate: every published enumeration result, by two routes.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  All comparisons are exact integer equality.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from rotsys import (
    SplitSpec,
    add_edge_in_face,
    boundary_word,
    canonical_key,
    complete,
    complete_bipartite,
    contract_edge,
    delete_edge,
    exhaustive_classes,
    genus_distribution,
    make_embedding,
    parse_word,
    split_vertex,
    surface_from_word,
    surface_stats,
    theta,
    theta5_chord_analysis,
    theta_embeddings,
    trace_faces,
    words_equivalent,
)
from rotsys.enumeration import pipeline_k33_stages, pipeline_k5_stages
from rotsys.formats import load_appendix_a, load_appendix_b
from rotsys.suites import run_suite

from conftest import random_embedding, random_relabel


def _announce(num: int, text: str, t0: float) -> None:
    print(f"PASS criterion {num:2d}: {text} ({time.time() - t0:.2f}s)")


def _split(classes) -> tuple[int, int]:
    orc = sum(1 for c in classes if c.chirality == "orientable")
    return orc, len(classes) - orc


def test_criterion_01_theta5_double_torus():
    t0 = time.time()
    classes = exhaustive_classes(theta(5), genus=2, mode="equivalence")
    assert len(classes) == 3
    assert all(c.chirality == "non_orientable" for c in classes)
    assert sorted(c.group_order for c in classes) == [2, 5, 10]
    _announce(1, "theta5 on the double torus: 3 classes, non-orientable, groups {2,10,5}", t0)


def test_criterion_02_k33():
    t0 = time.time()
    dist = genus_distribution(complete_bipartite(3, 3))
    assert dist.equivalence_counts() == {1: 2, 2: 1}
    exh = exhaustive_classes(complete_bipartite(3, 3), genus=2, mode="equivalence")
    assert len(exh) == 1 and exh[0].chirality == "non_orientable"
    res = pipeline_k33_stages()
    assert len(res.classes) == 1
    assert res.classes[0].canonical_key == exh[0].canonical_key
    _announce(2, "K33 distribution {1:2, 2:1}; expansion reproduces the unique genus-2 class", t0)


def test_criterion_03_t123_stage():
    t0 = time.time()
    st = pipeline_k5_stages()
    assert len(st.t123_iso) == 8
    assert len(st.t123) == 6 and _split(st.t123) == (2, 4)
    _announce(3, "T123 stage: 8 iso classes, 6 equivalence (2 orientable + 4 non-orientable)", t0)


def test_criterion_04_k4plus_and_w4_stages():
    t0 = time.time()
    st = pipeline_k5_stages()
    assert len(st.k4_plus) == 5 and _split(st.k4_plus) == (2, 3)
    assert len(st.w4) == 4 and _split(st.w4) == (1, 3)
    _announce(4, "K4plus stage: 5 classes (2+3); W4 stage: 4 classes (1+3)", t0)


def test_criterion_05_k5_minus_stage():
    t0 = time.time()
    st = pipeline_k5_stages()
    assert st.k5_minus_candidates == (72, 120)
    assert len(st.k5_minus_iso) == 60
    assert _split(st.k5_minus) == (21, 18)
    _announce(5, "K5-uv stage: 72+120 candidates, 60 iso classes, 21+18 equivalence", t0)


def test_criterion_06_k5_double_torus():
    t0 = time.time()
    st = pipeline_k5_stages()
    assert len(st.k5_iso) == 45
    assert len(st.k5) == 31 and _split(st.k5) == (14, 17)
    assert Counter(c.group_order for c in st.k5) == {1: 27, 2: 1, 4: 2, 5: 1}
    (order5,) = [c for c in st.k5 if c.group_order == 5]
    assert order5.chirality == "non_orientable"
    _announce(6, "K5 double torus: 45 iso, 31 equivalence (14+17), groups 1^27 2^1 4^2 5^1", t0)


def test_criterion_07_exhaustive_oracle_cross_check():
    t0 = time.time()
    st = pipeline_k5_stages()
    exh = exhaustive_classes(complete(5), genus=2, mode="iso")
    assert {c.canonical_key for c in exh} == {c.canonical_key for c in st.k5_iso}
    _announce(7, "exhaustive scan over all 7776 K5 systems matches the expansion chain key-for-key", t0)


def test_criterion_08_k5_triple_torus():
    t0 = time.time()
    exh = exhaustive_classes(complete(5), genus=3, mode="equivalence")
    assert len(exh) == 13 and _split(exh) == (11, 2)
    assert all(c.face_degrees == (20,) for c in exh)
    exh_keys = {c.canonical_key for c in exh}
    parsed = load_appendix_b()
    assert len(parsed) == 13
    from rotsys import chirality, reverse

    keys = set()
    for r in parsed:
        k = canonical_key(r.embedding)
        keys.add(min(k, canonical_key(reverse(r.embedding))))
        assert chirality(r.embedding) == r.expected_chirality
    assert keys == exh_keys
    _announce(8, "K5 triple torus: 13 one-face classes (11+2); parsed table covers them, tags match", t0)


def test_criterion_09_appendix_a():
    t0 = time.time()
    from rotsys import chirality, reverse

    parsed = load_appendix_a()
    assert len(parsed) == 31
    keys = set()
    orc = 0
    for r in parsed:
        st = surface_stats(r.embedding)
        assert st.genus == 2 and st.f == 3
        k = canonical_key(r.embedding)
        keys.add(min(k, canonical_key(reverse(r.embedding))))
        chir = chirality(r.embedding)
        assert chir == r.expected_chirality
        orc += chir == "orientable"
    assert len(keys) == 31
    assert (orc, 31 - orc) == (14, 17)
    _announce(9, "published double-torus table: 31 systems, pairwise non-equivalent, tags match, 14+17", t0)


def test_criterion_10_genus_spectra():
    t0 = time.time()
    d5 = genus_distribution(complete(5))
    assert d5.equivalence_counts() == {1: 6, 2: 31, 3: 13}
    assert d5.total_equivalence() == 50
    d33 = genus_distribution(complete_bipartite(3, 3))
    assert d33.spectrum() == (1, 2)
    assert d5.spectrum() == (1, 2, 3)
    _announce(10, "genus spectra: K5 {1:6, 2:31, 3:13} total 50; K33 spectrum {1,2}", t0)


def test_criterion_11_polygon_words():
    t0 = time.time()
    k33 = exhaustive_classes(complete_bipartite(3, 3), genus=2, mode="equivalence")[0]
    word = boundary_word(k33.representative)
    published = parse_word("a+b+c+d+e+f+b-g+h+c-f-i+g-a-d-h-i-e-")
    assert words_equivalent(word, published)
    for c in exhaustive_classes(theta(5), genus=2, mode="equivalence"):
        assert surface_from_word(boundary_word(c.representative)) == ("orientable", 2)
    assert surface_from_word(parse_word("a+b+a-b-c+d+c-d-")) == ("orientable", 2)
    assert surface_from_word(parse_word("a+b+a-b-")) == ("orientable", 1)
    _announce(11, "polygon words: 18-gon equivalence, theta5 words genus 2, octagon and torus words", t0)


def test_criterion_12_chord_analysis():
    t0 = time.time()
    an = theta5_chord_analysis()
    assert len(an.labelled_classes) == 5
    assert len(an.canonical_diagrams) == 4
    assert len(an.realizable) == 3
    assert len(an.unrealized) == 1
    assert an.unrealized[0].chord_lengths() == (3, 3, 5, 5, 5)
    _announce(12, "chord analysis: 5 labelled sequences, 4 canonical diagrams, 3 realized, 1 unrealized", t0)


def test_criterion_13_torus_table():
    t0 = time.time()
    report = run_suite("torus-table")
    failures = [r.item for r in report.rows if r.status == "FAIL"]
    assert not failures, failures
    skipped = {r.item for r in report.rows if r.status == "SKIP"}
    assert skipped == {"K7 torus embeddings", "icosahedron torus embeddings"}
    checked = sum(1 for r in report.rows if r.status == "PASS")
    assert checked == 3 * 15  # per listed graph: counts, graph group, embedding groups
    k6 = {r.item: r.computed for r in report.rows if r.item.startswith("K6 ")}
    assert k6["K6 torus embeddings (equiv=or+non)"] == "4=2+2"
    assert k6["K6 embedding group orders"] == "6^2,2^1,1^1 [rotation-preserving]"
    _announce(13, "torus table: 15 rows reproduced (K6: 4 = 2+2, groups 6^2 2^1 1^1); K7, icosahedron skipped", t0)


def test_criterion_13_slow_k6_row():
    t0 = time.time()
    classes = exhaustive_classes(complete(6), genus=1, mode="equivalence")
    assert len(classes) == 4 and _split(classes) == (2, 2)
    assert sorted((c.group_order for c in classes), reverse=True) == [6, 6, 2, 1]
    _announce(13, "torus table (K6 directly): 4 classes (2+2), groups 6^2 2^1 1^1", t0)


def test_criterion_14_property_suites(capsys):
    t0 = time.time()
    rng = random.Random(2026)

    done = 0
    while done < 500:
        e = random_embedding(rng)
        v = rng.randint(1, e.graph.n)
        deg = e.degree(v)
        if deg < 2:
            continue
        spec = SplitSpec(v, rng.randrange(deg), rng.randint(1, deg - 1),
                         rng.randint(1, e.graph.edge_count + 1))
        assert contract_edge(split_vertex(e, spec), spec.new_edge_id) == e
        done += 1

    done = 0
    while done < 500:
        e = random_embedding(rng)
        face_of = {}
        for fi, walk in enumerate(trace_faces(e).faces):
            for d in walk:
                face_of[d] = fi
        eids = [k for k in range(1, e.graph.edge_count + 1)
                if face_of[2 * (k - 1)] != face_of[2 * k - 1]]
        if not eids:
            continue
        eid = rng.choice(eids)
        result, cu, cv = delete_edge(e, eid)
        assert add_edge_in_face(result, cu, cv, eid) == e
        done += 1

    pool = [random_embedding(rng) for _ in range(50)]
    keys = [canonical_key(e) for e in pool]
    for i in range(1000):
        j = i % len(pool)
        assert canonical_key(random_relabel(rng, pool[j])) == keys[j]

    with capsys.disabled():
        _announce(14, "1000 surgery inverses, 1000 relabel-invariant keys", t0)


def test_criterion_15_theta7_question():
    t0 = time.time()
    classes = theta_embeddings(7, 3, mode="equivalence")
    iso = theta_embeddings(7, 3, mode="iso")
    assert all(c.face_degrees == (14,) for c in classes)
    orc, non = _split(classes)
    _announce(
        15,
        f"theta(7) on the triple torus completes: {len(classes)} equivalence classes "
        f"({orc} orientable + {non} non-orientable), {len(iso)} iso classes [recorded, not asserted]",
        t0,
    )
