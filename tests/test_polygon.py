"""Polygon words: extraction, surface classification, equivalence."""

from __future__ import annotations

import random

import pytest

from rotsys import (
    Embedding,
    MultiGraph,
    PolygonWord,
    WordError,
    boundary_word,
    format_word,
    from_neighbor_lists,
    make_embedding,
    parse_word,
    complete,
    surface_from_word,
    surface_stats,
    theta,
    trace_faces,
    words_equivalent,
)
from rotsys.formats import load_appendix_b
from rotsys.polygon import word_key

from conftest import random_embedding
from test_canon import K33_NEIGHBOR_ROTATIONS

PUBLISHED_TENGONS = {
    2: "a+b+c+d+e+c-d-a-b-e-",
    10: "a+b+c+d+e+a-b-c-d-e-",
    5: "a+b+c+a-d+c-e+d-b-e-",
}
PUBLISHED_18GON = "a+b+c+d+e+f+b-g+h+c-f-i+g-a-d-h-i-e-"


class TestParsing:
    def test_compact_and_spaced(self):
        assert parse_word("a+b+a-b-") == parse_word("a+ b+ a- b-")

    def test_unicode_signs(self):
        assert parse_word("a⁺b⁺a⁻b⁻") == parse_word("a+b+a-b-")

    def test_numeric_letters(self):
        w = parse_word("#1+ #2+ #1- #2-")
        assert surface_from_word(w) == ("orientable", 1)

    def test_format_round_trip(self):
        w = parse_word("a+b+c+a-d+c-e+d-b-e-")
        assert parse_word(format_word(w)) == w

    def test_malformed(self):
        with pytest.raises(WordError):
            parse_word("a+b")
        with pytest.raises(WordError):
            parse_word("a+a-a+")  # letter three times
        with pytest.raises(WordError):
            PolygonWord(((1, 1), (1, 1), (2, 1)))


class TestSurfaceFromWord:
    def test_octagon(self):
        assert surface_from_word(parse_word("a+b+a-b-c+d+c-d-")) == ("orientable", 2)

    def test_ten_gon(self):
        assert surface_from_word(parse_word("a+b+c+d+e+a-b-c-d-e-")) == ("orientable", 2)

    def test_torus_rectangle(self):
        assert surface_from_word(parse_word("a+b+a-b-")) == ("orientable", 1)

    def test_torus_hexagon(self):
        assert surface_from_word(parse_word("a+b+c+a-b-c-")) == ("orientable", 1)

    def test_sphere(self):
        assert surface_from_word(parse_word("a+a-")) == ("orientable", 0)

    def test_projective_plane(self):
        assert surface_from_word(parse_word("a+a+")) == ("non_orientable", 1)

    def test_klein_bottle(self):
        assert surface_from_word(parse_word("a+b+a+b-")) == ("non_orientable", 0)

    def test_empty_word_is_the_sphere(self):
        w = boundary_word(Embedding(MultiGraph(1, ()), ((),)))
        assert w == PolygonWord(())
        assert surface_from_word(w) == ("orientable", 0)
        assert word_key(w) == ()

    def test_matches_embedding_genus(self):
        rng = random.Random(55)
        checked = 0
        while checked < 120:
            e = random_embedding(rng)
            fs = trace_faces(e)
            if fs.stats.f != 1:
                continue
            word = boundary_word(e)
            assert surface_from_word(word) == ("orientable", fs.stats.genus)
            checked += 1


class TestBoundaryWord:
    def test_theta5_words(self, theta5_systems):
        for group, text in PUBLISHED_TENGONS.items():
            w = boundary_word(theta5_systems[group])
            assert len(w) == 10
            assert words_equivalent(w, parse_word(text))

    def test_theta5_words_pairwise_inequivalent(self, theta5_systems):
        words = [boundary_word(e) for e in theta5_systems.values()]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not words_equivalent(words[i], words[j])

    def test_k33_18gon(self):
        e = from_neighbor_lists(K33_NEIGHBOR_ROTATIONS)
        w = boundary_word(e)
        assert len(w) == 18
        assert words_equivalent(w, parse_word(PUBLISHED_18GON))
        assert surface_from_word(w) == ("orientable", 2)

    def test_k2(self):
        w = boundary_word(make_embedding(complete(2), [[1], [1]]))
        assert format_word(w) == "a+a-"

    def test_multi_face_rejected(self):
        e = make_embedding(theta(3), [(1, 2, 3), (1, 3, 2)])
        with pytest.raises(WordError):
            boundary_word(e)


def _random_word(rng: random.Random) -> PolygonWord:
    k = rng.randint(1, 6)
    letters = []
    for x in range(1, k + 1):
        letters.append((x, rng.choice((1, -1))))
        letters.append((x, rng.choice((1, -1))))
    rng.shuffle(letters)
    return PolygonWord(tuple(letters))


def _random_renaming(rng: random.Random, w: PolygonWord) -> PolygonWord:
    ids = sorted({letter for letter, _ in w.letters})
    new = list(range(100, 100 + len(ids)))
    rng.shuffle(new)
    rename = dict(zip(ids, new))
    flip = {x: rng.choice((1, -1)) for x in ids}
    letters = tuple((rename[x], s * flip[x]) for x, s in w.letters)
    k = rng.randrange(len(letters))
    letters = letters[k:] + letters[:k]
    if rng.random() < 0.5:
        letters = tuple((x, -s) for x, s in reversed(letters))
    return PolygonWord(letters)


def _all_framings_key(w: PolygonWord):
    """``word_key`` the plain way: encode all 2k framings to the end and take the least."""
    k = len(w.letters)
    keys = []
    for seq in (list(w.letters), [(x, -s) for x, s in reversed(w.letters)]):
        for r in range(k):
            rename: dict[int, int] = {}
            flip: dict[int, int] = {}
            for x, s in seq[r:] + seq[:r]:
                if x not in rename:
                    rename[x] = len(rename) + 1
                    flip[x] = s
            keys.append(tuple((rename[x], s * flip[x]) for x, s in seq[r:] + seq[:r]))
    return min(keys, default=())


class TestWordKey:
    def test_matches_all_framings_on_random_words(self):
        # Orientable words (opposite signs), same-sign words and mixed ones,
        # with 1-12 letters; few letters tie many framings to the end.
        rng = random.Random(58)
        for k in range(1, 13):
            for signs in ("opposite", "same", "mixed"):
                for _ in range(15):
                    ids = rng.sample(range(1, 40), k)
                    letters = []
                    for x in ids:
                        s = rng.choice((1, -1))
                        second = {"opposite": -s, "same": s, "mixed": rng.choice((1, -1))}[signs]
                        letters += [(x, s), (x, second)]
                    rng.shuffle(letters)
                    w = PolygonWord(tuple(letters))
                    if signs != "mixed":
                        assert w.is_orientable_type() == (signs == "opposite")
                    assert word_key(w) == _all_framings_key(w)

    def test_matches_all_framings_on_the_appendix_b_words(self):
        words = [boundary_word(entry.embedding) for entry in load_appendix_b()]
        assert len(words) == 13
        for w in words:
            assert word_key(w) == _all_framings_key(w)

    def test_periodic_words(self):
        # Every framing of a word with full symmetry ties the first one.
        for text in ("a+b+c+d+e+a-b-c-d-e-", "a+b+a-b-", "a+a+", "a+b+c+a+b+c+"):
            w = parse_word(text)
            assert word_key(w) == _all_framings_key(w)


class TestWordEquivalence:
    def test_rotation(self):
        w = parse_word("a+b+c+a-d+c-e+d-b-e-")
        rotated = PolygonWord(w.letters[3:] + w.letters[:3])
        assert words_equivalent(w, rotated)

    def test_equivalence_relation_properties(self):
        rng = random.Random(56)
        for _ in range(150):
            w = _random_word(rng)
            assert words_equivalent(w, w)
            w2 = _random_renaming(rng, w)
            assert words_equivalent(w, w2)
            assert words_equivalent(w2, w)
            w3 = _random_renaming(rng, w2)
            assert words_equivalent(w, w3)
            assert surface_from_word(w)[0] == surface_from_word(w3)[0]

    def test_surface_is_word_invariant(self):
        rng = random.Random(57)
        for _ in range(100):
            w = _random_word(rng)
            assert surface_from_word(w) == surface_from_word(_random_renaming(rng, w))
