r"""Fundamental-polygon words: one-face embeddings as signed-letter words.

A walk around the single face of a one-face embedding traverses every edge
twice, once in each direction; writing each edge as a letter signed ``+``
on its first traversal and ``-`` on its second gives a polygon word whose
side pairings reconstruct the surface.  The surface is classified by
identifying the polygon's corners under the pairings: with V corner
classes, E distinct letters and the single polygon face,
``chi = V - E + 1``, and an all-opposite-signs word is orientable of genus
``(2 - chi) / 2``.

Word equality is taken up to rotation, reflection (reverse the word and
flip every sign) and renaming of letters (including flipping both signs of
a letter), implemented by a canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Embedding, RotsysError, dart_edge


class WordError(RotsysError, ValueError):
    """Malformed polygon word."""


@dataclass(frozen=True)
class PolygonWord:
    """A signed-letter word in which every letter occurs exactly twice."""

    letters: tuple[tuple[int, int], ...]  # (letter id, sign in {+1, -1})

    def __post_init__(self):
        counts: dict[int, int] = {}
        for letter, sign in self.letters:
            if sign not in (1, -1):
                raise WordError(f"bad sign {sign} for letter {letter}")
            counts[letter] = counts.get(letter, 0) + 1
        bad = [x for x, c in counts.items() if c != 2]
        if bad:
            raise WordError(f"letters must occur exactly twice; offending: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.letters)

    def letter_count(self) -> int:
        return len(self.letters) // 2

    def is_orientable_type(self) -> bool:
        """True when both occurrences of every letter carry opposite signs."""
        first: dict[int, int] = {}
        for letter, sign in self.letters:
            if letter in first and first[letter] == sign:
                return False
            first[letter] = sign
        return True


_PLUS = {"+", "⁺"}
_TOKEN = re.compile(r"([a-z]|#\d+)\s*([+\-⁺⁻−–])", re.I)


def parse_word(text: str) -> PolygonWord:
    """Parse ``a+b+a-b-`` or ``#1+ #2+ #1- #2-`` style word text."""
    letters = []
    pos = 0
    stripped = text.strip()
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise WordError(f"cannot read a signed letter at {stripped[pos:pos + 8]!r}")
        name, signch = m.group(1), m.group(2)
        letter = int(name[1:]) if name.startswith("#") else ord(name.lower()) - ord("a") + 1
        letters.append((letter, 1 if signch in _PLUS else -1))
        pos = m.end()
    return PolygonWord(tuple(letters))


def format_word(w: PolygonWord) -> str:
    """ASCII rendering; letter ids map to a..z when 26 or fewer letters."""
    ids = sorted({letter for letter, _ in w.letters})
    if len(ids) <= 26:
        names = {x: chr(ord("a") + i) for i, x in enumerate(ids)}
    else:
        names = {x: f"#{x}" for x in ids}
    return "".join(f"{names[letter]}{'+' if sign > 0 else '-'}" for letter, sign in w.letters)


def boundary_word(e: Embedding) -> PolygonWord:
    """The polygon word of a one-face embedding.

    Letters are edge ids; the first traversal of an edge along the facial
    walk is signed ``+`` and the second ``-``.
    """
    faces = e.face_set
    if faces.stats.f != 1:
        raise WordError(f"embedding has {faces.stats.f} faces; a polygon word needs exactly one")
    seen: set[int] = set()
    letters = []
    for d in faces.faces[0]:
        eid = dart_edge(d)
        if eid in seen:
            letters.append((eid, -1))
        else:
            seen.add(eid)
            letters.append((eid, 1))
    return PolygonWord(tuple(letters))


def surface_from_word(w: PolygonWord) -> tuple[str, int]:
    """Classify the surface built from a polygon word by its side pairings.

    Returns ``("orientable", genus)`` when every letter's occurrences carry
    opposite signs, else ``("non_orientable", chi)`` with the Euler
    characteristic from corner identification.
    """
    k = len(w.letters)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    positions: dict[int, list[tuple[int, int]]] = {}
    for i, (letter, sign) in enumerate(w.letters):
        positions.setdefault(letter, []).append((i, sign))
    # Side i runs from corner i to corner i+1.  Opposite signs glue side p
    # forward onto side q backward; equal signs glue them forward-forward.
    for (p, sp), (q, sq) in positions.values():
        if sp != sq:
            union(p, (q + 1) % k)
            union((p + 1) % k, q)
        else:
            union(p, q)
            union((p + 1) % k, (q + 1) % k)
    corners = len({find(i) for i in range(k)}) if k else 1  # the empty polygon is one corner
    chi = corners - w.letter_count() + 1
    if w.is_orientable_type():
        if chi % 2 != 0 or chi > 2:
            raise WordError(f"impossible Euler characteristic {chi}")
        return ("orientable", (2 - chi) // 2)
    return ("non_orientable", chi)


def _framing(word: tuple, start: int, k: int, least: list | None) -> list:
    """The encoding of the framing of ``word[start : start + k]``, or ``least`` when it does not go below it.

    Letters are renamed in first-occurrence order, each with the sign of
    its first occurrence taken as ``+``.  ``least`` is the least encoding
    of the framings before (``None`` for the first).  The encoding is
    compared with it as it is written and given up at its first pair above
    it; one that ties ``least`` to the end is not copied.
    """
    rename: dict[int, tuple[int, int]] = {}  # letter -> (new letter, sign of its first occurrence)
    letters = iter(word[start : start + k])
    out: list = []
    if least is not None:
        j = 0
        for letter, sign in letters:
            named = rename.get(letter)
            if named is None:
                named = rename[letter] = (len(rename) + 1, sign)
            pair = (named[0], sign * named[1])
            least_pair = least[j]
            if pair != least_pair:
                if pair > least_pair:
                    return least
                break
            j += 1
        else:
            return least
        out = least[:j]
        out.append(pair)
    for letter, sign in letters:
        named = rename.get(letter)
        if named is None:
            named = rename[letter] = (len(rename) + 1, sign)
        out.append((named[0], sign * named[1]))
    return out


def word_key(w: PolygonWord) -> tuple[tuple[int, int], ...]:
    """Canonical form under rotation, reflection and letter renaming.

    For each framing (any rotation, optionally reflected), letters are
    renamed in first-occurrence order with the first occurrence forced
    positive; the lexicographic minimum over all framings is returned.
    Each framing is compared with the least encoding so far as it is
    written and dropped at its first pair above it, so most of the 2k
    framings stop after a few letters.
    """
    k = len(w.letters)
    if k == 0:
        return ()
    best = None
    for seq in (w.letters, tuple((letter, -sign) for letter, sign in reversed(w.letters))):
        doubled = seq + seq
        for r in range(k):
            best = _framing(doubled, r, k, best)
    return tuple(best)


def words_equivalent(w1: PolygonWord, w2: PolygonWord) -> bool:
    """Equality up to rotation, reflection and letter renaming."""
    return word_key(w1) == word_key(w2)
