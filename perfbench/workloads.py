"""Seeded inputs and oracle-checked items of the three benchmark workloads.

A workload is a list of :class:`Item`.  ``call`` runs public functions of
``rotsys`` on inputs fixed at set-up time and is the only part that is
timed; ``check`` compares its result with the published values and returns
a digest that does not depend on the labelling (or ``None`` for items with
no recorded digest).  A failed check raises :class:`Mismatch`.

The seed chooses the inputs and nothing else: vertex permutations, edge
orders and endpoint orders of the named graphs, relabellings of the
appendix systems, and the random multigraphs.  Inputs are kept as plain
tuples and turned into ``rotsys`` objects inside ``call``, so every pass
starts from cold objects.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from rotsys import canon, core, enumeration, formats, polygon, suites

WORKLOADS = ("torus-scan", "genus-classify", "expand-chain")

# Random multigraphs of genus-classify: one distinct loopless multigraph
# with parallel edges per degree sequence below.  The sequences are fixed
# (9 edges each, rotation spaces of 288 to 1152 systems), so the summed
# space, and with it the work, is the same for every seed; the seed draws
# the graphs.
MG_DEGREES = (
    (5, 4, 3, 2, 2, 2),
    (6, 3, 3, 2, 2, 2),
    (5, 5, 2, 2, 2, 2),
    (5, 5, 2, 2, 2, 2),
    (6, 4, 2, 2, 2, 2),
    (4, 4, 4, 3, 3),
    (4, 4, 4, 3, 3),
    (5, 4, 3, 3, 3),
)

class Mismatch(AssertionError):
    """An item's result disagrees with its oracle."""


@dataclass(frozen=True)
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    space: int = 0  # logical rotation-space size the item covers


def expect(label: str, want, got) -> None:
    if want != got:
        raise Mismatch(f"{label}: expected {want!r}, got {got!r}")


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:32]


def key_digest(classes) -> str:
    return digest(sorted(c.canonical_key for c in classes))


def space_of(n: int, edges) -> int:
    """Rotation-space size from the degree sequence, independent of rotsys."""
    deg = Counter(v for e in edges for v in e)
    return math.prod(math.factorial(deg[v] - 1) for v in range(1, n + 1))


def split(classes) -> str:
    orc = sum(1 for c in classes if c.chirality == canon.ORIENTABLE)
    return f"{orc}+{len(classes) - orc}"


def group_multiset(classes) -> str:
    counts = Counter(c.group_order for c in classes)
    return ",".join(f"{o}^{counts[o]}" for o in sorted(counts, reverse=True))


# ---------------------------------------------------------------------------
# Seeded relabelling of plain (n, edges, rotations) data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relabel:
    vperm: tuple[int, ...]  # old vertex v -> vperm[v - 1]
    pos: tuple[int, ...]  # old edge index k -> new edge index pos[k]
    flip: tuple[bool, ...]  # old edge index k has its endpoints swapped

    @staticmethod
    def draw(rng: random.Random, n: int, m: int) -> "Relabel":
        vperm = list(range(1, n + 1))
        rng.shuffle(vperm)
        pos = list(range(m))
        rng.shuffle(pos)
        flip = tuple(rng.random() < 0.5 for _ in range(m))
        return Relabel(tuple(vperm), tuple(pos), flip)

    def edges(self, edges) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = [(0, 0)] * len(edges)
        for k, (u, v) in enumerate(edges):
            u, v = self.vperm[u - 1], self.vperm[v - 1]
            out[self.pos[k]] = (v, u) if self.flip[k] else (u, v)
        return tuple(out)

    def rotations(self, rot) -> tuple[tuple[int, ...], ...]:
        out: list[tuple[int, ...]] = [()] * len(rot)
        for v0, cycle in enumerate(rot):
            darts = tuple(2 * self.pos[d >> 1] + ((d & 1) ^ self.flip[d >> 1]) for d in cycle)
            out[self.vperm[v0] - 1] = darts
        return tuple(out)


def relabelled_graph(rng: random.Random, g: core.MultiGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    return g.n, Relabel.draw(rng, g.n, g.edge_count).edges(g.edges)


def relabelled_system(rng: random.Random, e: core.Embedding):
    r = Relabel.draw(rng, e.graph.n, e.graph.edge_count)
    return e.graph.n, r.edges(e.graph.edges), r.rotations(e.rot)


def graph(data) -> core.MultiGraph:
    n, edges = data
    return core.MultiGraph(n, edges)


def system(data) -> core.Embedding:
    n, edges, rot = data
    return core.embedding_from_darts(core.MultiGraph(n, edges), rot)


# ---------------------------------------------------------------------------
# torus-scan
# ---------------------------------------------------------------------------


def torus_scan_items(seed: int) -> list[Item]:
    rng = random.Random(f"torus-scan/{seed}")
    items = []
    for name, spec, emb, orc, non, aut, groups in suites.TORUS_TABLE:
        data = relabelled_graph(rng, core.build_graph(spec))

        def classes(data=data):
            return enumeration.exhaustive_classes(graph(data), genus=1, mode="equivalence", workers=1)

        def check_classes(cls, name=name, emb=emb, orc=orc, non=non, groups=groups):
            expect(f"{name} torus classes", emb, len(cls))
            expect(f"{name} or+non", f"{orc}+{non}", split(cls))
            expect(f"{name} group orders", groups, group_multiset(cls))
            return key_digest(cls)

        def check_aut(got, name=name, aut=aut):
            expect(f"{name} graph automorphisms", aut, got)
            return None

        items.append(Item(f"torus:{name}", classes, check_classes, space_of(*data)))
        items.append(Item(f"aut:{name}", lambda data=data: canon.graph_automorphism_count(graph(data)), check_aut))
    return items


# ---------------------------------------------------------------------------
# genus-classify
# ---------------------------------------------------------------------------


def check_distribution(d, space: int, aut: int) -> None:
    """Invariants that hold for the genus distribution of any graph."""
    recs = d.records
    expect("raw systems sum to the space", space, sum(r.raw_systems for r in recs))
    for r in recs:
        expect(f"genus {r.genus} or+non = equivalence", r.equivalence_classes, r.orientable + r.non_orientable)
        expect(f"genus {r.genus} iso = 2*or + non", r.iso_classes, 2 * r.orientable + r.non_orientable)
        bad = [o for o in r.group_orders if aut % o]
        expect(f"genus {r.genus} group orders dividing |Aut(G)| = {aut}", [], bad)


def random_multigraphs(rng: random.Random) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Distinct connected loopless multigraphs with parallel edges, one per MG_DEGREES entry.

    Each is drawn by pairing shuffled edge ends (configuration model) and
    redrawn until it is loopless, connected, has a parallel edge and is new
    by ``multigraph_key``.
    """
    out = []
    seen: set[bytes] = set()
    for degrees in MG_DEGREES:
        n = len(degrees)
        while True:
            order = list(range(1, n + 1))
            rng.shuffle(order)
            ends = [v for v, d in zip(order, degrees) for _ in range(d)]
            rng.shuffle(ends)
            pairs = tuple(zip(ends[::2], ends[1::2]))
            if any(u == v for u, v in pairs) or len({tuple(sorted(p)) for p in pairs}) == len(pairs):
                continue
            if not connected(n, pairs):
                continue
            key = canon.multigraph_key(core.MultiGraph(n, pairs))
            if key not in seen:
                seen.add(key)
                out.append((n, pairs))
                break
    return out


def connected(n: int, edges) -> bool:
    reach = {1}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reach) != (v in reach):
                reach |= {u, v}
                grew = True
    return len(reach) == n


def genus_classify_items(seed: int) -> list[Item]:
    rng = random.Random(f"genus-classify/{seed}")
    items = []

    # name, graph, published equivalence-class counts by genus, |Aut(G)|
    dists = (
        ("K5", core.complete(5), {1: 6, 2: 31, 3: 13}, 120),
        ("K3,3", core.complete_bipartite(3, 3), {1: 2, 2: 1}, 72),
        ("theta5", core.theta(5), {2: 3}, 2 * math.factorial(5)),
        ("K3,4", core.complete_bipartite(3, 4), {1: 3}, 144),
    )
    for name, g, published, aut in dists:
        data = relabelled_graph(rng, g)
        space = space_of(*data)

        def check(d, name=name, published=published, aut=aut, space=space):
            check_distribution(d, space, aut)
            counts = d.equivalence_counts()
            expect(f"{name} genus distribution", published, {g: counts.get(g) for g in published})
            return digest(d.records)

        items.append(Item(f"dist:{name}", lambda data=data: enumeration.genus_distribution(graph(data), workers=1),
                          check, space))

    def k5_iso(cls):
        expect("K5 double-torus iso classes", 45, len(cls))
        return key_digest(cls)

    def k5_eq(cls):
        expect("K5 double-torus or+non", "14+17", split(cls))
        expect("K5 double-torus group orders", "5^1,4^2,2^1,1^27", group_multiset(cls))
        return key_digest(cls)

    def k5_g3(cls):
        expect("K5 triple-torus or+non", "11+2", split(cls))
        expect("K5 triple-torus single faces", True, all(c.face_degrees == (20,) for c in cls))
        return key_digest(cls)

    def k5e_iso(cls):
        expect("K5-e double-torus iso classes", 60, len(cls))
        return key_digest(cls)

    for name, g, genus, mode, check in (
        ("K5 g2 iso", core.complete(5), 2, "iso", k5_iso),
        ("K5 g2 equivalence", core.complete(5), 2, "equivalence", k5_eq),
        ("K5 g3 equivalence", core.complete(5), 3, "equivalence", k5_g3),
        ("K5-e g2 iso", core.k5_minus_edge(), 2, "iso", k5e_iso),
    ):
        data = relabelled_graph(rng, g)

        def call(data=data, genus=genus, mode=mode):
            return enumeration.exhaustive_classes(graph(data), genus=genus, mode=mode, workers=1)

        items.append(Item(f"exh:{name}", call, check, space_of(*data)))

    def theta7(cls):
        expect("theta(7) triple-torus classes all one face", True, all(c.face_degrees == (14,) for c in cls))
        return key_digest(cls)

    for mode in ("equivalence", "iso"):
        items.append(Item(f"theta7:{mode}", lambda mode=mode: enumeration.theta_embeddings(7, 3, mode=mode),
                          theta7, math.factorial(6) ** 2))

    for i, data in enumerate(random_multigraphs(rng)):
        def call(data=data):
            g = graph(data)
            return enumeration.genus_distribution(g, workers=1), canon.graph_automorphism_count(g)

        def check(result, data=data):
            d, aut = result
            check_distribution(d, space_of(*data), aut)
            return None

        items.append(Item(f"multigraph:{i}", call, check, space_of(*data)))
    return items


# ---------------------------------------------------------------------------
# expand-chain
# ---------------------------------------------------------------------------


# Taken at import, before a tracer can wrap the name, so cache_info and
# cache_clear stay reachable.
PIPELINE_K5 = enumeration.pipeline_k5_stages


def pipeline_k5_cache_size() -> int:
    """Entries in the cache of the K5 pipeline."""
    return PIPELINE_K5.cache_info().currsize


def expand_chain_items(seed: int) -> list[Item]:
    rng = random.Random(f"expand-chain/{seed}")
    sys_a = [relabelled_system(rng, r.embedding) for r in formats.load_appendix_a()]
    sys_b = [relabelled_system(rng, r.embedding) for r in formats.load_appendix_b()]
    # Two independent relabellings of each one-face appendix-B system.
    words_b = [(relabelled_system(rng, system(d)), relabelled_system(rng, system(d))) for d in sys_b]

    def k5_pipeline():
        if pipeline_k5_cache_size():
            raise Mismatch("pipeline_k5_stages cache is warm at the start of the pass")
        return enumeration.pipeline_k5_stages()

    def check_k5(st):
        expect("T123 iso classes", 8, len(st.t123_iso))
        expect("T123 or+non", "2+4", split(st.t123))
        expect("K4plus or+non", "2+3", split(st.k4_plus))
        expect("W4 or+non", "1+3", split(st.w4))
        expect("K5-uv candidates", (72, 120), st.k5_minus_candidates)
        expect("K5-uv iso classes", 60, len(st.k5_minus_iso))
        expect("K5-uv or+non", "21+18", split(st.k5_minus))
        expect("K5 iso classes", 45, len(st.k5_iso))
        expect("K5 or+non", "14+17", split(st.k5))
        expect("K5 group orders", "5^1,4^2,2^1,1^27", group_multiset(st.k5))
        stages = (st.theta5, st.t123_iso, st.t123, st.k4_plus, st.w4, st.k5_minus_iso, st.k5_minus, st.k5_iso, st.k5)
        return digest(key_digest(s) for s in stages)

    def check_k33(res):
        expect("K33 expansion classes", 1, len(res.classes))
        expect("K33 chirality", canon.NON_ORIENTABLE, res.classes[0].chirality)
        by_group = {c.group_order: n for c, n in zip(res.theta5, res.candidates_per_class)}
        expect("K33 completions from the group-10 class", 0, by_group.get(10))
        return key_digest(res.classes)

    def check_parse(entries, count, orc):
        expect("systems parsed", count, len(entries))
        expect("orientable tags", orc, sum(1 for r in entries if r.expected_chirality == canon.ORIENTABLE))
        return None

    def check_a(cls):
        expect("appendix A classes", 31, len(cls))
        expect("appendix A or+non", "14+17", split(cls))
        expect("appendix A group orders", "5^1,4^2,2^1,1^27", group_multiset(cls))
        return key_digest(cls)

    def check_b(cls):
        expect("appendix B classes", 13, len(cls))
        expect("appendix B or+non", "11+2", split(cls))
        expect("appendix B single faces", True, all(c.face_degrees == (20,) for c in cls))
        return key_digest(cls)

    def words():
        out = []
        for d1, d2 in words_b:
            w1 = polygon.boundary_word(system(d1))
            w2 = polygon.boundary_word(system(d2))
            out.append((w1, polygon.words_equivalent(w1, w2)))
        return out

    def check_words(result):
        expect("relabelled words equivalent", [True] * 13, [same for _, same in result])
        expect("words classify as triple torus", {("orientable", 3)},
               {polygon.surface_from_word(w) for w, _ in result})
        return digest(sorted(polygon.word_key(w) for w, _ in result))

    return [
        Item("pipeline:K5", k5_pipeline, check_k5),
        Item("pipeline:K3,3", lambda: enumeration.pipeline_k33_stages(), check_k33),
        Item("parse:appendixA", lambda: formats.load_appendix_a(), lambda r: check_parse(r, 31, 14)),
        Item("parse:appendixB", lambda: formats.load_appendix_b(), lambda r: check_parse(r, 13, 11)),
        Item("dedup:appendixA", lambda: canon.dedup([system(d) for d in sys_a], "equivalence"), check_a),
        Item("dedup:appendixB", lambda: canon.dedup([system(d) for d in sys_b], "equivalence"), check_b),
        Item("words:appendixB", words, check_words),
    ]


ITEMS = {
    "torus-scan": torus_scan_items,
    "genus-classify": genus_classify_items,
    "expand-chain": expand_chain_items,
}
