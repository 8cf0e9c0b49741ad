r"""Named verification suites reproducing the published enumeration results.

Each suite emits a :class:`VerificationReport`: rows of (item, expected,
computed, status) with an overall pass flag.  Reports are deterministic
byte-for-byte for a fixed input and budget (no timing data inside).

Per-embedding group orders in the torus table are checked under two
readings -- rotation-preserving automorphisms only, or extended by the
reversal-composed maps of achiral embeddings (doubling their order) -- and
the row records which reading matches.  The embedding-count column is read
as mirror-equivalence classes, which the orientable/non-orientable split
confirms on every row; the iso-class count is reported alongside whenever
it differs from the expected value's reading.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import enumeration as en
from .canon import NON_ORIENTABLE, ORIENTABLE, chirality, class_key, dedup, graph_automorphism_count
from .core import (
    BudgetExceeded,
    build_graph,
    complete,
    complete_bipartite,
    surface_stats,
    theta,
)
from .formats import load_appendix_a, load_appendix_b
from .polygon import boundary_word, parse_word, surface_from_word, words_equivalent

SUITE_NAMES = ("core", "appendixA", "appendixB", "k33", "torus-table", "theta-question")

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass
class ReportRow:
    item: str
    expected: str
    computed: str
    status: str


@dataclass
class VerificationReport:
    suite: str
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.rows)

    def check(self, item: str, expected, computed) -> None:
        ok = expected == computed
        self.rows.append(ReportRow(item, str(expected), str(computed), PASS if ok else FAIL))

    def result(self, item: str, expected, computed, ok: bool) -> None:
        self.rows.append(ReportRow(item, str(expected), str(computed), PASS if ok else FAIL))

    def note(self, item: str, computed, status: str = PASS, expected: str = "(recorded)") -> None:
        self.rows.append(ReportRow(item, expected, str(computed), status))

    def skip(self, item: str, reason: str) -> None:
        self.rows.append(ReportRow(item, "(skipped)", reason, SKIP))

    def render_table(self) -> str:
        headers = ("item", "expected", "computed", "status")
        widths = [len(h) for h in headers]
        cells = [(r.item, r.expected, r.computed, r.status) for r in self.rows]
        for row in cells:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = [f"suite: {self.suite}"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def render_tsv(self) -> str:
        return "\n".join(f"{r.item}\t{r.expected}\t{r.computed}\t{r.status}" for r in self.rows)


def _chirality_split(classes) -> tuple[int, int]:
    orc = sum(1 for c in classes if c.chirality == ORIENTABLE)
    return orc, len(classes) - orc


def _group_multiset(classes) -> str:
    counts = Counter(c.group_order for c in classes)
    return ",".join(f"{order}^{counts[order]}" for order in sorted(counts, reverse=True))


def _suite_core(report: VerificationReport, budget: int) -> None:
    theta5 = en.exhaustive_classes(theta(5), genus=2, mode="equivalence", budget=budget)
    report.check("theta5 double-torus classes", 3, len(theta5))
    report.check("theta5 group orders", "10^1,5^1,2^1", _group_multiset(theta5))
    report.check("theta5 chirality", "all non_orientable",
                 "all non_orientable" if all(c.chirality == NON_ORIENTABLE for c in theta5)
                 else "mixed")
    fixed = {c.canonical_key for c in en.theta5_classes()}
    report.check("theta5 fixed systems = exhaustive", True, fixed == {c.canonical_key for c in theta5})

    st = en.pipeline_k5_stages()
    report.check("T123 iso classes", 8, len(st.t123_iso))
    report.check("T123 equivalence (or+non)", "2+4", "%d+%d" % _chirality_split(st.t123))
    report.check("K4plus equivalence (or+non)", "2+3", "%d+%d" % _chirality_split(st.k4_plus))
    report.check("W4 equivalence (or+non)", "1+3", "%d+%d" % _chirality_split(st.w4))
    report.check("K5-uv candidates (from W4 + from K4plus)", "72+120",
                 "%d+%d" % st.k5_minus_candidates)
    report.check("K5-uv iso classes", 60, len(st.k5_minus_iso))
    exh_k5uv = en.exhaustive_classes(build_graph("k5_minus_edge"), genus=2, mode="iso", budget=budget)
    report.check("K5-uv iso classes (exhaustive cross-check)", 60, len(exh_k5uv))
    report.check("K5-uv equivalence (or+non)", "21+18", "%d+%d" % _chirality_split(st.k5_minus))
    report.check("K5 iso classes", 45, len(st.k5_iso))
    report.check("K5 equivalence (or+non)", "14+17", "%d+%d" % _chirality_split(st.k5))
    report.check("K5 group orders", "5^1,4^2,2^1,1^27", _group_multiset(st.k5))
    order5 = [c for c in st.k5 if c.group_order == 5]
    report.check("K5 order-5 class chirality", "non_orientable",
                 order5[0].chirality if len(order5) == 1 else f"{len(order5)} classes")

    exh_iso = en.exhaustive_classes(complete(5), genus=2, mode="iso", budget=budget)
    report.check("K5 exhaustive iso keys = pipeline", True,
                 {c.canonical_key for c in exh_iso} == {c.canonical_key for c in st.k5_iso})
    exh_eq = en.exhaustive_classes(complete(5), genus=2, mode="equivalence", budget=budget)
    report.check("K5 exhaustive equivalence keys = pipeline", True,
                 {c.canonical_key for c in exh_eq} == {c.canonical_key for c in st.k5})

    k5g3 = en.exhaustive_classes(complete(5), genus=3, mode="equivalence", budget=budget)
    report.check("K5 triple-torus classes (or+non)", "11+2", "%d+%d" % _chirality_split(k5g3))
    report.check("K5 triple-torus single faces", True, all(c.face_degrees == (20,) for c in k5g3))

    d5 = en.genus_distribution(complete(5), budget=budget)
    report.check("K5 genus distribution", "{1: 6, 2: 31, 3: 13}", str(d5.equivalence_counts()))
    report.check("K5 total inequivalent embeddings", 50, d5.total_equivalence())
    d33 = en.genus_distribution(complete_bipartite(3, 3), budget=budget)
    report.check("K33 genus distribution", "{1: 2, 2: 1}", str(d33.equivalence_counts()))
    report.check("K33 genus spectrum", "(1, 2)", str(d33.spectrum()))
    report.check("K5 genus spectrum", "(1, 2, 3)", str(d5.spectrum()))

    an = en.theta5_chord_analysis()
    report.check("chord analysis labelled sequences", 5, len(an.labelled_classes))
    report.check("chord analysis canonical diagrams", 4, len(an.canonical_diagrams))
    report.check("chord analysis realizable diagrams", 3, len(an.realizable))
    report.check("chord analysis unrealized chord lengths", "(3, 3, 5, 5, 5)",
                 str(an.unrealized[0].chord_lengths()) if len(an.unrealized) == 1 else "ambiguous")

    for c in theta5:
        word = boundary_word(c.representative)
        report.check(f"theta5 word classification (group {c.group_order})",
                     "('orientable', 2)", str(surface_from_word(word)))
    report.check("octagon word a+b+a-b-c+d+c-d-", "('orientable', 2)",
                 str(surface_from_word(parse_word("a+b+a-b-c+d+c-d-"))))
    report.check("ten-gon word a+b+c+d+e+a-b-c-d-e-", "('orientable', 2)",
                 str(surface_from_word(parse_word("a+b+c+d+e+a-b-c-d-e-"))))
    report.check("torus word a+b+a-b-", "('orientable', 1)",
                 str(surface_from_word(parse_word("a+b+a-b-"))))

    for g, name in ((complete(5), "K5"), (complete_bipartite(3, 3), "K33"), (theta(5), "theta5")):
        d = en.genus_distribution(g, budget=budget)
        raw = sum(r.raw_systems for r in d.records)
        report.check(f"{name} rotation systems covered", en.rotation_space_size(g), raw)


def _suite_k33(report: VerificationReport, budget: int) -> None:
    d33 = en.genus_distribution(complete_bipartite(3, 3), budget=budget)
    report.check("K33 genus distribution", "{1: 2, 2: 1}", str(d33.equivalence_counts()))
    exh = en.exhaustive_classes(complete_bipartite(3, 3), genus=2, mode="equivalence", budget=budget)
    report.check("K33 double-torus classes", 1, len(exh))
    report.check("K33 double-torus chirality", NON_ORIENTABLE, exh[0].chirality)
    res = en.pipeline_k33_stages()
    report.check("expansion classes", 1, len(res.classes))
    report.check("expansion key = exhaustive key", True,
                 res.classes[0].canonical_key == exh[0].canonical_key)
    by_group = {c.group_order: n for c, n in zip(res.theta5, res.candidates_per_class)}
    report.check("completions from the group-10 class", 0, by_group.get(10))
    report.note("completions per theta5 class (by group order)",
                str({k: by_group[k] for k in sorted(by_group)}))
    word = boundary_word(exh[0].representative)
    published = parse_word("a+b+c+d+e+f+b-g+h+c-f-i+g-a-d-h-i-e-")
    report.check("18-gon word equivalent to published form", True, words_equivalent(word, published))
    report.check("word length", 18, len(word))


def _suite_appendix_a(report: VerificationReport, budget: int) -> None:
    entries = load_appendix_a()
    report.check("systems parsed", 31, len(entries))
    stats = [surface_stats(r.embedding) for r in entries]
    report.check("all genus 2", True, all(s.genus == 2 for s in stats))
    report.check("all 3 faces", True, all(s.f == 3 for s in stats))
    classes = dedup([r.embedding for r in entries], "equivalence")
    ekeys = {c.canonical_key for c in classes}
    recomputed = [chirality(r.embedding) for r in entries]
    mismatches = [r.name for r, chir in zip(entries, recomputed) if chir != r.expected_chirality]
    report.check("pairwise non-equivalent", 31, len(ekeys))
    report.check("chirality tags matching recomputation", "31/31",
                 f"{31 - len(mismatches)}/31" + (f" (recomputation wins: {mismatches})" if mismatches else ""))
    orc = recomputed.count(ORIENTABLE)
    report.check("orientable+non-orientable", "14+17", f"{orc}+{31 - orc}")
    report.check("group orders", "5^1,4^2,2^1,1^27", _group_multiset(classes))
    st = en.pipeline_k5_stages()
    report.check("classes = expansion-chain classes", True,
                 ekeys == {c.canonical_key for c in st.k5})


def _suite_appendix_b(report: VerificationReport, budget: int) -> None:
    entries = load_appendix_b()
    report.check("systems parsed", 13, len(entries))
    stats = [surface_stats(r.embedding) for r in entries]
    report.check("all genus 3", True, all(s.genus == 3 for s in stats))
    report.check("all exactly one face", True, all(s.f == 1 for s in stats))
    exh = en.exhaustive_classes(complete(5), genus=3, mode="equivalence", budget=budget)
    report.check("exhaustive triple-torus classes (or+non)", "11+2", "%d+%d" % _chirality_split(exh))
    ekeys = {class_key(r.embedding, "equivalence") for r in entries}
    recomputed = [chirality(r.embedding) for r in entries]
    mismatches = [r.name for r, chir in zip(entries, recomputed) if chir != r.expected_chirality]
    orc = recomputed.count(ORIENTABLE)
    report.check("pairwise non-equivalent", 13, len(ekeys))
    report.check("classes = exhaustive classes", True, ekeys == {c.canonical_key for c in exh})
    report.check("orientable+non-orientable", "11+2", f"{orc}+{13 - orc}")
    report.check("chirality tags matching recomputation", "13/13",
                 f"{13 - len(mismatches)}/13" + (f" (recomputation wins: {mismatches})" if mismatches else ""))


# graph spec, expected #emb, expected orientable, expected non-orientable,
# expected graph group order, expected per-embedding group orders
TORUS_TABLE: tuple[tuple[str, str, int, int, int, int, str], ...] = (
    ("K4", "complete(4)", 2, 0, 2, 24, "4^1,3^1"),
    ("K5", "complete(5)", 6, 3, 3, 120, "20^1,4^1,2^3,1^1"),
    ("K3,3", "complete_bipartite(3,3)", 2, 0, 2, 72, "18^1,2^1"),
    ("3-prism", "prism(3)", 5, 0, 5, 12, "6^1,2^2,1^2"),
    ("octahedron", "octahedron", 17, 4, 13, 48, "12^1,6^1,4^3,3^1,2^6,1^5"),
    ("K3,4", "complete_bipartite(3,4)", 3, 0, 3, 144, "4^1,3^1,2^1"),
    ("K3,5", "complete_bipartite(3,5)", 1, 0, 1, 720, "3^1"),
    ("cube", "cube", 5, 0, 5, 48, "24^1,8^2,3^1,2^1"),
    ("C8+", "circulant(8,1,4)", 5, 1, 4, 16, "2^4,1^1"),
    ("petersen", "petersen", 1, 0, 1, 120, "3^1"),
    ("C7(2)", "circulant(7,1,2)", 28, 23, 5, 14, "14^1,2^14,1^13"),
    ("C8(2)", "circulant(8,1,2)", 37, 20, 17, 16, "16^1,4^4,2^13,1^19"),
    ("complement-of-cube", "complement(cube)", 8, 4, 4, 48, "4^2,2^5,1^1"),
    ("K4,4", "complete_bipartite(4,4)", 2, 0, 2, 1152, "32^1,16^1"),
)

# Checked after TORUS_TABLE but kept out of it: the benchmark's torus-scan iterates TORUS_TABLE.
TORUS_TABLE_EXTRA: tuple[tuple[str, str, int, int, int, int, str], ...] = (
    ("K6", "complete(6)", 4, 2, 2, 720, "6^2,2^1,1^1"),
)

TORUS_TABLE_BEYOND_BUDGET = ("K7", "icosahedron")


def _torus_row(report: VerificationReport, name: str, spec: str, emb: int, orc: int,
               non: int, graph_aut: int, groups: str, budget: int) -> None:
    g = build_graph(spec)
    size = en.rotation_space_size(g)
    if size > budget:
        report.skip(f"{name} torus embeddings", f"rotation space {size} exceeds budget {budget}")
        return
    classes = en.exhaustive_classes(g, genus=1, mode="equivalence", budget=budget)
    got_or, got_non = _chirality_split(classes)
    iso = sum(1 if c.chirality == NON_ORIENTABLE else 2 for c in classes)
    computed = f"{len(classes)}={got_or}+{got_non}"
    if len(classes) != emb:
        computed += f" (iso classes: {iso})"
    report.check(f"{name} torus embeddings (equiv=or+non)", f"{emb}={orc}+{non}", computed)
    report.check(f"{name} graph automorphisms", graph_aut, graph_automorphism_count(g))
    rot = Counter(c.group_order for c in classes)
    ext = Counter(
        c.group_order * (2 if c.chirality == NON_ORIENTABLE else 1) for c in classes
    )
    rot_s = ",".join(f"{o}^{rot[o]}" for o in sorted(rot, reverse=True))
    ext_s = ",".join(f"{o}^{ext[o]}" for o in sorted(ext, reverse=True))
    if rot_s == groups:
        report.result(f"{name} embedding group orders", groups, f"{rot_s} [rotation-preserving]", True)
    elif ext_s == groups:
        report.result(f"{name} embedding group orders", groups, f"{ext_s} [with reversal maps]", True)
    else:
        report.result(f"{name} embedding group orders", groups,
                      f"rotation-preserving: {rot_s}; with reversal maps: {ext_s}", False)


def _suite_torus_table(report: VerificationReport, budget: int) -> None:
    for row in TORUS_TABLE + TORUS_TABLE_EXTRA:
        _torus_row(report, *row, budget)
    for name in TORUS_TABLE_BEYOND_BUDGET:
        report.skip(f"{name} torus embeddings", "rotation space beyond any configured budget")


def _suite_theta_question(report: VerificationReport, budget: int) -> None:
    report.check("theta(3) torus classes", 1, len(en.theta_embeddings(3, 1, budget=budget)))
    report.check("theta(5) double-torus classes", 3, len(en.theta_embeddings(5, 2, budget=budget)))
    try:
        eq = en.theta_embeddings(7, 3, mode="equivalence", budget=budget)
        iso = en.theta_embeddings(7, 3, mode="iso", budget=budget)
    except BudgetExceeded as exc:
        report.skip("theta(7) triple-torus classes", str(exc))
        return
    orc, non = _chirality_split(eq)
    report.note(
        "theta(7) triple-torus classes (open question)",
        f"{len(eq)} equivalence classes ({orc} orientable + {non} non-orientable), {len(iso)} iso classes",
        expected="n/a (recorded, not asserted)",
    )
    report.check("theta(7) classes all one face", True, all(c.face_degrees == (14,) for c in eq))


def run_suite(
    name: str,
    *,
    budget: int | None = None,
) -> VerificationReport:
    """Run a named verification suite and return its report."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    budget = en.DEFAULT_BUDGET if budget is None else budget
    report = VerificationReport(name)
    if name == "core":
        _suite_core(report, budget)
    elif name == "appendixA":
        _suite_appendix_a(report, budget)
    elif name == "appendixB":
        _suite_appendix_b(report, budget)
    elif name == "k33":
        _suite_k33(report, budget)
    elif name == "torus-table":
        _suite_torus_table(report, budget)
    elif name == "theta-question":
        _suite_theta_question(report, budget)
    return report
