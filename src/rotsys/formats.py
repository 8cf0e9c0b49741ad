r"""Embedding file formats and the vendored rotation-system tables.

Native format, one document per embedding::

    graph <name>
    vertices <n>
    edge <id> <u> <v>
    rot <v>: <edge_id> <edge_id> ...

Edge ids double as darts because loops are excluded.  Documents round-trip
byte-identically through write-then-parse.

Two published table formats are also ingested:

* ``appendixA``: per-vertex lines ``-<v> <nbr> [<edge_id> <crossings...>]
  ...``; the bracket's first integer is the edge id and the remaining
  octagon-crossing annotations are parsed and discarded.
* ``appendixB``: per-vertex neighbor lists ``-<v> <nbr> <nbr> ...`` for
  simple graphs; edges are inferred from the unordered adjacency pairs.

Block headers like ``K5#01 (or)`` carry an expected-chirality tag that the
verification suites recompute and compare.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .canon import NON_ORIENTABLE, ORIENTABLE
from .core import Embedding, InvalidEmbedding, MultiGraph, RotsysError, from_neighbor_lists, make_embedding


class ParseError(RotsysError, ValueError):
    """Syntax or consistency error in an input file, with a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class NamedEmbedding:
    name: str
    embedding: Embedding


@dataclass(frozen=True)
class TaggedEmbedding:
    """An embedding with its published expected-chirality tag."""

    name: str
    expected_chirality: str
    embedding: Embedding


def write_embedding(e: Embedding, name: str = "embedding") -> str:
    g = e.graph
    lines = [f"graph {name}", f"vertices {g.n}"]
    for eid, (u, v) in enumerate(g.edges, start=1):
        lines.append(f"edge {eid} {u} {v}")
    for v in range(1, g.n + 1):
        rot = " ".join(str(x) for x in e.rotation_edges(v))
        lines.append(f"rot {v}: {rot}")
    return "\n".join(lines) + "\n"


def parse_named_embeddings(text: str) -> list[NamedEmbedding]:
    """Parse one or more concatenated native-format documents."""
    name = None
    n = None
    edges: list[tuple[int, int]] = []
    rots: dict[int, list[int]] = {}
    start_line = 1
    docs: list[NamedEmbedding] = []

    def flush(at_line: int) -> None:
        nonlocal name, n, edges, rots
        if name is None:
            return
        if n is None:
            raise ParseError(start_line, "missing 'vertices' line")
        try:
            graph = MultiGraph(n, tuple(edges))
        except ValueError as exc:
            raise ParseError(start_line, str(exc)) from exc
        missing = [v for v in range(1, n + 1) if v not in rots]
        if missing:
            raise ParseError(at_line, f"missing rot line for vertex {missing[0]}")
        try:
            emb = make_embedding(graph, [rots[v] for v in range(1, n + 1)])
        except InvalidEmbedding as exc:
            raise ParseError(at_line, str(exc)) from exc
        docs.append(NamedEmbedding(name, emb))
        name, n, edges, rots = None, None, [], {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "graph":
            flush(lineno)
            if len(fields) < 2:
                raise ParseError(lineno, "graph line needs a name")
            name = " ".join(fields[1:])
            start_line = lineno
        elif kind == "vertices":
            if name is None:
                raise ParseError(lineno, "'vertices' before 'graph'")
            if n is not None:
                raise ParseError(lineno, "second 'vertices' line in one document")
            try:
                (n,) = (int(x) for x in fields[1:])
            except ValueError:
                raise ParseError(lineno, "vertices line needs exactly one integer") from None
            if n < 1:
                raise ParseError(lineno, "need at least one vertex")
        elif kind == "edge":
            if name is None or n is None:
                raise ParseError(lineno, "'edge' before 'graph'/'vertices'")
            try:
                eid, u, v = (int(x) for x in fields[1:])
            except ValueError:
                raise ParseError(lineno, "edge line needs exactly three integers") from None
            if eid != len(edges) + 1:
                raise ParseError(lineno, f"edge ids must be contiguous; expected {len(edges) + 1}, got {eid}")
            if u == v:
                raise ParseError(lineno, f"edge {eid} is a loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(lineno, f"edge {eid} endpoint out of range: ({u}, {v})")
            edges.append((u, v))
        elif kind == "rot":
            if name is None or n is None:
                raise ParseError(lineno, "'rot' before 'graph'/'vertices'")
            m = re.match(r"rot\s+(\d+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(lineno, "malformed rot line")
            v = int(m.group(1))
            if not (1 <= v <= n):
                raise ParseError(lineno, f"rot line for unknown vertex {v}")
            if v in rots:
                raise ParseError(lineno, f"duplicate rot line for vertex {v}")
            try:
                rots[v] = [int(x) for x in m.group(2).split()]
            except ValueError:
                raise ParseError(lineno, "rot line needs integer edge ids") from None
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")
    flush(len(text.splitlines()))
    if not docs:
        raise ParseError(1, "no embedding documents found")
    return docs


_HEADER_RE = re.compile(r"^(\S+)\s*\((or|non)\)\s*$")


def _split_blocks(text: str) -> list[tuple[int, list[tuple[int, str]]]]:
    blocks: list[tuple[int, list[tuple[int, str]]]] = []
    cur: list[tuple[int, str]] = []
    cur_start = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if cur:
                blocks.append((cur_start, cur))
                cur = []
            continue
        if not cur:
            cur_start = lineno
        cur.append((lineno, line))
    if cur:
        blocks.append((cur_start, cur))
    return blocks


def _parse_tag(lineno: int, line: str) -> tuple[str, str]:
    m = _HEADER_RE.match(line)
    if not m:
        raise ParseError(lineno, f"expected a block header like 'K5#01 (or)', got {line!r}")
    return m.group(1), ORIENTABLE if m.group(2) == "or" else NON_ORIENTABLE


_BRACKET_RE = re.compile(r"\[([^\]]*)\]")


def _vertex_lines(start: int, lines: list[tuple[int, str]], shape: str) -> Iterator[tuple[int, int, str]]:
    """The line number, vertex and body of each line ``-<v> <body>`` of the block at line ``start``.

    ``shape`` names the body in the error for a line of another form.  A
    vertex given twice is an error at its line; no vertex line, or vertices
    not covering ``1..n``, one at ``start`` after the last line.
    """
    seen: set[int] = set()
    for lineno, line in lines:
        m = re.match(r"^-(\d+)\s+(.*)$", line)
        if not m:
            raise ParseError(lineno, f"expected '-<vertex> {shape}', got {line!r}")
        v = int(m.group(1))
        if v in seen:
            raise ParseError(lineno, f"duplicate line for vertex {v}")
        seen.add(v)
        yield lineno, v, m.group(2)
    if not seen:
        raise ParseError(start, "block has no vertex lines")
    if sorted(seen) != list(range(1, len(seen) + 1)):
        raise ParseError(start, "vertex lines must cover 1..n")


def parse_appendix_a(text: str) -> list[TaggedEmbedding]:
    """Parse bracketed rotation tables (neighbor + edge id + crossing data)."""
    out = []
    for start, lines in _split_blocks(text):
        name, tag = _parse_tag(*lines[0])
        rows: dict[int, list[tuple[int, int]]] = {}  # vertex -> [(neighbor, edge id)]
        for lineno, v, body in _vertex_lines(start, lines[1:], "..."):
            entries: list[tuple[int, int]] = []
            pos = 0
            while pos < len(body):
                seg = body[pos:].lstrip()
                pos = len(body) - len(seg)
                if not seg:
                    break
                mn = re.match(r"^(\d+)\s*", seg)
                if not mn:
                    raise ParseError(lineno, f"expected a neighbor number at {seg[:12]!r}")
                nbr = int(mn.group(1))
                pos += mn.end()
                mb = _BRACKET_RE.match(body, pos)
                if not mb:
                    raise ParseError(lineno, f"neighbor {nbr} of vertex {v} is missing its [edge ...] group")
                try:
                    nums = [int(x) for x in mb.group(1).split()]
                except ValueError:
                    raise ParseError(lineno, "bracket group must hold integers") from None
                if not nums:
                    raise ParseError(lineno, "bracket group must start with an edge id")
                entries.append((nbr, nums[0]))  # crossing annotations discarded
                pos = mb.end()
            rows[v] = entries
        out.append(TaggedEmbedding(name, tag, _embedding_from_edge_rows(start, rows)))
    return out


def _embedding_from_edge_rows(start: int, rows: dict[int, list[tuple[int, int]]]) -> Embedding:
    n = len(rows)
    ends: dict[int, list[tuple[int, int]]] = {}  # edge id -> [(vertex, neighbor)]
    for v, entries in rows.items():
        for nbr, eid in entries:
            ends.setdefault(eid, []).append((v, nbr))
    m = max(ends)
    if sorted(ends) != list(range(1, m + 1)):
        raise ParseError(start, "edge ids must cover 1..m")
    edges = []
    for eid in range(1, m + 1):
        occ = ends[eid]
        if len(occ) != 2:
            raise ParseError(start, f"edge {eid} appears {len(occ)} times; expected twice")
        (v1, n1), (v2, n2) = occ
        if n1 != v2 or n2 != v1:
            raise ParseError(start, f"edge {eid} endpoint declarations disagree: {occ}")
        edges.append((v1, v2))
    try:
        graph = MultiGraph(n, tuple(edges))
        return make_embedding(graph, [[eid for _, eid in rows[v]] for v in range(1, n + 1)])
    except (ValueError, InvalidEmbedding) as exc:
        raise ParseError(start, str(exc)) from exc


def parse_appendix_b(text: str) -> list[TaggedEmbedding]:
    """Parse simple-graph neighbor-list rotation tables."""
    out = []
    for start, lines in _split_blocks(text):
        name, tag = _parse_tag(*lines[0])
        rows: dict[int, list[int]] = {}
        for lineno, v, body in _vertex_lines(start, lines[1:], "<neighbors...>"):
            try:
                rows[v] = [int(x) for x in body.split()]
            except ValueError:
                raise ParseError(lineno, "neighbor lists must be integers") from None
        try:
            emb = from_neighbor_lists([rows[v] for v in range(1, len(rows) + 1)])
        except InvalidEmbedding as exc:
            raise ParseError(start, str(exc)) from exc
        out.append(TaggedEmbedding(name, tag, emb))
    return out


def _load_data(filename: str) -> str:
    return resources.files("rotsys.data").joinpath(filename).read_text()


def load_appendix_a() -> list[TaggedEmbedding]:
    """The 31 vendored double-torus rotation systems of K5."""
    return parse_appendix_a(_load_data("appendix_a.txt"))


def load_appendix_b() -> list[TaggedEmbedding]:
    """The 13 vendored triple-torus rotation systems of K5."""
    return parse_appendix_b(_load_data("appendix_b.txt"))
