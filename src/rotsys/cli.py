r"""Command-line front end.

Commands::

    rotsys faces <file>                      facial walks of an embedding
    rotsys genus <file>                      vertex/edge/face counts and genus
    rotsys word <file>                       polygon word of a one-face embedding
    rotsys classify <files...> [--mode]      group embeddings into classes
    rotsys enumerate --graph SPEC [...]      exhaustive class search
    rotsys pipeline {k5,k33}                 run an expansion chain
    rotsys theta --m M --genus G             theta-graph classes
    rotsys verify --suite NAME [...]         run a verification suite
    rotsys convert {appendixA,appendixB} F   published tables -> native format

Exit status: 0 on success (and full suite pass), 1 on verification
failure, 2 on input or budget errors, 141 (128 + SIGPIPE) when the reader
of the output closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys
from hashlib import sha256

from . import enumeration as en
from .canon import classify
from .core import RotsysError, build_graph, face_vertices, surface_stats, trace_faces
from .formats import (
    ParseError,
    parse_appendix_a,
    parse_appendix_b,
    parse_named_embeddings,
    write_embedding,
)
from .polygon import boundary_word, format_word
from .suites import SUITE_NAMES, _chirality_split, _group_multiset, run_suite

# --mode choices, and the dedup mode each names.
_MODES = {"iso": "iso", "equiv": "equivalence"}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_one(path: str):
    docs = parse_named_embeddings(_read(path))
    if len(docs) != 1:
        raise ParseError(1, f"{path}: expected one embedding, found {len(docs)}")
    return docs[0]


def _split(orientable: int, non_orientable: int, noun: str = "", iso: int | None = None) -> str:
    """``N noun (a orientable + b non-orientable)``, with ``, c iso`` inside the brackets when ``iso`` is given."""
    tail = "" if iso is None else f", {iso} iso"
    return f"{orientable + non_orientable}{noun} ({orientable} orientable + {non_orientable} non-orientable{tail})"


def _class_line(cls) -> str:
    # A digest of the whole key: most classes of a graph share its first bytes.
    return (
        f"class {sha256(cls.canonical_key).hexdigest()[:16]}  genus={cls.genus}"
        f"  faces={','.join(str(x) for x in cls.face_degrees)}"
        f"  group={cls.group_order}  {cls.chirality}"
    )


def _cmd_faces(args) -> int:
    doc = _load_one(args.file)
    faces = trace_faces(doc.embedding)
    st = faces.stats
    print(f"graph {doc.name}: n={st.n} edges={st.eps} faces={st.f} genus={st.genus}")
    for i, walk in enumerate(faces.faces):
        edges = " ".join(str(d // 2 + 1) for d in walk)
        verts = " ".join(str(v) for v in face_vertices(doc.embedding, walk))
        print(f"face {i} (length {len(walk)}): edges {edges}")
        print(f"       vertices {verts}")
    return 0


def _cmd_genus(args) -> int:
    doc = _load_one(args.file)
    st = surface_stats(doc.embedding)
    print(f"graph {doc.name}: n={st.n} edges={st.eps} faces={st.f} genus={st.genus}")
    return 0


def _cmd_word(args) -> int:
    doc = _load_one(args.file)
    print(format_word(boundary_word(doc.embedding)))
    return 0


def _cmd_classify(args) -> int:
    docs = []
    for path in args.files:
        docs.extend(parse_named_embeddings(_read(path)))
    mode = _MODES[args.mode]
    classes, keys = classify([d.embedding for d in docs], mode)
    members: dict[bytes, list[str]] = {}
    for d, key in zip(docs, keys):
        members.setdefault(key, []).append(d.name)
    print(f"{len(docs)} embeddings, {len(classes)} {mode} classes")
    for c in classes:
        print(_class_line(c))
        print(f"  members: {' '.join(members[c.canonical_key])}")
    return 0


def _cmd_enumerate(args) -> int:
    graph = build_graph(args.graph)
    mode = _MODES[args.mode]
    if args.genus is None and not args.one_face:
        dist = en.genus_distribution(graph, budget=args.budget)
        print(f"graph {args.graph}: rotation systems {en.rotation_space_size(graph)}")
        for r in dist.records:
            print(
                f"genus {r.genus}: {_split(r.orientable, r.non_orientable, ' classes', r.iso_classes)},"
                f" groups {_group_multiset(r.group_orders)}, systems {r.raw_systems}"
            )
        return 0
    classes = en.exhaustive_classes(graph, genus=args.genus, faces=1 if args.one_face else None,
                                    mode=mode, budget=args.budget)
    print(f"graph {args.graph}: {_split(*_chirality_split(classes), f' {mode} classes')}")
    for c in classes:
        print(_class_line(c))
    return 0


def _cmd_pipeline(args) -> int:
    if args.chain == "k33":
        res = en.pipeline_k33_stages()
        print("theta5 classes: 3")
        print(f"K33 completions per class: {', '.join(str(x) for x in res.candidates_per_class)}")
        print(f"K33 classes: {len(res.classes)}")
        for c in res.classes:
            print(_class_line(c))
        return 0
    st = en.pipeline_k5_stages()

    def split(classes) -> str:
        return _split(*_chirality_split(classes))

    print("theta5 classes: 3")
    print(f"T123: {len(st.t123_iso)} iso, {split(st.t123)}")
    print(f"K4plus: {split(st.k4_plus)}")
    print(f"W4: {split(st.w4)}")
    print(f"K5-uv candidates: {st.k5_minus_candidates[0]} + {st.k5_minus_candidates[1]}")
    print(f"K5-uv: {len(st.k5_minus_iso)} iso, {split(st.k5_minus)}")
    print(f"K5: {len(st.k5_iso)} iso, {split(st.k5)}")
    for c in st.k5:
        print(_class_line(c))
    return 0


def _cmd_theta(args) -> int:
    mode = _MODES[args.mode]
    classes = en.theta_embeddings(args.m, args.genus, mode=mode, budget=args.budget)
    print(f"theta({args.m}) genus {args.genus}: {_split(*_chirality_split(classes), f' {mode} classes')}")
    for c in classes:
        print(_class_line(c))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, budget=args.budget)
    print(report.render_table())
    print()
    print(report.render_tsv())
    return 0 if report.passed else 1


def _cmd_convert(args) -> int:
    parser = parse_appendix_a if args.format == "appendixA" else parse_appendix_b
    entries = parser(_read(args.file))
    chunks = []
    for r in entries:
        chunks.append(f"# expected: {r.expected_chirality}\n" + write_embedding(r.embedding, r.name))
    print("\n".join(chunks), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rotsys",
        description="2-cell embeddings of loopless multigraphs on orientable surfaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_budget(sp):
        sp.add_argument("--budget", type=int, default=en.DEFAULT_BUDGET,
                        help="max systems addressed, not states expanded: the whole rotation space, "
                             "or for theta(m) the (m - 1)! systems with one vertex pinned")

    def add_mode(sp):
        sp.add_argument("--mode", choices=tuple(_MODES), default="iso")

    sp = sub.add_parser("faces", help="facial walks of an embedding file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_faces)

    sp = sub.add_parser("genus", help="surface statistics of an embedding file")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_genus)

    sp = sub.add_parser("word", help="polygon word of a one-face embedding")
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_word)

    sp = sub.add_parser("classify", help="group embedding files into classes")
    sp.add_argument("files", nargs="+")
    add_mode(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("enumerate", help="exhaustive rotation-system search")
    sp.add_argument("--graph", required=True, help="graph spec, e.g. complete(5) or circulant(8,1,4)")
    sp.add_argument("--genus", type=int, default=None)
    sp.add_argument("--one-face", action="store_true", help="filter to single-face systems")
    add_mode(sp)
    add_budget(sp)
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("pipeline", help="run an expansion chain")
    sp.add_argument("chain", choices=("k5", "k33"))
    sp.set_defaults(func=_cmd_pipeline)

    sp = sub.add_parser("theta", help="theta-graph classes at a genus")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--genus", type=int, required=True)
    add_mode(sp)
    add_budget(sp)
    sp.set_defaults(func=_cmd_theta)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", required=True, choices=SUITE_NAMES)
    add_budget(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("convert", help="convert published tables to the native format")
    sp.add_argument("format", choices=("appendixA", "appendixB"))
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_convert)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of the output has gone (``rotsys ... | head``): stop
        # quietly, and send what is left in the buffer to the null device
        # so that the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, the status of a process that signal ends
    except (RotsysError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
