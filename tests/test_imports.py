"""The package runs on the standard library alone, and every name it defines is read."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
before = set(sys.modules)
import rotsys
for info in pkgutil.iter_modules(rotsys.__path__):
    importlib.import_module("rotsys." + info.name)
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    # Modules loaded before rotsys (site hooks of the interpreter) are not
    # counted; everything importing rotsys pulls in must be rotsys or stdlib,
    # and none of it multiprocessing.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "rotsys" in out and "multiprocessing" not in out
    assert [m for m in out if m != "rotsys" and m not in sys.stdlib_module_names] == []


def _module_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each name a module's top-level statements define, with its statement."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                found += [(node.id, stmt) for node in ast.walk(target) if isinstance(node, ast.Name)]
    return found


def _reads(stmt: ast.stmt) -> set[str]:
    """The names a statement reads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _bench_text(perfbench: Path) -> str:
    """The text of every file in ``perfbench``, where a name counts as read when it is named."""
    return "\n".join(p.read_text(encoding="utf-8") for p in sorted(perfbench.iterdir()) if p.is_file())


def _named(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


def unused_names(package: Path, perfbench: Path) -> list[str]:
    """Module-level names of ``package`` that nothing reads.

    A name counts as read when a statement of the package other than its
    definition reads it, when the package's ``__init__`` exports it, or
    when a file in ``perfbench`` names it.  Tests do not count.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    exported = {name for name, _ in _module_names(trees["__init__"])}
    exported |= {a.asname or a.name for s in trees["__init__"].body if isinstance(s, ast.ImportFrom) for a in s.names}
    bench = _bench_text(perfbench)
    reads = {id(stmt): _reads(stmt) for tree in trees.values() for stmt in tree.body}
    unused = []
    for module, tree in trees.items():
        for name, stmt in _module_names(tree):
            if name in exported or _named(name, bench):
                continue
            if not any(name in names for at, names in reads.items() if at != id(stmt)):
                unused.append(f"{module}.{name}")
    return unused


def test_every_module_level_name_is_read():
    # A name only tests read is dead code: delete it, or export it.
    assert unused_names(SRC / "rotsys", SRC.parent / "perfbench") == []


def unread_exports(package: Path, perfbench: Path, readme: Path) -> list[str]:
    """Names the package's ``__init__`` re-exports that nothing but the tests reads.

    :func:`unused_names` counts every export as read; this holds the
    exports themselves to account.  One counts as read when a statement of
    another package module, other than its definition, reads it, when a
    file in ``perfbench`` names it, or when ``readme`` names it.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    init = trees.pop("__init__")
    exported = [a.asname or a.name for s in init.body if isinstance(s, ast.ImportFrom) for a in s.names]
    bench, docs = _bench_text(perfbench), readme.read_text(encoding="utf-8")
    defined = {name: id(stmt) for tree in trees.values() for name, stmt in _module_names(tree)}
    reads = {id(stmt): _reads(stmt) for tree in trees.values() for stmt in tree.body}
    return [
        name
        for name in exported
        if not _named(name, bench)
        and not _named(name, docs)
        and not any(name in names for at, names in reads.items() if at != defined.get(name))
    ]


def test_every_export_is_read_outside_the_tests():
    # An export only tests read is dead code: delete it, use it, or document it.
    assert unread_exports(SRC / "rotsys", SRC.parent / "perfbench", SRC.parent / "README.md") == []


def _members(tree: ast.Module) -> list[tuple[str, str, ast.stmt]]:
    """The class members of a module the guard checks: ``(Class.member, member, its statement)``.

    Members are methods, properties, class-level fields and the names in
    ``__slots__``.  Every member of a private class is checked, and the
    underscored members of a public one; dunder names are Python's own.
    """
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if names == ["__slots__"]:
                    names = [c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)]
            else:
                continue
            for name in names:
                if not name.startswith("__") and (cls.name.startswith("_") or name.startswith("_")):
                    found.append((f"{cls.name}.{name}", name, stmt))
    return found


def _attribute_reads(node: ast.AST) -> Counter:
    """How often ``node`` reads each name as an attribute."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def unread_members(package: Path, perfbench: Path) -> list[str]:
    """Class members of ``package`` (see :func:`_members`) that nothing reads.

    A member counts as read when a statement of the package other than its
    own definition reads its name as an attribute, or when a file in
    ``perfbench`` names it.  Tests do not count.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    bench = _bench_text(perfbench)
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for qualified, name, stmt in _members(tree):
            if _named(name, bench):
                continue
            if reads[name] == _attribute_reads(stmt)[name]:
                unread.append(f"{module}.{qualified}")
    return unread


def test_every_private_class_member_is_read():
    # A member only tests read is dead code, like a module-level name.
    assert unread_members(SRC / "rotsys", SRC.parent / "perfbench") == []
