"""The package runs on the standard library alone."""

from __future__ import annotations

import os
import subprocess
import sys
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

