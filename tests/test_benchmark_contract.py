"""What the benchmark in ``perfbench/`` needs of the package, checked in process.

The benchmark imports ``rotsys`` from outside and reaches into it: its
tracer wraps functions by name, its fingerprint reads
``_kernel.HAVE_NUMBA``, its workloads pass ``workers=1``, and every item is
checked against a recorded class-key digest, here at two seeds.  A change
to the package that breaks any of these fails here.  Nothing under
``perfbench/`` is changed or written.

    python3 -m pytest -q tests/test_benchmark_contract.py
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

from rotsys import complete, enumeration, theta

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def clock():
    """A benchmark clock; the SIGALRM handler it installs is put back afterwards."""
    previous = signal.getsignal(signal.SIGALRM)
    yield run.Clock()
    signal.signal(signal.SIGALRM, previous)


def test_every_traced_name_resolves():
    for module, name, *_ in tracing.TARGETS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_fingerprint_and_workers_keyword():
    assert run.fingerprint()["numba_imports"] is False
    assert len(enumeration.exhaustive_classes(complete(4), genus=0, workers=1)) == 1
    assert enumeration.genus_distribution(theta(3), workers=1).spectrum() == (0, 1)


@pytest.mark.parametrize("workload", list(workloads.ITEMS))
def test_one_pass_matches_the_recorded_digests(workload, clock):
    # Two seeds, so that two labellings of every input meet the digests.
    recorded = json.loads(run.DIGESTS.read_text())
    for seed in (0, 1):
        failures: list[str] = []
        result = run.run_pass(workloads.ITEMS[workload](seed), recorded, failures, clock)
        assert failures == [], seed
        assert result["digests"]
