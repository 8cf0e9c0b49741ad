"""Tests of the benchmark itself: seeding, oracles, cold state and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rotsys import canon, enumeration, formats  # noqa: E402

RECORDED = json.loads(run.DIGESTS.read_text())
SMALL_SPACE = 50_000


def small_torus_items(seed):
    """torus-scan items whose graphs have small rotation spaces."""
    items = workloads.torus_scan_items(seed)
    small = {i.name.split(":", 1)[1] for i in items if i.name.startswith("torus:") and i.space <= SMALL_SPACE}
    return [i for i in items if i.name.split(":", 1)[1] in small]


def test_every_named_item_has_a_recorded_digest():
    names = {i.name for w in ("genus-classify", "expand-chain") for i in workloads.ITEMS[w](0)}
    names |= {i.name for i in workloads.torus_scan_items(0) if i.name.startswith("torus:")}
    named = {n for n in names if not n.startswith(("multigraph:", "aut:", "parse:"))}
    assert named == set(RECORDED)


@pytest.mark.parametrize("make", [small_torus_items, workloads.expand_chain_items])
def test_two_seeds_give_other_inputs_and_equal_digests(make):
    failures: list[str] = []
    p1 = run.run_pass(make(1), RECORDED, failures, run.Clock())
    p2 = run.run_pass(make(2), RECORDED, failures, run.Clock())
    assert failures == []
    assert p1["digests"] and p1["digests"] == p2["digests"]


def test_relabelling_changes_labels_not_the_embedding():
    e = formats.load_appendix_a()[0].embedding
    d1 = workloads.relabelled_system(random.Random(1), e)
    d2 = workloads.relabelled_system(random.Random(2), e)
    assert d1 != d2
    assert canon.canonical_key(workloads.system(d1)) == canon.canonical_key(e)
    assert canon.canonical_key(workloads.system(d2)) == canon.canonical_key(e)


def test_random_multigraphs_have_equal_summed_space():
    graphs = {seed: workloads.random_multigraphs(random.Random(seed)) for seed in (1, 2)}
    assert graphs[1] != graphs[2]
    for gs in graphs.values():
        assert sorted(g.degree_sequence() for g in map(workloads.graph, gs)) == sorted(
            tuple(sorted(d)) for d in workloads.MG_DEGREES)
        assert len({canon.multigraph_key(workloads.graph(g)) for g in gs}) == len(gs)
        assert all(len({tuple(sorted(e)) for e in edges}) < len(edges) for _, edges in gs)
    spaces = [sum(workloads.space_of(n, edges) for n, edges in gs) for gs in graphs.values()]
    assert spaces[0] == spaces[1] == 5520


def test_clock_scales_by_probes_taken_during_the_call(monkeypatch):
    monkeypatch.setattr(run, "probe_s", lambda: 2 * run.REFERENCE_PROBE_S)  # a machine at half speed
    clock = run.Clock()
    assert clock.call(lambda: 7)[::2] == (7, 0.5)  # too short to be probed: probed right after
    result, seconds, scale = clock.call(lambda: time.sleep(10 * run.PROBE_EVERY_S))
    assert len(clock.probes) >= 5 and scale == 0.5
    assert seconds == pytest.approx(5 * run.PROBE_EVERY_S, rel=0.5)


def test_failures_are_counted_and_the_pass_goes_on():
    def boom():
        raise ValueError("boom")

    items = [
        workloads.Item("raises", boom, lambda r: None),
        workloads.Item("wrong", lambda: 3, lambda r: workloads.expect("three is four", 4, r)),
        workloads.Item("bad-digest", lambda: 1, lambda r: "x"),
        workloads.Item("fine", lambda: 1, lambda r: None),
    ]
    failures: list[str] = []
    p = run.run_pass(items, {"bad-digest": "y"}, failures, run.Clock())
    assert [f.split(":", 1)[0] for f in failures] == ["raises", "wrong", "bad-digest"]
    assert "fine" in p["seconds"]


def test_k5_pipeline_item_refuses_a_warm_cache():
    item = next(i for i in workloads.expand_chain_items(0) if i.name == "pipeline:K5")
    enumeration.pipeline_k5_stages()
    assert workloads.pipeline_k5_cache_size() == 1
    with pytest.raises(workloads.Mismatch):
        item.call()
    failures: list[str] = []
    run.run_pass([item], RECORDED, failures, run.Clock())  # clears the cache first
    assert failures == []


def test_tracing_leaves_digests_unchanged_and_uninstalls():
    items = workloads.expand_chain_items(3)
    failures: list[str] = []
    plain = run.run_pass(items, RECORDED, failures, run.Clock())
    original = canon.dedup
    tracer = tracing.Tracer()
    with tracer:
        assert enumeration.dedup is canon.dedup is not original
        traced = run.run_pass(items, RECORDED, failures, run.Clock())
    assert enumeration.dedup is canon.dedup is original
    assert failures == []
    assert plain["digests"] == traced["digests"]
    layers = tracer.metrics()
    assert layers["canon.mgkey.calls"] > 0 and layers["surgery.insert.calls"] > 0
    assert layers["formats.parse.systems"] == 31 + 13
    assert layers["polygon.word.calls"] == 2 * 13
    for mod in [m for k, m in sys.modules.items() if k == "rotsys" or k.startswith("rotsys.")]:
        assert not [k for k, v in vars(mod).items() if hasattr(v, "__wrapped__") and "_wrap" in v.__qualname__]


def test_genus_classify_scan_counts_match_the_passes():
    items = workloads.genus_classify_items(4)
    tracer = tracing.Tracer()
    with tracer:
        results = [(i, i.call()) for i in items]
    expected = 0
    for item, result in results:
        if item.name.startswith(("dist:", "multigraph:")):
            dist = result if item.name.startswith("dist:") else result[0]
            expected += (1 + len(dist.records)) * item.space
        elif item.name.startswith("exh:"):
            expected += item.space
    layers = tracer.metrics()
    assert layers["enumeration.scan.systems"] == expected
    assert layers["canon.key.calls"] >= layers["canon.dedup.classes"] > 0
    assert layers["canon.keys_per_class"] >= 1


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "expand-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
