"""Run one workload of the rotsys benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed chooses the inputs only.  Passes over the workload's
items repeat until ``--seconds`` have been measured (at least one pass);
each pass starts with the pipeline cache cleared.  Every item is checked
against its oracle; a failed check is counted, not raised.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on traced ones, and reports the
per-layer metrics of the traced passes plus the tracing overhead.  The last
line of standard output is one JSON object; details, the environment
fingerprint and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 11
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import rotsys, rotsys.suites; print(time.perf_counter() - t)"
)

# Times are reported at the speed of the reference machine (2 vCPU Xeon,
# Python 3.11.7).  While a timed call runs, an interval timer interrupts it
# every PROBE_EVERY_S and times probe_s(), a fixed pure-Python loop that
# takes REFERENCE_PROBE_S on the reference machine when nothing else runs.
# The call's time, less the time spent in probes, is scaled by
# REFERENCE_PROBE_S / (mean probe time during the call).  On a shared host
# the machine's speed changes within seconds; probing during the call
# follows those changes, where calibrating between calls does not.  A
# slower program still reads slower: the probe is benchmark code that the
# program cannot change.  The scales are kept in the run's detail file.
PROBE_EVERY_S = 0.02
PROBE_LOOPS = 1000
REFERENCE_PROBE_S = 0.0002
MIN_PROBES = 5


def probe_s() -> float:
    """Time of a fixed pure-Python loop doing dict, list and int work."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    ring = [0] * 64
    for i in range(PROBE_LOOPS):
        j = (i * 7) & 63
        table[i & 63] = i
        ring[j] = (table.get(j, 0) + ring[(j + 1) & 63]) & 65535
    return perf_counter() - t0


class Clock:
    """Times calls and scales them to the reference machine's speed."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.scales: list[float] = []
        self.raw_total = 0.0
        self.scaled_total = 0.0
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probes.append(probe_s()))

    def call(self, fn):
        """Run ``fn``; return its result, its scaled seconds and the scale."""
        first = len(self.probes)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        during = self.probes[first:]
        raw -= sum(during)
        while len(during) < MIN_PROBES:  # a short call: probe right after it
            during.append(probe_s())
        scale = REFERENCE_PROBE_S / statistics.fmean(during)
        self.scales.append(scale)
        self.raw_total += raw
        self.scaled_total += raw * scale
        return result, raw * scale, scale


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(items, recorded: dict[str, str], failures: list[str], clock: Clock) -> dict:
    """Run every item once; return per-item seconds (scaled) and digests."""
    import workloads

    workloads.PIPELINE_K5.cache_clear()
    seconds: dict[str, float] = {}
    digests: dict[str, str] = {}
    for item in items:
        try:
            result, seconds[item.name], _ = clock.call(item.call)
            got = item.check(result)
            if got is not None:
                digests[item.name] = got
                workloads.expect(f"{item.name} class-key digest", recorded.get(item.name), got)
        except Exception:  # a failed item is counted and the run goes on
            failures.append(f"{item.name}: {traceback.format_exc(limit=3)}")
    return {"seconds": seconds, "digests": digests}


def run_passes(items, recorded, failures, budget: float, clock: Clock, tracer=None) -> list[dict]:
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < budget:
        if tracer is None:
            passes.append(run_pass(items, recorded, failures, clock))
        else:
            tracer.reset()
            raw0, scaled0 = clock.raw_total, clock.scaled_total
            with tracer:
                p = run_pass(items, recorded, failures, clock)
            scale = (clock.scaled_total - scaled0) / (clock.raw_total - raw0)
            p["layers"] = {k: scale_layer(k, v, scale) for k, v in tracer.metrics().items()}
            passes.append(p)
    return passes


def scale_layer(name: str, value: float, scale: float) -> float:
    """Scale a per-layer time or rate to the reference machine."""
    if name.endswith("per_s"):
        return value / scale
    if name.endswith("_s"):
        return value * scale
    return value


def item_medians(passes: list[dict]) -> list[float]:
    """Median time of each item over the passes (bursts of noise hit single passes)."""
    names = {k for p in passes for k in p["seconds"]}
    return [statistics.median(p["seconds"][k] for p in passes if k in p["seconds"]) for k in names]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def fingerprint() -> dict:
    from rotsys import _kernel

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_imports": _kernel.HAVE_NUMBA,
        "ROTSYS_NO_NUMBA": os.environ.get("ROTSYS_NO_NUMBA"),
        "ROTSYS_WORKERS": os.environ.get("ROTSYS_WORKERS"),
        "workers": 1,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rotsys" / "__init__.py").is_file():
        print(f"error: no rotsys sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.ITEMS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if workloads.pipeline_k5_cache_size():
        print("error: pipeline_k5_stages cache is not empty at the start of the run", file=sys.stderr)
        return 3
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    clock = Clock()
    import_times, gen_times = [], []
    for _ in range(SETUP_REPEATS):
        child_s, _, scale = clock.call(import_seconds)  # timed inside the child, probed meanwhile
        import_times.append(child_s * scale)
        items, gen_s, _ = clock.call(lambda: workloads.ITEMS[args.workload](args.seed))
        gen_times.append(gen_s)
    setup_s = statistics.median(import_times) + statistics.median(gen_times)

    failures: list[str] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(items, recorded, failures, budget, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = sum(item_medians(plain))
    traced = []
    if args.trace:
        tracer = Tracer()
        traced = run_passes(items, recorded, failures, budget, clock, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-spans.jsonl")

    if args.trace:
        layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        layers["enumeration.space_per_s"] = sum(i.space for i in items) / wall_s
        layers["trace.overhead_s"] = sum(item_medians(traced)) - wall_s
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "max_item_s": {"value": max(item_medians(plain), default=0.0), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }

    passes = plain + traced
    attempted = len(items) * len(passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = {
        "args": vars(args),
        "fingerprint": fingerprint(),
        "setup": {"import_s": import_times, "generate_s": gen_times},
        "scales": clock.scales,
        "passes": [{"traced": i >= len(plain), "seconds": p["seconds"]} for i, p in enumerate(passes)],
        "digests": passes[0]["digests"],
        "failures": failures,
        "result": result,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("fingerprint " + json.dumps(detail["fingerprint"], sort_keys=True))
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("self_s") or name.endswith("overhead_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("frac") or name.endswith("per_class"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
