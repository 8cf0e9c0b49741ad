"""Spans around the public functions of each ``rotsys`` layer, from outside.

:class:`Tracer` wraps the functions named in :data:`TARGETS` and patches
each wrapper into every loaded ``rotsys`` module whose namespace holds the
original (``from .canon import dedup`` makes ``enumeration.dedup`` one such
name), so calls between layers are seen too.  ``uninstall`` puts every
original back.

Spans are kept in memory; :meth:`Tracer.write` writes them out as JSON
lines.  The self time of a span is its duration minus the time covered by
its child spans.  Only one thread may run while a tracer is installed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from rotsys import canon, core, enumeration, formats, polygon, surgery


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _scan_systems(args, kwargs, result) -> int:
    return enumeration.rotation_space_size(args[0])


def _scan_matches(args, kwargs, result) -> int:
    return len(result[1])


# (module, function, span name, {counter suffix: count(args, kwargs, result)})
TARGETS = (
    (enumeration, "scan_rotation_space", "enumeration.scan", {"systems": _scan_systems, "matches": _scan_matches}),
    (enumeration, "exhaustive_classes", "enumeration.exhaustive", {}),
    (enumeration, "genus_distribution", "enumeration.distribution", {}),
    (enumeration, "theta_embeddings", "enumeration.theta", {}),
    (enumeration, "pipeline_k5_stages", "enumeration.pipeline", {}),
    (enumeration, "pipeline_k33_stages", "enumeration.pipeline", {}),
    (canon, "canonical_key", "canon.key", {}),
    (canon, "dedup", "canon.dedup", {"classes": _result_len}),
    (canon, "automorphism_group_order", "canon.aut", {}),
    (canon, "graph_automorphism_count", "canon.graph_aut", {}),
    (canon, "multigraph_key", "canon.mgkey", {}),
    (surgery, "all_splits", "surgery.splits", {"candidates": _result_len}),
    (surgery, "add_edge_in_face", "surgery.insert", {}),
    (core, "trace_faces", "core.trace", {}),
    (core, "embedding_from_darts", "core.build", {}),
    (polygon, "boundary_word", "polygon.word", {}),
    (formats, "parse_appendix_a", "formats.parse", {"systems": _result_len}),
    (formats, "parse_appendix_b", "formats.parse", {"systems": _result_len}),
)

class Tracer:
    """In-memory spans and per-span-name totals for one traced region."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Clear the totals (spans are kept)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, time covered by children]

    def _wrap(self, fn, name: str, counters: dict):
        tracer = self

        def counted(iterable):
            for x in iterable:
                tracer.counts["canon.dedup.inputs"] += 1
                yield x

        def wrapper(*args, **kwargs):
            if name == "canon.dedup":
                args = (counted(args[0]),) + args[1:]
            elif name == "canon.key" and tracer.active["canon.dedup"]:
                tracer.counts["canon.key.in_dedup"] += 1
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append([sid, 0.0])
            tracer.active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.active[name] -= 1
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += t1 - t0 - child
                tracer.spans.append((sid, parent, name, t0, t1))
            for suffix, count in counters.items():
                tracer.counts[f"{name}.{suffix}"] += count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "rotsys" or k.startswith("rotsys.")]
        for module, attr, name, counters in TARGETS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self.patches):
            setattr(mod, key, original)
        self.patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Per-layer totals since the last :meth:`reset`."""
        c, s, n = self.calls, self.self_s, self.counts
        out: dict[str, float] = {}
        systems = n["enumeration.scan.systems"]
        out["enumeration.scan.calls"] = c["enumeration.scan"]
        out["enumeration.scan.systems"] = systems
        out["enumeration.scan.matches"] = n["enumeration.scan.matches"]
        out["enumeration.scan.match_frac"] = n["enumeration.scan.matches"] / systems if systems else 0.0
        out["enumeration.scan.self_s"] = s["enumeration.scan"]
        out["enumeration.scan.systems_per_s"] = systems / s["enumeration.scan"] if systems else 0.0
        for name in ("exhaustive", "distribution", "theta", "pipeline"):
            out[f"enumeration.{name}.self_s"] = s[f"enumeration.{name}"]
        out["canon.key.calls"] = c["canon.key"]
        out["canon.key.self_s"] = s["canon.key"]
        out["canon.key.per_s"] = c["canon.key"] / s["canon.key"] if c["canon.key"] else 0.0
        out["canon.dedup.calls"] = c["canon.dedup"]
        out["canon.dedup.inputs"] = n["canon.dedup.inputs"]
        out["canon.dedup.classes"] = n["canon.dedup.classes"]
        out["canon.dedup.self_s"] = s["canon.dedup"]
        classes = n["canon.dedup.classes"]
        out["canon.keys_per_class"] = n["canon.key.in_dedup"] / classes if classes else 0.0
        for name in ("canon.aut", "canon.graph_aut", "canon.mgkey", "surgery.splits", "surgery.insert",
                     "core.trace", "core.build", "polygon.word"):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        out["surgery.splits.candidates"] = n["surgery.splits.candidates"]
        out["formats.parse.systems"] = n["formats.parse.systems"]
        out["formats.parse.self_s"] = s["formats.parse"]
        return out

    def write(self, path) -> None:
        """Write every span kept so far as one JSON list per line."""
        base = min((t0 for _, _, _, t0, _ in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps([sid, parent, name, round(t0 - base, 7), round(t1 - t0, 7)]) + "\n")
