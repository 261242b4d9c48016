"""Span tracing of ldga's public entry points, installed from outside the library.

A `Tracer` replaces each listed function with a wrapper that records a span
(name, start, end, parent) and the layer counters named in `LAYERS`.  The
replacement is made on the defining module and on every other `ldga` module
that bound the same function object with `from ... import`, so calls through
either name are timed.  Spans stay in memory; `self_times` turns them into
per-layer self times (a span's duration minus the part its child spans
cover), which add up exactly to the duration of the root spans.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time


def _shape_cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# (module, function, span name, counters).  A counter is
# (metric, "add" | "max", fn(args, result) -> number); "error" counters are
# fed 1 when the call raises.  Times are reported as "<span name>_s".
LAYERS = [
    ("ldga.diagram", "grid_to_front", "diagram.grid_to_front", ()),
    ("ldga.diagram", "resolve", "diagram.resolve",
     (("diagram.crossings", "add", lambda a, r: len(r.crossings)),)),
    ("ldga.cedga", "build_dga", "cedga.build_dga", ()),
    ("ldga._diskcore", "boundary_words", "cedga.boundary_words",
     (("cedga.disks", "add", lambda a, r: len(r)),
      ("cedga.disks_per_crossing_max", "max", lambda a, r: len(r)))),
    ("ldga.algebra", "validate", "algebra.validate", ()),
    ("ldga.algebra", "change_coefficients", "algebra.change_coefficients", ()),
    ("ldga.algebra", "multiply", "algebra.multiply",
     (("algebra.multiply_calls", "add", lambda a, r: 1),)),
    ("ldga.augment", "enumerate_augmentations", "augment.enumerate",
     (("augment.solutions", "add", lambda a, r: len(r)),)),
    ("ldga.augment", "conjugate", "augment.conjugate",
     (("augment.conjugate_calls", "add", lambda a, r: 1),
      ("augment.conjugate_failed", "error", None))),
    ("ldga.augment", "linear_part", "augment.linear_part", ()),
    ("ldga.augment", "variety_points", "augment.variety_points", ()),
    ("ldga.linhom", "homology_field", "linhom.homology_field", ()),
    ("ldga.linhom", "field_rank", "linhom.field_rank",
     (("linhom.field_rank_cells", "add", lambda a, r: _shape_cells(a[1])),)),
    ("ldga.linhom", "homology_integral", "linhom.homology_integral", ()),
    ("ldga.linhom", "smith_normal_form", "linhom.smith_normal_form",
     (("linhom.snf_cells", "add", lambda a, r: _shape_cells(a[0])),)),
    ("ldga.linhom", "uct_dualize", "linhom.uct_dualize", ()),
    ("ldga.spin", "spin_complex_stable", "spin.spin_complex_stable", ()),
    ("ldga.spin", "kunneth_s1", "spin.kunneth_s1", ()),
    ("ldga.obstruct", "certify_nongeometric", "obstruct.certify_self", ()),
    ("ldga.obstruct", "seidel_profile", "obstruct.seidel_profile", ()),
    ("ldga.obstruct", "aug_injectivity_test", "obstruct.aug_injectivity", ()),
    ("ldga.cli", "main", "cli.main", ()),
]

# Spans the benchmark opens itself around CLI subprocesses.
CLI_SPANS = ["cli.import", "cli.process"]
# The span around one pass: its self time is the benchmark's own and any
# library code outside the listed entry points.
ROOT_SPAN = "pass"
# Prefix of the stderr line on which a traced CLI child reports its spans.
SPANS_MARK = "PERFBENCH-SPANS "

SPAN_NAMES = [name for _, _, name, _ in LAYERS] + CLI_SPANS
COUNTER_KINDS = {metric: how for _, _, _, counters in LAYERS for metric, how, _ in counters}


class Tracer:
    """In-memory spans plus layer counters for one process."""

    def __init__(self):
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, metric: str, how: str, value: float) -> None:
        if how == "max":
            self.counts[metric] = max(self.counts.get(metric, 0), value)
        else:
            self.counts[metric] = self.counts.get(metric, 0) + value

    def graft(self, spans: list[list], counts: dict[str, float]) -> None:
        """Attach spans recorded by a child process under the open span.

        Both processes read the same monotonic clock, so times carry over.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])
        for metric, value in counts.items():
            self.count(metric, "max" if COUNTER_KINDS[metric] == "max" else "add", value)

    def _wrap(self, fn, name: str, counters):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                for metric, how, _ in counters:
                    if how == "error":
                        self.count(metric, "add", 1)
                raise
            finally:
                self._close(idx)
            for metric, how, get in counters:
                if how != "error":
                    self.count(metric, how, get(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every listed function in every loaded `ldga` module."""
        undo = []
        try:
            for module_name, attr, name, counters in LAYERS:
                module = importlib.import_module(module_name)
                orig = getattr(module, attr)
                traced = self._wrap(orig, name, counters)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "ldga" or mod_name.startswith("ldga."):
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, key, traced)
                                undo.append((mod, key, orig))
            yield self
        finally:
            for mod, key, orig in reversed(undo):
                setattr(mod, key, orig)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), cov in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - cov
    return out
