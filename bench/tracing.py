"""Layer spans recorded from outside the program.

Each wrap point is a name that one twinblocks module imports from another;
the wrapper is installed in the importing module's namespace, so only calls
made through that import are seen.  A wrap point that a later version of
the package no longer has is reported as absent instead of failing the run.

Every span is kept in memory as ``[name, start, end, parent, request]`` and
written out when the run ends.  A layer's self time is its spans' duration
minus the time covered by their child spans.
"""
from __future__ import annotations

import gc
import importlib
import time
from collections import Counter, defaultdict

# (importing module, imported name, layer span)
WRAP_POINTS = (
    ("twinblocks.cli", "parse_edge_list", "core.parse"),
    ("twinblocks.cli", "two_edge_twinless_blocks", "blocks.two_edge_twinless_blocks"),
    ("twinblocks.cli", "twinless_bridges", "cuts.bridge_report"),
    ("twinblocks.blocks", "bridge_report", "cuts.bridge_report"),
    ("twinblocks.blocks", "twinless_strongly_connected_components", "connectivity.decompose"),
    ("twinblocks.blocks", "induced_subgraph", "core.induced_subgraph"),
    ("twinblocks.blocks", "is_twinless_strongly_connected", "connectivity.precondition"),
    ("twinblocks.cuts", "is_twinless_strongly_connected", "connectivity.precondition"),
    ("twinblocks.cuts", "is_strongly_connected", "connectivity.precondition"),
    ("twinblocks.blocks", "_tscc_class_of", "connectivity.tscc_pass"),
    ("twinblocks.blocks", "_scc_class_of", "connectivity.scc_pass"),
    ("twinblocks.blocks", "partition_meet", "partition.meet"),
)

ROOT_SPAN = "cli.run"

# per-layer metric -> (span, "self" seconds or "calls")
SPAN_METRICS = {
    "cuts.bridge_report_s": ("cuts.bridge_report", "self"),
    "cuts.bridge_report_calls": ("cuts.bridge_report", "calls"),
    "connectivity.tscc_pass_s": ("connectivity.tscc_pass", "self"),
    "connectivity.tscc_pass_calls": ("connectivity.tscc_pass", "calls"),
    "connectivity.scc_pass_s": ("connectivity.scc_pass", "self"),
    "connectivity.scc_pass_calls": ("connectivity.scc_pass", "calls"),
    "connectivity.precondition_s": ("connectivity.precondition", "self"),
    "connectivity.precondition_calls": ("connectivity.precondition", "calls"),
    "connectivity.decompose_s": ("connectivity.decompose", "self"),
    "core.parse_s": ("core.parse", "self"),
    "core.induced_subgraph_s": ("core.induced_subgraph", "self"),
    "core.induced_subgraph_calls": ("core.induced_subgraph", "calls"),
    "partition.meet_s": ("partition.meet", "self"),
    "partition.meet_calls": ("partition.meet", "calls"),
    "blocks.self_s": ("blocks.two_edge_twinless_blocks", "self"),
    "cli.self_s": (ROOT_SPAN, "self"),
}


class Tracer:
    """Span recorder, GC observer and wrap-point installer for one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.request = -1
        self.absent: list[str] = []
        self.reports: list[tuple[int, int, int]] = []  # (request, b_s, b_t)
        self.gc_collections = Counter()
        self.gc_pause = 0.0
        self._gc_started = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else -1
        if parent >= 0 and self.spans[parent][0] == name:
            # the same layer reached again through a second wrap point
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.request]
        self.spans.append(span)
        self._open.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if name == "cuts.bridge_report" and hasattr(result, "b_s"):
            self.reports.append((self.request, result.b_s, result.b_t))
        return result

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if self.request < 0:
            return  # collections the benchmark itself asks for between requests
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1

    def install(self) -> None:
        self.absent = []
        for module, attr, name in WRAP_POINTS:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(f"{module}.{attr}")
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(name, orig))
            self._restore.append((mod, attr, orig))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def span_totals(self) -> tuple[dict, Counter]:
        """Self seconds and call counts per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _parent, _req) in enumerate(self.spans):
            self_s[name] += end - start - child_time[idx]
            calls[name] += 1
        return self_s, calls
