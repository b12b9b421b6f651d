"""Outside-in layer tracer: wraps named public functions, restores them.

Each wrapper is installed at the name the *caller* binds.  A module that
does ``from repro.spice.parser import parse_spice`` holds its own
reference, so patching only the defining module would miss the call;
methods are patched on their class, which every caller reaches.

A span records its layer, thread, start and end.  A per-thread stack
turns nested spans into self time: a span's self time is its duration
minus the time its child spans on the same thread cover.  Spans stay in
memory until the run ends.

Spawned process workers import the program afresh and so run without
these wrappers: layers that execute inside a worker process are not
observed on such workloads.
"""

from __future__ import annotations

import bisect
import gc
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "install_layers", "covered"]


@dataclass
class Span:
    layer: str
    thread: str
    start: float
    end: float
    self_s: float
    depth: int


@dataclass
class _Patch:
    owner: object
    attr: str
    original: object
    owned: bool      # the attribute lived in owner.__dict__ before patching


@dataclass
class Tracer:
    """Collects spans and per-layer counts from the installed wrappers."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    gc_seconds: float = 0.0     # time inside the cyclic garbage collector
    _patches: List[_Patch] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _gc_started: Optional[float] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, layer: str,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper around it.

        ``observe(tracer, args, result)`` runs after each call, for
        layer counts (cache hits, cases per forward).
        """
        original = getattr(owner, attr)
        if getattr(original, "__perfbench_layer__", None) is not None:
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                span = Span(layer, threading.current_thread().name, start,
                            end, duration - child, len(stack))
                with tracer._lock:
                    tracer.spans.append(span)
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__perfbench_layer__ = layer
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append(_Patch(owner, attr, original,
                                    attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def _on_gc(self, phase: str, info: dict) -> None:
        # the collector runs with the interpreter lock held, so start and
        # stop callbacks of one collection never interleave with another's
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self._gc_started = None

    def watch_gc(self) -> None:
        """Time every garbage collection until :meth:`restore`."""
        gc.callbacks.append(self._on_gc)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            patch = self._patches.pop()
            if patch.owned:
                setattr(patch.owner, patch.attr, patch.original)
            else:
                delattr(patch.owner, patch.attr)

    # ------------------------------------------------------------------
    def layer_self(self, layer: str) -> Tuple[int, float]:
        """(calls, summed self seconds) of one layer's spans."""
        calls, total = 0, 0.0
        for span in self.spans:
            if span.layer == layer:
                calls += 1
                total += span.self_s
        return calls, total

    def top_level(self) -> Dict[str, Tuple[List[float], List[float]]]:
        """Per thread, the sorted (starts, ends) of outermost spans.

        Outermost spans on one thread never overlap, and the self times
        of a span tree sum to its outermost span's duration, so the time
        these intervals cover is the time spent inside any layer.
        """
        by_thread: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.depth == 0:
                by_thread[span.thread].append((span.start, span.end))
        result = {}
        for thread, intervals in by_thread.items():
            intervals.sort()
            result[thread] = ([s for s, _ in intervals],
                              [e for _, e in intervals])
        return result


def covered(intervals: Optional[Tuple[List[float], List[float]]],
            lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by one thread's sorted,
    non-overlapping intervals."""
    if intervals is None or hi <= lo:
        return 0.0
    starts, ends = intervals
    total = 0.0
    index = max(0, bisect.bisect_right(starts, lo) - 1)
    while index < len(starts) and starts[index] < hi:
        total += max(0.0, min(ends[index], hi) - max(starts[index], lo))
        index += 1
    return total


# ----------------------------------------------------------------------
# The layer table: which public names are wrapped, under which layer
# ----------------------------------------------------------------------
def _count_hits(tracer: Tracer, args, result) -> None:
    tracer.count("prep.cache_lookups")
    if result is not None:
        tracer.count("prep.cache_hits")


def _count_cases(tracer: Tracer, args, result) -> None:
    # InferenceEngine.run(self, features, ...): the batch dimension
    tracer.count("infer.cases", int(args[1].shape[0]))


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced layer of the deck-to-map and serving paths."""
    import repro.ingest.pipeline as ingest_pipeline
    import repro.train.loader as loader
    from repro.infer.engine import InferenceEngine
    from repro.serve.guard import OutputGuard
    from repro.solver.factorized import FactorizedPDN
    from repro.spice.netlist import Netlist

    tracer.wrap(ingest_pipeline, "parse_spice", "spice.parse")
    tracer.wrap(ingest_pipeline, "validate_netlist", "spice.validate")
    tracer.wrap(ingest_pipeline, "classify_deck", "ingest.classify")
    tracer.wrap(Netlist, "statistics", "spice.statistics")
    tracer.wrap(FactorizedPDN, "__init__", "solver.assemble")
    tracer.wrap(FactorizedPDN, "solve", "solver.solve")
    tracer.wrap(ingest_pipeline, "rasterize_ir_map", "solver.rasterize")
    tracer.wrap(ingest_pipeline, "compute_feature_maps", "features.maps")
    tracer.wrap(loader.CasePreprocessor, "prepare_deterministic",
                "prep.prepare")
    tracer.wrap(loader, "fit_to_count", "pointcloud.fit")
    tracer.wrap(loader.PreparedCaseCache, "get", "prep.cache_get",
                observe=_count_hits)
    tracer.wrap(InferenceEngine, "run", "infer.run", observe=_count_cases)
    tracer.wrap(InferenceEngine, "compile", "infer.compile")
    tracer.wrap(OutputGuard, "check", "serve.guard")
    tracer.watch_gc()
