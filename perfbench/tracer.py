"""Span tracing for the benchmark's traced run.

The tracer wraps module-level names of ``mimobp.simulator`` that the
simulator looks up at call time, so per-layer timings come without editing
the package. Each wrapped call is a span; a span's self time is its
duration minus the time covered by spans opened inside it. Spans are kept
as aggregates in memory: call count, total time, self time, best single
call, and the iteration count of the detector that was running.

Only serial runs are traced: pool workers receive ``_run_batch`` as a
pickled reference, and a wrapper made here would record into the worker's
memory, which is lost.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

# Names wrapped in a traced run, in call-nesting order.
BATCH_NAMES = (
    "_run_batch", "_run_batch_multi_l", "_draw_batch", "_engine_soft",
    "_engine_bp", "_engine_edge_sets", "_engine_mmse_prior", "bit_gains",
    "_ami_sum",
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    best_s: float = float("inf")
    iterations: int = 0


def detector_name(spec) -> str:
    """Metric-safe detector label, e.g. RBP(1,0) -> RBP-1-0."""
    if spec.relaxed:
        return f"{spec.label}-{spec.rd1}-{spec.rd2}"
    return spec.label


class Tracer:
    """Aggregates nested spans keyed by (span name, running detector)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = defaultdict(SpanStats)
        self.root_s = 0.0          # time covered by outermost spans
        self.detector = ""         # set by the batch-level spans
        self._children: list = []  # child time per open span

    @contextlib.contextmanager
    def span(self, name: str, iterations: int = 0):
        key = (name, self.detector)
        self._children.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            else:
                self.root_s += elapsed
            st = self.stats[key]
            st.calls += 1
            st.total_s += elapsed
            st.self_s += elapsed - children
            st.best_s = min(st.best_s, elapsed)
            st.iterations += iterations

    def wrap(self, fn, name: str):
        """fn recorded as span `name`.

        A ``_run_batch*`` span takes the running detector from its
        DetectorSpec argument; spans opened inside it are keyed by it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spec = next((a for a in args if hasattr(a, "relax_degree")), None)
            outer = self.detector
            if spec is not None and name.startswith("_run_batch"):
                self.detector = detector_name(spec)
            try:
                with self.span(name, spec.iterations if spec is not None else 0):
                    return fn(*args, **kwargs)
            finally:
                self.detector = outer

        return traced

    def totals(self, name: str) -> SpanStats:
        """Stats for `name` summed over detectors."""
        out = SpanStats()
        for (n, _), st in self.stats.items():
            if n == name:
                out.calls += st.calls
                out.total_s += st.total_s
                out.self_s += st.self_s
                out.best_s = min(out.best_s, st.best_s)
                out.iterations += st.iterations
        return out


@contextlib.contextmanager
def patched(module, tracer: Tracer, names):
    """Replace module attributes with traced versions; restore them on exit."""
    saved = {name: getattr(module, name) for name in names}
    try:
        for name, original in saved.items():
            setattr(module, name, tracer.wrap(original, name))
        yield tracer
    finally:
        for name, original in saved.items():
            setattr(module, name, original)
