"""Spans and counts at shrinkcut's module boundaries, recorded from outside.

The tracer rebinds the names a calling module looks up at run time (for
example shrinkcut.relaxation.lp_solve, which solve_cycle_relaxation calls) to
wrappers that record a span: name, start, end and parent. Nothing inside the
program changes. A name the program no longer has is skipped and listed in
Tracer.missing, so the benchmark keeps running after a refactor; its metric
then reads 0.

Spans are recorded only while a root is open (Tracer.active), so calls the
benchmark does not want traced pay one flag test per wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np
import shrinkcut.graph
import shrinkcut.pipeline
import shrinkcut.qaoa
import shrinkcut.relaxation
import shrinkcut.shrink


def _lp_counts(args, result):
    return {"relaxation.lp_calls": 1, "relaxation.lp_rows": len(args[0].rows)}


def _cut_evals(args, result):
    return {"graph.cut_evals": int(np.size(args[1]))}


def _cuts_added(args, result):
    return {"relaxation.cuts_added": result.constraints_added}


def _contractions(args, result):
    return {
        "shrink.contractions": len(result.records),
        "shrink.opposite_merges": sum(1 for r in result.records if r.sign == -1),
    }


def _amplitudes(args, result):
    return {"qaoa.amplitudes": int(result.amplitudes.size)}


# (module, attribute, span name, counter). The span name's prefix is the layer
# that owns the code: the module the function is defined in.
BOUNDARIES = (
    (shrinkcut.relaxation, "solve_box_lp", "simplex.solve_box_lp", None),
    (shrinkcut.relaxation, "lp_solve", "relaxation.lp_solve", _lp_counts),
    (shrinkcut.relaxation, "separate_triangles", "relaxation.separate_triangles", None),
    (shrinkcut.pipeline, "solve_cycle_relaxation", "relaxation.solve_cycle_relaxation", _cuts_added),
    (shrinkcut.pipeline, "dense_closure", "graph.dense_closure", None),
    (shrinkcut.pipeline, "correlations_from_relaxation", "shrink.correlations", None),
    (shrinkcut.pipeline, "zero_correlations", "shrink.correlations", None),
    (shrinkcut.pipeline, "shrink_to_target", "shrink.shrink_to_target", _contractions),
    (shrinkcut.pipeline, "_solve_reduced", "pipeline.solve_reduced", None),
    (shrinkcut.pipeline, "brute_force", "graph.brute_force", None),
    (shrinkcut.pipeline, "estimate_parameters", "qaoa.estimate_parameters", None),
    (shrinkcut.pipeline, "qaoa_state", "qaoa.qaoa_state", _amplitudes),
    (shrinkcut.pipeline, "sample_cuts", "qaoa.sample_cuts", None),
    (shrinkcut.pipeline, "cut_value_batch", "graph.cut_value_batch", None),
    (shrinkcut.qaoa, "cut_values_for_indices", "graph.cut_values_for_indices", _cut_evals),
    (shrinkcut.graph, "cut_values_for_indices", "graph.cut_values_for_indices", _cut_evals),
    (shrinkcut.shrink.ShrinkState, "reconstruct", "shrink.reconstruct", None),
)

# Entry points the benchmark calls itself; each call is the root of a span tree.
ROOTS = {
    "run_pipeline": (shrinkcut.pipeline, "run_pipeline", "pipeline.run_pipeline"),
    "sweep_shrink_counts": (shrinkcut.pipeline, "sweep_shrink_counts", "pipeline.sweep_shrink_counts"),
    "brute_force": (shrinkcut.graph, "brute_force", "graph.brute_force"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return traced

    def install(self) -> dict:
        """Rebind every boundary; return the traced entry points by name."""
        for owner, attr, name, counter in BOUNDARIES:
            self._rebind(owner, attr, name, counter)
        reduced = getattr(shrinkcut.shrink.ShrinkState, "reduced", None)
        if isinstance(reduced, property):
            self._saved.append((shrinkcut.shrink.ShrinkState, "reduced", reduced))
            shrinkcut.shrink.ShrinkState.reduced = property(self.wrap("shrink.reduced", reduced.fget))
        else:
            self.missing.append("ShrinkState.reduced")
        return {key: self.wrap(name, getattr(owner, attr)) for key, (owner, attr, name) in ROOTS.items()}

    def _rebind(self, owner, attr, name, counter):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Hand over and forget the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    One thread runs every span, so children nest inside their parent and do
    not overlap each other; summing them is the covered part.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict:
    """Totals by span name: inclusive and self seconds, calls, and the inclusive
    seconds of each name split by the parent's name."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    under: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), s in zip(spans, own):
        total[name] += end - start
        self_s[name] += s
        calls[name] += 1
        under[f"{name}<{spans[parent][0] if parent >= 0 else ''}"] += end - start
    return {"total": dict(total), "self": dict(self_s), "calls": dict(calls), "under": dict(under)}


def root_durations(spans: list[list], name: str) -> list[tuple[float, float]]:
    """(duration, sum of self times in its tree) for every root span called name."""
    own = self_times(spans)
    tree = list(range(len(spans)))
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            tree[i] = tree[parent]  # parents are recorded before their children
    sums: dict[int, float] = defaultdict(float)
    for i, s in enumerate(own):
        sums[tree[i]] += s
    return [(end - start, sums[i]) for i, (n, start, end, parent) in enumerate(spans) if parent < 0 and n == name]


def encode(spans: list[list]) -> dict:
    """Compact form for the result file: a name table and [name, start_us, end_us, parent] rows."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    rows = [
        [index[n], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent]
        for n, start, end, parent in spans
    ]
    return {"names": names, "fields": ["name", "start_us", "end_us", "parent"], "rows": rows}
