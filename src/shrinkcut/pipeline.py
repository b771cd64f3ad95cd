"""End-to-end heuristic: relax, shrink, solve the reduced instance, lift back.

The reduced instance is solved by one of three subsolvers: exact enumeration,
the depth-1 QAOA simulator with estimated parameters, or coin flipping. Every
sampled reduced assignment is reconstructed and scored on the original graph;
reports carry the sample mean and the best value, plus oracle-based
approximation ratios when the instance is small enough to enumerate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    BRUTE_FORCE_CAP,
    WeightedGraph,
    brute_force,
    cut_value_batch,
    dense_closure,
)
from .qaoa import STATEVECTOR_CAP, average_degree, estimate_parameters, qaoa_state, sample_cuts
from .relaxation import solve_cycle_relaxation
from .shrink import (
    CorrelationSet, ShrinkState, correlations_from_relaxation, shrink_to_target, zero_correlations
)

SUBSOLVERS = ("exact", "qaoa-sim", "coin")
CORRELATION_MODES = ("relaxation", "zero")
DEFAULT_SAMPLES = 10000


class PipelineError(RuntimeError):
    """A pipeline stage failed; .stage names it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage


@dataclass(eq=False)
class PipelineReport:
    vertex_count: int
    target_size: int
    subsolver: str
    correlation_mode: str
    n_samples: int
    seed: int | None
    upper_bound: float | None
    reduced_size: int
    offset: float
    best_cut_value: float
    mean_cut_value: float
    best_assignment: np.ndarray
    c_min: float | None = None
    c_max: float | None = None
    approximation_ratio: float | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def as_record(self) -> dict[str, str]:
        """Flat key/value view; optional entries are omitted when absent."""
        rec: dict[str, str] = {
            "vertices": str(self.vertex_count),
            "target_size": str(self.target_size),
            "subsolver": self.subsolver,
            "correlation_mode": self.correlation_mode,
            "n_samples": str(self.n_samples),
            "seed": str(self.seed),
            "reduced_size": str(self.reduced_size),
            "offset": f"{self.offset:.12g}",
            "best_cut_value": f"{self.best_cut_value:.12g}",
            "mean_cut_value": f"{self.mean_cut_value:.12g}",
        }
        if self.upper_bound is not None:
            rec["upper_bound"] = f"{self.upper_bound:.12g}"
        if self.c_min is not None:
            rec["c_min"] = f"{self.c_min:.12g}"
            rec["c_max"] = f"{self.c_max:.12g}"
        if self.approximation_ratio is not None:
            rec["approximation_ratio"] = f"{self.approximation_ratio:.12g}"
        rec["best_assignment"] = "".join("1" if b else "0" for b in self.best_assignment)
        for stage, seconds in self.timings.items():
            rec[f"time_{stage}"] = f"{seconds:.6f}"
        return rec


def approximation_ratio(mean: float, c_min: float, c_max: float) -> float:
    """(mean - c_min) / (c_max - c_min), clamped to [0, 1]."""
    if not c_max > c_min:
        raise ValueError(f"degenerate bounds: c_min={c_min}, c_max={c_max}")
    return float(np.clip((mean - c_min) / (c_max - c_min), 0.0, 1.0))


def _solve_reduced(reduced: WeightedGraph, subsolver: str, n_samples: int, seed) -> np.ndarray:
    """Boolean assignment matrix sampled (or solved) on the reduced graph."""
    if subsolver == "exact":
        summary = brute_force(reduced)
        return summary.argmax[None, :]
    if subsolver == "qaoa-sim":
        if reduced.vertex_count > STATEVECTOR_CAP:
            raise ValueError(
                f"reduced size {reduced.vertex_count} exceeds the {STATEVECTOR_CAP}-qubit simulator cap"
            )
        params = estimate_parameters(reduced)
        state = qaoa_state(reduced, params)
        return sample_cuts(state, n_samples, seed)
    if subsolver == "coin":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, size=(n_samples, reduced.vertex_count)).astype(bool)
    raise ValueError(f"unknown subsolver {subsolver!r}")


def _low_degree_message(g: WeightedGraph, correlations: CorrelationSet, reduced: WeightedGraph) -> str:
    """Why qaoa-sim cannot run on reduced, with the smallest larger target,
    shrunk with the same correlations, whose reduction it can run on."""
    size = reduced.vertex_count
    message = (
        f"reduced size {size} has average degree {average_degree(reduced):.3g} <= 1, "
        "so the QAOA parameter estimate is undefined"
    )
    limit = min(g.vertex_count, STATEVECTOR_CAP)
    for target in range(size + 1, limit + 1):
        degree = average_degree(shrink_to_target(g, correlations, target).reduced)
        if degree > 1.0:
            return f"{message}; target {target} reduces to average degree {degree:.3g}"
    return f"{message}; no target up to {limit} reduces to average degree > 1"


def _lift_and_score(state: ShrinkState, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every reduced sample lifted to the original graph, and its cut value there."""
    lifted = state.reconstruct(samples)
    return lifted, cut_value_batch(state.original, lifted)


def run_pipeline(
    g: WeightedGraph,
    target_size: int,
    subsolver: str = "qaoa-sim",
    correlation_mode: str = "relaxation",
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = 0,
    lp_tol: float = 1e-6,
    oracle_cap: int = BRUTE_FORCE_CAP,
) -> PipelineReport:
    """Relax (unless correlation_mode is "zero"), shrink to target_size, solve
    the reduced instance, reconstruct each sample, and score on the original
    graph. Identical inputs and seed give an identical report (timings aside).
    """
    if subsolver not in SUBSOLVERS:
        raise ValueError(f"subsolver must be one of {SUBSOLVERS}")
    if correlation_mode not in CORRELATION_MODES:
        raise ValueError(f"correlation_mode must be one of {CORRELATION_MODES}")
    n = g.vertex_count
    if not 1 <= target_size <= n:
        raise ValueError(f"target size {target_size} outside [1, {n}]")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")

    timings: dict[str, float] = {}
    upper_bound = None
    tic = time.perf_counter()
    try:
        if correlation_mode == "relaxation":
            solution = solve_cycle_relaxation(dense_closure(g), lp_tol)
            upper_bound = solution.objective_value
            correlations: CorrelationSet = correlations_from_relaxation(solution)
        else:
            correlations = zero_correlations(n)
    except Exception as exc:
        raise PipelineError("relax", exc) from exc
    timings["relax"] = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        state = shrink_to_target(g, correlations, target_size)
        reduced = state.reduced
    except Exception as exc:
        raise PipelineError("shrink", exc) from exc
    timings["shrink"] = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        samples = _solve_reduced(reduced, subsolver, n_samples, seed)
    except Exception as exc:
        cause = exc
        if subsolver == "qaoa-sim" and reduced.vertex_count <= STATEVECTOR_CAP and average_degree(reduced) <= 1.0:
            cause = ValueError(_low_degree_message(g, correlations, reduced))
        raise PipelineError("solve", cause) from exc
    timings["solve"] = time.perf_counter() - tic

    tic = time.perf_counter()
    try:
        lifted, values = _lift_and_score(state, samples)
        best_idx = int(np.argmax(values))
    except Exception as exc:
        raise PipelineError("reconstruct", exc) from exc
    timings["reconstruct"] = time.perf_counter() - tic

    c_min = c_max = ratio = None
    tic = time.perf_counter()
    if n <= oracle_cap:
        try:
            summary = brute_force(g, oracle_cap)
        except Exception as exc:
            raise PipelineError("bounds", exc) from exc
        c_min, c_max = summary.min_value, summary.max_value
        if c_max > c_min:
            ratio = approximation_ratio(float(values.mean()), c_min, c_max)
    timings["bounds"] = time.perf_counter() - tic

    return PipelineReport(
        vertex_count=n,
        target_size=target_size,
        subsolver=subsolver,
        correlation_mode=correlation_mode,
        n_samples=n_samples,
        seed=seed,
        upper_bound=upper_bound,
        reduced_size=reduced.vertex_count,
        offset=state.offset,
        best_cut_value=float(values[best_idx]),
        mean_cut_value=float(values.mean()),
        best_assignment=lifted[best_idx],
        c_min=c_min,
        c_max=c_max,
        approximation_ratio=ratio,
        timings=timings,
    )


@dataclass(frozen=True)
class SweepCell:
    deleted_vertices: int
    correlation_mode: str
    subsolver: str
    mean_cut_value: float
    best_cut_value: float
    ratio: float


def sweep_shrink_counts(
    g: WeightedGraph,
    deleted_counts: list[int] | None = None,
    subsolvers: tuple[str, ...] = ("exact",),
    correlation_modes: tuple[str, ...] = ("relaxation", "zero"),
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = 0,
    lp_tol: float = 1e-6,
    oracle_cap: int = BRUTE_FORCE_CAP,
) -> list[SweepCell]:
    """Approximation ratio versus number of deleted vertices, per mode and
    subsolver. All cells share one oracle bound; the relaxation is solved once
    per mode. The qaoa-sim subsolver needs reduced average degree > 1, so keep
    deleted counts away from n - 1 and n - 2 when using it.
    """
    n = g.vertex_count
    if n > oracle_cap:
        raise ValueError(f"sweep needs oracle bounds; {n} vertices exceeds cap {oracle_cap}")
    for s in subsolvers:
        if s not in SUBSOLVERS:
            raise ValueError(f"unknown subsolver {s!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    summary = brute_force(g, oracle_cap)
    if not summary.max_value > summary.min_value:
        raise ValueError("degenerate instance: every bipartition has the same value")
    if deleted_counts is None:
        deleted_counts = list(range(n))
    master = np.random.default_rng(seed)

    per_mode: dict[str, CorrelationSet] = {}
    for mode in correlation_modes:
        if mode == "relaxation":
            per_mode[mode] = correlations_from_relaxation(solve_cycle_relaxation(dense_closure(g), lp_tol))
        elif mode == "zero":
            per_mode[mode] = zero_correlations(n)
        else:
            raise ValueError(f"unknown correlation mode {mode!r}")

    cells: list[SweepCell] = []
    for mode in correlation_modes:
        for deleted in deleted_counts:
            state = shrink_to_target(g, per_mode[mode], n - deleted)
            reduced = state.reduced
            for subsolver in subsolvers:
                cell_seed = int(master.integers(2**63))
                samples = _solve_reduced(reduced, subsolver, n_samples, cell_seed)
                _, values = _lift_and_score(state, samples)
                mean = float(values.mean())
                ratio = approximation_ratio(mean, summary.min_value, summary.max_value)
                cells.append(SweepCell(deleted, mode, subsolver, mean, float(values.max()), ratio))
    return cells


def sweep_to_csv(cells: list[SweepCell]) -> str:
    lines = ["deleted,mode,subsolver,mean_cut,best_cut,ratio"]
    for c in cells:
        lines.append(
            f"{c.deleted_vertices},{c.correlation_mode},{c.subsolver},"
            f"{c.mean_cut_value:.12g},{c.best_cut_value:.12g},{c.ratio:.12g}"
        )
    return "\n".join(lines) + "\n"
