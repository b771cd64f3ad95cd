"""End-to-end heuristic: relax, shrink, solve the reduced instance, lift back.

The reduced instance is solved by one of three subsolvers: exact enumeration,
the depth-1 QAOA simulator with estimated parameters, or coin flipping. Every
sampled reduced assignment is scored on the original graph without being
lifted, and the best one is reconstructed; reports carry the sample mean and
the best value, plus oracle-based approximation ratios when the instance is
small enough to enumerate.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    BRUTE_FORCE_CAP,
    WeightedGraph,
    brute_force,
    brute_force_matrix,
    check_enumerable,
    cut_value_batch,
)
from .qaoa import STATEVECTOR_CAP, QaoaParams, average_degree, estimate_parameters, qaoa_state, sample_cuts
from .relaxation import solve_cycle_relaxation
from .shrink import (
    CorrelationSet, ShrinkState, _contractions, correlations_from_relaxation, shrink_to_target, zero_correlations
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
    # the (gamma, beta) the qaoa-sim subsolver ran at; None for other subsolvers
    qaoa_gamma: float | None = None
    qaoa_beta: float | None = None
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
        if self.qaoa_gamma is not None:
            rec["qaoa_gamma"] = f"{self.qaoa_gamma:.12g}"
            rec["qaoa_beta"] = f"{self.qaoa_beta:.12g}"
        rec["best_assignment"] = "".join("1" if b else "0" for b in self.best_assignment)
        for stage, seconds in self.timings.items():
            rec[f"time_{stage}"] = f"{seconds:.6f}"
        return rec


def approximation_ratio(mean: float, c_min: float, c_max: float) -> float:
    """(mean - c_min) / (c_max - c_min), clamped to [0, 1]."""
    if not c_max > c_min:
        raise ValueError(f"degenerate bounds: c_min={c_min}, c_max={c_max}")
    return float(min(max((mean - c_min) / (c_max - c_min), 0.0), 1.0))  # builtins: a scalar np.clip costs ~12x as much


def _solve_reduced(
    state: ShrinkState, subsolver: str, n_samples: int, seed
) -> tuple[np.ndarray, QaoaParams | None]:
    """Boolean assignment matrix sampled (or solved) on the state's reduced graph,
    reading only what the subsolver needs, and the QAOA parameters it was
    sampled at (None unless subsolver is qaoa-sim)."""
    if subsolver == "exact":
        check_enumerable(state.reduced_size)
        return brute_force_matrix(state.reduced_matrix()).argmax[None, :], None
    if subsolver == "qaoa-sim":
        if state.reduced_size > STATEVECTOR_CAP:
            raise ValueError(f"reduced size {state.reduced_size} exceeds the {STATEVECTOR_CAP}-qubit simulator cap")
        params = estimate_parameters(state.reduced)
        return sample_cuts(qaoa_state(state.reduced, params), n_samples, seed), params
    if subsolver == "coin":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, size=(n_samples, state.reduced_size)).astype(bool), None
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
    # the walk toward size + 1 passes every larger target's reduction on its
    # way, largest first, so the last one that works is the smallest
    works = None
    if size < limit:
        for state in _contractions(g, correlations, size + 1):
            degree = average_degree(state.reduced) if state.reduced_size <= limit else 0.0
            if degree > 1.0:
                works = (state.reduced_size, degree)
    if works:
        return f"{message}; target {works[0]} reduces to average degree {works[1]:.3g}"
    return f"{message}; no target up to {limit} reduces to average degree > 1"


def _score(state: ShrinkState, samples: np.ndarray) -> np.ndarray:
    """Every reduced sample's cut value on the original graph, scored on the
    edges a lift can cut, from the sample's own columns: nothing is lifted."""
    return cut_value_batch(state.cuttable, samples, state.lift_map)


def _mean(values: np.ndarray) -> float:
    """values.mean(); where their sum overflows, the mean of the cut values, each at most
    CUT_WEIGHT_LIMIT in size, scaled down exactly by a power of two past their count."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan sum is caught below
        mean, scale = values.mean(), 2.0 ** values.size.bit_length()
    return float(mean if np.isfinite(mean) else (values / scale).mean() * scale)


def _check_inputs(modes, subsolvers=(), n_samples: int = 1) -> None:
    """Raise ValueError for the first correlation mode or subsolver the
    pipeline does not know, or for a sample count below 1."""
    for mode in modes:
        if mode not in CORRELATION_MODES:
            raise ValueError(f"correlation mode must be one of {CORRELATION_MODES}, got {mode!r}")
    for subsolver in subsolvers:
        if subsolver not in SUBSOLVERS:
            raise ValueError(f"subsolver must be one of {SUBSOLVERS}, got {subsolver!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    """Time the block into timings[name]; an exception in it leaves as
    PipelineError(name)."""
    tic = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc
    timings[name] = time.perf_counter() - tic


def correlations_for_mode(g: WeightedGraph, mode: str) -> tuple[CorrelationSet, float | None]:
    """The correlations a shrink in correlation mode `mode` follows, and the
    relaxation's objective, an upper bound on the maximum cut (None in zero
    mode). Raises ValueError for a mode outside CORRELATION_MODES."""
    _check_inputs((mode,))
    if mode == "zero":
        return zero_correlations(g.vertex_count), None
    solution = solve_cycle_relaxation(g)
    return correlations_from_relaxation(solution), solution.objective_value


def run_pipeline(
    g: WeightedGraph,
    target_size: int,
    subsolver: str = "qaoa-sim",
    correlation_mode: str = "relaxation",
    n_samples: int = DEFAULT_SAMPLES,
    seed: int | None = 0,
    oracle_cap: int = BRUTE_FORCE_CAP,
) -> PipelineReport:
    """Relax (unless correlation_mode is "zero"), shrink to target_size, solve
    the reduced instance, reconstruct each sample, and score on the original
    graph. Identical inputs and seed give an identical report (timings aside).
    Each stage is timed under its name, which a PipelineError from it carries.
    """
    _check_inputs((correlation_mode,), (subsolver,), n_samples)
    n = g.vertex_count
    if not 1 <= target_size <= n:
        raise ValueError(f"target size {target_size} outside [1, {n}]")

    timings: dict[str, float] = {}
    with _stage("relax", timings):
        correlations, upper_bound = correlations_for_mode(g, correlation_mode)

    with _stage("shrink", timings):
        state = shrink_to_target(g, correlations, target_size)
        reduced = state.reduced

    with _stage("solve", timings):
        try:
            samples, params = _solve_reduced(state, subsolver, n_samples, seed)
        except Exception as exc:
            if subsolver == "qaoa-sim" and reduced.vertex_count <= STATEVECTOR_CAP and average_degree(reduced) <= 1.0:
                raise ValueError(_low_degree_message(g, correlations, reduced)) from exc
            raise

    with _stage("reconstruct", timings):
        values = _score(state, samples)
        mean = _mean(values)
        best_idx = int(np.argmax(values))
        best_assignment = state.reconstruct(samples[best_idx])

    c_min = c_max = ratio = None
    with _stage("bounds", timings):
        if n <= oracle_cap:
            summary = brute_force(g, oracle_cap)
            c_min, c_max = summary.min_value, summary.max_value
            if c_max > c_min:
                ratio = approximation_ratio(mean, c_min, c_max)

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
        mean_cut_value=mean,
        best_assignment=best_assignment,
        c_min=c_min,
        c_max=c_max,
        approximation_ratio=ratio,
        qaoa_gamma=params.gamma if params else None,
        qaoa_beta=params.beta if params else None,
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
) -> list[SweepCell]:
    """Approximation ratio versus number of deleted vertices: one cell per
    mode, deleted count (a repeat included) and subsolver, in the given order,
    each with its own seed drawn from `seed` in that order. All cells share one
    oracle, which also solves the deleted-0 exact cells; the relaxation is solved
    once per mode, and one pass over each mode's contractions scores every count.
    Raises ValueError for a count outside [0, n) or past brute_force's cap.
    The qaoa-sim subsolver needs reduced average degree > 1, so keep deleted
    counts away from n - 1 and n - 2 when using it.
    """
    _check_inputs(correlation_modes, subsolvers, n_samples)
    n = g.vertex_count
    if deleted_counts is None:
        deleted_counts = list(range(n))
    for deleted in deleted_counts:
        if not 0 <= deleted < n:
            raise ValueError(f"deleted count {deleted} outside [0, {n})")
    summary = brute_force(g)
    if not summary.max_value > summary.min_value:
        raise ValueError("degenerate instance: every bipartition has the same value")
    master = np.random.default_rng(seed)

    per_mode = {mode: correlations_for_mode(g, mode)[0] for mode in correlation_modes}

    # positions in deleted_counts by the reduced size they ask for
    at_size: dict[int, list[int]] = {}
    for i, deleted in enumerate(deleted_counts):
        at_size.setdefault(n - deleted, []).append(i)
    cells: list[SweepCell] = []
    for mode in correlation_modes:
        seeds = [[int(master.integers(2**63)) for _ in subsolvers] for _ in deleted_counts]
        rows: list[list[SweepCell]] = [[] for _ in deleted_counts]
        for state in _contractions(g, per_mode[mode], min(at_size, default=n)):
            if state.reduced_size not in at_size:
                continue
            for i in at_size[state.reduced_size]:
                # one call scores every subsolver's rows, each row as it would alone
                solved = [summary.argmax[None, :] if subsolver == "exact" and not state.records
                          else _solve_reduced(state, subsolver, n_samples, cell_seed)[0]
                          for subsolver, cell_seed in zip(subsolvers, seeds[i])]
                scored = np.split(_score(state, np.concatenate(solved)), np.cumsum([len(s) for s in solved])[:-1])
                for subsolver, values in zip(subsolvers, scored):
                    mean = _mean(values)
                    ratio = approximation_ratio(mean, summary.min_value, summary.max_value)
                    rows[i].append(SweepCell(deleted_counts[i], mode, subsolver, mean, float(values.max()), ratio))
        cells += [cell for row in rows for cell in row]
    return cells


def sweep_to_csv(cells: list[SweepCell]) -> str:
    lines = ["deleted,mode,subsolver,mean_cut,best_cut,ratio"]
    for c in cells:
        lines.append(
            f"{c.deleted_vertices},{c.correlation_mode},{c.subsolver},"
            f"{c.mean_cut_value:.12g},{c.best_cut_value:.12g},{c.ratio:.12g}"
        )
    return "\n".join(lines) + "\n"
