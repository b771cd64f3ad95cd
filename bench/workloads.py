"""The benchmark's workloads: how their instances are made, what one round
runs, and what each answer is checked against.

A round is a fixed list of operations; every run repeats whole rounds, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref
from shrinkcut import estimate_parameters, expectation_analytic, shrink_to_target, zero_correlations
from shrinkcut.instances import complete_pairs, grid_pairs, normal_weights, sign_weights

GRID_SHAPE = (4, 4)
GRID_TARGET = 8
# The 4x4 relaxation takes 0.3 s to 6.3 s depending on the signs, so grids drawn
# from the run seed would move the median more than any bound allows. The
# grids are fixed; the run seed drives the sweep's coin draws.
GRID_SEEDS = (1, 2, 3, 4)
# A 4x4 oracle call takes milliseconds; repeats give its median enough samples.
GRID_ORACLE_REPEATS = 5
# (rows, cols, seed) grids on which the bundled simplex fails every time:
# 3x6 seed 11 drifts infeasible, 3x5 seed 9 hits the iteration cap.
FAILING_GRIDS = ((3, 6, 11), (3, 5, 9))
RANDOM_GRAPHS = {"sparse-zero": 5, "dense-oracle": 3}
QAOA_TARGET = 20
QAOA_SAMPLES = 10000
SWEEP_SAMPLES = 1000


@dataclass(eq=False)
class Instance:
    label: str
    n: int
    edges: list[tuple[int, int, float]]
    graph: object = None  # the WeightedGraph parse_instance read back from the file
    w: np.ndarray | None = None
    bounds: tuple[float, float] | None = None  # enumerated (max, min)
    reduced: object = None  # zero-mode reduction, from an untimed shrink_to_target
    offset: float = 0.0
    reduced_w: np.ndarray | None = None
    reduced_bounds: tuple[float, float] | None = None
    expected_mean: float = 0.0
    variance: float = 0.0
    problems: list[str] = field(default_factory=list)


@dataclass(eq=False)
class Op:
    """One operation: a call into the program and the check of its answer.

    metric names the end-to-end time the call enters; None keeps it out (the
    instances that fail today). score maps a pipeline report and the round's
    oracle (max, min) by label to its mean and best ratio.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    metric: str | None
    score: Callable[[object, dict], tuple[float, float] | None] | None = None


def instance_text(inst: Instance) -> str:
    lines = [f"{inst.n} {len(inst.edges)}"]
    lines.extend(f"{u + 1} {v + 1} {w!r}" for u, v, w in inst.edges)
    return "\n".join(lines) + "\n"


def _grid(rows: int, cols: int, seed: int) -> Instance:
    pairs = grid_pairs(rows, cols)
    weights = sign_weights(len(pairs), np.random.default_rng(seed))
    return Instance(f"grid{rows}x{cols}-s{seed}", rows * cols, [(u, v, float(w)) for (u, v), w in zip(pairs, weights)])


def _random(n: int, p: float, rng: np.random.Generator, index: int) -> Instance:
    """Normal weights on exactly round(p * n(n-1)/2) uniformly chosen pairs.

    A fixed edge count keeps the work per instance from varying with the
    draw the way a G(n, p) edge count would.
    """
    pairs = complete_pairs(n)
    chosen = np.sort(rng.choice(len(pairs), size=round(p * len(pairs)), replace=False))
    weights = normal_weights(chosen.size, rng)
    return Instance(f"gnm{n}-{index}", n, [(*pairs[k], float(w)) for k, w in zip(chosen, weights)])


def generate(workload: str, seed: int) -> list[Instance]:
    if workload == "grid-relax":
        return [_grid(*GRID_SHAPE, s) for s in GRID_SEEDS] + [_grid(*f) for f in FAILING_GRIDS]
    rng = np.random.default_rng(seed)
    n, p = {"sparse-zero": (300, 0.02), "dense-oracle": (22, 0.5)}[workload]
    return [_random(n, p, rng, i) for i in range(RANDOM_GRAPHS[workload])]


def prepare(workload: str, instances: list[Instance]) -> None:
    """Untimed references: own weight matrices and enumerations, and for the QAOA
    workloads the reduction, the analytic expectation and the exact variance."""
    for inst in instances:
        inst.w = ref.weight_matrix(inst.n, inst.edges)
        if inst.n <= ref.ENUMERATION_CAP:
            inst.bounds = ref.enumerate_cuts(inst.w)
        if workload == "grid-relax":
            continue
        state = shrink_to_target(inst.graph, zero_correlations(inst.n), QAOA_TARGET)
        inst.reduced, inst.offset = state.reduced, state.offset
        inst.reduced_w = ref.weight_matrix(inst.reduced.vertex_count, inst.reduced.edges)
        inst.reduced_bounds = ref.enumerate_cuts(inst.reduced_w)
        params = estimate_parameters(inst.reduced)
        analytic = expectation_analytic(inst.reduced, params)
        mean, inst.variance = ref.qaoa_moments(inst.reduced_w, params.gamma, params.beta)
        if abs(analytic - mean) > 1e-6 * (1.0 + abs(mean)):
            inst.problems.append(f"{inst.label}: analytic expectation {analytic!r}, statevector {mean!r}")
        inst.expected_mean = analytic + inst.offset


def _ratios(report, bounds: tuple[float, float] | None, offset: float) -> tuple[float, float] | None:
    """(mean, best) cut values as (value - c_min) / (c_max - c_min), with the
    oracle's bounds shifted by offset; None when the oracle did not answer."""
    if bounds is None:
        return None
    hi, lo = bounds[0] + offset, bounds[1] + offset
    return (report.mean_cut_value - lo) / (hi - lo), (report.best_cut_value - lo) / (hi - lo)




def operations(workload: str, instances: list[Instance], calls: dict, seed: int) -> list[Op]:
    """The fixed list of operations one round runs."""
    run_pipeline, brute_force, sweep = calls["run_pipeline"], calls["brute_force"], calls["sweep_shrink_counts"]
    ops: list[Op] = []
    if workload == "grid-relax":
        grids = instances[: len(GRID_SEEDS)]

        def grid_op(inst: Instance, metric):
            return Op(
                "pipeline",
                inst.label,
                lambda: run_pipeline(
                    inst.graph, GRID_TARGET, subsolver="exact", correlation_mode="relaxation", seed=seed, oracle_cap=0
                ),
                lambda r: ref.check_exact_report(r, inst.w, inst.bounds[0]),
                metric,
                lambda r, oracle: _ratios(r, oracle.get(inst.label), 0.0),
            )

        for g in grids:
            ops.append(grid_op(g, "pipeline_s"))
            ops += [_oracle_op(g, g.graph, g.w, g.bounds, brute_force)] * GRID_ORACLE_REPEATS
        first = grids[0]
        ops.append(
            Op(
                "sweep",
                first.label,
                lambda: sweep(
                    first.graph,
                    subsolvers=("exact", "coin"),
                    correlation_modes=("relaxation", "zero"),
                    n_samples=SWEEP_SAMPLES,
                    seed=seed,
                ),
                lambda cells: ref.check_sweep(cells, first.w, first.bounds, ("relaxation",)),
                "sweep_s",
            )
        )
        ops += [grid_op(f, None) for f in instances[len(GRID_SEEDS) :]]
        return ops

    reduced_oracle = workload == "sparse-zero"

    def qaoa_op(inst: Instance):
        def check(r):
            problems = ref.check_report(r, inst.w, inst.bounds[0] if inst.bounds else inst.reduced_bounds[0] + inst.offset)
            problems += ref.check_sample_mean(r, inst.expected_mean, inst.variance, ref.tolerance(inst.w))
            if r.reduced_size != QAOA_TARGET or abs(r.offset - inst.offset) > ref.tolerance(inst.w):
                problems.append(f"reduced size {r.reduced_size}, offset {r.offset!r}; expected {inst.offset!r}")
            return problems

        def score(r, oracle):
            return _ratios(r, oracle.get(inst.label), inst.offset if reduced_oracle else 0.0)

        return Op(
            "pipeline",
            inst.label,
            lambda: run_pipeline(
                inst.graph,
                QAOA_TARGET,
                subsolver="qaoa-sim",
                correlation_mode="zero",
                n_samples=QAOA_SAMPLES,
                seed=seed,
                oracle_cap=0,
            ),
            check,
            "pipeline_s",
            score,
        )

    for inst in instances:
        ops.append(qaoa_op(inst))
        if reduced_oracle:
            # n = 300 is far past enumeration; the oracle solves the reduced
            # instance exactly, which bounds what any sample of it can reach.
            ops.append(_oracle_op(inst, inst.reduced, inst.reduced_w, inst.reduced_bounds, brute_force))
        else:
            ops.append(_oracle_op(inst, inst.graph, inst.w, inst.bounds, brute_force))
    first = instances[0]
    ops.append(
        Op(
            "sweep",
            first.label,
            lambda: sweep(
                first.reduced,
                subsolvers=("exact", "coin"),
                correlation_modes=("zero",),
                n_samples=SWEEP_SAMPLES,
                seed=seed,
            ),
            lambda cells: ref.check_sweep(cells, first.reduced_w, first.reduced_bounds, ()),
            "sweep_s",
        )
    )
    return ops


def _oracle_op(inst: Instance, graph, w, bounds, brute_force) -> Op:
    return Op("oracle", inst.label, lambda: brute_force(graph), lambda s: ref.check_oracle(s, w, bounds), "oracle_s")
