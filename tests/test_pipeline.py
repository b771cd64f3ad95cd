import importlib.util
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shrinkcut.pipeline
from shrinkcut import (
    PipelineError,
    QaoaParams,
    approximation_ratio,
    brute_force,
    correlations_from_relaxation,
    cut_value_batch,
    expectation_analytic,
    expectation_statevector,
    grid_search,
    qaoa_state,
    run_pipeline,
    sample_cuts,
    shrink_to_target,
    solve_cycle_relaxation,
    sweep_shrink_counts,
    sweep_to_csv,
    zero_correlations,
)
from shrinkcut.graph import CUT_WEIGHT_LIMIT, WeightedGraph, _spectrum
from shrinkcut.instances import build, grid_pairs, random_weighted_graph, sign_weights
from shrinkcut.pipeline import SweepCell, _mean, _solve_reduced
from shrinkcut.shrink import ShrinkState


def grid_instance(rows, cols, seed):
    rng = np.random.default_rng(seed)
    pairs = grid_pairs(rows, cols)
    return build(rows * cols, pairs, sign_weights(len(pairs), rng))


def test_approximation_ratio_endpoints():
    assert approximation_ratio(4.0, 1.0, 4.0) == 1.0
    assert approximation_ratio(1.0, 1.0, 4.0) == 0.0
    assert approximation_ratio(2.5, 1.0, 4.0) == 0.5
    with pytest.raises(ValueError):
        approximation_ratio(1.0, 2.0, 2.0)


def test_no_shrink_exact_recovers_oracle():
    g = grid_instance(2, 3, 0)
    report = run_pipeline(g, g.vertex_count, subsolver="exact", n_samples=1, seed=0)
    assert report.best_cut_value == brute_force(g).max_value
    assert report.approximation_ratio == 1.0
    assert report.reduced_size == g.vertex_count
    assert report.offset == 0.0


def test_relaxation_correlations_keep_grids_optimal():
    g = grid_instance(2, 3, 1)
    report = run_pipeline(g, 4, subsolver="exact", correlation_mode="relaxation", n_samples=1, seed=0)
    assert report.best_cut_value == brute_force(g).max_value
    assert report.upper_bound is not None


def test_zero_mode_skips_relaxation():
    g = grid_instance(2, 3, 2)
    report = run_pipeline(g, 4, subsolver="exact", correlation_mode="zero", n_samples=1, seed=0)
    assert report.upper_bound is None
    assert report.c_min is not None


def test_sandwich_invariant():
    rng = np.random.default_rng(3)
    for trial in range(6):
        g = random_weighted_graph(7, 0.6, rng, "sign" if trial % 2 else "normal")
        if g.edge_count < 4:
            continue
        for subsolver in ("exact", "qaoa-sim", "coin"):
            report = run_pipeline(g, 4, subsolver=subsolver, n_samples=500, seed=trial)
            assert report.c_min <= report.mean_cut_value + 1e-9
            assert report.mean_cut_value <= report.best_cut_value + 1e-9
            assert report.best_cut_value <= report.c_max + 1e-9
            assert report.best_cut_value <= report.upper_bound + 1e-6


def test_coin_mean_near_half_total():
    rng = np.random.default_rng(4)
    g = random_weighted_graph(8, 0.6, rng)
    n_samples = 10000
    report = run_pipeline(g, 8, subsolver="coin", correlation_mode="zero", n_samples=n_samples, seed=0)
    half = g.total_weight() / 2
    sigma = math.sqrt(sum(w * w for _, _, w in g.edges) / 4 / n_samples)
    assert abs(report.mean_cut_value - half) <= 3 * sigma


def test_subsolver_quality_ordering():
    # for a fixed shrink state: exact >= qaoa-sim >= coin (statistically)
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(10):
        g = random_weighted_graph(8, 0.7, rng, "sign" if trial % 2 else "normal")
        if g.edge_count < 8:
            continue
        n_samples = 10000
        exact = run_pipeline(g, 5, subsolver="exact", n_samples=1, seed=trial)
        qaoa = run_pipeline(g, 5, subsolver="qaoa-sim", n_samples=n_samples, seed=trial)
        coin = run_pipeline(g, 5, subsolver="coin", n_samples=n_samples, seed=trial)
        span = exact.c_max - exact.c_min
        sigma = span / 2 / math.sqrt(n_samples)  # bound on the std of either mean
        assert exact.mean_cut_value >= qaoa.mean_cut_value - 1e-9
        assert qaoa.mean_cut_value >= coin.mean_cut_value - 3 * math.sqrt(2) * sigma
        checked += 1
    assert checked >= 5


def test_determinism_excluding_timings():
    g = grid_instance(3, 3, 6)
    a = run_pipeline(g, 5, subsolver="qaoa-sim", n_samples=800, seed=17)
    b = run_pipeline(g, 5, subsolver="qaoa-sim", n_samples=800, seed=17)
    ra, rb = a.as_record(), b.as_record()
    for key in list(ra):
        if key.startswith("time_"):
            ra.pop(key)
            rb.pop(key)
    assert ra == rb


def test_stage_errors_are_labeled():
    g = grid_instance(2, 3, 7)
    with pytest.raises(PipelineError) as err:
        # reduced 2-vertex instance has average degree 1: estimate undefined
        run_pipeline(g, 2, subsolver="qaoa-sim", n_samples=10, seed=0)
    assert err.value.stage == "solve"
    message = str(err.value)
    assert "reduced size 2 has average degree 1 <= 1" in message
    # target 3, shrunk with the same correlations, is the smallest that works
    assert "target 3 reduces to average degree 2" in message
    run_pipeline(g, 3, subsolver="qaoa-sim", n_samples=10, seed=0)
    with pytest.raises(ValueError):
        run_pipeline(g, 0, subsolver="exact")


STAGES = ["relax", "shrink", "solve", "reconstruct", "bounds"]


@pytest.mark.parametrize("stage, name", [
    ("relax", "solve_cycle_relaxation"),
    ("shrink", "shrink_to_target"),
    ("solve", "_solve_reduced"),
    ("reconstruct", "cut_value_batch"),
    ("bounds", "brute_force"),
])
def test_a_fault_in_each_stage_carries_its_label(monkeypatch, stage, name):
    g = grid_instance(2, 3, 7)

    def fault(*args, **kwargs):
        raise RuntimeError(f"fault in {name}")

    monkeypatch.setattr(shrinkcut.pipeline, name, fault)
    with pytest.raises(PipelineError) as err:
        run_pipeline(g, 4, subsolver="coin", n_samples=10)
    assert err.value.stage == stage
    assert str(err.value).startswith(f"stage '{stage}': fault in {name}")


@pytest.mark.parametrize("entry", ["run_pipeline", "sweep_shrink_counts"])
def test_unknown_subsolver_is_rejected_with_one_message_before_any_work(monkeypatch, entry):
    g = grid_instance(2, 3, 7)

    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the subsolver was checked")

    for name in ("brute_force", "solve_cycle_relaxation", "zero_correlations"):
        monkeypatch.setattr(shrinkcut.pipeline, name, unreachable)
    message = r"subsolver must be one of \('exact', 'qaoa-sim', 'coin'\), got 'annealer'"
    with pytest.raises(ValueError, match=message):
        if entry == "run_pipeline":
            run_pipeline(g, 3, subsolver="annealer")
        else:
            sweep_shrink_counts(g, subsolvers=("exact", "annealer"))


def test_low_degree_error_says_when_no_target_works():
    # one edge among four vertices: no reduction reaches average degree > 1
    g = build(4, [(0, 1)], [1.0])
    with pytest.raises(PipelineError, match="no target up to 4 reduces to average degree > 1") as err:
        run_pipeline(g, 2, subsolver="qaoa-sim", correlation_mode="zero", n_samples=10, seed=0)
    assert err.value.stage == "solve"


def test_low_degree_error_names_the_failing_sweep_size():
    # K4 deleting 2 leaves one edge between two vertices in either mode
    g = build(4, list(itertools.combinations(range(4), 2)), [1.0] * 6)
    message = ("reduced size 2 has average degree 1 <= 1, so the QAOA parameter estimate is undefined; "
               "target 3 reduces to average degree 2")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep_shrink_counts(g, [2], ("qaoa-sim",), ("zero",))
    with pytest.raises(PipelineError, match=f"^stage 'solve': {re.escape(message)}$"):
        run_pipeline(g, 2, "qaoa-sim", "zero")


@pytest.mark.parametrize("n_samples", [0, -3])
def test_sample_count_must_be_positive(n_samples):
    g = grid_instance(2, 3, 7)
    with pytest.raises(ValueError, match="n_samples"):
        run_pipeline(g, 4, subsolver="coin", n_samples=n_samples)
    with pytest.raises(ValueError, match="n_samples"):
        sweep_shrink_counts(g, subsolvers=("coin",), n_samples=n_samples)


def test_report_record_keys():
    g = grid_instance(2, 3, 8)
    report = run_pipeline(g, 4, subsolver="exact", n_samples=1, seed=0)
    assert list(report.timings) == STAGES
    rec = report.as_record()
    for key in ("vertices", "reduced_size", "offset", "best_cut_value", "mean_cut_value",
                "upper_bound", "c_min", "c_max", "approximation_ratio", "best_assignment"):
        assert key in rec
    assert [k for k in rec if k.startswith("time_")] == [f"time_{stage}" for stage in STAGES]


def test_sweep_shapes_and_shared_bounds():
    g = grid_instance(2, 3, 9)
    cells = sweep_shrink_counts(g, deleted_counts=[0, 1, 2], subsolvers=("exact", "coin"),
                                n_samples=200, seed=0)
    assert len(cells) == 2 * 3 * 2  # modes x deleted x subsolvers
    at_zero = [c for c in cells if c.deleted_vertices == 0 and c.subsolver == "exact"]
    # with no deletions both modes solve the same instance exactly
    assert len({c.ratio for c in at_zero}) == 1
    csv = sweep_to_csv(cells)
    assert csv.splitlines()[0] == "deleted,mode,subsolver,mean_cut,best_cut,ratio"
    assert len(csv.strip().splitlines()) == 1 + len(cells)


def test_sweep_relaxation_exact_stays_optimal_on_grids():
    for seed in (10, 11):
        g = grid_instance(2, 3, seed)
        cells = sweep_shrink_counts(g, subsolvers=("exact",), n_samples=1, seed=0)
        relax = [c for c in cells if c.correlation_mode == "relaxation"]
        assert len(relax) == g.vertex_count
        assert all(c.ratio == pytest.approx(1.0, abs=1e-9) for c in relax)
        zero = sorted(
            (c for c in cells if c.correlation_mode == "zero"),
            key=lambda c: c.deleted_vertices,
        )
        for early, late in zip(zero, zero[1:]):
            assert late.ratio <= early.ratio + 1e-9


def test_sweep_rejects_oversized_instances(monkeypatch):
    rng = np.random.default_rng(12)
    g = random_weighted_graph(25, 0.1, rng)

    def unreachable(*args, **kwargs):
        raise AssertionError("relaxed an instance the oracle cannot bound")

    monkeypatch.setattr(shrinkcut.pipeline, "solve_cycle_relaxation", unreachable)
    with pytest.raises(ValueError, match="^25 vertices exceeds the enumeration cap of 24$"):
        sweep_shrink_counts(g)


def test_an_overflowing_reduced_pair_fails_the_exact_solve():
    # 0 and 1 merge on equal sides, so their edges to 2 sum: at 5e307 each, a
    # finite reduced weight of 1e308 whose -2w step overflowed in the exact
    # solve. That graph is now rejected where it is built, and a pair summed
    # from weights within the limit stays within it
    with pytest.raises(ValueError, match=re.escape("total absolute weight 1e+308 exceeds")):
        WeightedGraph.from_edges(3, [(0, 2, 5e307), (1, 2, 5e307)])
    half = CUT_WEIGHT_LIMIT / 2
    g = WeightedGraph.from_edges(3, [(0, 2, half), (1, 2, half)])
    report = run_pipeline(g, 2, subsolver="exact", correlation_mode="zero", oracle_cap=0)
    assert report.best_cut_value == CUT_WEIGHT_LIMIT


def limit_ring():
    """test_brute_force_enumerates_up_to_the_weight_limit's ring, whose Σ|w| is CUT_WEIGHT_LIMIT exactly."""
    quarter = CUT_WEIGHT_LIMIT / 4
    return WeightedGraph.from_edges(4, [(0, 1, quarter), (1, 2, -quarter), (2, 3, quarter), (0, 3, -quarter)])


def pipeline_values(g, mode):
    r = run_pipeline(g, 3, correlation_mode=mode, seed=1)
    values = (r.offset, r.best_cut_value, r.mean_cut_value, r.upper_bound, r.c_min, r.c_max, r.approximation_ratio)
    return [value for value in values if value is not None]


AT_THE_LIMIT = {
    "brute_force": lambda g: [getattr(brute_force(g), name) for name in ("max_value", "min_value")],
    "spectrum": _spectrum,
    "cut_value_batch": lambda g: cut_value_batch(g, np.array(list(itertools.product([False, True], repeat=4)))),
    "expectation_statevector": lambda g: expectation_statevector(g, QaoaParams(0.3, 0.2)),
    "expectation_analytic": lambda g: expectation_analytic(g, QaoaParams(0.3, 0.2)),
    "grid_search_analytic": lambda g: grid_search(g, 0.5, "analytic").values,
    "grid_search_statevector": lambda g: grid_search(g, 0.5, "statevector").values,
    "qaoa_state_sampled": lambda g: cut_value_batch(g, sample_cuts(qaoa_state(g, QaoaParams(0.3, 0.2)), 100, 1)),
    "pipeline_relaxation": lambda g: pipeline_values(g, "relaxation"),
    "pipeline_zero": lambda g: pipeline_values(g, "zero"),
    "sweep": lambda g: [
        value
        for c in sweep_shrink_counts(g, [0, 1], ("exact", "qaoa-sim", "coin"), seed=1)
        for value in (c.mean_cut_value, c.best_cut_value, c.ratio)
    ],
}


@pytest.mark.parametrize("kernel", sorted(AT_THE_LIMIT))
def test_every_kernel_is_finite_at_the_weight_limit(kernel):
    # the suite's error::RuntimeWarning filter fails any step that overflows
    values = np.asarray(AT_THE_LIMIT[kernel](limit_ring()), dtype=float)
    assert values.size and np.all(np.isfinite(values))


def test_a_sample_mean_whose_sum_overflows_is_finite():
    # numpy's pairwise sum of these reads inf, and nan once both signs overflow
    at_limit = np.full(16, CUT_WEIGHT_LIMIT)
    assert _mean(at_limit) == pytest.approx(CUT_WEIGHT_LIMIT, rel=1e-15)
    at_limit[4:8] = at_limit[12:] = -CUT_WEIGHT_LIMIT
    assert _mean(at_limit) == 0.0


def test_sweep_solves_the_unshrunk_exact_cell_with_the_oracle(monkeypatch):
    # a 0.0 edge and a -0.0 edge, both of which the reduced graph drops: the
    # deleted-0 exact cell takes the oracle enumeration's argmax and must read
    # as the cell solved on the unshrunk reduced graph by its own brute_force
    g = WeightedGraph(5, [0, 0, 0, 1, 2, 3], [1, 2, 4, 3, 4, 4], [0.0, 1.5, 0.5, -0.0, 2.0, -1.0])
    enumerations = []
    matrix_enumeration = shrinkcut.graph.brute_force_matrix
    for module in (shrinkcut.graph, shrinkcut.pipeline):
        monkeypatch.setattr(module, "brute_force_matrix", lambda w: enumerations.append(len(w)) or matrix_enumeration(w))
    cells = sweep_shrink_counts(g, [0, 1], ("exact",), ("zero",), n_samples=10, seed=2)
    assert enumerations == [5, 4]  # the oracle and the deleted-1 cell
    state = ShrinkState(g)
    assert state.reduced.edge_count == 4
    summary = brute_force(g)
    values = cut_value_batch(g, brute_force(state.reduced).argmax[None, :])
    mean = float(values.mean())
    assert cells[0] == SweepCell(0, "zero", "exact", mean, mean, approximation_ratio(mean, summary.min_value, summary.max_value))


def test_unknown_correlation_mode_is_rejected_before_any_work(monkeypatch):
    g = grid_instance(2, 3, 7)

    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the mode was checked")

    for name in ("brute_force", "solve_cycle_relaxation", "zero_correlations"):
        monkeypatch.setattr(shrinkcut.pipeline, name, unreachable)
    with pytest.raises(ValueError, match="correlation mode must be one of .* got 'bogus'"):
        sweep_shrink_counts(g, correlation_modes=("relaxation", "bogus"))
    with pytest.raises(ValueError, match="got 'bogus'"):
        run_pipeline(g, 3, subsolver="exact", correlation_mode="bogus")
    with pytest.raises(ValueError, match="got 'bogus'"):
        shrinkcut.pipeline.correlations_for_mode(g, "bogus")


def test_non_integer_sizes_are_rejected_before_any_work():
    # each used to run on: a 1.5 target shrank to one vertex, a 2.5 target
    # was reported beside a reduced size of 1, a 1.5 deleted count gave no
    # cells, and 2.5 samples failed only inside the solve stage
    g = grid_instance(2, 3, 7)
    with pytest.raises(TypeError, match="^target size must be an integer, got 1.5$"):
        shrink_to_target(g, zero_correlations(6), 1.5)
    with pytest.raises(TypeError, match="^target size must be an integer, got 2.5$"):
        run_pipeline(g, 2.5, "coin", "zero")
    with pytest.raises(TypeError, match="^deleted count must be an integer, got 1.5$"):
        sweep_shrink_counts(g, [1.5], correlation_modes=("zero",))
    with pytest.raises(TypeError, match="^n_samples must be an integer, got 2.5$"):
        run_pipeline(g, 3, "coin", "zero", n_samples=2.5)
    with pytest.raises(TypeError, match="^n_samples must be an integer, got 2.5$"):
        sweep_shrink_counts(g, [1], correlation_modes=("zero",), n_samples=2.5)
    # integer types other than int still work
    assert shrink_to_target(g, zero_correlations(6), np.int64(2)).reduced_size == 2
    assert run_pipeline(g, np.int64(3), "coin", "zero", n_samples=np.int64(5)).target_size == 3


def test_a_bool_sample_count_is_the_int_it_equals():
    g = grid_instance(2, 3, 7)
    # the coin solve used to fail on it, and an exact report to print "n_samples True"
    coin, exact = (run_pipeline(g, 2, subsolver, "zero", n_samples=True) for subsolver in ("coin", "exact"))
    assert coin.n_samples == exact.n_samples == 1 and type(coin.n_samples) is type(exact.n_samples) is int
    assert np.array_equal(coin.best_assignment, run_pipeline(g, 2, "coin", "zero", n_samples=1).best_assignment)
    assert exact.as_record()["n_samples"] == "1"
    cells = sweep_shrink_counts(g, [0, 4], ("coin",), ("zero",), n_samples=True, seed=3)
    assert cells == sweep_shrink_counts(g, [0, 4], ("coin",), ("zero",), n_samples=1, seed=3)


def test_sweep_matches_per_count_shrinks_in_the_callers_order():
    g = random_weighted_graph(7, 0.7, np.random.default_rng(5))
    counts = [5, 0, 5, 3]  # unsorted, with a repeat
    modes = {"relaxation": correlations_from_relaxation(solve_cycle_relaxation(g)),
             "zero": zero_correlations(g.vertex_count)}
    subsolvers = ("exact", "coin")
    contractions = []
    with pytest.MonkeyPatch.context() as mp:
        contract = ShrinkState.contract
        mp.setattr(ShrinkState, "contract", lambda state, *args: contractions.append(args) or contract(state, *args))
        cells = sweep_shrink_counts(g, counts, subsolvers, tuple(modes), n_samples=300, seed=8)
    # one pass per mode down to the largest count
    assert len(contractions) == len(modes) * max(counts)

    summary = brute_force(g)
    master = np.random.default_rng(8)
    expected = []
    for mode, correlations in modes.items():
        for deleted in counts:
            state = shrink_to_target(g, correlations, g.vertex_count - deleted)
            for subsolver in subsolvers:
                samples, _ = _solve_reduced(state, subsolver, 300, int(master.integers(2**63)))
                values = cut_value_batch(g, state.reconstruct(samples))
                mean = float(values.mean())
                ratio = approximation_ratio(mean, summary.min_value, summary.max_value)
                expected.append(SweepCell(deleted, mode, subsolver, mean, float(values.max()), ratio))
    assert cells == expected
    # each occurrence of the repeated count draws its own samples
    coin_at_5 = [c for c in cells if c.deleted_vertices == 5 and c.subsolver == "coin"]
    assert len(coin_at_5) == 4 and coin_at_5[0] != coin_at_5[1]

    for bad in ([7], [-1], [0, 3, 7]):
        with pytest.raises(ValueError, match=f"deleted count {bad[-1]} outside"):
            sweep_shrink_counts(g, bad, subsolvers, n_samples=10)


def lift_and_score_per_row(g, state, samples):
    """Reference: lift each sample by walking the recorded contractions from
    every vertex up to its surviving super-vertex, score each row alone."""
    link = {r.removed: (r.kept, r.sign) for r in state.records}
    pos = {v: i for i, v in enumerate(v for v in range(g.vertex_count) if v not in link)}
    lifted = np.zeros((len(samples), g.vertex_count), dtype=bool)
    for k, row in enumerate(samples):
        for vertex in range(g.vertex_count):
            node, flip = vertex, False
            while node in link:
                node, sign = link[node]
                flip ^= sign < 0
            lifted[k, vertex] = bool(row[pos[node]]) ^ flip
    return lifted, np.array([cut_value_batch(g, row[None, :])[0] for row in lifted])


def test_batched_lift_reproduces_per_row_reference():
    g = random_weighted_graph(7, 0.7, np.random.default_rng(21))
    for subsolver in ("qaoa-sim", "coin"):
        report = run_pipeline(g, 5, subsolver=subsolver, correlation_mode="zero", n_samples=300, seed=4)
        state = shrink_to_target(g, zero_correlations(g.vertex_count), 5)
        samples, _ = _solve_reduced(state, subsolver, 300, 4)
        lifted, values = lift_and_score_per_row(g, state, samples)
        best = int(np.argmax(values))
        assert report.mean_cut_value == float(values.mean())
        assert report.best_cut_value == values[best]
        assert np.array_equal(report.best_assignment, lifted[best])

    summary = brute_force(g)
    modes = {"relaxation": correlations_from_relaxation(solve_cycle_relaxation(g)),
             "zero": zero_correlations(g.vertex_count)}
    subsolvers = ("exact", "qaoa-sim", "coin")
    cells = sweep_shrink_counts(g, [0, 1, 2], subsolvers, tuple(modes), n_samples=300, seed=4)
    master = np.random.default_rng(4)
    expected = []
    for mode, correlations in modes.items():
        for deleted in (0, 1, 2):
            state = shrink_to_target(g, correlations, g.vertex_count - deleted)
            for subsolver in subsolvers:
                samples, _ = _solve_reduced(state, subsolver, 300, int(master.integers(2**63)))
                _, values = lift_and_score_per_row(g, state, samples)
                mean = float(values.mean())
                ratio = approximation_ratio(mean, summary.min_value, summary.max_value)
                expected.append(SweepCell(deleted, mode, subsolver, mean, float(values.max()), ratio))
    assert cells == expected


@pytest.mark.parametrize("mode", ["relaxation", "zero"])
@pytest.mark.parametrize("subsolver", ["coin", "exact"])
def test_reduced_column_scoring_matches_full_lift(mode, subsolver):
    # run_pipeline and the sweep score reduced samples through the lift map
    # and lift only the best row; the reference lifts every sample and scores
    # it on the whole graph, and the values must agree to the last bit
    rng = np.random.default_rng(31)
    for trial in range(4):
        n = int(rng.integers(5, 10))
        g = random_weighted_graph(n, 0.7, rng)
        target = int(rng.integers(2, n))
        if mode == "relaxation":
            correlations = correlations_from_relaxation(solve_cycle_relaxation(g))
        else:
            correlations = zero_correlations(n)
        state = shrink_to_target(g, correlations, target)

        def reference(seed):
            samples, _ = _solve_reduced(state, subsolver, 200, seed)
            lifted = state.reconstruct(samples)
            return lifted, cut_value_batch(g, lifted)

        report = run_pipeline(g, target, subsolver=subsolver, correlation_mode=mode, n_samples=200, seed=trial)
        lifted, values = reference(trial)
        best = int(np.argmax(values))
        assert np.float64(report.mean_cut_value).tobytes() == values.mean().tobytes()
        assert np.float64(report.best_cut_value).tobytes() == values[best].tobytes()
        assert np.array_equal(report.best_assignment, lifted[best])

        [cell] = sweep_shrink_counts(g, [n - target], (subsolver,), (mode,), n_samples=200, seed=trial)
        _, values = reference(int(np.random.default_rng(trial).integers(2**63)))
        assert np.float64(cell.mean_cut_value).tobytes() == values.mean().tobytes()
        assert np.float64(cell.best_cut_value).tobytes() == values.max().tobytes()
        # a lift map must not read outside the samples it is given: past
        # their last column, or before the first, where -1 would wrap round
        columns, flip = state.lift_map
        for width, lift in ((target - 1, state.lift_map), (target, (columns - 1, flip))):
            with pytest.raises(ValueError, match="lift reads column"):
                cut_value_batch(g, np.zeros((3, width), dtype=bool), lift)
        # an integer flip scored an all-zero flip's lift as 0.0 with no error
        for lift in ((columns[:-1], flip), (columns, flip.astype(int))):
            with pytest.raises(ValueError, match=rf"lift needs columns and a boolean flip of shape \({n},\)"):
                cut_value_batch(g, np.zeros((3, target), dtype=bool), lift)


def test_trace_boundaries_resolve():
    # the benchmark's tracer rebinds names the program looks up at run time
    # and skips the ones it no longer has, whose metrics would then read 0.
    # Only the stale names the benchmark itself still lists may be missing.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bound():
        names = ("cut_value_batch", "shrink_to_target", "zero_correlations")
        return [getattr(shrinkcut.pipeline, name) for name in names] + [ShrinkState.reconstruct, ShrinkState.reduced]

    before = bound()
    tracer = tracing.Tracer()
    roots = tracer.install()
    try:
        assert set(tracer.missing) <= {
            "shrinkcut.relaxation.separate_triangles",
            "shrinkcut.pipeline.dense_closure",
            "shrinkcut.qaoa.cut_values_for_indices",
            "shrinkcut.graph.cut_values_for_indices",
        }
        tracer.active = True
        roots["run_pipeline"](grid_instance(3, 4, 2), 5, subsolver="coin", correlation_mode="zero", n_samples=50)
    finally:
        tracer.active = False
        tracer.uninstall()
    spans, _ = tracer.take()
    called = {name for name, *_ in spans}
    assert {"shrink.correlations", "shrink.shrink_to_target", "shrink.reduced"} <= called
    assert {"graph.cut_value_batch", "shrink.reconstruct"} <= called
    assert bound() == before


def test_relaxation_pipeline_leaves_scipy_unloaded():
    # the relax path runs on numpy alone; importing scipy would add tens of MB
    # of RSS to every relaxation-mode run
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from shrinkcut import run_pipeline\n"
        "from shrinkcut.instances import build, grid_pairs, sign_weights\n"
        "g = build(16, grid_pairs(4, 4), sign_weights(24, np.random.default_rng(1)))\n"
        "report = run_pipeline(g, 8, subsolver='exact', correlation_mode='relaxation', n_samples=1)\n"
        "assert report.upper_bound == report.best_cut_value == 10.0, report.as_record()\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
