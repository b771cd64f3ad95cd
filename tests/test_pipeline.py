import math

import numpy as np
import pytest

from shrinkcut import (
    PipelineError,
    approximation_ratio,
    brute_force,
    correlations_from_relaxation,
    cut_value_batch,
    dense_closure,
    run_pipeline,
    shrink_to_target,
    solve_cycle_relaxation,
    sweep_shrink_counts,
    sweep_to_csv,
    zero_correlations,
)
from shrinkcut.instances import build, grid_pairs, random_weighted_graph, sign_weights
from shrinkcut.pipeline import SweepCell, _solve_reduced


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
    with pytest.raises(ValueError):
        run_pipeline(g, 3, subsolver="annealer")


def test_low_degree_error_says_when_no_target_works():
    # one edge among four vertices: no reduction reaches average degree > 1
    g = build(4, [(0, 1)], [1.0])
    with pytest.raises(PipelineError, match="no target up to 4 reduces to average degree > 1") as err:
        run_pipeline(g, 2, subsolver="qaoa-sim", correlation_mode="zero", n_samples=10, seed=0)
    assert err.value.stage == "solve"


@pytest.mark.parametrize("n_samples", [0, -3])
def test_sample_count_must_be_positive(n_samples):
    g = grid_instance(2, 3, 7)
    with pytest.raises(ValueError, match="n_samples"):
        run_pipeline(g, 4, subsolver="coin", n_samples=n_samples)
    with pytest.raises(ValueError, match="n_samples"):
        sweep_shrink_counts(g, subsolvers=("coin",), n_samples=n_samples)


def test_report_record_keys():
    g = grid_instance(2, 3, 8)
    rec = run_pipeline(g, 4, subsolver="exact", n_samples=1, seed=0).as_record()
    for key in ("vertices", "reduced_size", "offset", "best_cut_value", "mean_cut_value",
                "upper_bound", "c_min", "c_max", "approximation_ratio", "best_assignment"):
        assert key in rec
    assert any(k.startswith("time_") for k in rec)


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


def test_sweep_rejects_oversized_instances():
    rng = np.random.default_rng(12)
    g = random_weighted_graph(30, 0.1, rng)
    with pytest.raises(ValueError):
        sweep_shrink_counts(g)


def lift_and_score_per_row(g, state, samples):
    """Reference: lift each sample by union-find lookups, score each row alone."""
    pos = {int(r): i for i, r in enumerate(state.active_vertices())}
    lifted = np.zeros((len(samples), g.vertex_count), dtype=bool)
    for k, row in enumerate(samples):
        for vertex in range(g.vertex_count):
            root, sign = state.find(vertex)
            lifted[k, vertex] = bool(row[pos[root]]) ^ (sign < 0)
    return lifted, np.array([cut_value_batch(g, row[None, :])[0] for row in lifted])


def test_batched_lift_reproduces_per_row_reference():
    g = random_weighted_graph(7, 0.7, np.random.default_rng(21))
    for subsolver in ("qaoa-sim", "coin"):
        report = run_pipeline(g, 5, subsolver=subsolver, correlation_mode="zero", n_samples=300, seed=4)
        state = shrink_to_target(g, zero_correlations(g.vertex_count), 5)
        lifted, values = lift_and_score_per_row(g, state, _solve_reduced(state.reduced, subsolver, 300, 4))
        best = int(np.argmax(values))
        assert report.mean_cut_value == float(values.mean())
        assert report.best_cut_value == values[best]
        assert np.array_equal(report.best_assignment, lifted[best])

    summary = brute_force(g)
    modes = {"relaxation": correlations_from_relaxation(solve_cycle_relaxation(dense_closure(g))),
             "zero": zero_correlations(g.vertex_count)}
    subsolvers = ("exact", "qaoa-sim", "coin")
    cells = sweep_shrink_counts(g, [0, 1, 2], subsolvers, tuple(modes), n_samples=300, seed=4)
    master = np.random.default_rng(4)
    expected = []
    for mode, correlations in modes.items():
        for deleted in (0, 1, 2):
            state = shrink_to_target(g, correlations, g.vertex_count - deleted)
            for subsolver in subsolvers:
                samples = _solve_reduced(state.reduced, subsolver, 300, int(master.integers(2**63)))
                _, values = lift_and_score_per_row(g, state, samples)
                mean = float(values.mean())
                ratio = approximation_ratio(mean, summary.min_value, summary.max_value)
                expected.append(SweepCell(deleted, mode, subsolver, mean, float(values.max()), ratio))
    assert cells == expected
