"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
and the reported deviation values.
"""

import math
import time

import numpy as np

from shrinkcut import (
    QaoaParams,
    WeightedGraph,
    brute_force,
    cut_value_batch,
    dense_closure,
    deviation_ratio,
    estimate_parameters,
    expectation_analytic,
    expectation_statevector,
    grid_search,
    run_pipeline,
    shrink_to_target,
    solve_cycle_relaxation,
    sweep_shrink_counts,
)
from shrinkcut.graph import index_to_assignment
from shrinkcut.instances import (
    build,
    circulant_pairs,
    complete_bipartite_pairs,
    complete_pairs,
    grid_pairs,
    normal_weights,
    random_pairs,
    random_weighted_graph,
    ring_pairs,
    ring_with_chord_pairs,
    sign_weights,
    star_pairs,
    triangle_free_ring_pairs,
    unit,
)


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_matches_statevector():
    """>= 100 random cases, n <= 10, |analytic - statevector| <= 1e-9, < 10 s."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    while cases < 100:
        n = int(rng.integers(2, 11))
        kind = "sign" if cases % 2 else "normal"
        g = random_weighted_graph(n, 0.5, rng, kind)
        gamma, beta = (float(x) for x in rng.uniform(0.0, math.pi / 2, size=2))
        p = QaoaParams(gamma, beta)
        worst = max(worst, abs(expectation_analytic(g, p) - expectation_statevector(g, p)))
        cases += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"{cases} cases, worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_parameters_are_optimal():
    """Estimate beats a 0.01-step grid on triangle-free regular +-a graphs; < 30 s."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    families = [
        ("4-ring", 4, ring_pairs(4), 2),
        ("6-ring", 6, ring_pairs(6), 2),
        ("K33", 6, complete_bipartite_pairs(3, 3), 3),
    ]
    ok = True
    details = []
    for name, n, pairs, degree in families:
        for a in (1.0, 2.5):
            g = build(n, pairs, a * sign_weights(len(pairs), rng))
            params = estimate_parameters(g)
            assert params.gamma == math.atan(1.0 / math.sqrt(degree - 1)) / a
            value = expectation_analytic(g, params)
            fine = grid_search(g, 0.01, "analytic")
            coarse = grid_search(g, 0.1, "analytic")
            dev = deviation_ratio(coarse, value)
            beats = value >= fine.max_value - 1e-9
            ok = ok and beats and dev == 0.0
            details.append(f"{name}/a={a}: beats={beats} dev={dev}")
    elapsed = time.perf_counter() - start
    report(2, ok and elapsed < 30.0, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_3_estimate_quality_on_reference_families():
    """Deviation <= 0.15 on 4-vertex families, <= 0.05 on 100-vertex analogs."""
    rng = np.random.default_rng(42)
    four_vertex = {
        "ring": ring_pairs(4),
        "star": star_pairs(4),
        "complete": complete_pairs(4),
        "ring-with-chord": ring_with_chord_pairs(4),
    }
    devs = {}
    ok = True
    for name, pairs in four_vertex.items():
        for kind in ("sign", "normal"):
            w = sign_weights(len(pairs), rng) if kind == "sign" else normal_weights(len(pairs), rng)
            g = build(4, pairs, w)
            value = expectation_analytic(g, estimate_parameters(g))
            dev = deviation_ratio(grid_search(g, 0.1, "analytic"), value)
            devs[f"{name}/{kind}"] = dev
            ok = ok and dev <= 0.15

    hundred = {
        "100reg": circulant_pairs(100, [1, 2, 3, 4, 5]),
        "100trf": triangle_free_ring_pairs(100, 300, rng),
        "100rand": random_pairs(100, 0.2, rng),
    }
    for name, pairs in hundred.items():
        g = build(100, pairs, normal_weights(len(pairs), rng))
        value = expectation_analytic(g, estimate_parameters(g))
        dev = deviation_ratio(grid_search(g, 0.1, "analytic"), value)
        devs[name] = dev
        ok = ok and dev <= 0.05

    detail = ", ".join(f"{k}={v:.3f}" for k, v in devs.items())
    report(3, ok, detail)


def test_criterion_4_relaxation_integral_on_planar_grids():
    """20 random +-1 grids: LP objective equals the exact maximum; < 60 s."""
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    shapes = [(2, 3)] * 7 + [(3, 3)] * 7 + [(4, 4)] * 6
    worst = 0.0
    for rows, cols in shapes:
        pairs = grid_pairs(rows, cols)
        g = build(rows * cols, pairs, sign_weights(len(pairs), rng))
        sol = solve_cycle_relaxation(dense_closure(g))
        worst = max(worst, abs(sol.objective_value - brute_force(g).max_value))
    elapsed = time.perf_counter() - start
    report(4, worst <= 1e-6 and elapsed < 60.0, f"worst |LP - exact| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_k5_integrality_gap():
    """All-ones K5: relaxation 20/3, exact maximum 6."""
    g = unit(5, complete_pairs(5))
    sol = solve_cycle_relaxation(g)
    exact = brute_force(g).max_value
    ok = abs(sol.objective_value - 20.0 / 3.0) <= 1e-6 and exact == 6.0
    report(5, ok, f"LP {sol.objective_value:.9f}, exact {exact}")


def test_criterion_6_shrink_conservation_exact():
    """50 random instances, random contractions to every size, exact lifting; < 60 s."""
    rng = np.random.default_rng(555)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 11))
        g = random_weighted_graph(n, 0.5, rng, "sign" if trial % 2 else "normal")
        corr = WeightedGraph(n, *np.triu_indices(n, 1), [rng.uniform(-1, 1) for _ in range(n * (n - 1) // 2)])
        for k in range(1, n + 1):
            state = shrink_to_target(g, corr, k)
            reduced = state.reduced
            assignments = np.array(
                [index_to_assignment(i, k) for i in range(1 << k)], dtype=bool
            ).reshape(1 << k, k)
            lifted = np.stack([state.reconstruct(a) for a in assignments])
            original_values = cut_value_batch(g, lifted)
            reduced_values = cut_value_batch(reduced, assignments) + state.offset
            worst = max(worst, float(np.abs(original_values - reduced_values).max()))
    elapsed = time.perf_counter() - start
    report(6, worst <= 1e-9 and elapsed < 60.0, f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_relaxation_shrinking_preserves_optimality():
    """2x3 and 3x3 +-1 grids, exact subsolver at target 4: 20/20 optimal."""
    rng = np.random.default_rng(2024)
    hits = 0
    for trial in range(20):
        rows, cols = (2, 3) if trial % 2 == 0 else (3, 3)
        pairs = grid_pairs(rows, cols)
        g = build(rows * cols, pairs, sign_weights(len(pairs), rng))
        rep = run_pipeline(g, 4, subsolver="exact", correlation_mode="relaxation", n_samples=1, seed=0)
        if rep.best_cut_value == brute_force(g).max_value:
            hits += 1
    report(7, hits == 20, f"{hits}/20 optimal")


def test_criterion_8_ratio_monotonicity_in_shrink_count():
    """Exact subsolver: ratio 1.0 under relaxation correlations at every count,
    non-increasing under zero correlations."""
    rng = np.random.default_rng(99)
    ok = True
    details = []
    for i in range(4):
        rows, cols = [(2, 3), (3, 3)][i % 2]
        pairs = grid_pairs(rows, cols)
        g = build(rows * cols, pairs, sign_weights(len(pairs), rng))
        cells = sweep_shrink_counts(g, subsolvers=("exact",), n_samples=1, seed=0)
        relax = sorted(
            (c for c in cells if c.correlation_mode == "relaxation"),
            key=lambda c: c.deleted_vertices,
        )
        zero = sorted(
            (c for c in cells if c.correlation_mode == "zero"),
            key=lambda c: c.deleted_vertices,
        )
        flat = all(abs(c.ratio - 1.0) <= 1e-9 for c in relax)
        monotone = all(b.ratio <= a.ratio + 1e-9 for a, b in zip(zero, zero[1:]))
        ok = ok and flat and monotone
        details.append(f"{rows}x{cols}: relax-flat={flat} zero-monotone={monotone}")
    report(8, ok, "; ".join(details))


def test_criterion_9_coin_baseline_matches_half_total():
    """Uniform assignments: mean within 3 sigma of half the total weight, 5 instances."""
    rng = np.random.default_rng(5)
    n_samples = 10000
    ok = True
    zs = []
    for trial in range(5):
        g = random_weighted_graph(8, 0.6, rng, "sign" if trial % 2 else "normal")
        rep = run_pipeline(
            g, 8, subsolver="coin", correlation_mode="zero", n_samples=n_samples, seed=trial
        )
        half = g.total_weight() / 2
        sigma = math.sqrt(sum(w * w for _, _, w in g.edges) / 4 / n_samples)
        z = abs(rep.mean_cut_value - half) / sigma
        zs.append(z)
        ok = ok and z <= 3.0
    report(9, ok, "z-scores " + ", ".join(f"{z:.2f}" for z in zs))
