import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    LpProblem,
    WeightedGraph,
    brute_force,
    dense_closure,
    lp_solve,
    parse_instance,
    separate_triangles,
    solve_cycle_relaxation,
)
from shrinkcut.instances import build, grid_pairs, random_weighted_graph, sign_weights, unit, complete_pairs
from shrinkcut.relaxation import (
    format_solution,
    iter_pairs,
    pair_count,
    pair_index,
    pair_matrix,
    triangle_rows,
)


def test_pair_index_orders_lexicographically():
    n = 6
    for flat, (u, v) in enumerate(iter_pairs(n)):
        assert pair_index(u, v, n) == flat
    assert pair_count(n) == 15


def test_lp_solve_triangle_cap():
    # unit K3 with only the sum form: max x01+x02+x12 s.t. sum <= 2
    problem = LpProblem(np.ones(3), *triangle_rows(np.array([[0, 1, 2, 4]]), 3))
    x, value = lp_solve(problem)
    assert value == pytest.approx(2.0)


def test_separation_trivial_points():
    n = 3
    assert separate_triangles(np.zeros(3), n).shape == (0, 4)
    assert separate_triangles(np.full(3, 0.5), n).shape == (0, 4)
    violated = separate_triangles(np.ones(3), n)
    assert len(violated) == 1
    assert violated[0, 3] == 4
    rows, rhs = triangle_rows(violated, n)
    assert rows[0] @ np.ones(3) - rhs[0] == pytest.approx(1.0)


def test_separation_orders_by_violation():
    # pair (0,1) at 1 while the others at 0 violates variant 1 only
    n = 3
    x = np.array([1.0, 0.0, 0.0])
    violated = separate_triangles(x, n)
    assert violated[:, 3].tolist() == [1]


def test_separation_cap():
    n = 8
    x = np.ones(pair_count(n))
    assert len(separate_triangles(x, n, cap=10)) == 10


def separate_per_triple(x, n, tol, cap):
    """Reference: each triangle inequality checked on its own, then sorted by
    violation, ties by (t, u, v, variant)."""
    found = []
    for t, u, v in itertools.combinations(range(n), 3):
        a, b, c = x[pair_index(t, u, n)], x[pair_index(u, v, n)], x[pair_index(t, v, n)]
        for variant, lhs in enumerate((a - b - c, -a + b - c, -a - b + c, a + b + c - 2.0), start=1):
            if lhs > tol:
                found.append((-lhs, t, u, v, variant))
    found.sort()
    return [list(rec[1:]) for rec in found[:cap]]


@st.composite
def separation_cases(draw):
    """A point on n = 0..10 vertices, on a quarter grid (many ties) or uniform."""
    n = draw(st.integers(0, 10))
    value = draw(st.sampled_from([st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0, 1)]))
    x = np.array(draw(st.lists(value, min_size=pair_count(n), max_size=pair_count(n))))
    tol = draw(st.sampled_from([0.0, 1e-6, 0.3]))
    cap = draw(st.integers(0, 200))
    return x, n, tol, cap


@settings(deadline=None)
@given(separation_cases())
def test_separation_matches_per_triple_reference(case):
    x, n, tol, cap = case
    cuts = separate_triangles(x, n, tol, cap)
    assert cuts.shape == (len(cuts), 4)
    assert cuts.tolist() == separate_per_triple(x, n, tol, cap)


@st.composite
def triangle_cuts(draw):
    """Up to 20 ((t, u, v), variant) cuts on n = 3..9 vertices."""
    n = draw(st.integers(3, 9))
    triple = st.sampled_from(list(itertools.combinations(range(n), 3)))
    return n, draw(st.lists(st.tuples(triple, st.integers(1, 4)), max_size=20))


@settings(deadline=None)
@given(triangle_cuts())
def test_triangle_rows_match_per_pair_fill(case):
    n, cuts = case
    signs = {1: (1, -1, -1), 2: (-1, 1, -1), 3: (-1, -1, 1), 4: (1, 1, 1)}
    ref_rows = np.zeros((len(cuts), pair_count(n)))
    ref_rhs = np.zeros(len(cuts))
    for r, ((t, u, v), variant) in enumerate(cuts):
        for (p, q), sign in zip(((t, u), (u, v), (t, v)), signs[variant]):
            ref_rows[r, pair_index(p, q, n)] = sign
        ref_rhs[r] = 2.0 if variant == 4 else 0.0
    rows, rhs = triangle_rows(np.array([[*tri, variant] for tri, variant in cuts], dtype=int).reshape(-1, 4), n)
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(rhs, ref_rhs)


# below the simplex's 1e-6 feasibility tolerance (0 and 1e-7) a row already in
# the model can count as violated, and separation stalls
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 1e-7])
def test_relaxation_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and at least the simplex's feasibility tolerance 1e-06"):
        solve_cycle_relaxation(unit(3, complete_pairs(3)), tol)


@pytest.mark.parametrize("cap", [0, -1])
def test_relaxation_rejects_cap_below_one(cap):
    with pytest.raises(ValueError, match="per_round_cap"):
        solve_cycle_relaxation(unit(3, complete_pairs(3)), per_round_cap=cap)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e9])
def test_relaxation_bound_independent_of_weight_scale(scale):
    # a path of two tiny edges must not fall under the simplex's cost tolerance
    g = WeightedGraph.from_edges(3, [(0, 2, scale), (1, 2, scale)])
    best = brute_force(g).max_value
    assert solve_cycle_relaxation(dense_closure(g)).objective_value >= best * (1 - 1e-9)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    weight = st.one_of(st.none(), st.floats(-10, 10))
    pairs = list(itertools.combinations(range(n), 2))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w is not None])


@settings(deadline=None)
@given(small_graphs())
def test_relaxation_bounds_max_cut(g):
    sol = solve_cycle_relaxation(dense_closure(g))
    # weights below the simplex's cost tolerance times the largest |weight| may be left out
    assert sol.objective_value >= brute_force(g).max_value - 1e-6


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_relaxation_exact_on_two_row_grids(cols, seed):
    # 2 x k grids are planar, so the cycle relaxation is exact
    pairs = grid_pairs(2, cols)
    g = build(2 * cols, pairs, sign_weights(len(pairs), np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(dense_closure(g))
    assert sol.objective_value == pytest.approx(brute_force(g).max_value, abs=1e-6)


def test_relaxation_k2():
    g = parse_instance("2 1\n1 2 1")
    sol = solve_cycle_relaxation(g)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_relaxation_requires_dense_closure():
    g = parse_instance("3 2\n1 2 1\n2 3 1")
    with pytest.raises(ValueError):
        solve_cycle_relaxation(g)
    solve_cycle_relaxation(dense_closure(g))


def test_relaxation_k5_gap():
    g = unit(5, complete_pairs(5))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(20.0 / 3.0, abs=1e-6)
    assert brute_force(g).max_value == 6.0


def test_relaxation_upper_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(8):
        g = random_weighted_graph(7, 0.5, rng)
        sol = solve_cycle_relaxation(dense_closure(g))
        assert sol.objective_value >= brute_force(g).max_value - 1e-6


def test_relaxation_monotone_rounds_and_box():
    rng = np.random.default_rng(1)
    g = random_weighted_graph(8, 0.6, rng)
    sol = solve_cycle_relaxation(dense_closure(g))
    for earlier, later in zip(sol.round_values, sol.round_values[1:]):
        assert later <= earlier + 1e-9
    assert np.all(sol.x >= -1e-9)
    assert np.all(sol.x <= 1 + 1e-9)


def test_relaxation_grid_integrality():
    rng = np.random.default_rng(2)
    pairs = grid_pairs(2, 3)
    g = build(6, pairs, sign_weights(len(pairs), rng))
    sol = solve_cycle_relaxation(dense_closure(g))
    assert sol.objective_value == pytest.approx(brute_force(g).max_value, abs=1e-6)
    # the bundled solver lands on an integral basic optimum here
    assert np.abs(sol.x - np.round(sol.x)).max() < 1e-6


def test_relaxation_final_point_satisfies_triangles():
    rng = np.random.default_rng(3)
    g = random_weighted_graph(7, 0.7, rng)
    sol = solve_cycle_relaxation(dense_closure(g))
    assert separate_triangles(sol.x, sol.n).shape == (0, 4)


def test_solution_dump_format():
    g = parse_instance("2 1\n1 2 1")
    sol = solve_cycle_relaxation(g)
    assert format_solution(sol) == "0 1 1\n"


def test_x_of_and_matrix_agree():
    rng = np.random.default_rng(4)
    g = random_weighted_graph(6, 0.5, rng)
    sol = solve_cycle_relaxation(dense_closure(g))
    m = sol.to_matrix()
    for u, v in iter_pairs(6):
        assert m[u, v] == sol.x_of(u, v) == sol.x_of(v, u)


def test_pair_matrix_matches_pairwise_fill():
    n = 7
    x = np.random.default_rng(5).uniform(size=pair_count(n))
    reference = np.zeros((n, n))
    for (u, v), val in zip(iter_pairs(n), x):
        reference[u, v] = reference[v, u] = val
    assert np.array_equal(pair_matrix(x, n), reference)
    assert pair_matrix(np.zeros(0), 1).shape == (1, 1)


# (constraints_added, round_values, round_pivots) of the 4x4 +-1 grids built
# from seeds 1..4. The simplex's pivot rules decide which optimal vertex each
# round returns, so any change to them shows here; the values are compared
# exactly.
PINNED_GRIDS = {
    1: (508, (13.0, 13.0, 10.0), (0, 86, 101)),
    2: (282, (10.0, 10.0, 8.0), (0, 72, 28)),
    3: (446, (9.0, 9.0, 4.999999999999997, 4.9999999999999964), (0, 80, 97, 5)),
    4: (536, (15.0, 15.0, 10.0, 9.999999999999995), (0, 94, 71, 40)),
}


@pytest.mark.parametrize("seed", sorted(PINNED_GRIDS))
def test_grid_relaxation_pivots_pinned(seed):
    pairs = grid_pairs(4, 4)
    g = build(16, pairs, sign_weights(24, np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(dense_closure(g))
    rows, values, pivots = PINNED_GRIDS[seed]
    assert sol.constraints_added == rows
    assert sol.round_values == values
    assert sol.round_pivots == pivots
    assert sol.rounds == len(values)


@pytest.mark.parametrize("rows, cols, seed", [(3, 6, 11), (3, 5, 9)])
def test_relaxation_exact_on_grids_that_drifted(rows, cols, seed):
    # planar grids make the relaxation exact; on these two, a simplex that
    # restarts from the slack basis every round drifts (3x6) or cycles (3x5)
    pairs = grid_pairs(rows, cols)
    g = build(rows * cols, pairs, sign_weights(len(pairs), np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(dense_closure(g))
    assert sol.objective_value == pytest.approx(brute_force(g).max_value, abs=1e-6)


def test_relaxation_5x5_grid():
    # the 5x5 grid drawn after the 3x3, 4x4 and 4x5 grids of one generator
    rng = np.random.default_rng(77)
    for rows, cols in ((3, 3), (4, 4), (4, 5), (5, 5)):
        pairs = grid_pairs(rows, cols)
        g = build(rows * cols, pairs, sign_weights(len(pairs), rng))
    sol = solve_cycle_relaxation(dense_closure(g))
    assert sol.objective_value == pytest.approx(12.0, abs=1e-6)
    assert len(sol.round_pivots) == sol.rounds
