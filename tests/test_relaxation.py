import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinkcut import (
    LpProblem,
    SimplexError,
    WeightedGraph,
    brute_force,
    dense_closure,
    lp_solve,
    parse_instance,
    separate_odd_cycles,
    solve_cycle_relaxation,
)
from shrinkcut.instances import build, grid_pairs, random_weighted_graph, sign_weights, unit, complete_pairs
from shrinkcut.relaxation import format_solution


def test_lp_solve_triangle_cap():
    # unit K3 with only the sum form: max x01+x02+x12 s.t. sum <= 2
    problem = LpProblem(np.ones(3), np.ones((1, 3)), np.array([2.0]))
    x, value = lp_solve(problem)
    assert value == pytest.approx(2.0)


def test_separation_trivial_points():
    g = unit(3, complete_pairs(3))
    assert separate_odd_cycles(np.zeros(3), g)[0].shape == (0, 3)
    assert separate_odd_cycles(np.full(3, 0.5), g)[0].shape == (0, 3)
    rows, rhs = separate_odd_cycles(np.ones(3), g)
    assert rows.tolist() == [[1.0, 1.0, 1.0]]
    assert rhs.tolist() == [2.0]
    assert rows[0] @ np.ones(3) - rhs[0] == pytest.approx(1.0)


def test_separation_five_cycle_row():
    # x = 1 on (0, 1), (1, 2), (3, 4) and 0.25 on (0, 4), (2, 3): with F the
    # three edges at 1, x(F) - x(C minus F) = 2.5 > |F| - 1 = 2
    g = unit(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ends = np.column_stack((g.u, g.v))
    x = np.array([1.0, 0.25, 1.0, 0.25, 1.0])  # ends order: 01, 04, 12, 23, 34
    rows, rhs = separate_odd_cycles(x, g)
    assert ends.tolist() == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    assert rows.tolist() == [[1.0, -1.0, 1.0, -1.0, 1.0]]
    assert rhs.tolist() == [2.0]
    assert rows[0] @ x - rhs[0] == pytest.approx(0.5)


def test_separation_orders_by_violation():
    # two disjoint triangles: on 0-1-2 the sum form is violated by 0.5, on
    # 3-4-5 by 1; the larger violation comes first although its vertices
    # come later
    g = unit(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    x = np.array([1.0, 1.0, 0.5, 1.0, 1.0, 1.0])
    rows, rhs = separate_odd_cycles(x, g)
    assert rows.tolist() == [[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]]
    assert rhs.tolist() == [2.0, 2.0]


def test_separation_cap():
    # one shortest path per vertex: at most n rows per call, however many
    # triangles the point violates (all 56 of K8 here, each by 1)
    n = 8
    g = unit(n, complete_pairs(n))
    rows, rhs = separate_odd_cycles(np.ones(g.edge_count), g)
    assert 1 <= len(rows) <= n
    assert np.all((rows == 1).sum(axis=1) == 3) and np.all(rows >= 0)
    assert np.all(rhs == 2.0)


def cycle_violation(x, cycle):
    """Largest violation over odd subsets F of the cycle's edges (given as
    edge indices): x(F) - x(C minus F) - (|F| - 1)."""
    best = -np.inf
    for size in range(1, len(cycle) + 1, 2):
        for f in itertools.combinations(cycle, size):
            rest = [e for e in cycle if e not in f]
            best = max(best, x[list(f)].sum() - x[rest].sum() - (size - 1))
    return best


def simple_cycles(g):
    """Every simple cycle of length >= 3 of the graph, as a tuple of edge indices."""
    index = {(u, v): e for e, (u, v, _) in enumerate(g.edges)}
    index.update({(v, u): e for (u, v), e in list(index.items())})
    found = set()
    for length in range(3, g.vertex_count + 1):
        for tour in itertools.permutations(range(g.vertex_count), length):
            if tour[0] != min(tour):
                continue
            steps = list(zip(tour, tour[1:] + tour[:1]))
            if all(step in index for step in steps):
                found.add(tuple(sorted(index[step] for step in steps)))
    return found


@st.composite
def graph_points(draw, max_n=6, complete=False):
    """A point on the edges of a unit graph on n = 0..max_n vertices (complete,
    or with random edges), on a quarter grid (many ties and zero-length paths)
    or uniform, the graph, and a tolerance."""
    n = draw(st.integers(0, max_n))
    g = unit(n, [p for p in itertools.combinations(range(n), 2) if complete or draw(st.booleans())])
    value = draw(st.sampled_from([st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0, 1)]))
    x = np.array(draw(st.lists(value, min_size=g.edge_count, max_size=g.edge_count)))
    tol = draw(st.sampled_from([1e-6, 0.3]))
    return x, g, tol


@settings(deadline=None)
@given(graph_points())
def test_separation_finds_the_most_violated_cycle(case):
    # exactness: the first row is violated as much as any odd-cycle
    # inequality of the graph, found by enumerating every cycle and subset
    x, g, tol = case
    rows, rhs = separate_odd_cycles(x, g, tol)
    worst = max((cycle_violation(x, c) for c in simple_cycles(g)), default=-np.inf)
    if worst > tol + 1e-12:
        assert rows[0] @ x - rhs[0] == pytest.approx(worst, abs=1e-12)
    elif worst < tol - 1e-12:
        assert len(rows) == 0


@settings(deadline=None)
@given(graph_points(max_n=9))
def test_cycle_rows_are_violated_simple_odd_cycles(case):
    # every row, filled edge by edge from its cycle: +-1 on the edges of one
    # simple cycle, an odd number of +1, rhs |F| - 1, violated beyond tol;
    # rows are distinct and come most violated first
    x, g, tol = case
    rows, rhs = separate_odd_cycles(x, g, tol)
    ends = np.column_stack((g.u, g.v))
    assert rows.shape == (len(rhs), len(ends))
    violations = rows @ x - rhs
    for row, b, violation in zip(rows, rhs, violations):
        support = np.flatnonzero(row)
        assert set(row[support].tolist()) <= {-1.0, 1.0}
        plus = int((row > 0).sum())
        assert plus % 2 == 1 and b == plus - 1
        assert violation > tol
        # the support is one cycle: every vertex it touches has degree 2 and
        # walking from one vertex around it covers every edge
        touched = ends[support].ravel()
        assert np.all(np.bincount(touched)[np.unique(touched)] == 2)
        vertex, remaining = int(ends[support[0], 0]), set(support.tolist())
        while remaining:
            e = next(e for e in remaining if vertex in ends[e])
            remaining.discard(e)
            vertex = int(ends[e, 1] if ends[e, 0] == vertex else ends[e, 0])
        assert vertex == ends[support[0], 0]
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert np.all(np.diff(violations) <= 1e-12)


def separate_with_unique(x, g, tol):
    """Reference separator: the same Floyd-Warshall, walks padded into one
    matrix, rows deduplicated with np.unique(axis=0) and put back in order of
    their first walk."""
    n, k, u, v = g.vertex_count, g.edge_count, g.u, g.v
    x = np.clip(x, 0.0, 1.0)
    size = 2 * n
    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    hop = np.tile(np.arange(size), (size, 1))
    for p in (0, 1):
        a, even, odd = u + p * n, v + p * n, v + (1 - p) * n
        dist[a, even] = dist[even, a] = x
        dist[a, odd] = dist[odd, a] = 1.0 - x
    via = np.empty_like(dist)
    better = np.empty(dist.shape, dtype=bool)
    for m in range(size):
        np.add(dist[:, m, None], dist[m], out=via)
        np.less(via, dist, out=better)
        np.copyto(dist, via, where=better)
        np.copyto(hop, hop[:, m, None], where=better)
    length = dist[np.arange(n), np.arange(n) + n]
    start = np.flatnonzero(length < 1.0 - tol)
    start = start[np.argsort(length[start], kind="stable")]
    stop = start + n
    walk = [start]
    while np.any(walk[-1] != stop):
        walk.append(hop[walk[-1], stop])
    walk = np.column_stack(walk)
    moved = walk[:, 1:] != walk[:, :-1]
    labels = np.sort(np.where(moved, walk[:, :-1] % n, n + np.arange(moved.shape[1])), axis=1)
    simple = ~np.any(labels[:, 1:] == labels[:, :-1], axis=1)
    if start.size and not simple.any():
        raise SimplexError("separation found violated closed walks but no simple cycle among them")
    walk, moved = walk[simple], moved[simple]
    edge_id = np.full((n, n), -1)
    edge_id[u, v] = edge_id[v, u] = np.arange(k)
    r, step = np.nonzero(moved)
    tail, head = walk[r, step], walk[r, step + 1]
    rows = np.zeros((len(walk), k))
    rows[r, edge_id[tail % n, head % n]] = np.where((tail >= n) != (head >= n), 1.0, -1.0)
    rows, first = np.unique(rows, axis=0, return_index=True)
    rows = rows[np.argsort(first)]
    return rows, (rows > 0).sum(axis=1) - 1.0


@settings(deadline=None, max_examples=300)
@given(graph_points(max_n=9))
def test_separation_matches_the_padded_unique_reference(case):
    # the same rows and right-hand sides, bit for bit and in the same order
    rows, rhs = separate_odd_cycles(*case)
    ref_rows, ref_rhs = separate_with_unique(*case)
    assert rows.shape == ref_rows.shape and rows.tobytes() == ref_rows.tobytes()
    assert rhs.dtype == ref_rhs.dtype and rhs.tobytes() == ref_rhs.tobytes()


K3_ENDS = [[0, 1], [0, 2], [1, 2]]


@pytest.mark.parametrize(
    "x, ends, message",
    [
        ([1.0, np.nan, 1.0], K3_ENDS, "x[1] = nan is not finite"),
        ([1.0, 1.0, -np.inf], K3_ENDS, "x[2] = -inf is not finite"),
        ([1.0, 1.0], K3_ENDS, "x must hold one value per edge, shape (3,), got (2,)"),
        ([[1.0, 1.0, 1.0]], K3_ENDS, "x must hold one value per edge, shape (3,), got (1, 3)"),
    ],
)
def test_separation_rejects_bad_input(x, ends, message):
    # before, nan read as "no violated cycle" and a short x as a numpy
    # indexing error; the graph's ends are checked where it is built
    g = unit(3, ends)
    with pytest.raises(ValueError, match=re.escape(message)):
        separate_odd_cycles(np.array(x), g)


def per_triple_violated(m, n, tol):
    """Reference: True when some triangle inequality of the pair matrix m is
    violated by more than tol, each checked on its own."""
    for t, u, v in itertools.combinations(range(n), 3):
        a, b, c = m[t, u], m[u, v], m[t, v]
        if max(a - b - c, -a + b - c, -a - b + c, a + b + c - 2.0) > tol:
            return True
    return False


@settings(deadline=None)
@given(graph_points(max_n=9, complete=True))
def test_separation_matches_per_triple_reference(case):
    # on a complete graph every odd-cycle inequality follows from triangle
    # ones: rows come back when a triangle is violated beyond tol, and only
    # when some triangle is violated at all
    x, g, tol = case
    n = g.vertex_count
    m = np.zeros((n, n))
    m[g.u, g.v] = m[g.v, g.u] = x
    rows, _ = separate_odd_cycles(x, g, tol)
    if per_triple_violated(m, n, tol):
        assert len(rows)
    if len(rows):
        assert per_triple_violated(m, n, 0.0)


# below the simplex's 1e-6 feasibility tolerance (0 and 1e-7) a row already in
# the model can count as violated, and separation stalls
@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 1e-7])
def test_relaxation_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and at least the simplex's feasibility tolerance 1e-06"):
        solve_cycle_relaxation(unit(3, complete_pairs(3)), tol)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e9])
def test_relaxation_bound_independent_of_weight_scale(scale):
    # a path of two tiny edges must not fall under the simplex's cost tolerance
    g = WeightedGraph.from_edges(3, [(0, 2, scale), (1, 2, scale)])
    best = brute_force(g).max_value
    assert solve_cycle_relaxation(dense_closure(g)).objective_value >= best * (1 - 1e-9)


@st.composite
def small_graphs(draw, max_n=7):
    """Graphs on n = 1..max_n vertices: any pair may be absent, so they may be
    edgeless or disconnected, and weights may be 0."""
    n = draw(st.integers(1, max_n))
    weight = st.one_of(st.none(), st.just(0.0), st.floats(-10, 10))
    pairs = list(itertools.combinations(range(n), 2))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w is not None])


@settings(deadline=None)
@given(small_graphs())
def test_relaxation_bounds_max_cut(g):
    sol = solve_cycle_relaxation(g)
    # weights below the simplex's cost tolerance times the largest |weight| may be left out
    assert sol.objective_value >= brute_force(g).max_value - 1e-6


@settings(deadline=None)
@given(small_graphs(max_n=8))
@example(WeightedGraph.from_edges(5, []))
@example(WeightedGraph.from_edges(7, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, -2.0), (4, 5, 0.0), (3, 5, 1.5)]))
def test_relaxation_on_g_equals_dense_closure(g):
    # the cycle polytope of g is the projection of the dense closure's
    # metric polytope onto g's edges, so both LPs have the same optimum
    on_g = solve_cycle_relaxation(g).objective_value
    on_closure = solve_cycle_relaxation(dense_closure(g)).objective_value
    assert on_g == pytest.approx(on_closure, abs=1e-6)
    best = brute_force(g).max_value
    assert on_g >= best - 1e-6 and on_closure >= best - 1e-6


def test_relaxation_of_edgeless_graphs_is_empty():
    for n in (0, 1, 4):
        g = WeightedGraph.from_edges(n, [])
        sol = solve_cycle_relaxation(g)
        assert sol.graph is g and (sol.x.size, sol.objective_value, sol.rounds) == (0, 0.0, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_relaxation_exact_on_two_row_grids(cols, seed):
    # 2 x k grids are planar, so the cycle relaxation is exact
    pairs = grid_pairs(2, cols)
    g = build(2 * cols, pairs, sign_weights(len(pairs), np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(brute_force(g).max_value, abs=1e-6)


def test_relaxation_k2():
    g = parse_instance("2 1\n1 2 1")
    sol = solve_cycle_relaxation(g)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective_value == pytest.approx(1.0)


def test_relaxation_k5_gap():
    g = unit(5, complete_pairs(5))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(20.0 / 3.0, abs=1e-6)
    assert brute_force(g).max_value == 6.0


def test_relaxation_upper_bound_property():
    rng = np.random.default_rng(0)
    for _ in range(8):
        g = random_weighted_graph(7, 0.5, rng)
        sol = solve_cycle_relaxation(g)
        assert sol.objective_value >= brute_force(g).max_value - 1e-6


def test_relaxation_monotone_rounds_and_box():
    rng = np.random.default_rng(1)
    g = random_weighted_graph(8, 0.6, rng)
    sol = solve_cycle_relaxation(g)
    for earlier, later in zip(sol.round_values, sol.round_values[1:]):
        assert later <= earlier + 1e-9
    assert np.all(sol.x >= -1e-9)
    assert np.all(sol.x <= 1 + 1e-9)


def test_relaxation_grid_integrality():
    rng = np.random.default_rng(2)
    pairs = grid_pairs(2, 3)
    g = build(6, pairs, sign_weights(len(pairs), rng))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(brute_force(g).max_value, abs=1e-6)
    # the bundled solver lands on an integral basic optimum here
    assert np.abs(sol.x - np.round(sol.x)).max() < 1e-6


def test_relaxation_final_point_satisfies_triangles():
    rng = np.random.default_rng(3)
    g = dense_closure(random_weighted_graph(7, 0.7, rng))
    sol = solve_cycle_relaxation(g)
    x = {(u, v): val for (u, v, _), val in zip(sol.graph.edges, sol.x)}
    assert len(x) == 21
    for t, u, v in itertools.combinations(range(7), 3):
        a, b, c = x[t, u], x[u, v], x[t, v]
        for lhs in (a - b - c, -a + b - c, -a - b + c, a + b + c - 2.0):
            assert lhs <= 1e-6


def test_solution_dump_format():
    g = parse_instance("2 1\n1 2 1")
    sol = solve_cycle_relaxation(g)
    assert format_solution(sol) == "0 1 1\n"
    path = parse_instance("3 2\n1 2 1\n2 3 -1")
    assert format_solution(solve_cycle_relaxation(path)) == "0 1 1\n1 2 0\n"


# (constraints_added, round_values, round_pivots) of the 4x4 +-1 grids built
# from seeds 1..4, relaxed on their own 24 edges. The simplex's pivot rules
# and the separator's path choices decide which optimal vertex each round
# returns, so any change to them shows here; the values are compared exactly.
PINNED_GRIDS = {
    1: (24, (13.0, 10.0, 10.0, 10.0, 10.0), (0, 4, 3, 1, 1)),
    2: (6, (10.0, 8.0), (0, 4)),
    3: (17, (9.0, 6.0, 5.0), (0, 8, 5)),
    4: (21, (15.0, 12.0, 10.0, 10.0), (0, 4, 7, 5)),
}


@pytest.mark.parametrize("seed", sorted(PINNED_GRIDS))
def test_grid_relaxation_pivots_pinned(seed):
    pairs = grid_pairs(4, 4)
    g = build(16, pairs, sign_weights(24, np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(g)
    rows, values, pivots = PINNED_GRIDS[seed]
    assert sol.constraints_added == rows
    assert sol.round_values == values
    assert sol.round_pivots == pivots
    assert sol.rounds == len(values)


@pytest.mark.parametrize("rows, cols, seed", [(3, 6, 11), (3, 5, 9)])
def test_relaxation_exact_on_grids_that_drifted(rows, cols, seed):
    # planar grids make the relaxation exact; on these two, a simplex that
    # restarts from the slack basis every round drifted (3x6) or cycled (3x5)
    # on the dense closure
    pairs = grid_pairs(rows, cols)
    g = build(rows * cols, pairs, sign_weights(len(pairs), np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(brute_force(g).max_value, abs=1e-6)


def test_relaxation_5x5_grid():
    # the 5x5 grid drawn after the 3x3, 4x4 and 4x5 grids of one generator
    rng = np.random.default_rng(77)
    for rows, cols in ((3, 3), (4, 4), (4, 5), (5, 5)):
        pairs = grid_pairs(rows, cols)
        g = build(rows * cols, pairs, sign_weights(len(pairs), rng))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(12.0, abs=1e-6)
    assert len(sol.round_pivots) == sol.rounds


# Grids past the oracle's cap; their optima come from HiGHS on the dense-closure
# triangle LP, which is exact on planar graphs. The bundled simplex drifted
# infeasible on 5x5 seed 2 and did not finish 6x6 seed 1 on the dense closure.
@pytest.mark.parametrize("rows, cols, seed, optimum", [(5, 5, 2, 13.0), (6, 6, 1, 20.0)])
def test_relaxation_exact_on_grids_past_the_oracle(rows, cols, seed, optimum):
    pairs = grid_pairs(rows, cols)
    g = build(rows * cols, pairs, sign_weights(len(pairs), np.random.default_rng(seed)))
    sol = solve_cycle_relaxation(g)
    assert sol.objective_value == pytest.approx(optimum, abs=1e-6)
