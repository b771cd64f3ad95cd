import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    CorrelationSet,
    WeightedGraph,
    brute_force,
    correlation_sign,
    correlations_from_relaxation,
    cut_value,
    cut_value_batch,
    dense_closure,
    format_trace,
    parse_trace,
    replay_trace,
    shrink_to_target,
    solve_cycle_relaxation,
    zero_correlations,
)
from shrinkcut.graph import index_to_assignment
from shrinkcut.instances import random_weighted_graph
from shrinkcut.shrink import ShrinkState


def random_correlations(n, rng):
    return CorrelationSet.from_dict(
        {(u, v): float(rng.uniform(-1, 1)) for u in range(n) for v in range(u + 1, n)}
    )


def assert_conservation(g, state, tol=1e-9):
    reduced = state.reduced
    k = reduced.vertex_count
    for idx in range(1 << k):
        a = index_to_assignment(idx, k)
        lifted = cut_value(g, state.reconstruct(a))
        assert lifted == pytest.approx(cut_value(reduced, a) + state.offset, abs=tol)


def test_correlation_sign():
    assert correlation_sign(0.7) == 1
    assert correlation_sign(-0.2) == -1
    assert correlation_sign(0.0) == 1


def test_correlations_from_relaxation_endpoints():
    g = dense_closure(WeightedGraph.from_edges(2, [(0, 1, 1.0)]))
    sol = solve_cycle_relaxation(g)
    corr = dict(correlations_from_relaxation(sol).entries)
    # x_01 = 1 at the optimum, so the correlation is -1 (opposite sides)
    assert corr[(0, 1)] == pytest.approx(-1.0)


def test_correlations_from_relaxation_cover_every_pair():
    # b = 1 - 2x on the edges of g and 0 on every other pair, so a graph with
    # an isolated vertex still shrinks to a single vertex
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, -1.0)])
    sol = solve_cycle_relaxation(g)
    corr = correlations_from_relaxation(sol)
    assert [pair for pair, _ in corr.entries] == list(itertools.combinations(range(4), 2))
    expected = {(0, 1): 1.0 - 2.0 * sol.x[0], (1, 2): 1.0 - 2.0 * sol.x[1]}
    assert dict(corr.entries) == {pair: expected.get(pair, 0.0) for pair, _ in corr.entries}
    assert expected == {(0, 1): -1.0, (1, 2): 1.0}
    state = shrink_to_target(g, corr, 1)
    assert state.offset == 1.0


def test_find_composes_signs():
    state = ShrinkState(WeightedGraph.from_edges(4, []))
    state.contract(0, 1, -1)
    state.contract(1, 2, -1)
    assert state.find(0) == (2, 1)  # two flips cancel
    assert state.find(1) == (2, -1)
    assert state.find(2) == (2, 1)
    assert state.find(3) == (3, 1)


@pytest.mark.parametrize("vertex", [-1, 4, 5])
def test_find_rejects_vertex_outside_graph(vertex):
    state = ShrinkState(WeightedGraph.from_edges(4, []))
    state.contract(3, 0, -1)
    with pytest.raises(ValueError, match=rf"vertex {vertex} outside \[0, 4\)"):
        state.find(vertex)


def test_contract_weight_merging():
    # path t-u (3), t-v (4): merging u into v adds +-3 to the (v, t) weight
    g = WeightedGraph.from_edges(3, [(0, 1, 3.0), (0, 2, 4.0)])
    plus = ShrinkState(g)
    plus.contract(1, 2, 1)
    assert plus.reduced.edges == ((0, 1, 7.0),)
    assert plus.offset == 0.0
    minus = ShrinkState(g)
    minus.contract(1, 2, -1)
    assert minus.reduced.edges == ((0, 1, 1.0),)
    assert_conservation(g, minus)


def test_contract_k2_opposite_sides():
    g = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
    state = ShrinkState(g)
    state.contract(0, 1, -1)
    assert state.reduced.vertex_count == 1
    assert state.offset == 5.0
    for side in (False, True):
        assert cut_value(g, state.reconstruct([side])) == 5.0


def test_contract_rejects_bad_arguments():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
    state = ShrinkState(g)
    state.contract(0, 1, 1)
    with pytest.raises(ValueError):
        state.contract(0, 2, 1)  # 0 already removed
    with pytest.raises(ValueError):
        state.contract(2, 2, 1)
    with pytest.raises(ValueError):
        state.contract(1, 2, 0)


def test_reconstruct_signs():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    same = ShrinkState(g)
    same.contract(0, 1, 1)
    assert same.reconstruct([True]).tolist() == [True, True]
    opposite = ShrinkState(g)
    opposite.contract(0, 1, -1)
    assert opposite.reconstruct([True]).tolist() == [False, True]


def test_shrink_to_target_identity():
    rng = np.random.default_rng(0)
    g = random_weighted_graph(6, 0.5, rng)
    state = shrink_to_target(g, zero_correlations(6), 6)
    assert state.records == []
    assert state.offset == 0.0
    assert state.reduced == WeightedGraph.from_edges(6, [e for e in g.edges if e[2] != 0.0])


def test_shrink_to_single_vertex_reconstructs_offset():
    rng = np.random.default_rng(1)
    g = random_weighted_graph(6, 0.6, rng)
    corr = random_correlations(6, rng)
    state = shrink_to_target(g, corr, 1)
    for side in (False, True):
        assert cut_value(g, state.reconstruct([side])) == pytest.approx(state.offset, abs=1e-9)


def test_zero_correlations_contract_lexicographically():
    g = WeightedGraph.from_edges(4, [])
    state = shrink_to_target(dense_closure(g), zero_correlations(4), 2)
    assert [(r.removed, r.kept, r.sign) for r in state.records] == [(0, 1, 1), (1, 2, 1)]


def test_skipped_pairs_change_nothing():
    # after contracting (0,1) and (0,2), the pair (1,2) maps to one super-vertex
    # and must be skipped; the outcome equals running without it entirely
    rng = np.random.default_rng(7)
    g = random_weighted_graph(4, 0.9, rng)
    with_skip = CorrelationSet.from_dict(
        {(0, 1): 1.0, (0, 2): 0.9, (1, 2): 0.85, (0, 3): 0.5, (1, 3): 0.1, (2, 3): 0.1}
    )
    without = CorrelationSet.from_dict(
        {(0, 1): 1.0, (0, 2): 0.9, (0, 3): 0.5, (1, 3): 0.1, (2, 3): 0.1}
    )
    a = shrink_to_target(g, with_skip, 1)
    b = shrink_to_target(g, without, 1)
    assert len(a.records) == len(b.records) == 3
    assert a.offset == b.offset
    assert a.reduced == b.reduced
    for vertex in range(4):
        assert a.find(vertex) == b.find(vertex)


def test_shrink_exhaustion_error():
    g = WeightedGraph.from_edges(4, [])
    corr = CorrelationSet.from_dict({(0, 1): 1.0})
    with pytest.raises(ValueError):
        shrink_to_target(g, corr, 1)
    with pytest.raises(ValueError):
        shrink_to_target(g, corr, 0)


def test_conservation_random_sequences():
    rng = np.random.default_rng(2)
    for _ in range(12):
        n = int(rng.integers(2, 9))
        g = random_weighted_graph(n, 0.5, rng, "normal" if rng.random() < 0.5 else "sign")
        corr = random_correlations(n, rng)
        for k in range(1, n + 1):
            assert_conservation(g, shrink_to_target(g, corr, k))


def test_optimal_correlations_preserve_optimality():
    rng = np.random.default_rng(3)
    for _ in range(8):
        n = int(rng.integers(3, 9))
        g = random_weighted_graph(n, 0.7, rng)
        best = brute_force(g)
        # correlations read off one optimal cut: +-1 per pair
        opt = best.argmax
        corr = CorrelationSet.from_dict(
            {
                (u, v): 1.0 if opt[u] == opt[v] else -1.0
                for u in range(n)
                for v in range(u + 1, n)
            }
        )
        for k in range(1, n + 1):
            state = shrink_to_target(g, corr, k)
            reduced_best = brute_force(state.reduced).max_value
            assert reduced_best + state.offset == pytest.approx(best.max_value, abs=1e-9)


def test_monotone_potential_under_fixed_correlations():
    rng = np.random.default_rng(4)
    for _ in range(6):
        n = 8
        g = random_weighted_graph(n, 0.6, rng)
        corr = random_correlations(n, rng)
        reachable = []
        for k in range(n, 0, -1):
            state = shrink_to_target(g, corr, k)
            reachable.append(brute_force(state.reduced).max_value + state.offset)
        for earlier, later in zip(reachable, reachable[1:]):
            assert later <= earlier + 1e-9


def test_trace_round_trip_and_replay():
    rng = np.random.default_rng(5)
    g = random_weighted_graph(7, 0.6, rng)
    corr = random_correlations(7, rng)
    state = shrink_to_target(g, corr, 3)
    steps = parse_trace(format_trace(state))
    replayed = replay_trace(g, steps)
    assert replayed.offset == pytest.approx(state.offset)
    assert replayed.reduced == state.reduced
    # forged weights are rejected, a NaN one too
    kept, removed, sign, w = steps[0]
    for forged in (w + 1.0, float("nan")):
        with pytest.raises(ValueError, match=f"trace mismatch at \\({kept}, {removed}\\): recorded weight {forged}"):
            replay_trace(g, [(kept, removed, sign, forged), *steps[1:]])


@pytest.mark.parametrize("line", ["1 x -1 2.5", "1 0 -1.0 2.5", "1 0 -1 heavy"])
def test_parse_trace_reports_malformed_fields_with_line_number(line):
    with pytest.raises(ValueError, match=f"^trace line 3: malformed step '{line}'$"):
        parse_trace("# kept removed sign weight\n2 3 1 0\n" + line + "\n")


def test_removed_roots_never_reappear():
    rng = np.random.default_rng(6)
    g = random_weighted_graph(9, 0.5, rng)
    state = shrink_to_target(g, random_correlations(9, rng), 2)
    seen_removed = set()
    for rec in state.records:
        assert rec.kept not in seen_removed
        assert rec.removed not in seen_removed
        seen_removed.add(rec.removed)


def lift_by_replay(state, samples):
    """Reference lift built from the records alone: each removed super-vertex
    links to the one it merged into with the contraction's sign, and every
    vertex walks its links up to a survivor, one vertex and sample at a time."""
    n = state.original.vertex_count
    link = {r.removed: (r.kept, r.sign) for r in state.records}
    pos = {v: i for i, v in enumerate(v for v in range(n) if v not in link)}
    out = np.zeros((len(samples), n), dtype=bool)
    for k, row in enumerate(samples):
        for vertex in range(n):
            node, flip = vertex, False
            while node in link:
                node, sign = link[node]
                flip ^= sign < 0
            out[k, vertex] = bool(row[pos[node]]) ^ flip
    return out


@st.composite
def shrunk_with_samples(draw):
    """A graph on at most 10 vertices shrunk by random correlations to a
    random target, and a batch of reduced assignments."""
    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    weight = st.one_of(st.just(0.0), st.floats(-10, 10))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights)])
    corr = draw(st.lists(st.floats(-1, 1), min_size=len(pairs), max_size=len(pairs)))
    target = draw(st.integers(1, n))
    state = shrink_to_target(g, CorrelationSet(tuple(zip(pairs, corr))), target)
    rows = draw(st.lists(st.lists(st.booleans(), min_size=target, max_size=target), min_size=1, max_size=6))
    return g, state, np.array(rows, dtype=bool).reshape(-1, target)


@settings(deadline=None)
@given(shrunk_with_samples())
def test_batched_lift_matches_per_row_lift(case):
    _, state, samples = case
    lifted = state.reconstruct(samples)
    assert np.array_equal(lifted, np.stack([state.reconstruct(row) for row in samples]))
    assert np.array_equal(lifted, lift_by_replay(state, samples))


@settings(deadline=None)
@given(shrunk_with_samples())
def test_reduced_matches_pair_loop(case):
    _, state, _ = case
    active = state.active_vertices().tolist()
    weights = [(i, j, state.current_weight(a, active[j])) for i, a in enumerate(active) for j in range(i + 1, len(active))]
    assert state.reduced == WeightedGraph.from_edges(len(active), [e for e in weights if e[2] != 0.0])


@settings(deadline=None)
@given(shrunk_with_samples())
def test_batched_lift_conserves_cut_values(case):
    g, state, samples = case
    lifted_values = cut_value_batch(g, state.reconstruct(samples))
    reduced_values = cut_value_batch(state.reduced, samples) + state.offset
    np.testing.assert_allclose(lifted_values, reduced_values, rtol=0, atol=1e-9)


@settings(deadline=None)
@given(shrunk_with_samples())
def test_batched_lift_rejects_wrong_width(case):
    _, state, samples = case
    for wrong in (samples[:, 1:], np.hstack([samples, samples[:, :1]])):
        with pytest.raises(ValueError):
            state.reconstruct(wrong)


@settings(deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 6), st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])),
    max_size=30,
))
def test_ordered_pairs_match_stable_sort(raw):
    entries = tuple(((u, v), b) for u, v, b in raw if u < v)
    corr = CorrelationSet(entries)
    assert corr.entries == entries
    # reference: stable sort by decreasing |b|, then the pair; repeats keep their order
    assert list(corr.ordered_pairs()) == sorted(entries, key=lambda kv: (-abs(kv[1]), kv[0]))
    pairs = np.array([p for p, _ in entries], dtype=np.int64).reshape(-1, 2)
    from_arrays = CorrelationSet.from_arrays(pairs, np.array([b for _, b in entries]))
    assert list(from_arrays.ordered_pairs()) == list(corr.ordered_pairs())


def test_correlation_set_rejects_bad_entries():
    cases = [
        ((((0, 1), 0.0), ((2, 2), 0.0)), "pair (2, 2) must be ordered u < v"),
        ((((1, 0), 2.0),), "pair (1, 0) must be ordered u < v"),
        ((((0, 1), 0.5), ((1, 2), -1.5)), "correlation -1.5 for (1, 2) outside [-1, 1]"),
        ((((0, 1), float("nan")),), "correlation nan for (0, 1) outside [-1, 1]"),
    ]
    for entries, message in cases:
        with pytest.raises(ValueError) as err:
            CorrelationSet(entries)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="2 pairs but 1 values"):
        CorrelationSet.from_arrays(np.array([[0, 1], [1, 2]]), np.array([0.0]))


def test_zero_correlations_cover_every_pair_in_order():
    n = 9
    corr = zero_correlations(n)
    assert corr.entries == tuple(((u, v), 0.0) for u, v in itertools.combinations(range(n), 2))
    assert list(corr.ordered_pairs()) == list(corr.entries)
    assert zero_correlations(1).entries == ()
