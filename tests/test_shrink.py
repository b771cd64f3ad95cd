import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinkcut import (
    WeightedGraph,
    brute_force,
    correlation_sign,
    correlations_from_relaxation,
    cut_value,
    cut_value_batch,
    dense_closure,
    format_trace,
    ordered_pairs,
    shrink_to_target,
    solve_cycle_relaxation,
    zero_correlations,
)
from shrinkcut import shrink
from shrinkcut.graph import brute_force_matrix, index_to_assignment
from shrinkcut.instances import random_weighted_graph
from shrinkcut.shrink import ShrinkState, _contractions


def correlation_set(n, stored):
    """The correlations on n vertices that read stored[pair] on each pair in stored."""
    return WeightedGraph.from_edges(n, [(u, v, b) for (u, v), b in stored.items()])


def every_pair(n, values):
    """The correlations on n vertices that read values[i] on the i-th pair u < v
    in lexicographic order."""
    return WeightedGraph(n, *np.triu_indices(n, 1), values)


def random_correlations(n, rng):
    return correlation_set(n, {(u, v): float(rng.uniform(-1, 1)) for u in range(n) for v in range(u + 1, n)})


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
    corr = correlations_from_relaxation(sol).weight_matrix
    # x_01 = 1 at the optimum, so the correlation is -1 (opposite sides)
    assert corr[0, 1] == pytest.approx(-1.0)


def test_correlations_from_relaxation_cover_every_pair():
    # b = 1 - 2x on the edges of g and 0 on every other pair, so a graph with
    # an isolated vertex still shrinks to a single vertex
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, -1.0)])
    sol = solve_cycle_relaxation(g)
    corr = correlations_from_relaxation(sol)
    read = {pair: corr.weight_matrix[pair] for pair in itertools.combinations(range(4), 2)}
    expected = {(0, 1): 1.0 - 2.0 * sol.x[0], (1, 2): 1.0 - 2.0 * sol.x[1]}
    assert read == {pair: expected.get(pair, 0.0) for pair in read}
    assert expected == {(0, 1): -1.0, (1, 2): 1.0}
    state = shrink_to_target(g, corr, 1)
    assert state.offset == 1.0


def test_correlations_from_relaxation_are_the_relaxed_graph():
    # unit K5: the relaxation's optimum puts x = 2/3 on every edge
    g = WeightedGraph.from_edges(5, [(u, v, 1.0) for u, v in itertools.combinations(range(5), 2)])
    sol = solve_cycle_relaxation(g)
    corr = correlations_from_relaxation(sol)
    expected = WeightedGraph(g.vertex_count, g.u, g.v, 1.0 - 2.0 * sol.x)
    assert corr == expected and corr.w.tobytes() == expected.w.tobytes()
    assert np.allclose(corr.w, -1.0 / 3.0)


def test_find_composes_signs():
    state = ShrinkState(WeightedGraph.from_edges(4, []))
    state.contract(0, 1, -1, -0.5)
    state.contract(1, 2, -1, -0.5)
    assert state.find(0) == (2, 1)  # two flips cancel
    assert state.find(1) == (2, -1)
    assert state.find(2) == (2, 1)
    assert state.find(3) == (3, 1)


@pytest.mark.parametrize("vertex", [-1, 4, 5])
def test_find_rejects_vertex_outside_graph(vertex):
    state = ShrinkState(WeightedGraph.from_edges(4, []))
    state.contract(3, 0, -1, -0.5)
    with pytest.raises(ValueError, match=rf"vertex {vertex} outside \[0, 4\)"):
        state.find(vertex)


def test_contract_weight_merging():
    # path t-u (3), t-v (4): merging u into v adds +-3 to the (v, t) weight
    g = WeightedGraph.from_edges(3, [(0, 1, 3.0), (0, 2, 4.0)])
    plus = ShrinkState(g)
    plus.contract(1, 2, 1, 0.5)
    assert plus.reduced.edges == ((0, 1, 7.0),)
    assert plus.offset == 0.0
    minus = ShrinkState(g)
    minus.contract(1, 2, -1, -0.5)
    assert minus.reduced.edges == ((0, 1, 1.0),)
    assert_conservation(g, minus)


def test_contract_k2_opposite_sides():
    g = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
    state = ShrinkState(g)
    state.contract(0, 1, -1, -1.0)
    assert state.reduced.vertex_count == 1
    assert state.offset == 5.0
    for side in (False, True):
        assert cut_value(g, state.reconstruct([side])) == 5.0


def test_contract_rejects_bad_arguments():
    g = WeightedGraph.from_edges(3, [(0, 1, 1.0)])
    state = ShrinkState(g)
    with pytest.raises(ValueError, match=r"^vertex 3 outside \[0, 3\)$"):
        state.contract(3, 2, 1, 1.0)
    with pytest.raises(ValueError, match="^sign must be"):
        state.contract(1, 2, 0, 0.0)
    assert state.records == []
    assert state.contract(0, 1, -1, -1.0)
    # an already joined pair, either way round or with itself, records nothing
    assert not state.contract(0, 1, 1, 1.0)
    assert not state.contract(1, 0, -1, -1.0)
    assert not state.contract(2, 2, 1, 1.0)
    assert state.records == [(1, 0, -1, -1.0)]
    # 0 is no root: its root 1 goes under 2, with the sign composed with 0's parity
    assert state.contract(0, 2, 1, 0.5)
    assert state.records == [(1, 0, -1, -1.0), (2, 1, -1, 0.5)]
    assert [state.find(v) for v in range(3)] == [(2, 1), (2, -1), (2, 1)]


def test_reconstruct_signs():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    same = ShrinkState(g)
    same.contract(0, 1, 1, 1.0)
    assert same.reconstruct([True]).tolist() == [True, True]
    opposite = ShrinkState(g)
    opposite.contract(0, 1, -1, -1.0)
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
    with_skip = correlation_set(4, {(0, 1): 1.0, (0, 2): 0.9, (1, 2): 0.85, (0, 3): 0.5, (1, 3): 0.1, (2, 3): 0.1})
    without = correlation_set(4, {(0, 1): 1.0, (0, 2): 0.9, (0, 3): 0.5, (1, 3): 0.1, (2, 3): 0.1})
    a = shrink_to_target(g, with_skip, 1)
    b = shrink_to_target(g, without, 1)
    assert len(a.records) == len(b.records) == 3
    assert a.offset == b.offset
    assert a.reduced == b.reduced
    for vertex in range(4):
        assert a.find(vertex) == b.find(vertex)


def test_shrink_exhaustion_error():
    # correlations cover every pair of their vertices, so one pair given still
    # shrinks to a single vertex; correlations on another vertex count are
    # rejected instead
    g = WeightedGraph.from_edges(4, [])
    corr = correlation_set(4, {(0, 1): 1.0})
    assert shrink_to_target(g, corr, 1).reduced_size == 1
    for n in (3, 5):
        with pytest.raises(ValueError, match=f"^correlations on {n} vertices for a graph on 4$"):
            shrink_to_target(g, zero_correlations(n), 4)
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
        corr = correlation_set(n, {(u, v): 1.0 if opt[u] == opt[v] else -1.0 for u in range(n) for v in range(u + 1, n)})
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


def test_trace_lines_parse_back_to_the_records():
    rng = np.random.default_rng(5)
    g = random_weighted_graph(7, 0.6, rng)
    corr = random_correlations(7, rng)
    state = shrink_to_target(g, corr, 3)
    lines = format_trace(state).splitlines()
    assert len(lines) == len(state.records) == 4
    for line, record in zip(lines, state.records):
        kept, removed, sign, b = line.split()
        assert (int(kept), int(removed), int(sign), float(b)) == record


def test_trace_round_trip_with_non_int_signs():
    # a bool or numpy sign is recorded as the int it equals, so the trace parses
    g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)])
    state = ShrinkState(g)
    state.contract(0, 1, True, 0.75)
    state.contract(2, 1, np.int64(-1), np.float64(-0.25))
    assert [type(r.sign) for r in state.records] == [int, int]
    assert [type(r.b) for r in state.records] == [float, float]
    assert state.records == [(1, 0, 1, 0.75), (1, 2, -1, -0.25)]
    assert format_trace(state) == "1 0 1 0.75\n1 2 -1 -0.25\n"


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
    state = shrink_to_target(g, every_pair(n, corr), target)
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


@st.composite
def sorted_correlations(draw, values):
    """n in 1..12 and a sorted set of pairs u < v < n, each with a value from values."""
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2)) or [(0, 1)]), max_size=20))
    stored = {p: draw(st.sampled_from(values)) for p in sorted(set(pairs)) if p[1] < n}
    return n, stored


@settings(deadline=None)
@given(sorted_correlations([-1.0, -0.5, 0.25, 0.5, 1.0]))
def test_ordered_pairs_match_stable_sort(case):
    # the nonzero pairs by decreasing |b| and then the pair, then the pairs
    # (0, v) not among them at 0.0, and a walk that follows them reaches a
    # single vertex
    n, stored = case
    corr = correlation_set(n, stored)
    nonzero = sorted(((p, b) for p, b in stored.items() if b), key=lambda kv: (-abs(kv[1]), kv[0]))
    tail = [((0, v), 0.0) for v in range(1, n) if not stored.get((0, v))]
    assert list(ordered_pairs(corr)) == nonzero + tail
    *_, state = _contractions(WeightedGraph.from_edges(n, []), corr, 1)
    assert state.reduced_size == 1


def test_shrink_rejects_a_correlation_outside_the_unit_interval(monkeypatch):
    # the graph constructor rejects every other bad correlation, each case in
    # tests/test_graph.py: pairs not ordered u < v or outside [0, n) and ids
    # that are not integers (test_constructor_rejects_non_canonical_arrays,
    # test_from_edges_validation), unsorted or repeated pairs
    # (test_constructor_rejects_non_canonical_arrays), a nan or infinite value
    # (test_from_edges_validation) and a vertex count that is not a
    # non-negative integer (test_vertex_count_must_be_an_integer,
    # test_from_edges_validation)
    contracted = []
    monkeypatch.setattr(ShrinkState, "contract", lambda self, *args: contracted.append(args))
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (2, 3, -2.0)])
    for stored, message in [
        ({(0, 1): 0.5, (1, 2): -1.5}, "correlation -1.5 for (1, 2) outside [-1, 1]"),
        ({(0, 3): 1.0 + 1e-8, (1, 2): 2.0}, "correlation 1.00000001 for (0, 3) outside [-1, 1]"),
    ]:
        with pytest.raises(ValueError) as err:
            shrink_to_target(g, correlation_set(4, stored), 1)
        assert str(err.value) == message
        # the check runs before _contractions yields its first state
        with pytest.raises(ValueError):
            next(_contractions(g, correlation_set(4, stored), 3))
    assert contracted == []
    monkeypatch.undo()
    # within rounding of 1 is not outside
    state = shrink_to_target(g, correlation_set(4, {(0, 1): -1.0 - 1e-10, (1, 2): 1.0 + 1e-10}), 2)
    assert state.records == [(1, 0, -1, -1.0 - 1e-10), (2, 1, 1, 1.0 + 1e-10)]


def test_zero_correlations_cover_every_pair_in_order():
    # the pairs (0, v) in order join the ends of every pair
    n = 9
    corr = zero_correlations(n)
    assert list(ordered_pairs(corr)) == [((0, v), 0.0) for v in range(1, n)]
    assert list(ordered_pairs(zero_correlations(1))) == []


@settings(deadline=None)
@given(sorted_correlations([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]))
def test_implicit_zero_tail_reads_as_every_pair(case):
    n, stored = case
    corr = correlation_set(n, stored)
    # every pair reads its given value or 0, a given -0.0 too; the graph keeps every given pair
    read = {p: corr.weight_matrix[p] + 0.0 for p in itertools.combinations(range(n), 2)}
    assert read == {p: stored.get(p, 0.0) + 0.0 for p in itertools.combinations(range(n), 2)}
    assert list(zip(corr.u.tolist(), corr.v.tolist())) == list(stored)
    assert corr.w.tobytes() == np.array([stored[p] for p in stored], dtype=float).tobytes()
    assert not (corr.u.flags.writeable or corr.v.flags.writeable or corr.w.flags.writeable)


@pytest.mark.parametrize("zeros", [False, True])
def test_ordered_pairs_span_chunks(zeros):
    # more stored pairs than one chunk of the lazy order, with ties in |b|
    # across chunk boundaries; with zeros, a third of the pairs read 0, and
    # those at vertex 0 make the tail that follows the nonzero ones
    rng = np.random.default_rng(5)
    pairs = list(itertools.combinations(range(50), 2))
    pool = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0] if zeros else [-1.0, -0.5, 0.5, 1.0]
    values = rng.choice(pool, size=len(pairs)).tolist()
    corr = every_pair(50, values)
    assert np.count_nonzero(corr.w) > shrink.ORDER_CHUNK
    nonzero = sorted(((p, b) for p, b in zip(pairs, values) if b), key=lambda kv: (-abs(kv[1]), kv[0]))
    tail = [((0, v), 0.0) for (u, v), b in zip(pairs, values) if u == 0 and not b]
    assert bool(tail) == zeros
    assert list(ordered_pairs(corr)) == nonzero + tail


def every_pair_walk(g, stored, target):
    """A shrink of g to target that reads every pair u < v once, by decreasing
    |b| and then the pair, b the stored value or 0.0."""
    pairs = itertools.combinations(range(g.vertex_count), 2)
    state = ShrinkState(g)
    for (u, v), b in sorted(((p, stored.get(p, 0.0) + 0.0) for p in pairs), key=lambda kv: (-abs(kv[1]), kv[0])):
        if state.reduced_size == target:
            break
        (root_u, sign_u), (root_v, sign_v) = state.find(u), state.find(v)
        if root_u != root_v:
            state.contract(root_u, root_v, correlation_sign(b) * sign_u * sign_v, b)
    return state


@settings(deadline=None)
@given(sorted_correlations([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]))
def test_zero_tail_of_row_zero_shrinks_as_every_pair(case):
    # the pairs (0, v) stand in for every pair that reads 0: the records,
    # trace, offset and reduced graph match a walk over every pair at every
    # target, on a graph weighted by its own correlations, +-0.0 among them
    n, stored = case
    corr = correlation_set(n, stored)
    for target in range(1, n + 1):
        state, reference = shrink_to_target(corr, corr, target), every_pair_walk(corr, stored, target)
        assert state.records == reference.records
        assert format_trace(state) == format_trace(reference)
        assert repr(state.offset) == repr(reference.offset)
        assert state.reduced.edges == reference.reduced.edges
        assert state.reduced.w.tobytes() == reference.reduced.w.tobytes()


@st.composite
def graphs_with_signed_correlations(draw):
    """A graph on 1-8 vertices with a random edge subset (none at all
    included) weighted from a pool with +0.0 and -0.0 and either integers,
    whose sums are exact in any order, or floats, and signed correlations on
    every pair, so shrinking reaches every target and merges opposite sides."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    values = draw(st.sampled_from([st.integers(-10, 10).map(float), st.floats(-10, 10)]))
    weight = st.one_of(st.sampled_from([0.0, -0.0]), values)
    u, v = np.array([p for p, keep in zip(pairs, kept) if keep], dtype=np.int64).reshape(-1, 2).T
    w = [draw(weight) for _ in u]
    corr = draw(st.lists(st.floats(-1, 1), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, u, v, w), every_pair(n, corr)


@settings(deadline=None)
@given(graphs_with_signed_correlations())
# merging 0 and 1 on equal sides leaves the -0.0 edge between them uncut by
# every lift, and on opposite sides cut by every lift
@example((WeightedGraph(3, [0, 1], [1, 2], [-0.0, 2.5]), WeightedGraph(3, [0], [1], [1.0])))
@example((WeightedGraph(3, [0, 1], [1, 2], [-0.0, 2.5]), WeightedGraph(3, [0], [1], [-1.0])))
def test_lift_map_scores_every_lift_bit_for_bit(case):
    g, corr = case
    # one state walked down to a single vertex, so the lift map is read after
    # every contraction; the edges no lift cuts are skipped, not scored
    for state in _contractions(g, corr, 1):
        size = state.reduced_size
        rows = np.stack([index_to_assignment(i, size) for i in range(1 << size)])
        lifted = cut_value_batch(g, state.reconstruct(rows))
        assert cut_value_batch(g, rows, state.lift_map).tobytes() == lifted.tobytes()


class DenseShrink:
    """Reference: contraction as a dense row merge. An n x n weight matrix
    whose kept row and column absorb the removed ones, a flat root and flip
    per original vertex, an offset that grows at each sign -1 contraction by
    removed's total incident weight at that time, and the records it is
    given, b included."""

    def __init__(self, g):
        self.w = np.array(g.weight_matrix)
        self.root, self.flip = np.arange(g.vertex_count), np.zeros(g.vertex_count, dtype=bool)
        self.records, self.offset = [], 0.0

    def active(self):
        return np.flatnonzero(self.root == np.arange(self.root.size))

    def contract(self, removed, kept, sign, b):
        delta = float(self.w[removed, self.active()].sum()) if sign == -1 else 0.0
        self.w[kept] += sign * self.w[removed]
        self.w[kept, kept] = 0.0
        self.w[:, kept] = self.w[kept]
        self.w[removed] = self.w[:, removed] = 0.0
        moved = self.root == removed
        self.root[moved] = kept
        self.flip[moved] ^= sign == -1
        self.offset += delta
        self.records.append(shrink.ShrinkRecord(kept, removed, sign, b))

    def reduced(self):
        active = self.active()
        upper = np.triu(self.w[np.ix_(active, active)], 1)
        u, v = np.nonzero(upper)
        return WeightedGraph(active.size, u, v, upper[u, v])


@settings(deadline=None)
@given(graphs_with_signed_correlations())
def test_adjacency_contraction_matches_dense_reference(case):
    g, corr = case
    # the union-find sums each pair's edges in edge order, the row merge in
    # merge order: bit-equal on integer weights, within rounding on floats
    exact = np.array_equal(g.w, np.trunc(g.w))
    bound = 2 * g.edge_count * np.finfo(float).eps * float(np.abs(g.w).sum())
    dense = DenseShrink(g)
    states = _contractions(g, corr, 1)
    state = next(states)
    for (u, v), b in ordered_pairs(corr):
        if len(dense.records) == g.vertex_count - 1:
            break
        if dense.root[u] == dense.root[v]:
            continue
        sign = correlation_sign(b) * (-1 if dense.flip[u] != dense.flip[v] else 1)
        dense.contract(int(dense.root[u]), int(dense.root[v]), sign, b)
        state = next(states)
        # each record's b is the correlation of the pair it contracted, and its
        # sign correlation_sign(b) composed with the parities of the pair's ends
        assert state.records == dense.records
        columns, flip = state.lift_map
        assert np.array_equal(columns, np.searchsorted(dense.active(), dense.root))
        assert np.array_equal(flip, dense.flip)
        reduced = dense.reduced()
        assert not (state.offset == 0.0 and np.signbit(state.offset))
        if exact:
            assert state.offset.hex() == dense.offset.hex()
            assert state.reduced == reduced and state.reduced.w.tobytes() == reduced.w.tobytes()
        else:
            assert abs(state.offset - dense.offset) <= bound
            assert np.abs(state.reduced.weight_matrix - reduced.weight_matrix).max(initial=0.0) <= bound
    assert next(states, None) is None


@st.composite
def walks_with_finds(draw):
    """A graph and signed correlations (graphs_with_signed_correlations), and
    the vertices to find after each state of the walk down to one vertex."""
    g, corr = draw(graphs_with_signed_correlations())
    vertex = st.integers(0, g.vertex_count - 1)
    finds = draw(st.lists(st.lists(vertex, max_size=4), min_size=g.vertex_count, max_size=g.vertex_count))
    return g, corr, finds


@settings(deadline=None)
@given(walks_with_finds())
def test_caught_up_lift_map_matches_a_fresh_replay(case):
    # the walked state's lift map is read off a forest that path-compressing
    # finds reshape between reads, a fresh state's off the records' links alone
    g, corr, finds = case
    returned = []
    for state, vertices in zip(_contractions(g, corr, 1), finds):
        columns, flip = state.lift_map
        fresh = ShrinkState(g)
        for kept, removed, sign, b in state.records:
            fresh.contract(removed, kept, sign, b)
        fresh_columns, fresh_flip = fresh.lift_map
        assert columns.dtype == fresh_columns.dtype and columns.tobytes() == fresh_columns.tobytes()
        assert flip.dtype == fresh_flip.dtype == bool and flip.tobytes() == fresh_flip.tobytes()
        roots, signs = np.array([fresh.find(v) for v in range(g.vertex_count)]).reshape(-1, 2).T
        assert np.array_equal(columns, np.searchsorted(np.unique(roots), roots))
        assert np.array_equal(flip, signs == -1)
        returned.append((columns, columns.copy(), flip, flip.copy()))
        for v in vertices:
            state.find(v)
    # arrays once returned are never written by a later read
    assert all(np.array_equal(a, b) and np.array_equal(f, h) for a, b, f, h in returned)


@settings(deadline=None)
@given(graphs_with_signed_correlations())
# merging 0 and 1 on equal sides cancels their edges to 2, and on opposite
# sides the -0.0 edge's negation meets a 0.0 edge: both pairs sum to 0.0
@example((WeightedGraph(3, [0, 1], [2, 2], [1.5, -1.5]), WeightedGraph(3, [0], [1], [1.0])))
@example((WeightedGraph(3, [0, 1], [2, 2], [-0.0, 0.0]), WeightedGraph(3, [0], [1], [-1.0])))
def test_reduced_matrix_enumerates_as_the_reduced_graph(case):
    g, corr = case
    for state in _contractions(g, corr, 1):
        matrix = state.reduced_matrix()
        reduced = state.reduced
        assert matrix.dtype == float and matrix.tobytes() == reduced.weight_matrix.tobytes()
        got, want = brute_force_matrix(matrix), brute_force(reduced)
        assert (got.max_value.hex(), got.min_value.hex()) == (want.max_value.hex(), want.min_value.hex())
        assert np.array_equal(got.argmax, want.argmax) and got.optimum_count == want.optimum_count
