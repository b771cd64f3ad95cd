import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from shrinkcut import shrink
from shrinkcut.graph import brute_force_matrix, index_to_assignment
from shrinkcut.instances import random_weighted_graph
from shrinkcut.shrink import ShrinkState, _contractions


def correlation_set(n, stored):
    """The CorrelationSet on n vertices that reads stored[pair] on each pair in stored."""
    pairs = sorted(stored)
    return CorrelationSet(n, pairs, [stored[p] for p in pairs])


def random_correlations(n, rng):
    return correlation_set(n, {(u, v): float(rng.uniform(-1, 1)) for u in range(n) for v in range(u + 1, n)})


def super_vertices(state):
    """Current super-vertex labels, ascending: the reduced graph's vertex order."""
    return sorted({state.find(v)[0] for v in range(state.original.vertex_count)})


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
    corr = dict(correlations_from_relaxation(sol).ordered_pairs())
    # x_01 = 1 at the optimum, so the correlation is -1 (opposite sides)
    assert corr[(0, 1)] == pytest.approx(-1.0)


def test_correlations_from_relaxation_cover_every_pair():
    # b = 1 - 2x on the edges of g and 0 on every other pair, so a graph with
    # an isolated vertex still shrinks to a single vertex
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, -1.0)])
    sol = solve_cycle_relaxation(g)
    corr = correlations_from_relaxation(sol)
    read = dict(corr.ordered_pairs())
    assert sorted(read) == list(itertools.combinations(range(4), 2))
    expected = {(0, 1): 1.0 - 2.0 * sol.x[0], (1, 2): 1.0 - 2.0 * sol.x[1]}
    assert read == {pair: expected.get(pair, 0.0) for pair in read}
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
    # a set covers every pair of its vertices, so one pair given still shrinks
    # to a single vertex; a set on another vertex count is rejected instead
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


def test_trace_round_trip_with_non_int_signs():
    # a bool or numpy sign is recorded as the int it equals, so the trace parses
    g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)])
    state = ShrinkState(g)
    state.contract(0, 1, True)
    state.contract(2, 1, np.int64(-1))
    assert [type(r.sign) for r in state.records] == [int, int]
    assert format_trace(state) == "1 0 1 2\n1 2 -1 0.5\n"
    replayed = replay_trace(g, parse_trace(format_trace(state)))
    assert replayed.records == state.records == [(1, 0, 1), (1, 2, -1)]
    assert replayed.offset == state.offset == 0.5


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
    state = shrink_to_target(g, CorrelationSet(n, pairs, corr), target)
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
    active = super_vertices(state)
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
    # every pair once, by decreasing |b| and then the pair, and a walk that
    # follows them reaches a single vertex
    n, stored = case
    corr = correlation_set(n, stored)
    everything = [(p, stored.get(p, 0.0)) for p in itertools.combinations(range(n), 2)]
    assert list(corr.ordered_pairs()) == sorted(everything, key=lambda kv: (-abs(kv[1]), kv[0]))
    *_, state = _contractions(WeightedGraph.from_edges(n, []), corr, 1)
    assert state.reduced_size == 1


def test_correlation_set_rejects_bad_entries():
    cases = [
        ((((0, 1), 0.0), ((2, 2), 0.0)), "pair (2, 2) must be ordered u < v"),
        ((((1, 0), 2.0),), "pair (1, 0) must be ordered u < v"),
        ((((0, 1), 0.5), ((1, 2), -1.5)), "correlation -1.5 for (1, 2) outside [-1, 1]"),
        ((((0, 1), float("nan")),), "correlation nan for (0, 1) outside [-1, 1]"),
        # an id such as 1.5 is rejected, not truncated to 1
        ((((0, 1.5), 0.3),), "pair (0.0, 1.5) needs integer ids"),
        ((((0, 1), 0.3), ((float("nan"), 2), 0.3)), "pair (nan, 2.0) needs integer ids"),
        ((((0, float("inf")), 0.3),), "pair (0.0, inf) needs integer ids"),
    ]
    for entries, message in cases:
        with pytest.raises(ValueError) as err:
            CorrelationSet(4, [p for p, _ in entries], [b for _, b in entries])
        assert str(err.value) == message
    with pytest.raises(ValueError, match="2 pairs but 1 values"):
        CorrelationSet(4, np.array([[0, 1], [1, 2]]), np.array([0.0]))
    with pytest.raises(ValueError) as err:
        CorrelationSet(4, np.array([[0.0, 2.7]]), np.array([0.1]))
    assert str(err.value) == "pair (0.0, 2.7) needs integer ids"
    # numpy integer ids and integral float ids are ids
    for pairs in [(np.int64(0), np.int32(2))], np.array([[0, 2]], dtype=np.uint8), np.array([[0.0, 2.0]]):
        corr = CorrelationSet(4, pairs, [0.5])
        assert corr.pairs.dtype == np.int64 and corr.pairs.tolist() == [[0, 2]] and corr.values.tolist() == [0.5]


def test_zero_correlations_cover_every_pair_in_order():
    n = 9
    corr = zero_correlations(n)
    assert list(corr.ordered_pairs()) == [((u, v), 0.0) for u, v in itertools.combinations(range(n), 2)]
    assert list(zero_correlations(1).ordered_pairs()) == []


@settings(deadline=None)
@given(sorted_correlations([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]))
def test_implicit_zero_tail_reads_as_every_pair(case):
    n, stored = case
    corr = correlation_set(n, stored)
    # every pair reads its given value or 0; only the nonzero ones are kept
    assert dict(corr.ordered_pairs()) == {p: stored.get(p, 0.0) + 0.0 for p in itertools.combinations(range(n), 2)}
    kept = [p for p, b in stored.items() if b != 0]
    assert corr.pairs.tolist() == [list(p) for p in kept] and corr.values.tolist() == [stored[p] for p in kept]
    assert not (corr.pairs.flags.writeable or corr.values.flags.writeable)


def test_implicit_zero_tail_rejects_pairs_it_cannot_order():
    for pairs in ([[0, 2], [0, 1]], [[0, 1], [0, 1]], [[1, 4]], [[-1, 2]]):
        with pytest.raises(ValueError, match=re.escape("pairs must be sorted, unique and in [0, 4)")):
            CorrelationSet(4, np.array(pairs), np.full(len(pairs), 0.5))


@pytest.mark.parametrize("zeros", [False, True])
def test_ordered_pairs_span_chunks(zeros):
    # more stored pairs than one chunk of the lazy order, with ties in |b|
    # across chunk boundaries; with zeros, a third of the pairs read 0 from
    # the tail that follows the stored ones
    rng = np.random.default_rng(5)
    pairs = list(itertools.combinations(range(50), 2))
    pool = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0] if zeros else [-1.0, -0.5, 0.5, 1.0]
    values = rng.choice(pool, size=len(pairs)).tolist()
    corr = CorrelationSet(50, pairs, values)
    assert len(corr.pairs) > shrink.ORDER_CHUNK
    assert list(corr.ordered_pairs()) == sorted(zip(pairs, values), key=lambda kv: (-abs(kv[1]), kv[0]))


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
    # the constructor keeps a -0.0 weight, which from_edges's sum from 0.0 would not
    return WeightedGraph(n, u, v, w), CorrelationSet(n, pairs, corr)


@settings(deadline=None)
@given(graphs_with_signed_correlations())
def test_cuttable_graph_scores_every_lift_bit_for_bit(case):
    g, corr = case
    # one state walked down to a single vertex, so the per-count cache is read
    # after every contraction
    for state in _contractions(g, corr, 1):
        size = state.reduced_size
        lifted = state.reconstruct(np.stack([index_to_assignment(i, size) for i in range(1 << size)]))
        # exactly the edges no lift cuts are dropped: an edge inside one
        # super-vertex with its ends on opposite sides is cut by every lift
        cut_somewhere = np.any(lifted[:, g.u] ^ lifted[:, g.v], axis=0)
        expected = WeightedGraph(g.vertex_count, g.u[cut_somewhere], g.v[cut_somewhere], g.w[cut_somewhere])
        assert state.cuttable == expected
        assert (state.cuttable is g) == bool(cut_somewhere.all())
        assert cut_value_batch(state.cuttable, lifted).tobytes() == cut_value_batch(g, lifted).tobytes()


@settings(deadline=None)
@given(graphs_with_signed_correlations())
# K12 with float weights: the last pair holds at least 11 edges, past the
# length at which a pairwise sum stops adding in edge order
@example((random_weighted_graph(12, 1.0, np.random.default_rng(4)), random_correlations(12, np.random.default_rng(5))))
def test_current_weight_is_the_reduced_entry_bit_for_bit(case):
    g, corr = case
    for state in _contractions(g, corr, 1):
        matrix = state.reduced.weight_matrix
        active = super_vertices(state)
        for (i, a), (j, b) in itertools.product(enumerate(active), repeat=2):
            assert state.current_weight(a, b).hex() == matrix[i, j].hex()


class DenseShrink:
    """Reference: contraction as a dense row merge. An n x n weight matrix
    whose kept row and column absorb the removed ones, a flat root and flip
    per original vertex, and an offset that grows at each sign -1
    contraction by removed's total incident weight at that time."""

    def __init__(self, g):
        self.w = np.array(g.weight_matrix)
        self.root, self.flip = np.arange(g.vertex_count), np.zeros(g.vertex_count, dtype=bool)
        self.records, self.offset = [], 0.0

    def active(self):
        return np.flatnonzero(self.root == np.arange(self.root.size))

    def contract(self, removed, kept, sign):
        delta = float(self.w[removed, self.active()].sum()) if sign == -1 else 0.0
        self.w[kept] += sign * self.w[removed]
        self.w[kept, kept] = 0.0
        self.w[:, kept] = self.w[kept]
        self.w[removed] = self.w[:, removed] = 0.0
        moved = self.root == removed
        self.root[moved] = kept
        self.flip[moved] ^= sign == -1
        self.offset += delta
        self.records.append(shrink.ShrinkRecord(kept, removed, sign))

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
    for (u, v), b in corr.ordered_pairs():
        if len(dense.records) == g.vertex_count - 1:
            break
        if dense.root[u] == dense.root[v]:
            continue
        sign = correlation_sign(b) * (-1 if dense.flip[u] != dense.flip[v] else 1)
        dense.contract(int(dense.root[u]), int(dense.root[v]), sign)
        state = next(states)
        assert state.records == dense.records
        columns, flip = state.lift_map
        assert np.array_equal(columns, np.searchsorted(dense.active(), dense.root))
        assert np.array_equal(flip, dense.flip)
        cut = (dense.root[g.u] != dense.root[g.v]) | (dense.flip[g.u] != dense.flip[g.v])
        assert state.cuttable == g.edge_subgraph(cut)
        reduced = dense.reduced()
        assert not (state.offset == 0.0 and np.signbit(state.offset))
        if exact:
            assert state.offset.hex() == dense.offset.hex()
            assert state.reduced == reduced and state.reduced.w.tobytes() == reduced.w.tobytes()
        else:
            assert abs(state.offset - dense.offset) <= bound
            assert np.abs(state.reduced.weight_matrix - reduced.weight_matrix).max(initial=0.0) <= bound
    assert next(states, None) is None
    replayed = replay_trace(g, parse_trace(format_trace(state)))
    assert replayed.records == state.records and replayed.offset.hex() == state.offset.hex()
    assert replayed.reduced == state.reduced


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
    # the walked state's lift map catches up one record per read, between
    # path-compressing finds; a fresh state catches up on every record at once
    g, corr, finds = case
    returned = []
    for state, vertices in zip(_contractions(g, corr, 1), finds):
        columns, flip = state.lift_map
        fresh = ShrinkState(g)
        for kept, removed, sign in state.records:
            fresh.contract(removed, kept, sign)
        fresh_columns, fresh_flip = fresh.lift_map
        assert columns.dtype == fresh_columns.dtype and columns.tobytes() == fresh_columns.tobytes()
        assert flip.dtype == fresh_flip.dtype == bool and flip.tobytes() == fresh_flip.tobytes()
        roots, signs = np.array([fresh.find(v) for v in range(g.vertex_count)]).reshape(-1, 2).T
        assert np.array_equal(columns, np.searchsorted(np.unique(roots), roots))
        assert np.array_equal(flip, signs == -1)
        returned.append((columns, columns.copy(), flip, flip.copy()))
        for v in vertices:
            state.find(v)
    # arrays once returned are never written by a later catch-up
    assert all(np.array_equal(a, b) and np.array_equal(f, h) for a, b, f, h in returned)


@settings(deadline=None)
@given(graphs_with_signed_correlations())
# merging 0 and 1 on equal sides cancels their edges to 2, and on opposite
# sides the -0.0 edge's negation meets a 0.0 edge: both pairs sum to 0.0
@example((WeightedGraph(3, [0, 1], [2, 2], [1.5, -1.5]), CorrelationSet(3, [(0, 1)], [1.0])))
@example((WeightedGraph(3, [0, 1], [2, 2], [-0.0, 0.0]), CorrelationSet(3, [(0, 1)], [-1.0])))
def test_reduced_matrix_enumerates_as_the_reduced_graph(case):
    g, corr = case
    for state in _contractions(g, corr, 1):
        matrix = state.reduced_matrix()
        reduced = state.reduced
        assert matrix.dtype == float and matrix.tobytes() == reduced.weight_matrix.tobytes()
        got, want = brute_force_matrix(matrix), brute_force(reduced)
        assert (got.max_value.hex(), got.min_value.hex()) == (want.max_value.hex(), want.min_value.hex())
        assert np.array_equal(got.argmax, want.argmax) and got.optimum_count == want.optimum_count
