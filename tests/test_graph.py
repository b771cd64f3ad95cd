import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    ParseError,
    WeightedGraph,
    brute_force,
    cut_value,
    cut_value_batch,
    dense_closure,
    format_instance,
    format_summary,
    parse_instance,
    qubo_to_maxcut,
)
from shrinkcut import graph
from shrinkcut.graph import index_to_assignment
from shrinkcut.instances import random_pairs, random_weighted_graph


def enumerate_cuts(g):
    """Independent oracle: every assignment by direct definition."""
    values = {}
    for bits in itertools.product([False, True], repeat=g.vertex_count):
        a = np.array(bits)
        values[bits] = sum(w for u, v, w in g.edges if a[u] != a[v])
    return values


def per_edge_cut_values(g, indices):
    """Independent oracle for the block walk: one pass per edge."""
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.zeros(idx.shape)
    for u, v, w in g.edges:
        vals += w * (((idx >> u) ^ (idx >> v)) & 1)
    return vals


@st.composite
def small_graphs(draw):
    """A graph on 0..12 vertices, sometimes its dense closure with explicit zero pairs."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    weight = st.one_of(st.none(), st.just(0.0), st.floats(-10, 10))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w is not None])
    return dense_closure(g) if draw(st.booleans()) else g


@pytest.mark.parametrize("block_bits", [0, 1, 3, graph.ENUM_BLOCK_BITS])
@settings(deadline=None)
@given(small_graphs())
def test_spectrum_matches_per_edge_sum_and_blocks(block_bits, g):
    # at 0 to 3 block bits, graphs above that many vertices spread over several
    # prefixes, whose blocks share one buffer the spectrum must copy out of
    half = np.arange(1 << max(g.vertex_count - 1, 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "ENUM_BLOCK_BITS", block_bits)
        got = graph._spectrum(g)
        blocks = np.concatenate([block.copy() for block in graph._blocks(g.weight_matrix)])
    tol = 1e-9 * (1.0 + np.abs(g.w).sum())
    np.testing.assert_allclose(got, per_edge_cut_values(g, half), rtol=0, atol=tol)
    assert got.tobytes() == blocks.tobytes()


def test_parse_single_edge():
    g = parse_instance("2 1\n1 2 5")
    assert g.vertex_count == 2
    assert g.edges == ((0, 1, 5.0),)


def test_parse_unit_triangle():
    g = parse_instance("3 3\n1 2 1\n2 3 1\n1 3 1")
    assert g.vertex_count == 3
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))


def test_parse_merges_duplicates_additively():
    g = parse_instance("2 2\n1 2 3\n1 2 4")
    assert g.edges == ((0, 1, 7.0),)


def test_parse_comments_and_blank_lines():
    text = "# spin glass\n\n3 2\n# edge block\n1 2 -1.5\n\n2 3 2\n"
    g = parse_instance(text)
    assert g.edge_count == 2
    assert g.edges[0] == (0, 1, -1.5)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("2 1\n1 2 oops")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_instance("2 1\n1 3 1.0")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_instance("3 3\n1 2 1\n2 3 1")
    assert "3 edges" in str(err.value)
    with pytest.raises(ParseError):
        parse_instance("2 1\n1 1 4")
    with pytest.raises(ParseError):
        parse_instance("")
    for weight in ("nan", "inf", "-inf"):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_instance(f"3 2\n1 2 1\n2 3 {weight}")
        assert err.value.line_no == 3


def test_format_parse_round_trip():
    rng = np.random.default_rng(0)
    g = random_weighted_graph(7, 0.5, rng)
    assert parse_instance(format_instance(g)) == g


# signed zeros, integers past 2^53, the smallest subnormal, and magnitudes of
# which any six stay within CUT_WEIGHT_LIMIT
SPECIAL_WEIGHTS = [0.0, -0.0, 1e16, -(2.0**70), 5e-324, 1e300, -6.5e305]


@settings(deadline=None)
@given(
    st.integers(0, 12),
    st.sampled_from(["normal", "sign"]),
    st.sampled_from([0.3, 1.0]),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(SPECIAL_WEIGHTS), max_size=6),
)
def test_format_parse_round_trip_property(n, kind, p, seed, special):
    g = random_weighted_graph(n, p, np.random.default_rng(seed), kind)
    w = np.array(g.w)
    w[: len(special)] = special[: w.size]
    g = WeightedGraph(n, g.u, g.v, w)
    text = format_instance(g)
    back = parse_instance(text)
    assert back == g and back.w.tobytes() == g.w.tobytes()
    assert format_instance(back) == text


def test_cut_value_trivial_cases():
    k2 = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
    assert cut_value(k2, [True, False]) == 5.0
    assert cut_value(k2, [False, False]) == 0.0
    triangle = parse_instance("3 3\n1 2 1\n2 3 1\n1 3 1")
    assert cut_value(triangle, [True, False, False]) == 2.0


def test_cut_value_length_mismatch():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match=re.escape("assignment has shape (1,), expected (2,)")):
        cut_value(g, [True])
    # a batch of one row has the right size but not the right shape
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0)])
    with pytest.raises(ValueError, match=re.escape("assignment has shape (1, 4), expected (4,)")):
        cut_value(g, [[True, False, True, False]])


@pytest.mark.parametrize("n", [0, 1, 2, 22, 50, 300])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_random_pairs_equal_one_draw_per_pair(n, p):
    # the scalar loop random_pairs replaced: one rng.random() per pair, in pair order
    rng = np.random.default_rng(n)
    expected = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    other = np.random.default_rng(n)
    assert random_pairs(n, p, other) == expected
    assert other.bit_generator.state == rng.bit_generator.state


def test_cut_complement_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_weighted_graph(6, 0.6, rng)
        a = rng.integers(0, 2, size=6).astype(bool)
        assert cut_value(g, a) == pytest.approx(cut_value(g, ~a), abs=1e-12)


def test_cut_value_batch_matches_scalar():
    rng = np.random.default_rng(2)
    g = random_weighted_graph(5, 0.7, rng)
    mat = rng.integers(0, 2, size=(8, 5)).astype(bool)
    batch = cut_value_batch(g, mat)
    for row, val in zip(mat, batch):
        assert val == pytest.approx(cut_value(g, row), abs=1e-12)


@st.composite
def graphs_with_assignments(draw):
    """A graph on 0..9 vertices, possibly edgeless, and a (k, n) assignment
    matrix with k in 0..12, in C or Fortran order."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    weights = draw(st.lists(st.one_of(st.none(), st.floats(-1e6, 1e6)), min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w is not None])
    k = draw(st.integers(0, 12))
    bits = draw(st.lists(st.booleans(), min_size=k * n, max_size=k * n))
    return g, np.array(bits, dtype=bool).reshape(k, n).copy(order=draw(st.sampled_from("CF")))


@pytest.mark.parametrize("chunk_bytes", [1, graph.SCORE_CHUNK_BYTES])
@settings(deadline=None)
@given(graphs_with_assignments())
def test_cut_value_batch_matches_per_edge_sum(chunk_bytes, case):
    # one chunk byte gives chunks of two rows: k > 2 spans several chunks and
    # an odd k ends on a chunk of one row
    g, a = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "SCORE_CHUNK_BYTES", chunk_bytes)
        batch = cut_value_batch(g, a)
        alone = [cut_value_batch(g, row[None, :])[0] for row in a]
    expected = [sum(w for u, v, w in g.edges if row[u] != row[v]) for row in a.tolist()]
    assert batch.shape == (len(a),)
    np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12 * sum(abs(w) for _, _, w in g.edges))
    # a row scores the same bits alone as in a batch
    assert np.array_equal(batch, alone)


def test_brute_force_unit_triangle():
    g = parse_instance("3 3\n1 2 1\n2 3 1\n1 3 1")
    s = brute_force(g)
    assert s.max_value == 2.0
    assert s.min_value == 0.0
    # three distinct optimal bipartitions (one vertex against the others)
    assert s.optimum_count == 3
    # lowest-encoding optimum is {vertex 0}
    assert list(s.argmax) == [True, False, False]


def test_brute_force_mixed_ring():
    # 4-ring with weights +1,+1,+1,-1: hand enumeration gives max 2
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, -1.0)])
    oracle = enumerate_cuts(g)
    assert max(oracle.values()) == 2.0
    s = brute_force(g)
    assert s.max_value == 2.0
    assert s.min_value == min(oracle.values())


def test_brute_force_negative_k2():
    g = WeightedGraph.from_edges(2, [(0, 1, -3.0)])
    s = brute_force(g)
    assert s.max_value == 0.0
    assert s.min_value == -3.0
    assert list(s.argmax) == [False, False]


def test_brute_force_dominates_every_assignment():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_weighted_graph(7, 0.5, rng)
        s = brute_force(g)
        oracle = enumerate_cuts(g)
        assert s.max_value == pytest.approx(max(oracle.values()), abs=1e-12)
        assert s.min_value == pytest.approx(min(oracle.values()), abs=1e-12)
        assert cut_value(g, s.argmax) == pytest.approx(s.max_value, abs=1e-12)


@pytest.mark.parametrize(
    "edges, chunk_maxima",
    [
        # vertex 20 splits the half-space into two 2^20 chunks; the optimum
        # is reached in both of them
        ([(0, 1, 1.0), (1, 2, 1.0), (3, 4, -1.0), (5, 20, 1.0)], (3.0, 3.0)),
        # chunk 1 keeps 20 and 21 together and ties many times at 1; chunk 2
        # cuts the (20, 21) edge and reaches 4
        ([(0, 1, 1.0), (2, 3, -2.0), (20, 21, 3.0)], (1.0, 4.0)),
    ],
)
def test_brute_force_counts_across_chunks(edges, chunk_maxima):
    n = 22
    g = WeightedGraph.from_edges(n, edges)
    vals = graph._spectrum(g)
    first, second = vals[: 1 << 20], vals[1 << 20 :]
    assert (first.max(), second.max()) == chunk_maxima
    assert np.count_nonzero(first == first.max()) > 1
    s = brute_force(g)
    assert s.max_value == vals.max()
    assert s.min_value == vals.min()
    assert s.optimum_count == np.count_nonzero(vals == vals.max())
    assert np.array_equal(s.argmax, index_to_assignment(int(np.argmax(vals)), n))


@st.composite
def integer_weight_graphs(draw, max_n):
    """Graphs on 0..max_n vertices with small integer weights (zeros kept as
    explicit pairs), so every cut value is exact and optima tie often."""
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(pairs)) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    weights = rng.integers(-2, 3, size=len(pairs))
    return WeightedGraph.from_edges(n, [(u, v, float(w)) for (u, v), w, k in zip(pairs, weights, keep) if k])


def assert_brute_force_matches(g, vals):
    """brute_force against vals, every cut value of the half-space at once."""
    n = g.vertex_count
    s = brute_force(g)
    if n == 0:
        assert (s.max_value, s.min_value, s.optimum_count, s.argmax.shape) == (0.0, 0.0, 1, (0,))
        return
    assert s.max_value == vals.max()
    assert s.min_value == vals.min()
    assert s.optimum_count == np.count_nonzero(vals == vals.max())
    assert np.array_equal(s.argmax, index_to_assignment(int(np.argmax(vals)), n))


@settings(deadline=None, max_examples=60)
@given(integer_weight_graphs(22))
def test_brute_force_matches_half_space_enumeration(g):
    # from n = 18 the half-space spans several 2^16 blocks
    assert_brute_force_matches(g, graph._spectrum(g))


@pytest.mark.parametrize("block_bits", [0, 1, 3])
@settings(deadline=None)
@given(integer_weight_graphs(12))
def test_brute_force_matches_half_space_with_small_blocks(block_bits, g):
    # small blocks take the multi-prefix path at small n; the values come
    # from the per-edge oracle, not from the block walk brute_force uses
    half = np.arange(1 << max(g.vertex_count - 1, 0), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "ENUM_BLOCK_BITS", block_bits)
        assert_brute_force_matches(g, per_edge_cut_values(g, half))


def double_by_vertex_reference(out, start, step, op):
    """_double_by_vertex one op per vertex k and level j, vertex after vertex."""
    for k in range(out.size.bit_length() - 1):
        d = out[1 << k : 2 << k]
        d[0] = start[k]
        for j in range(k):
            op(d[: 1 << j], step[k, j], out=d[1 << j : 2 << j])
        op(d, out[: 1 << k], out=d)
    return out


def double_both_ways(t, table_bits, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype is complex:  # as qaoa._phase: a real first entry, unit phases on t + 1 vertices
        phases = np.exp(1j * rng.normal(size=(t + 1) * (t + 2)))
        first, start, step, op = 2.0 ** (-(t + 1) / 2), phases[: t + 1], phases[t + 1 :].reshape(t + 1, t + 1), np.multiply
    else:
        first, start, step, op = rng.normal(), rng.normal(size=t), rng.normal(size=(t, t)), np.add
    ref = np.empty(1 << t, dtype=dtype)
    ref[0] = first
    got = ref.copy()
    double_by_vertex_reference(ref, start, step, op)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "DOUBLING_TABLE_BITS", table_bits)
        graph._double_by_vertex(got, start, step, op)
    return got, ref


@pytest.mark.parametrize("table_bits", [0, 1, 3, 8])
@pytest.mark.parametrize("t", range(14))
def test_double_by_vertex_adds_as_the_per_vertex_loop(t, table_bits):
    # the table changes how many numpy calls build each entry, not its sum
    got, ref = double_both_ways(t, table_bits, float, seed=t)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("table_bits", [0, 1, 3, 8])
@pytest.mark.parametrize("t", range(14))
def test_double_by_vertex_multiplies_as_the_per_vertex_loop(t, table_bits):
    # numpy may round a complex product with or without a fused multiply-add
    # depending on the loop it picks, so the products agree to a few ulp
    got, ref = double_both_ways(t, table_bits, complex, seed=100 + t)
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(np.abs(ref)))


def test_brute_force_cap(monkeypatch):
    # one vertex past the cap is rejected before anything is enumerated
    def unreachable(w):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(graph, "brute_force_matrix", unreachable)
    g = WeightedGraph.from_edges(25, [(i, i + 1, 1.0) for i in range(24)])
    with pytest.raises(ValueError, match="^25 vertices exceeds the enumeration cap of 24$"):
        brute_force(g)


# (from_edges arguments, their Σ|w| as the error names it) past
# CUT_WEIGHT_LIMIT: the first sums to 1e308, where the -2w steps overflow; the
# second's total overflows
OVERFLOWING_GRAPHS = [
    ((3, [(0, 1, 1e308), (1, 2, 1.0)]), "1e+308"),
    ((4, [(0, 2, 1e308), (1, 2, 1e308), (2, 3, 1.0), (0, 1, -1.0)]), "inf"),
]


@pytest.mark.parametrize("g, total", OVERFLOWING_GRAPHS)
def test_brute_force_rejects_weights_whose_cut_values_overflow(g, total):
    # enumerating them returned max -inf or min inf and a wrong count, and the
    # QAOA expectations -inf; the graph is now rejected where it is built
    with pytest.raises(ValueError, match=re.escape(f"total absolute weight {total} exceeds")):
        brute_force(WeightedGraph.from_edges(*g))


@pytest.mark.parametrize("block_bits", [1, graph.ENUM_BLOCK_BITS])
def test_brute_force_enumerates_up_to_the_weight_limit(monkeypatch, block_bits):
    # quarters of the limit sum to it exactly; a RuntimeWarning from an
    # overflowing step fails the test, in _prefix_block too with 1-bit blocks
    monkeypatch.setattr(graph, "ENUM_BLOCK_BITS", block_bits)
    quarter = graph.CUT_WEIGHT_LIMIT / 4
    ring = [(0, 1, quarter), (1, 2, -quarter), (2, 3, quarter), (0, 3, -quarter)]
    g = WeightedGraph.from_edges(4, ring)
    s = brute_force(g)
    assert sum(map(abs, g.w.tolist())) == graph.CUT_WEIGHT_LIMIT
    assert (s.max_value, s.min_value, s.optimum_count) == (2 * quarter, -2 * quarter, 1)
    with pytest.raises(ValueError, match="total absolute weight"):
        WeightedGraph.from_edges(4, ring[:-1] + [(0, 3, -np.nextafter(quarter, np.inf))])


def test_format_summary_record():
    g = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
    text = format_summary(brute_force(g))
    assert "max_value 5\n" in text
    assert "argmax 10\n" in text


def qubo_matrix(n, entries):
    """The entries summed into an upper-triangular Q, so the QUBO objective is x^T Q x."""
    q = np.zeros((n, n))
    if entries:
        i, j, c = zip(*entries)
        np.add.at(q, (np.minimum(i, j), np.maximum(i, j)), c)
    return q


def qubo_objectives(q, xs):
    x = np.array(xs, dtype=float)
    return np.einsum("ki,ij,kj->k", x, q, x)


def test_qubo_zero_problem():
    for n in (0, 3):
        g = qubo_to_maxcut(n, [])
        assert g.vertex_count == n + 1
        assert g.edge_count == 0


def test_qubo_single_variable():
    g = qubo_to_maxcut(1, [(0, 0, 1.0)])
    assert cut_value(g, [False, True]) - cut_value(g, [False, False]) == pytest.approx(1.0)


def test_qubo_rejects_bad_entries():
    # an index is checked per entry; a non-finite or overflowing coefficient
    # and a total past the limit are rejected by the graph constructor, on the
    # mapped weights: pair (0, 1) adds its half to the reference edges (0, 1)
    # and (0, 2), and the first bad edge is named
    exceeds = f"exceeds {graph.CUT_WEIGHT_LIMIT:.6g}; cut values could overflow"
    cases = [
        ([(0, 1, float("nan"))], ValueError, "edge (0, 1) has non-finite weight nan"),
        ([(0, 1, float("inf"))], ValueError, "edge (0, 1) has non-finite weight inf"),
        ([(0.5, 1, 1.0)], TypeError, "entry (0.5, 1, 1.0) needs integer indices"),
        ([(0, 1.0, 1.0)], TypeError, "entry (0, 1.0, 1.0) needs integer indices"),
        ([(0, 2, 1.0)], ValueError, "index out of range in entry (0, 2, 1.0)"),
        ([(-1, 0, 1.0)], ValueError, "index out of range in entry (-1, 0, 1.0)"),
        ([(0, 0, 1e308), (0, 1, 1e308)], ValueError, f"total absolute weight inf {exceeds}"),
        ([(0, 0, 3e307), (1, 1, -3e307)], ValueError, f"total absolute weight 6e+307 {exceeds}"),
        # the merged sum overflows to inf, which no later sum can undo
        ([(1, 1, 1e308), (1, 1, 1e308), (1, 1, -1e308)], ValueError, "edge (0, 2) has non-finite weight inf"),
    ]
    for entries, error, message in cases:
        with pytest.raises(error) as err:
            qubo_to_maxcut(2, entries)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="need n >= 0"):
        qubo_to_maxcut(-1, [])
    with pytest.raises(TypeError, match="^n must be an integer, got 2.0$"):
        qubo_to_maxcut(2.0, [])
    # numpy integer indices are indices, a mapped total at the limit is kept,
    # and so are coefficients whose merged weights cancel
    limit = graph.CUT_WEIGHT_LIMIT
    g = qubo_to_maxcut(2, [(np.int64(1), np.uint8(0), limit), (0, 0, -limit / 2)])
    assert sum(map(abs, g.w.tolist())) == limit
    sides = np.array([[False, False, False], [False, True, False], [False, False, True], [False, True, True]])
    assert cut_value_batch(g, sides).tolist() == [0.0, -limit / 2, 0.0, limit / 2]
    assert qubo_to_maxcut(2, [(0, 1, 4e307), (0, 1, -4e307)]).edge_count == 0


def loop_qubo_to_maxcut(n, entries):
    """The mapping one entry and one pair at a time, in the summation order
    qubo_to_maxcut promises: a reference for its bits."""
    merged = {}
    for i, j, q in entries:
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, 0.0) + q
    reference = [merged.get((i, i), 0.0) for i in range(n)]
    edges = []
    for (i, j), q in sorted(merged.items()):
        if i != j:
            reference[i] += q / 2.0
            reference[j] += q / 2.0
            if q != 0.0:
                edges.append((i + 1, j + 1, -q / 2.0))
    edges.extend((0, i + 1, w) for i, w in enumerate(reference) if w != 0.0)
    return WeightedGraph.from_edges(n + 1, edges)


def assert_same_bits(g, h):
    assert g.vertex_count == h.vertex_count
    assert all(getattr(g, a).tobytes() == getattr(h, a).tobytes() for a in "uvw")


def test_qubo_equivalence_exhaustive():
    rng = np.random.default_rng(4)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        entries = [
            (i, j, float(rng.normal()))
            for i in range(n)
            for j in range(i, n)
            if rng.random() < 0.7
        ]
        g = qubo_to_maxcut(n, entries)
        assert_same_bits(g, loop_qubo_to_maxcut(n, entries))
        xs = list(itertools.product([False, True], repeat=n))
        for x, objective in zip(xs, qubo_objectives(qubo_matrix(n, entries), xs)):
            a = np.concatenate([[False], x])
            assert cut_value(g, a) == pytest.approx(objective, abs=1e-9)


@settings(deadline=None)
@given(st.data())
def test_qubo_equivalence_property(data):
    n = data.draw(st.integers(1, 7))
    index = st.integers(0, n - 1)
    coefficient = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10))
    entries = data.draw(st.lists(st.tuples(index, index, coefficient), max_size=20))
    g = qubo_to_maxcut(n, entries)
    assert g.vertex_count == n + 1
    assert_same_bits(g, loop_qubo_to_maxcut(n, entries))
    xs = np.array(list(itertools.product([False, True], repeat=n)))
    cuts = cut_value_batch(g, np.column_stack((np.zeros(len(xs), dtype=bool), xs)))
    q = qubo_matrix(n, entries)
    scale = 1.0 + np.abs(q).sum()
    for cut, objective in zip(cuts, qubo_objectives(q, xs)):
        assert cut == pytest.approx(objective, abs=1e-12 * scale)


def test_dense_closure_small_cases():
    k2 = WeightedGraph.from_edges(2, [(0, 1, 3.0)])
    assert dense_closure(k2) == k2
    isolated = WeightedGraph.from_edges(3, [])
    closed = dense_closure(isolated)
    assert closed.edge_count == 3
    assert all(w == 0.0 for _, _, w in closed.edges)
    path = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    closed = dense_closure(path)
    assert closed.weight_matrix[0, 2] == 0.0
    assert closed.edge_count == 3


def test_dense_closure_preserves_cut_values():
    rng = np.random.default_rng(5)
    g = random_weighted_graph(6, 0.4, rng)
    closed = dense_closure(g)
    for _ in range(10):
        a = rng.integers(0, 2, size=6).astype(bool)
        assert cut_value(closed, a) == pytest.approx(cut_value(g, a), abs=1e-12)


def test_index_assignment_round_trip():
    for idx in range(16):
        a = index_to_assignment(idx, 4)
        assert sum(int(b) << i for i, b in enumerate(a)) == idx


def test_from_edges_validation():
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError, match="vertex_count >= 0"):
        WeightedGraph.from_edges(-1, [])
    for w in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedGraph.from_edges(2, [(0, 1, w)])
    # finite duplicates whose sum overflows
    with pytest.raises(ValueError, match="non-finite"):
        WeightedGraph.from_edges(2, [(0, 1, 1e308), (1, 0, 1e308)])
    # the direct constructor checks weights as from_edges does
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has non-finite weight nan"):
        WeightedGraph(2, [0], [1], [float("nan")])
    # an int64 cast would truncate 1.5 to 1; the edge is named instead
    with pytest.raises(ValueError, match=r"edge \(0(\.0)?, 1\.5\) needs integer ids u < v in \[0, 3\)"):
        WeightedGraph.from_edges(3, [(0, 1.5, 1.0), (1, 2, 1.0)])
    for bad_id in (2.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer ids"):
            WeightedGraph.from_edges(3, [(0, 1, 1.0), (bad_id, 1, 1.0)])
    with pytest.raises(ValueError, match="integer ids"):
        WeightedGraph(3, [0, 1], [1.5, 2], [1.0, 1.0])
    # integral floats cast exactly, so they are kept, as are numpy integer ids
    assert WeightedGraph.from_edges(3, [(2.0, 0, 1.0)]).edges == ((0, 2, 1.0),)
    numpy_ids = WeightedGraph.from_edges(np.int64(3), [(np.int32(2), np.int64(0), 1.0), (np.uint8(1), 2, 2.0)])
    assert numpy_ids.edges == ((0, 2, 1.0), (1, 2, 2.0))
    for u, v in ([np.int64(0)], [np.int32(2)]), (np.array([0], dtype=np.uint8), np.array([2], dtype=np.uint8)), ([0.0], [2.0]):
        g = WeightedGraph(4, u, v, [0.5])
        assert g.u.dtype == g.v.dtype == np.int64 and g.edges == ((0, 2, 0.5),)


@pytest.mark.parametrize(
    "u, v, w, message",
    [
        ([1], [0], [1.0], "needs integer ids u < v"),
        ([1], [1], [1.0], "needs integer ids u < v"),
        ([0], [3], [1.0], "needs integer ids u < v"),
        ([-1], [1], [1.0], "needs integer ids u < v"),
        ([0, 0], [2, 1], [1.0, 1.0], "sorted with unique pairs"),
        ([0, 0], [1, 1], [1.0, 1.0], "sorted with unique pairs"),
        ([0, 1], [1, 2], [1.0], "one length"),
        ([[0]], [[1]], [[1.0]], "one length"),
        ([0, 1], [1], [1.0, 1.0], None),  # numpy rejects the ragged pair of id lists
        ([0.0], [2.7], [1.0], "needs integer ids u < v"),
        ([0], [float("nan")], [1.0], "needs integer ids u < v"),
        ([0], [float("inf")], [1.0], "needs integer ids u < v"),
    ],
)
def test_constructor_rejects_non_canonical_arrays(u, v, w, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph(3, u, v, w)


def dict_merge_reference(n, edges):
    """A dict-based from_edges: sums in input order from -0.0, sorted pairs."""
    merged = {}
    for u, v, w in edges:
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, -0.0) + float(w)
    return [(int(u), int(v), merged[(u, v)]) for u, v in sorted(merged)]


@st.composite
def edge_lists(draw):
    """Edges on 0..6 vertices with reversed pairs, repeats (some cancelling
    to 0), and Python or numpy integer ids."""
    n = draw(st.integers(0, 6))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    weight = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e300]))
    edges = []
    for (u, v), w, cancel in draw(st.lists(st.tuples(pair, weight, st.booleans()), max_size=20)):
        edges.append((u, v, w))
        if cancel:
            edges.append((v, u, -w))
    ids = draw(st.sampled_from([int, np.int64, np.int32, np.uint16]))
    return n, [(ids(u), ids(v), w) for u, v, w in draw(st.permutations(edges))]


@settings(deadline=None)
@given(edge_lists())
def test_from_edges_matches_dict_merge(case):
    n, edges = case
    g = WeightedGraph.from_edges(n, edges)
    expected = dict_merge_reference(n, edges)
    assert g.vertex_count == n
    assert [e[:2] for e in g.edges] == [e[:2] for e in expected]
    # bit for bit: the same sums in the same order, explicit zeros kept
    assert np.array_equal(g.w.view(np.int64), np.array([e[2] for e in expected]).view(np.int64))
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in g.edges)
    assert g.u.dtype == g.v.dtype == np.int64 and g.w.dtype == np.float64
    for a in (g.u, g.v, g.w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0
    filled = np.zeros((n, n))
    for u, v, w in expected:
        filled[u, v] = filled[v, u] = w
    assert np.array_equal(g.weight_matrix, filled)
    assert WeightedGraph(n, g.u, g.v, g.w) == g


def test_constructor_copies_its_inputs():
    u, v, w = np.array([0, 1]), np.array([1, 2]), np.array([1.0, -2.0])
    g = WeightedGraph(3, u, v, w)
    u[0], w[0] = 1, 5.0
    assert g.edges == ((0, 1, 1.0), (1, 2, -2.0))
    assert u.flags.writeable and w.flags.writeable
    assert g != WeightedGraph(3, [0, 1], [1, 2], [1.0, 2.0])
    assert g != WeightedGraph(4, [0, 1], [1, 2], [1.0, -2.0])


def test_pickle_round_trip_rebuilds_a_read_only_graph():
    g = WeightedGraph.from_edges(4, [(0, 1, 1.5), (3, 2, -2.0), (1, 3, 0.0)])
    assert g.weight_matrix.shape == (4, 4)  # the cached matrix is not pickled
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g
    assert type(copy.vertex_count) is int
    for a in (copy.u, copy.v, copy.w):
        assert not a.flags.writeable
    assert np.array_equal(copy.weight_matrix, g.weight_matrix)


def test_vertex_count_must_be_an_integer():
    for bad in (2.5, 3.0, np.float64(3), "3", None):
        with pytest.raises(TypeError, match=re.escape(f"vertex_count must be an integer, got {bad!r}")):
            WeightedGraph(bad, [0], [1], [1.0])
    for count in (np.int64(3), np.uint8(3)):
        g = WeightedGraph.from_edges(count, [(0, 1, 1.0)])
        assert type(g.vertex_count) is int and g.vertex_count == 3
