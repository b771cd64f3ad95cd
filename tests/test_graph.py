import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkcut import (
    ParseError,
    QuboProblem,
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
from shrinkcut.graph import cut_values_for_indices, index_to_assignment
from shrinkcut.instances import random_weighted_graph


def enumerate_cuts(g):
    """Independent oracle: every assignment by direct definition."""
    values = {}
    for bits in itertools.product([False, True], repeat=g.vertex_count):
        a = np.array(bits)
        values[bits] = sum(w for u, v, w in g.edges if a[u] != a[v])
    return values


def per_edge_cut_values(g, indices):
    """Independent oracle for cut_values_for_indices: one pass per edge."""
    idx = np.asarray(indices, dtype=np.int64)
    vals = np.zeros(idx.shape)
    for u, v, w in g.edges:
        vals += w * (((idx >> u) ^ (idx >> v)) & 1)
    return vals


@st.composite
def graphs_with_indices(draw):
    """A graph on 0..12 vertices, sometimes its dense closure with explicit
    zero pairs, and an index array that may be unsorted, repeated or empty."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    weight = st.one_of(st.none(), st.just(0.0), st.floats(-10, 10))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w is not None])
    if draw(st.booleans()):
        g = dense_closure(g)
    indices = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    return g, np.array(indices, dtype=np.int64)


def assert_matches_per_edge(g, indices):
    tol = 1e-9 * (1.0 + sum(abs(w) for _, _, w in g.edges))
    got = cut_values_for_indices(g, indices)
    assert got.shape == np.shape(indices)
    np.testing.assert_allclose(got, per_edge_cut_values(g, indices), rtol=0, atol=tol)


@pytest.mark.parametrize("block_bits", [3, graph.ENUM_BLOCK_BITS])
@settings(deadline=None)
@given(graphs_with_indices())
def test_cut_values_for_indices_match_per_edge_sum(block_bits, case):
    # at 3 block bits, graphs above 3 vertices spread over several prefixes
    g, indices = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "ENUM_BLOCK_BITS", block_bits)
        assert_matches_per_edge(g, indices)
        assert_matches_per_edge(g, np.arange(1 << g.vertex_count))


def test_cut_values_for_indices_tiny_graphs():
    assert cut_values_for_indices(WeightedGraph.from_edges(0, []), np.arange(1)).tolist() == [0.0]
    assert cut_values_for_indices(WeightedGraph.from_edges(1, []), np.arange(2)).tolist() == [0.0, 0.0]
    k2 = WeightedGraph.from_edges(2, [(0, 1, -2.5)])
    assert cut_values_for_indices(k2, np.array([3, 1, 1, 0, 2])).tolist() == [0.0, -2.5, -2.5, 0.0, -2.5]
    assert cut_values_for_indices(k2, np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("n, index", [(3, 8), (3, -1), (0, 1), (21, 1 << 21)])
def test_cut_values_for_indices_reject_out_of_range(n, index):
    g = WeightedGraph.from_edges(n, [(0, 1, 1.0)] if n > 1 else [])
    with pytest.raises(ValueError, match=f"index {index} is outside"):
        cut_values_for_indices(g, np.array([0, index]))


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


@settings(deadline=None)
@given(st.integers(0, 12), st.sampled_from(["normal", "sign"]), st.sampled_from([0.3, 1.0]), st.integers(0, 2**32 - 1))
def test_format_parse_round_trip_property(n, kind, p, seed):
    g = random_weighted_graph(n, p, np.random.default_rng(seed), kind)
    text = format_instance(g)
    assert parse_instance(text) == g
    assert format_instance(parse_instance(text)) == text


def test_cut_value_trivial_cases():
    k2 = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
    assert cut_value(k2, [True, False]) == 5.0
    assert cut_value(k2, [False, False]) == 0.0
    triangle = parse_instance("3 3\n1 2 1\n2 3 1\n1 3 1")
    assert cut_value(triangle, [True, False, False]) == 2.0


def test_cut_value_length_mismatch():
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        cut_value(g, [True])


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
    vals = cut_values_for_indices(g, np.arange(1 << (n - 1), dtype=np.int64))
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


def assert_brute_force_matches_half_space(g):
    """brute_force against every cut value of the half-space, read at once."""
    n = g.vertex_count
    s = brute_force(g)
    if n == 0:
        assert (s.max_value, s.min_value, s.optimum_count, s.argmax.shape) == (0.0, 0.0, 1, (0,))
        return
    vals = cut_values_for_indices(g, np.arange(1 << (n - 1), dtype=np.int64))
    assert s.max_value == vals.max()
    assert s.min_value == vals.min()
    assert s.optimum_count == np.count_nonzero(vals == vals.max())
    assert np.array_equal(s.argmax, index_to_assignment(int(np.argmax(vals)), n))


@settings(deadline=None, max_examples=60)
@given(integer_weight_graphs(22))
def test_brute_force_matches_half_space_enumeration(g):
    # from n = 18 the half-space spans several 2^16 blocks
    assert_brute_force_matches_half_space(g)


@pytest.mark.parametrize("block_bits", [0, 1, 3])
@settings(deadline=None)
@given(integer_weight_graphs(12))
def test_brute_force_matches_half_space_with_small_blocks(block_bits, g):
    # small blocks take the multi-prefix path at small n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "ORACLE_BLOCK_BITS", block_bits)
        assert_brute_force_matches_half_space(g)


def test_brute_force_cap():
    g = WeightedGraph.from_edges(5, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        brute_force(g, max_vertices=4)


def test_format_summary_record():
    g = WeightedGraph.from_edges(2, [(0, 1, 5.0)])
    text = format_summary(brute_force(g))
    assert "max_value 5\n" in text
    assert "argmax 10\n" in text


def test_qubo_zero_problem():
    q = QuboProblem.from_entries(3, [])
    g, offset = qubo_to_maxcut(q)
    assert g.vertex_count == 4
    assert g.edge_count == 0
    assert offset == 0.0


def test_qubo_single_variable():
    q = QuboProblem.from_entries(1, [(0, 0, 1.0)])
    g, offset = qubo_to_maxcut(q)
    assert cut_value(g, [False, True]) - cut_value(g, [False, False]) == pytest.approx(1.0)


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
        q = QuboProblem.from_entries(n, entries)
        g, offset = qubo_to_maxcut(q)
        for bits in itertools.product([False, True], repeat=n):
            x = np.array(bits)
            a = np.concatenate([[False], x])
            assert cut_value(g, a) == pytest.approx(q.objective(x) + offset, abs=1e-9)


@settings(deadline=None)
@given(st.data())
def test_qubo_equivalence_property(data):
    n = data.draw(st.integers(1, 7))
    index = st.integers(0, n - 1)
    coefficient = st.one_of(st.integers(-3, 3).map(float), st.floats(-10, 10))
    q = QuboProblem.from_entries(n, data.draw(st.lists(st.tuples(index, index, coefficient), max_size=20)))
    g, offset = qubo_to_maxcut(q)
    assert g.vertex_count == n + 1
    xs = np.array(list(itertools.product([False, True], repeat=n)))
    cuts = cut_value_batch(g, np.column_stack((np.zeros(len(xs), dtype=bool), xs)))
    scale = 1.0 + sum(abs(c) for _, c in q.coefficients)
    for x, cut in zip(xs, cuts):
        assert cut == pytest.approx(q.objective(x) + offset, abs=1e-12 * scale)


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
    ],
)
def test_constructor_rejects_non_canonical_arrays(u, v, w, message):
    with pytest.raises(ValueError, match=message):
        WeightedGraph(3, u, v, w)


def dict_merge_reference(n, edges):
    """The former dict-based from_edges: sums in input order, sorted pairs."""
    merged = {}
    for u, v, w in edges:
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + float(w)
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
