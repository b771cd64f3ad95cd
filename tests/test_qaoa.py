import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinkcut import (
    STATEVECTOR_CAP,
    QaoaParams,
    QaoaState,
    WeightedGraph,
    cut_value_batch,
    dense_closure,
    deviation_ratio,
    estimate_parameters,
    expectation_analytic,
    expectation_statevector,
    export_landscape_csv,
    grid_search,
    qaoa_state,
    sample_cuts,
)
from shrinkcut.instances import (
    build,
    complete_pairs,
    random_weighted_graph,
    ring_pairs,
    sign_weights,
    unit,
)
from shrinkcut.qaoa import GRID_AXIS_POINTS, MIXER_SCRATCH, _analytic_grid, _phase, _search_normalised

K2 = WeightedGraph.from_edges(2, [(0, 1, 1.0)])

angles = st.floats(0.0, math.pi / 2)


@st.composite
def random_graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["normal", "sign"]))
    # edge probability 1.0 draws complete graphs: every edge shares all n - 2 other vertices
    p = draw(st.sampled_from([0.6, 1.0]))
    return random_weighted_graph(n, p, np.random.default_rng(draw(st.integers(0, 2**32))), kind)


def per_edge_spectrum(g, size):
    """Cut values of the assignments 0..size-1 (vertex i = bit i), one pass per edge."""
    x = np.arange(size)
    vals = np.zeros(size)
    for u, v, w in g.edges:
        vals += w * (((x >> u) ^ (x >> v)) & 1)
    return vals


def butterfly_state(g, params):
    """Reference depth-1 statevector: the X rotation applied one qubit at a time."""
    n = g.vertex_count
    spectrum = per_edge_spectrum(g, 1 << n)
    amp = 2.0 ** (-n / 2.0) * np.exp(-1j * params.gamma * spectrum)
    c, s = math.cos(params.beta), math.sin(params.beta)
    for q in range(n):
        view = amp.reshape(-1, 2, 1 << q)
        lo, hi = view[:, 0, :].copy(), view[:, 1, :].copy()
        view[:, 0, :] = c * lo - 1j * s * hi
        view[:, 1, :] = c * hi - 1j * s * lo
    return amp


@settings(deadline=None)
@given(random_graphs(12), angles, angles)
def test_blocked_mixer_matches_butterfly(g, gamma, beta):
    # n = 0..12 covers fewer qubits than one mixer block and partial last blocks
    p = QaoaParams(gamma, beta)
    full = butterfly_state(g, p)
    # the full state is its own mirror image, amp[x] = amp[~x], so its first
    # half (top qubit 0) is all of it
    np.testing.assert_allclose(full, full[::-1], rtol=0, atol=1e-12)
    half = qaoa_state(g, p).amplitudes
    assert half.size == 1 << max(g.vertex_count - 1, 0)
    np.testing.assert_allclose(half, full[: half.size], rtol=0, atol=1e-12)


def random_edges(n, scale, rng):
    return [(u, v, float(rng.uniform(-scale, scale))) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7]


def phase_reference(g, gamma):
    half = 1 << max(g.vertex_count - 1, 0)
    return 2.0 ** (-g.vertex_count / 2.0) * np.exp(-1j * gamma * per_edge_spectrum(g, half))


def mixer_frame(size):
    """(-i)^popcount(x) for x < size, looked up exactly."""
    popcount = np.array([bin(x).count("1") for x in range(size)])
    return np.array([1, -1j, -1, 1j])[popcount % 4]


@settings(deadline=None)
@given(st.integers(0, 14), st.floats(0.0, 10.0), angles, st.integers(0, 2**32 - 1))
def test_phase_products_equal_exp_of_spectrum(n, scale, gamma, seed):
    g = WeightedGraph.from_edges(n, random_edges(n, scale, np.random.default_rng(seed)))
    # every entry has modulus 2^(-n/2), so rtol bounds each one's relative error
    reference = phase_reference(g, gamma)
    np.testing.assert_allclose(_phase(g, gamma), reference * mixer_frame(reference.size), rtol=1e-12, atol=0)


def test_phase_and_state_at_20_qubits():
    # the longest product chains the benchmark's 20-qubit reductions build
    g = WeightedGraph.from_edges(20, random_edges(20, 3.0, np.random.default_rng(20)))
    p = estimate_parameters(g)
    reference = phase_reference(g, p.gamma)
    np.testing.assert_allclose(_phase(g, p.gamma), reference * mixer_frame(reference.size), rtol=1e-12, atol=0)
    half = qaoa_state(g, p).amplitudes
    full = butterfly_state(g, p)
    assert np.abs(half - full[: half.size]).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("n", range(13, 21))
def test_blocked_mixer_matches_butterfly_from_13_qubits(n):
    # the property above stops at n = 12; n = 13..16 rotate one pair of groups
    # and a lone last group, n = 17..20 two pairs, the second walked in column
    # slabs of its rows; the last pass runs over several chunk pairs, and
    # n = 13..15 and 17..19 end on a partial group
    rng = np.random.default_rng(n)
    g = WeightedGraph.from_edges(n, random_edges(n, 3.0, rng))
    p = QaoaParams(*rng.uniform(0.0, math.pi / 2, 2))
    half = qaoa_state(g, p).amplitudes
    full = butterfly_state(g, p)
    assert np.abs(half - full[: half.size]).max() <= 1e-12 * np.abs(full).max()


def test_state_memory_at_20_qubits():
    # the mixer runs in place through a cache-sized scratch: no second
    # state-sized buffer beside the half state it returns
    g = WeightedGraph.from_edges(20, random_edges(20, 3.0, np.random.default_rng(20)))
    p = estimate_parameters(g)
    tracemalloc.start()
    try:
        state = qaoa_state(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * state.amplitudes.nbytes


@settings(deadline=None)
@given(random_graphs(10), angles, angles)
def test_analytic_equals_statevector(g, gamma, beta):
    p = QaoaParams(gamma, beta)
    assert expectation_analytic(g, p) == pytest.approx(expectation_statevector(g, p), abs=1e-9)


def test_state_is_uniform_at_zero_parameters():
    rng = np.random.default_rng(0)
    g = random_weighted_graph(5, 0.6, rng)
    state = qaoa_state(g, QaoaParams(0.0, 0.0))
    assert np.allclose(state.amplitudes, 2.0 ** (-2.5))


def test_zero_gamma_distribution_uniform_for_any_beta():
    rng = np.random.default_rng(1)
    g = random_weighted_graph(4, 0.7, rng)
    state = qaoa_state(g, QaoaParams(0.0, 1.234))
    # 8 bipartitions of 4 vertices, each two of the 16 equally likely assignments
    assert state.probabilities().size == 8
    assert np.allclose(state.probabilities(), 1.0 / 8.0, atol=1e-12)


def test_state_normalized():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_weighted_graph(6, 0.5, rng)
        gamma, beta = rng.uniform(0, math.pi / 2, size=2)
        state = qaoa_state(g, QaoaParams(gamma, beta))
        assert state.amplitudes.size == 32
        # the half holds half of the norm; the mirror image holds the rest
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(0.5, abs=1e-9)
        assert np.sum(state.probabilities()) == pytest.approx(1.0, abs=1e-9)


def test_statevector_cap():
    g = WeightedGraph.from_edges(30, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        qaoa_state(g, QaoaParams(0.1, 0.1))
    # checked before the statevector grid builds its 2^(n-1)-entry spectrum
    with pytest.raises(ValueError, match="statevector cap"):
        grid_search(WeightedGraph.from_edges(STATEVECTOR_CAP + 1, [(0, 1, 1.0)]), 0.5, "statevector")


@pytest.mark.filterwarnings("error")  # rejected before numpy overflows
@pytest.mark.parametrize("gamma", [1e308, -1e308, float("inf"), float("nan")])
@pytest.mark.parametrize("call", [expectation_statevector, expectation_analytic, qaoa_state])
def test_overflowing_gamma_is_rejected(call, gamma):
    # unit K4 at beta = 0.3: gamma = 1e308 returned nan from both expectations
    g = unit(4, complete_pairs(4))
    assert math.isfinite(expectation_statevector(g, QaoaParams(1e300, 0.3)))
    with pytest.raises(ValueError, match="^gamma "):
        call(g, QaoaParams(gamma, 0.3))


def test_k2_concentrates_on_optimal_cuts():
    state = qaoa_state(K2, QaoaParams(math.pi / 2, math.pi / 8))
    probs = state.probabilities()
    # half index 1 is the bipartition {1, 2}: the two maximum cuts of a single edge
    assert probs[1] == pytest.approx(1.0, abs=1e-12)


def test_expectation_at_zero_gamma_is_half_total():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = random_weighted_graph(6, 0.6, rng)
        half = g.total_weight() / 2
        assert expectation_statevector(g, QaoaParams(0.0, 0.7)) == pytest.approx(half, abs=1e-9)
        assert expectation_analytic(g, QaoaParams(1.3, 0.0)) == pytest.approx(half, abs=1e-9)


def test_analytic_matches_statevector_on_random_graphs():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        kind = "sign" if rng.random() < 0.5 else "normal"
        g = random_weighted_graph(n, 0.6, rng, kind)
        gamma, beta = rng.uniform(0, math.pi / 2, size=2)
        p = QaoaParams(float(gamma), float(beta))
        assert expectation_analytic(g, p) == pytest.approx(
            expectation_statevector(g, p), abs=1e-9
        )


def loop_analytic_grid(g, gammas, betas):
    """Reference closed form, one nonzero edge at a time: the edge's neighbour
    weights a and b read off its ends' weight matrix rows, its own ends left out."""
    weights = g.weight_matrix
    t1 = np.zeros(gammas.size)
    t2 = np.zeros(gammas.size)

    def cos_product(x):
        return np.cos(np.outer(gammas, x)).prod(axis=1)

    for u, v, w in g.edges:
        if w == 0.0:
            continue
        r = np.flatnonzero((weights[u] != 0.0) | (weights[v] != 0.0))
        r = r[(r != u) & (r != v)]
        a, b = weights[u, r], weights[v, r]
        t1 += w * np.sin(gammas * w) * (cos_product(a) + cos_product(b))
        t2 += w * (cos_product(a - b) - cos_product(a + b))
    half = 0.5 * sum(w for *_, w in g.edges if w != 0.0)
    return half + 0.25 * np.outer(t1, np.sin(4.0 * betas)) - 0.25 * np.outer(t2, np.sin(2.0 * betas) ** 2)


@st.composite
def sparse_graphs(draw):
    """Any edge subset of up to 9 vertices, so edgeless, disconnected and
    matching graphs come up, with weights that are often +-0.0."""
    n = draw(st.integers(0, 9))
    pairs = draw(st.lists(st.sampled_from(complete_pairs(n)), unique=True) if n > 1 else st.just([]))
    weights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4.0, 4.0))
    return WeightedGraph.from_edges(n, [(u, v, draw(weights)) for u, v in pairs])


# one more gamma than a chunk holds for a lone edge, whose eight floats per gamma
# are the fewest any graph with a weighted edge has: every such graph takes two chunks or more
GAMMAS = MIXER_SCRATCH // 8 + 1


@settings(deadline=None, max_examples=60)
@given(sparse_graphs(), st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.lists(angles, min_size=1, max_size=4))
@example(WeightedGraph.from_edges(5, []), -1.0, 2.0, [0.3])
@example(WeightedGraph.from_edges(6, [(0, 1, 1.5), (2, 3, -0.0), (4, 5, -2.0)]), -1.0, 2.0, [0.3, 1.1])
@example(WeightedGraph.from_edges(7, [(0, 1, 1.0), (1, 2, 0.0), (0, 2, -0.5), (4, 5, 2.0), (5, 6, 1.0)]), 0.0, 1.5, [0.2])
def test_analytic_grid_matches_per_edge_loop(g, gamma, width, betas):
    gammas = np.linspace(gamma, gamma + width, GAMMAS)
    betas = np.array(betas)
    expected = loop_analytic_grid(g, gammas, betas)
    values = _analytic_grid(g, gammas, betas)
    assert values.shape == (GAMMAS, betas.size)
    assert np.all(np.abs(values - expected) <= 1e-12 * (np.abs(expected) + np.abs(g.w).sum()))


def test_analytic_k2_closed_form():
    for gamma, beta in [(0.4, 0.3), (1.5, 0.1), (0.9, 1.2)]:
        expected = 0.5 + 0.5 * math.sin(4 * beta) * math.sin(gamma)
        assert expectation_analytic(K2, QaoaParams(gamma, beta)) == pytest.approx(expected)


def test_analytic_regular_triangle_free_specialization():
    # d-regular triangle-free with |w| = a: per-edge term reduces to
    # w/2 + (a/2) sin(4 beta) sin(gamma a) cos^(d-1)(gamma a)
    rng = np.random.default_rng(5)
    a = 1.7
    pairs = ring_pairs(6)
    g = build(6, pairs, a * sign_weights(len(pairs), rng))
    gamma, beta = 0.37, 0.21
    per_edge = 0.5 * math.sin(4 * beta) * math.sin(gamma * a) * math.cos(gamma * a) * a
    expected = g.total_weight() / 2 + len(pairs) * per_edge
    assert expectation_analytic(g, QaoaParams(gamma, beta)) == pytest.approx(expected, abs=1e-12)


def test_analytic_ignores_zero_weight_edges():
    rng = np.random.default_rng(6)
    g = random_weighted_graph(6, 0.5, rng)
    p = QaoaParams(0.8, 0.3)
    assert expectation_analytic(dense_closure(g), p) == pytest.approx(
        expectation_analytic(g, p), abs=1e-12
    )


@pytest.mark.parametrize("n", [3, 8, 23, 40])
def test_analytic_unit_complete_graph_closed_form(n):
    # unit K_n (Wang et al., PRA 97, 022304): every edge has n - 2 common neighbors, so
    # C(n,2) [1/2 + 1/2 sin4b sin(g) cos^(n-2)(g) - 1/4 sin^2(2b) (1 - cos^(n-2)(2g))]
    gamma, beta = 0.37, 0.21
    expected = math.comb(n, 2) * (
        0.5
        + 0.5 * math.sin(4 * beta) * math.sin(gamma) * math.cos(gamma) ** (n - 2)
        - 0.25 * math.sin(2 * beta) ** 2 * (1 - math.cos(2 * gamma) ** (n - 2))
    )
    g = unit(n, complete_pairs(n))
    assert expectation_analytic(g, QaoaParams(gamma, beta)) == pytest.approx(expected, abs=1e-9)


def test_weight_scaling_covariance():
    rng = np.random.default_rng(7)
    g = random_weighted_graph(6, 0.6, rng)
    scale = 2.5
    scaled = WeightedGraph.from_edges(6, [(u, v, scale * w) for u, v, w in g.edges])
    p = QaoaParams(0.9, 0.4)
    p_scaled = QaoaParams(0.9 / scale, 0.4)
    assert expectation_analytic(scaled, p_scaled) == pytest.approx(
        scale * expectation_analytic(g, p), abs=1e-9
    )
    s1 = qaoa_state(g, p)
    s2 = qaoa_state(scaled, p_scaled)
    assert np.allclose(s1.amplitudes, s2.amplitudes, atol=1e-12)
    est = estimate_parameters(g)
    est_scaled = estimate_parameters(scaled)
    assert est_scaled.gamma == pytest.approx(est.gamma / scale)


def test_estimate_parameters_known_values():
    rng = np.random.default_rng(8)
    ring = build(4, ring_pairs(4), sign_weights(4, rng))
    est = estimate_parameters(ring)
    assert est.gamma == pytest.approx(math.pi / 4)
    assert est.beta == pytest.approx(math.pi / 8)
    unit_triangle = WeightedGraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert estimate_parameters(unit_triangle).gamma == pytest.approx(math.pi / 4)
    triangle = WeightedGraph.from_edges(3, [(0, 1, 1.0), (0, 2, -2.0), (1, 2, 3.0)])
    est = estimate_parameters(triangle)
    assert est.gamma == pytest.approx(math.pi / 8)  # abar 2, dbar 2


def test_estimate_parameters_errors():
    with pytest.raises(ValueError):
        estimate_parameters(WeightedGraph.from_edges(3, []))
    with pytest.raises(ValueError):
        estimate_parameters(WeightedGraph.from_edges(2, [(0, 1, 1.0)]))  # dbar == 1


def test_estimate_ignores_dense_closure_zeros():
    rng = np.random.default_rng(9)
    g = build(6, ring_pairs(6), sign_weights(6, rng))
    assert estimate_parameters(dense_closure(g)) == estimate_parameters(g)


def test_grid_search_points_and_argmax():
    landscape = grid_search(K2, 0.1, "analytic")
    assert landscape.gammas.size == 16
    assert landscape.gammas[-1] == pytest.approx(1.5)
    # closed form on a single edge: 1/2 + sin(4 beta) sin(gamma) / 2,
    # maximized on the grid at gamma=1.5, beta=0.4
    assert (landscape.argmax.gamma, landscape.argmax.beta) == (1.5, pytest.approx(0.4))
    expected_max = 0.5 + 0.5 * math.sin(1.6) * math.sin(1.5)
    assert landscape.max_value == pytest.approx(expected_max, abs=1e-12)
    assert abs(landscape.max_value - 1.0) < 2e-3
    assert landscape.values.max() == landscape.max_value


def test_grid_search_statevector_agrees_with_analytic():
    rng = np.random.default_rng(10)
    g = random_weighted_graph(5, 0.7, rng)
    a = grid_search(g, 0.35, "analytic")
    s = grid_search(g, 0.35, "statevector")
    assert np.allclose(a.values, s.values, atol=1e-9)


def test_grid_search_values_are_the_single_point_expectations_bit_for_bit():
    # the gamma axis spans several chunks; a value's bits must not depend on
    # how many gammas share its chunk (a matrix-vector product's did)
    g = random_weighted_graph(40, 0.2, np.random.default_rng(2))
    landscape = grid_search(g, 0.01)
    linked = g.weight_matrix != 0.0
    entries = int((linked[g.u] | linked[g.v]).sum())
    assert MIXER_SCRATCH // (4 * entries + 1) * 3 < landscape.gammas.size
    rng = np.random.default_rng(0)
    points = [(int(i), int(j)) for i, j in rng.integers(0, landscape.gammas.size, size=(60, 2))]
    for i, j in points:
        expected = expectation_analytic(g, QaoaParams(landscape.gammas[i], landscape.betas[j]))
        assert landscape.values[i, j].hex() == expected.hex(), (i, j)
    assert landscape.max_value.hex() == expectation_analytic(g, landscape.argmax).hex()


def test_grid_search_flat_landscape():
    # explicit zero-weight edges and no edges at all behave identically
    for g in (WeightedGraph.from_edges(3, []), dense_closure(WeightedGraph.from_edges(3, []))):
        landscape = grid_search(g, 0.5, "analytic")
        assert landscape.max_value == landscape.min_value == 0.0
        assert deviation_ratio(landscape, 0.0) == 0.0


def test_grid_search_rejects_bad_step():
    for step in (0.0, -0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"grid step must be finite and positive, got {step}"):
            grid_search(K2, step)
    with pytest.raises(ValueError):
        grid_search(K2, 0.1, "quantum-hardware")


@pytest.mark.parametrize("evaluator", ["analytic", "statevector"])
@pytest.mark.parametrize("step, points", [(1e-6, 1570797), (math.pi / 2 / GRID_AXIS_POINTS, GRID_AXIS_POINTS + 1)])
def test_grid_search_rejects_a_grid_it_cannot_hold(evaluator, step, points):
    # step 1e-6 asked numpy for an 18 TiB landscape; the check comes before
    # anything is allocated
    message = f"grid step {step} gives {points} points per axis, over {GRID_AXIS_POINTS}"
    with pytest.raises(ValueError, match=re.escape(message)):
        grid_search(K2, step, evaluator)


def test_deviation_ratio_endpoints():
    landscape = grid_search(K2, 0.5, "analytic")
    assert deviation_ratio(landscape, landscape.max_value) == 0.0
    assert deviation_ratio(landscape, landscape.min_value) == 1.0
    mid = (landscape.max_value + landscape.min_value) / 2
    assert 0.0 < deviation_ratio(landscape, mid) < 1.0


def test_ring_estimate_hits_grid_max():
    rng = np.random.default_rng(11)
    g = build(4, ring_pairs(4), sign_weights(4, rng))
    landscape = grid_search(g, 0.1, "analytic")
    value = expectation_analytic(g, estimate_parameters(g))
    assert deviation_ratio(landscape, value) == 0.0


def test_landscape_csv_export():
    landscape = grid_search(K2, 0.8, "analytic")
    csv = export_landscape_csv(landscape)
    lines = csv.strip().splitlines()
    assert lines[0] == "gamma,beta,value"
    assert len(lines) == 1 + landscape.gammas.size * landscape.betas.size


def test_sample_deterministic_and_concentrated():
    state = qaoa_state(K2, QaoaParams(math.pi / 2, math.pi / 8))
    s1 = sample_cuts(state, 64, seed=13)
    s2 = sample_cuts(state, 64, seed=13)
    assert np.array_equal(s1, s2)
    values = cut_value_batch(K2, s1)
    assert np.all(values == 1.0)


def test_sample_mean_tracks_expectation():
    rng = np.random.default_rng(12)
    g = random_weighted_graph(6, 0.6, rng)
    p = QaoaParams(0.7, 0.35)
    state = qaoa_state(g, p)
    n_samples = 20000
    draws = sample_cuts(state, n_samples, seed=99)
    mean = cut_value_batch(g, draws).mean()
    expectation = expectation_statevector(g, p)
    spectrum = per_edge_spectrum(g, 1 << 5)
    variance = float(state.probabilities() @ (spectrum - expectation) ** 2)
    assert abs(mean - expectation) <= 3.0 * math.sqrt(variance / n_samples)


def test_sample_from_deterministic_state():
    # a point mass on half index 2 = 010: the bipartition {010, 101}
    state = QaoaState(np.array([0.0, 0.0, 1.0, 0.0], dtype=complex), 3)
    draws = sample_cuts(state, 50, seed=0)
    assert set((draws @ (1 << np.arange(3))).tolist()) == {2, 5}


@settings(deadline=None)
@given(
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, 200),
    st.sampled_from([0.3, 0.9]),
)
def test_sample_draws_equal_generator_choice(n, state_seed, seed, k, zeros):
    size = 1 << max(n - 1, 0)
    rng = np.random.default_rng(state_seed)
    amplitudes = rng.normal(size=size) + 1j * rng.normal(size=size)
    # exact zeros give the cumulative sum flat steps, long runs of them at 0.9
    amplitudes[rng.random(size) < zeros] = 0.0
    amplitudes[0] = 1.0
    state = QaoaState(amplitudes, n)
    probs = state.probabilities()
    expected = np.random.default_rng(seed).choice(size, size=k, p=probs / probs.sum())
    draws = sample_cuts(state, k, seed)
    assert draws.shape == (k, n)
    # undo the flip: a draw with the top vertex set is the complement of its half index
    if n:
        draws ^= draws[:, n - 1 :]
    assert np.array_equal(draws @ (1 << np.arange(n)), expected)


def test_search_normalised_where_a_plain_search_is_off_by_one():
    # Generator.choice searches c / c[-1] at u, where c[2] / c[-1] rounds to
    # one ulp above u: index 2. u * c[-1] rounds to c[2] itself, so a search
    # of c at it reads 3.
    c = np.array([0.4396419350266977, 1.0929608789406864, 1.1477088080867905, 1.2287530382476837])
    u = np.array([0.9340435159562496])
    assert np.searchsorted(c / c[-1], u, "right") == 2
    assert np.searchsorted(c, u * c[-1], "right") == 3
    assert _search_normalised(c, u) == 2


@settings(deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 1e-300, 1e-17, 0.1, 0.3, 1.0]) | st.floats(0.0, 10.0), min_size=1, max_size=40),
    st.lists(st.integers(0, 200), max_size=20),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5),
)
def test_search_normalised_equals_search_of_normalised_sum(steps, picks, extra):
    steps[-1] += 1.0  # a positive last entry
    c = np.cumsum(steps)  # zero steps repeat values
    ratios = c / c[-1]
    # each fl(c_i / L) and the floats either side of it, where the division rounds
    at = ratios[np.array(picks, dtype=int) % c.size]
    uniform = np.concatenate([at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf), extra])
    uniform = np.clip(uniform, 0.0, np.nextafter(1.0, 0.0))
    assert np.array_equal(_search_normalised(c, uniform), np.searchsorted(ratios, uniform, "right"))


def test_sample_frequencies_match_bipartition_probabilities():
    g = random_weighted_graph(5, 0.8, np.random.default_rng(14))
    state = qaoa_state(g, QaoaParams(0.6, 0.3))
    n_samples = 100_000
    draws = sample_cuts(state, n_samples, seed=15)
    # the top vertex is on the True side exactly when the draw was flipped
    flips = int(draws[:, 4].sum())
    assert abs(flips - n_samples / 2) <= 5.0 * math.sqrt(n_samples / 4)
    draws ^= draws[:, 4:]
    counts = np.bincount(draws @ (1 << np.arange(5)), minlength=16)
    p = state.probabilities()
    assert np.all(np.abs(counts - n_samples * p) <= 5.0 * np.sqrt(n_samples * p * (1 - p)))


@pytest.mark.parametrize("n, shape", [(3, (8,)), (3, (2,)), (0, (2,)), (1, (2,)), (2, (1, 2))])
def test_state_rejects_amplitudes_of_wrong_length(n, shape):
    size = 1 << max(n - 1, 0)
    with pytest.raises(ValueError, match=re.escape(f"a {n}-qubit half state has {size} amplitudes, got shape {shape}")):
        QaoaState(np.zeros(shape, dtype=complex), n)


@pytest.mark.parametrize(
    "n_samples, error, message",
    [(-1, ValueError, "n_samples must be at least 0, got -1"), (3.0, TypeError, "n_samples must be an integer, got 3.0")],
)
def test_sample_rejects_a_bad_count(n_samples, error, message):
    state = qaoa_state(K2, QaoaParams(0.3, 0.2))
    with pytest.raises(error, match=re.escape(message)):
        sample_cuts(state, n_samples, seed=0)
    assert sample_cuts(state, 0, seed=0).shape == (0, 2)


@pytest.mark.parametrize(
    "amplitudes, total",
    [(np.array([0.5, np.nan, 0.5, 0.5]), "nan"), (np.zeros(4, dtype=complex), "0.0")],
)
def test_sample_rejects_state_without_finite_positive_total(amplitudes, total):
    with pytest.raises(ValueError, match=f"total probability {total} is not finite and positive"):
        sample_cuts(QaoaState(amplitudes.astype(complex), 3), 10, seed=0)
