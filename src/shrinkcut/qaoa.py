"""Depth-1 QAOA for weighted MaxCut.

Two interchangeable expectation routes: an exact statevector simulation
(capped at 24 qubits) and a closed-form per-edge evaluation with no qubit or
neighborhood cap, whose cost per edge and per gamma is linear in the size of
the edge's neighborhood. The closed form also powers fast landscape grids, and
a degree/weight-based parameter estimate replaces the usual optimization loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, cut_values_for_indices

STATEVECTOR_CAP = 24
# qubits one X-mixer matrix product acts on: a 32x32 block
MIXER_BLOCK_QUBITS = 5


@dataclass(frozen=True)
class QaoaParams:
    gamma: float
    beta: float


@dataclass(eq=False)
class QaoaState:
    """Amplitudes of the basis states whose top qubit is 0: 2^(n-1) of them, one
    for n = 0. Basis index x puts vertex i on the True side iff bit i is set.
    amp[x] = amp[~x] (see _evolve), so entry x stands for the bipartition {x, ~x}.
    """

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        size = 1 << max(self.n - 1, 0)
        if np.shape(self.amplitudes) != (size,):
            raise ValueError(f"a {self.n}-qubit half state has {size} amplitudes, got shape {np.shape(self.amplitudes)}")

    def probabilities(self) -> np.ndarray:
        """Each bipartition's probability, 2|amp|^2 (|amp|^2 for n = 0), summing to 1."""
        return _probabilities(self.amplitudes) * (2.0 if self.n else 1.0)


def _probabilities(amp: np.ndarray) -> np.ndarray:
    probs = np.square(amp.real)
    probs += np.square(amp.imag)
    return probs


def qaoa_state(g: WeightedGraph, params: QaoaParams) -> QaoaState:
    """Statevector of the depth-1 circuit: phase by cut value, then one X
    rotation of angle 2*beta on every qubit, starting from the uniform state."""
    return QaoaState(_evolve(_phase(g, params.gamma), g.vertex_count, params.beta), g.vertex_count)


def _phase(g: WeightedGraph, gamma: float) -> np.ndarray:
    """2^(-n/2) exp(-i gamma C(x)) for every x whose top qubit is 0, built by
    graph._cut_block's per-vertex doubling, multiplying unit phases where it
    adds cut gains: the factor for setting bit k starts at
    exp(-i gamma sum_j w[k, j]) and doubles by exp(2i gamma w[k, j]) per lower
    bit j. Trigonometry runs on the O(n^2) weights only."""
    n = g.vertex_count
    if n > STATEVECTOR_CAP:
        raise ValueError(f"{n} qubits exceeds the statevector cap of {STATEVECTOR_CAP}")
    out = np.empty(1 << max(n - 1, 0), dtype=complex)
    step = np.exp(2j * gamma * g.weight_matrix)
    start = np.exp(-1j * gamma * g.weight_matrix.sum(axis=1))
    out[0] = 2.0 ** (-n / 2.0)
    for k in range(n - 1):
        d = out[1 << k : 2 << k]
        d[0] = start[k]
        for j in range(k):
            np.multiply(d[: 1 << j], step[k, j], out=d[1 << j : 2 << j])
        d *= out[: 1 << k]
    return out


def _evolve(amp: np.ndarray, n: int, beta: float) -> np.ndarray:
    """The X mixer on amp, the phased half with the top qubit 0 (overwritten).

    The uniform start state, the phase by cut value and the X mixer all
    commute with the global flip X^n, so amp[x] = amp[~x] throughout
    (Shaydulin, Hadfield, Hogg & Safro, QIP 20, 359, 2021) and the half h
    with the top qubit 0 is the whole state. On such a state X_{n-1} acts as
    X_0...X_{n-2}, which reverses h, so the top qubit's rotation is
    c h - i s h[::-1]. The n - 1 low qubits rotate MIXER_BLOCK_QUBITS at a
    time: for the k qubits from qubit q up, the k-fold tensor power of the
    one-qubit rotation multiplies the middle axis of h reshaped to
    (rest, 2^k, 2^q), one matrix product per block into the one other buffer.
    """
    c, s = math.cos(beta), math.sin(beta)
    buf = np.empty_like(amp)
    if n:
        np.multiply(amp[::-1], -1j * s, out=buf)
        amp *= c
        amp += buf
    rotation = np.array([[c, -1j * s], [-1j * s, c]])
    for q in range(0, n - 1, MIXER_BLOCK_QUBITS):
        k = min(MIXER_BLOCK_QUBITS, n - 1 - q)
        block = functools.reduce(np.kron, [rotation] * k)
        if q:
            shape = (-1, 1 << k, 1 << q)
            np.matmul(block, amp.reshape(shape), out=buf.reshape(shape))
        else:  # block is symmetric: one product from the right
            np.matmul(amp.reshape(-1, 1 << k), block, out=buf.reshape(-1, 1 << k))
        amp, buf = buf, amp
    return amp


def _expectation(phase: np.ndarray, spectrum: np.ndarray, n: int, beta: float) -> float:
    """sum_x p(x) C(x) from the half's cut values: twice the sum over the half, whose
    mirror image has the same probabilities and cut values (for n = 0 C = 0)."""
    return 2.0 * float(_probabilities(_evolve(phase, n, beta)) @ spectrum)


def expectation_statevector(g: WeightedGraph, params: QaoaParams) -> float:
    """Exact expected cut value, sum_x |amp(x)|^2 C(x)."""
    phase = _phase(g, params.gamma)
    return _expectation(phase, cut_values_for_indices(g, np.arange(phase.size)), g.vertex_count, params.beta)


def sample_cuts(state: QaoaState, n_samples: int, seed=None) -> np.ndarray:
    """Draw i.i.d. assignments from the measurement distribution.

    Returns a (n_samples, n) boolean matrix; deterministic for a fixed seed.
    The bipartitions drawn are Generator.choice(2^(n-1), n_samples, p=probs/probs.sum())'s:
    the same cumulative sum, searched (side "right") in sorted order for the
    same rng.random stream. The generator's next n_samples uniforms then flip
    all n bits of a draw with probability 1/2, as amp[x] = amp[~x]. Raises
    ValueError when the total probability is not finite and positive.
    """
    cdf = _probabilities(state.amplitudes)
    total = cdf.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"total probability {total} is not finite and positive")
    cdf /= total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    uniform = rng.random(n_samples)
    order = np.argsort(uniform)
    draws = np.empty(n_samples, dtype=np.int64)
    draws[order] = cdf.searchsorted(uniform[order], side="right")
    draws[rng.random(n_samples) < 0.5] ^= (1 << state.n) - 1
    return ((draws[:, None] >> np.arange(state.n)) & 1).astype(bool)


class AnalyticExpectation:
    """Closed-form depth-1 expectation, precomputed for one graph.

    The expected cut value decomposes per edge (u, v) of weight w as

        w * [ 1/2
              + sin(4 beta)/4 * sin(gamma w) * (prod cos(gamma a_r) + prod cos(gamma b_r))
              - sin(2 beta)^2 / 4 * (prod cos(gamma (a_r - b_r)) - prod cos(gamma (a_r + b_r))) ]

    with every product over r in N(u) | N(v) minus {u, v}, a_r = w_ur and
    b_r = w_vr (0 for a non-neighbor). The difference in the last term is
    twice the sum, over odd subsets A of those r, of
    prod_{r in A} s_r prod_{r not in A} c_r with s_r = sin(gamma a_r) sin(gamma b_r)
    and c_r = cos(gamma a_r) cos(gamma b_r): that sum equals
    1/2 (prod (c_r + s_r) - prod (c_r - s_r)) (Wang, Hadfield, Jiang & Rieffel,
    PRA 97, 022304, 2018). A neighbor of only one endpoint gives the same cos
    factor in both products, and a non-neighbor gives exact cos(0) = 1
    factors, so one pair of arrays (a, b) per edge covers shared and unshared
    neighbors alike. Construction reads the two endpoint rows of the weight
    matrix; evaluation costs O(|N(u) | N(v)|) per edge and per gamma, whatever
    the neighborhoods share. Zero-weight edges are skipped: they contribute
    cos(0) = 1 factors and a vanishing edge term, leaving every value
    unchanged.

    Whole (gamma, beta) grids are evaluated in one pass: beta only enters
    through sin(4 beta) and sin(2 beta)^2, so the landscape is an outer
    product of gamma-dependent and beta-dependent factors.
    """

    def __init__(self, g: WeightedGraph):
        weights = g.weight_matrix
        self._edges = []
        self._half_total = 0.5 * sum(w for _, _, w in g.nonzero_edges)
        for u, v, w in g.nonzero_edges:
            r = np.flatnonzero((weights[u] != 0.0) | (weights[v] != 0.0))
            r = r[(r != u) & (r != v)]
            self._edges.append((w, weights[u, r], weights[v, r]))

    def grid(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Expectation values over the outer grid, shape (len(gammas), len(betas))."""
        gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
        betas = np.atleast_1d(np.asarray(betas, dtype=float))
        t1 = np.zeros(gammas.size)
        t2 = np.zeros(gammas.size)

        def cos_product(x: np.ndarray) -> np.ndarray:
            return np.cos(np.outer(gammas, x)).prod(axis=1)

        for w, a, b in self._edges:
            t1 += w * np.sin(gammas * w) * (cos_product(a) + cos_product(b))
            t2 += w * (cos_product(a - b) - cos_product(a + b))
        return (
            self._half_total
            + 0.25 * np.outer(t1, np.sin(4.0 * betas))
            - 0.25 * np.outer(t2, np.sin(2.0 * betas) ** 2)
        )

    def value(self, gamma: float, beta: float) -> float:
        return float(self.grid(np.array([gamma]), np.array([beta]))[0, 0])


def expectation_analytic(g: WeightedGraph, params: QaoaParams) -> float:
    """Closed-form expected cut value; matches expectation_statevector exactly."""
    return AnalyticExpectation(g).value(params.gamma, params.beta)


def average_degree(g: WeightedGraph) -> float:
    """Average degree of the nonzero-edge graph."""
    return 2.0 * len(g.nonzero_edges) / g.vertex_count


def estimate_parameters(g: WeightedGraph) -> QaoaParams:
    """Closed-form parameter guess from mean |weight| and average degree.

    gamma = arctan(1 / sqrt(dbar - 1)) / abar with abar the mean absolute
    weight over nonzero edges and dbar the average degree of the nonzero-edge
    graph; beta = pi/8. Provably optimal on triangle-free regular graphs with
    weights of constant magnitude.
    """
    nz = g.nonzero_edges
    if not nz:
        raise ValueError("cannot estimate parameters: graph has no weighted edges")
    abar = float(np.mean([abs(w) for _, _, w in nz]))
    dbar = average_degree(g)
    if dbar <= 1.0:
        raise ValueError(f"average degree {dbar:.3g} <= 1: estimate undefined")
    gamma = math.atan(1.0 / math.sqrt(dbar - 1.0)) / abar
    return QaoaParams(gamma, math.pi / 8.0)


@dataclass(eq=False)
class Landscape:
    """Expectation values over the square grid {0, step, ...} <= pi/2 per axis.

    values is indexed [gamma, beta]; argmax is the first maximum in row-major
    order (gamma outer, beta inner).
    """

    grid_step: float
    gammas: np.ndarray
    betas: np.ndarray
    values: np.ndarray
    argmax: QaoaParams
    max_value: float
    min_value: float


def grid_search(g: WeightedGraph, step: float, evaluator: str = "analytic") -> Landscape:
    """Evaluate the expectation on a step-spaced grid over [0, pi/2]^2."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be finite and positive, got {step}")
    count = int(math.floor(math.pi / 2.0 / step + 1e-12))
    points = step * np.arange(count + 1)
    if evaluator == "analytic":
        values = AnalyticExpectation(g).grid(points, points)
    elif evaluator == "statevector":
        values = np.empty((points.size, points.size))
        for i, gamma in enumerate(points):
            phase = _phase(g, gamma)
            spectrum = cut_values_for_indices(g, np.arange(phase.size))
            for j, beta in enumerate(points):
                values[i, j] = _expectation(phase.copy(), spectrum, g.vertex_count, beta)
    else:
        raise ValueError(f"unknown evaluator {evaluator!r}")
    flat = int(np.argmax(values))
    gi, bi = divmod(flat, points.size)
    return Landscape(
        step,
        points,
        points,
        values,
        QaoaParams(float(points[gi]), float(points[bi])),
        float(values.max()),
        float(values.min()),
    )


def deviation_ratio(landscape: Landscape, value_at_estimate: float) -> float:
    """(grid max - value) / (grid max - grid min), clamped to [0, 1].

    A flat landscape has ratio 0: any parameters are optimal there.
    """
    span = landscape.max_value - landscape.min_value
    if span <= 0.0:
        return 0.0
    return float(np.clip((landscape.max_value - value_at_estimate) / span, 0.0, 1.0))


def export_landscape_csv(landscape: Landscape) -> str:
    """CSV with header gamma,beta,value, one row per grid point, 12 significant digits."""
    lines = ["gamma,beta,value"]
    for i, gamma in enumerate(landscape.gammas):
        for j, beta in enumerate(landscape.betas):
            lines.append(f"{gamma:.12g},{beta:.12g},{landscape.values[i, j]:.12g}")
    return "\n".join(lines) + "\n"
