"""Depth-1 QAOA for weighted MaxCut.

Two interchangeable expectation routes: an exact statevector simulation
(capped at 24 qubits) weighing graph._spectrum, brute_force's block walk,
and a closed form with no qubit cap, one array pass over all edges whose
cost per gamma is one cos and one sin per edge and one product factor per
neighborhood entry. It also powers fast landscape grids, and a
degree/weight-based parameter estimate replaces the usual optimization loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, _double_by_vertex, _spectrum, check_integer

STATEVECTOR_CAP = 24
# qubits one X-mixer matrix product acts on: a 16x16 real block
MIXER_BLOCK_QUBITS = 4
# floats of the scratch the mixer's products pass through, of one chunk of squared amplitudes,
# and of one closed-form gamma chunk (512 KB, cache-sized)
MIXER_SCRATCH = 1 << 16
# Most grid points per axis grid_search evaluates: a landscape holds the square, 2^24
# values or 128 MB, and its CSV a line each; a finer step asked numpy for terabytes.
GRID_AXIS_POINTS = 1 << 12


@dataclass(frozen=True)
class QaoaParams:
    gamma: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError(f"gamma {self.gamma} and beta {self.beta} must be finite")


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
    """fl(re^2) + fl(im^2) per amplitude: the interleaved float view squared
    MIXER_SCRATCH floats at a time, each pair of squares added into the result."""
    f = np.ascontiguousarray(amp, dtype=complex).view(float)
    probs = np.empty(f.size // 2)
    squares = np.empty(min(f.size, MIXER_SCRATCH))
    for a in range(0, f.size, squares.size):
        part = np.square(f[a : a + squares.size], out=squares[: f.size - a])
        np.add(part[0::2], part[1::2], out=probs[a // 2 : (a + part.size) // 2])
    return probs


def qaoa_state(g: WeightedGraph, params: QaoaParams) -> QaoaState:
    """Statevector of the depth-1 circuit: phase by cut value, then one X
    rotation of angle 2*beta on every qubit, starting from the uniform state."""
    return QaoaState(_evolve(_phase(g, params.gamma), g.vertex_count, params.beta), g.vertex_count)


def _phase(g: WeightedGraph, gamma: float) -> np.ndarray:
    """2^(-n/2) exp(-i gamma C(x)) (-i)^popcount(x), the phased state in
    _evolve's frame, for every x whose top qubit is 0, built by
    graph._double_by_vertex with np.multiply, the per-vertex doubling that
    graph._cut_block runs with np.add: where it adds cut gains, this multiplies
    unit phases. The factor for setting bit k starts at
    -i exp(-i gamma sum_j w[k, j]) and doubles by exp(2i gamma w[k, j]) per
    lower bit j. Trigonometry runs on the O(n^2) weights only."""
    n = g.vertex_count
    if n > STATEVECTOR_CAP:
        raise ValueError(f"{n} qubits exceeds the statevector cap of {STATEVECTOR_CAP}")
    # the angles gamma * 2w and gamma * (row sum) are within gamma * reach, taken in Python floats: no overflow warning
    reach = 2.0 * float(np.abs(g.weight_matrix).sum(axis=1).max(initial=0.0))
    if not math.isfinite(float(gamma) * reach):
        raise ValueError(f"gamma {gamma} times {reach}, twice the largest row sum of |w|, overflows")
    out = np.empty(1 << max(n - 1, 0), dtype=complex)
    out[0] = 2.0 ** (-n / 2.0)
    step = np.exp(2j * gamma * g.weight_matrix)
    start = -1j * np.exp(-1j * gamma * g.weight_matrix.sum(axis=1))
    return _double_by_vertex(out, start, step, np.multiply)


def _evolve(y: np.ndarray, n: int, beta: float) -> np.ndarray:
    """The X mixer on y, the phased half with the top qubit 0 in the mixer's
    frame, _phase(g, gamma) (overwritten in place); returns the half in
    the true frame.

    The uniform start state, the phase by cut value and the X mixer all
    commute with the global flip X^n, so amp[x] = amp[~x] throughout
    (Shaydulin, Hadfield, Hogg & Safro, QIP 20, 359, 2021) and the half h
    with the top qubit 0 is the whole state. With D = diag(1, i),
    D [[c, s], [-s, c]] D^-1 = exp(-i beta X), so in the frame
    y[x] = (-i)^popcount(x) amp[x] every qubit rotates by that real matrix, and
    its Kronecker powers act on the float view of y. Qubits low..n-2 rotate in
    groups of MIXER_BLOCK_QUBITS, taken two at a time: for groups of k1 qubits
    from qubit q up and k2 from q + k1 up, the view is reshaped to
    (rest, 2^k2, 2^k1, 2^(q+1)) and walked in slabs of at most MIXER_SCRATCH
    floats (512 KB), whole rows while a row fits and otherwise
    MIXER_SCRATCH / 2^(k1+k2) columns of one row. The k1-fold power writes
    its product of a slab into the scratch, and the k2-fold power writes its
    product of the scratch back into the slab (as whole rows, or through the
    slab's transposed view), so nothing is copied back. A lone last group
    multiplies the view reshaped to (rest, 2^k, 2^(q+1)) through the scratch
    and copies each product back. One last pass over mirrored chunk pairs
    of MIXER_SCRATCH / 8 amplitudes rotates the low = MIXER_BLOCK_QUBITS - 1 lowest
    qubits, whose power, times the identity on (re, im), is as wide as a
    block; multiplies by i^popcount(x) back to the true frame; and rotates the
    top qubit. X_{n-1} acts on h as X_0...X_{n-2}, which reverses h, so that
    rotation is c h - i s h[::-1] (in the frame, c y - i^n (-1)^popcount(x) s y[::-1]).
    """
    c, s = math.cos(beta), math.sin(beta)
    rotation = np.array([[c, s], [-s, c]])
    scratch = np.empty(MIXER_SCRATCH)
    low = min(MIXER_BLOCK_QUBITS - 1, max(n - 1, 0))
    groups = [(q, min(MIXER_BLOCK_QUBITS, n - 1 - q)) for q in range(low, n - 1, MIXER_BLOCK_QUBITS)]
    f = y.view(float)
    for (q, k1), (_, k2) in zip(groups[::2], groups[1::2]):
        first, second = (functools.reduce(np.kron, [rotation] * k) for k in (k1, k2))
        view = f.reshape(-1, 1 << k2, 1 << k1, 2 << q)
        rows = MIXER_SCRATCH // view[0].size
        if rows:
            for r in range(0, view.shape[0], rows):
                slab = view[r : r + rows]
                out = scratch[: slab.size].reshape(slab.shape)
                np.matmul(first, slab, out=out)
                shape = (len(slab), 1 << k2, -1)
                np.matmul(second, out.reshape(shape), out=slab.reshape(shape))
        else:
            cols = MIXER_SCRATCH >> k1 + k2
            for r in range(view.shape[0]):
                for j in range(0, 2 << q, cols):
                    slab = view[r, :, :, j : j + cols]
                    out = scratch.reshape(slab.shape)
                    np.matmul(first, slab, out=out)
                    np.matmul(second, out.transpose(1, 0, 2), out=slab.transpose(1, 0, 2))
    if len(groups) % 2:
        q, k = groups[-1]
        block = functools.reduce(np.kron, [rotation] * k)
        width = min(2 << q, MIXER_SCRATCH >> k)
        rows = max(1, MIXER_SCRATCH // (2 << q + k))
        view = f.reshape(-1, 1 << k, (2 << q) // width, width)
        for r in range(0, view.shape[0], rows):
            for j in range(view.shape[2]):
                x = view[r : r + rows, :, j]
                out = scratch[: x.size].reshape(x.shape)
                np.matmul(block, x, out=out)
                x[...] = out
    if not n:
        return y
    size = min(y.size, MIXER_SCRATCH // 8)
    lowest = functools.reduce(np.kron, [rotation.T] * low + [np.eye(2)])
    # i^popcount(x) for x < size: the way back to the true frame, times i^popcount(a) per chunk
    back = functools.reduce(np.kron, [np.array([1, 1j])] * (size.bit_length() - 1), np.ones(1))
    lo, hi, t = scratch[: 6 * size].view(complex).reshape(3, size)
    for a in range(0, max(y.size // 2, 1), size):
        b = y.size - a - size
        for z, i in (lo, a), (hi, b):
            f = y[i : i + size].view(float).reshape(-1, len(lowest))
            np.matmul(f, lowest, out=z.view(float).reshape(f.shape))
            z *= back
        ua, ub = ((1, 1j, -1, -1j)[i.bit_count() % 4] for i in (a, b))
        np.multiply(hi[::-1], -1j * s * ub, out=t)
        np.multiply(lo[::-1], -1j * s * ua, out=y[b : b + size])
        hi *= c * ub
        y[b : b + size] += hi
        np.multiply(lo, c * ua, out=y[a : a + size])
        y[a : a + size] += t
    return y


def _expectation(phase: np.ndarray, spectrum: np.ndarray, n: int, beta: float) -> float:
    """sum_x p(x) C(x) from the half's cut values: twice the sum over the half, whose
    mirror image has the same probabilities and cut values (for n = 0 C = 0)."""
    return 2.0 * float(_probabilities(_evolve(phase, n, beta)) @ spectrum)


def expectation_statevector(g: WeightedGraph, params: QaoaParams) -> float:
    """Exact expected cut value, sum_x |amp(x)|^2 C(x), with C from graph._spectrum."""
    phase = _phase(g, params.gamma)  # checks the qubit cap before the spectrum is built
    return _expectation(phase, _spectrum(g), g.vertex_count, params.beta)


def sample_cuts(state: QaoaState, n_samples: int, seed=None) -> np.ndarray:
    """Draw i.i.d. assignments from the measurement distribution.

    Returns a (n_samples, n) boolean matrix; deterministic for a fixed seed.
    The bipartitions drawn are Generator.choice(2^(n-1), n_samples, p=probs/probs.sum())'s:
    the same cumulative sum and the same rng.random stream, searched in
    sorted order by _search_normalised, which gives the indices choice's
    search of the sum divided by its last entry gives, without that
    division. The generator's next n_samples uniforms then flip
    all n bits of a draw with probability 1/2, as amp[x] = amp[~x]. Raises
    TypeError when n_samples is not an integer, and ValueError when it is
    negative or the total probability is not finite and positive.
    """
    if (n_samples := check_integer(n_samples, "n_samples")) < 0:
        raise ValueError(f"n_samples must be at least 0, got {n_samples}")
    cdf = _probabilities(state.amplitudes)
    total = cdf.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"total probability {total} is not finite and positive")
    cdf /= total
    np.cumsum(cdf, out=cdf)
    rng = np.random.default_rng(seed)
    uniform = rng.random(n_samples)
    order = np.argsort(uniform)
    draws = np.empty(n_samples, dtype="<i8")  # little-endian: its bytes unpack in bit order
    draws[order] = _search_normalised(cdf, uniform[order])
    draws[rng.random(n_samples) < 0.5] ^= (1 << state.n) - 1
    return np.unpackbits(draws.view(np.uint8).reshape(-1, 8), axis=1, count=state.n, bitorder="little").view(bool)


def _search_normalised(cdf: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """(cdf / cdf[-1]).searchsorted(uniform, side="right"), without that division's
    pass over cdf. Each u searches cdf at the largest float t with
    fl(t / L) <= u, L = cdf[-1]: as x -> fl(x / L) is monotone, cdf[i] <= t
    exactly when fl(cdf[i] / L) <= u, also along flat runs. t starts at
    fl(u L), a few ulps from there, and moves by nextafter steps: down while
    t / L > u, then up while the next float up still divides to at most u."""
    last = cdf[-1]
    t = uniform * last
    while (high := t / last > uniform).any():
        t[high] = np.nextafter(t[high], -np.inf)
    while (low := np.nextafter(t, np.inf) / last <= uniform).any():
        t[low] = np.nextafter(t[low], np.inf)
    return cdf.searchsorted(t, side="right")


def _analytic_grid(g: WeightedGraph, gammas, betas) -> np.ndarray:
    """Closed-form expected cut values over the outer grid, shape (len(gammas), len(betas)).

    The expected cut value decomposes per edge (u, v) of weight w as

        w * [ 1/2
              + sin(4 beta)/4 * sin(gamma w) * (prod cos(gamma a_r) + prod cos(gamma b_r))
              - sin(2 beta)^2 / 4 * (prod (c_r + s_r) - prod (c_r - s_r)) ]

    with every product over r in N(u) | N(v) minus {u, v}, a_r = w_ur and
    b_r = w_vr (0 for a non-neighbor), c_r = cos(gamma a_r) cos(gamma b_r) and
    s_r = sin(gamma a_r) sin(gamma b_r), so that c_r +- s_r = cos(gamma (a_r -+ b_r)).
    The last difference is twice the sum, over odd subsets A of those r, of
    prod_{r in A} s_r prod_{r not in A} c_r (Wang, Hadfield, Jiang & Rieffel,
    PRA 97, 022304, 2018). A non-neighbor of an endpoint gives exact
    cos(0) = 1 and sin(0) = 0 factors, so one pair (a, b) per r covers shared
    and unshared neighbors alike. Zero-weight edges are skipped: they
    contribute such factors and a vanishing edge term, leaving every value
    unchanged.

    Every r of every edge is one entry, in edge order and then vertex order,
    and reads a and b as indices into the nonzero weights with a 0 appended:
    a gamma costs one cos and one sin per edge, then four segment products
    (np.multiply.reduceat) over all entries. An edge's own ends stay in its
    segment, reading the 0, so no segment is empty, which reduceat needs.
    beta only enters through sin(4 beta) and sin(2 beta)^2, so the landscape
    is an outer product of gamma-dependent and beta-dependent factors. The
    gamma axis is taken in chunks whose four products read at most
    MIXER_SCRATCH floats, or one gamma when that alone reads more. Each
    gamma's sums over the edges are einsum row sums, whose bits do not depend
    on the chunk, so a grid value equals expectation_analytic's at its point.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    nz = g.w != 0.0
    u, v, w = g.u[nz], g.v[nz], g.w[nz]
    reach = 2.0 * float(np.abs(w).max(initial=0.0))  # at least every |a_r -+ b_r|, the angle of c_r +- s_r
    if not math.isfinite(float(np.abs(gammas).max(initial=0.0)) * reach):
        raise ValueError(f"gamma up to {np.abs(gammas).max()} times {reach}, twice the largest |w|, overflows")
    ids = np.full((g.vertex_count,) * 2, w.size, dtype=np.int32)  # the nonzero edge joining each pair, w.size for none
    ids[u, v] = ids[v, u] = np.arange(w.size)
    linked = ids < w.size
    edge, r = np.divmod(np.flatnonzero(linked[u] | linked[v]), g.vertex_count)
    # an edge's own ends read no edge, as a non-neighbor does: angle 0
    ia = np.where(r == v[edge], w.size, ids[u[edge], r])
    ib = np.where(r == u[edge], w.size, ids[v[edge], r])
    starts = np.searchsorted(edge, np.arange(w.size))
    del ids, linked, edge, r  # the gamma loop holds only ia, ib and starts
    t1, t2 = np.empty(gammas.size), np.empty(gammas.size)
    rows = max(1, MIXER_SCRATCH // (4 * ia.size + 1))
    for i in range(0, gammas.size, rows):
        chunk = gammas[i : i + rows]
        angles = np.multiply.outer(chunk, np.append(w, 0.0))
        cos, sin = np.cos(angles), np.sin(angles)
        ca, cb = cos[:, ia], cos[:, ib]
        c, s = ca * cb, sin[:, ia] * sin[:, ib]
        pa, pb, pd, ps = np.multiply.reduceat(np.stack((ca, cb, c + s, c - s)), starts, axis=2)
        t1[i : i + rows] = np.einsum("ge,e->g", (pa + pb) * sin[:, :-1], w)
        t2[i : i + rows] = np.einsum("ge,e->g", pd - ps, w)
    landscape = np.outer(t1, np.sin(4.0 * betas)) - np.outer(t2, np.sin(2.0 * betas) ** 2)
    return 0.5 * sum(w.tolist()) + 0.25 * landscape


def expectation_analytic(g: WeightedGraph, params: QaoaParams) -> float:
    """Closed-form expected cut value; matches expectation_statevector exactly."""
    return float(_analytic_grid(g, params.gamma, params.beta)[0, 0])


def average_degree(g: WeightedGraph) -> float:
    """Average degree of the nonzero-edge graph."""
    return 2.0 * np.count_nonzero(g.w) / g.vertex_count


def estimate_parameters(g: WeightedGraph) -> QaoaParams:
    """Closed-form parameter guess from mean |weight| and average degree.

    gamma = arctan(1 / sqrt(dbar - 1)) / abar with abar the mean absolute
    weight over nonzero edges and dbar the average degree of the nonzero-edge
    graph; beta = pi/8. Provably optimal on triangle-free regular graphs with
    weights of constant magnitude.
    """
    nz = g.w[g.w != 0.0]
    if not nz.size:
        raise ValueError("cannot estimate parameters: graph has no weighted edges")
    abar = float(np.mean(np.abs(nz)))
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
    """Evaluate the expectation on a step-spaced grid over [0, pi/2]^2; raises
    ValueError when the step gives more than GRID_AXIS_POINTS points per axis."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be finite and positive, got {step}")
    count = math.pi / 2.0 / step + 1e-12  # intervals per axis; inf for a step in the subnormals
    if not count < GRID_AXIS_POINTS:
        raise ValueError(f"grid step {step} gives {np.floor(count) + 1:.0f} points per axis, over {GRID_AXIS_POINTS}")
    points = step * np.arange(math.floor(count) + 1)
    if evaluator == "analytic":
        values = _analytic_grid(g, points, points)
    elif evaluator == "statevector":
        values = np.empty((points.size, points.size))
        for i, gamma in enumerate(points):
            phase = _phase(g, gamma)
            if not i:  # once, after _phase has checked the qubit cap
                spectrum = _spectrum(g)
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
