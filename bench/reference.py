"""Correctness references that share no code with shrinkcut.

Everything here works on a dense symmetric weight matrix built by the
benchmark itself, so a fault in the program's edge lists, cut kernels or
enumeration cannot hide behind the same fault in the reference. The check
functions return a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math

import numpy as np

ENUMERATION_CAP = 22
SE_LIMIT = 5.0
_CHUNK = 1 << 15


def weight_matrix(n: int, edges) -> np.ndarray:
    """Symmetric (n, n) matrix from (u, v, w) triples; repeated pairs add up."""
    w = np.zeros((n, n))
    for u, v, x in edges:
        w[u, v] += x
        w[v, u] += x
    return w


def tolerance(w: np.ndarray) -> float:
    """Absolute slack for comparing cut values that were summed in another order."""
    return 1e-9 * (1.0 + float(np.abs(w).sum()) / 2.0)


def cut_value(w: np.ndarray, assignment) -> float:
    """Weight crossing the bipartition: x' W (1 - x) counts each crossing pair once."""
    x = np.asarray(assignment, dtype=float)
    return float(x @ w @ (1.0 - x))


def _spins(indices: np.ndarray, n: int) -> np.ndarray:
    return 1.0 - 2.0 * ((indices[:, None] >> np.arange(n)) & 1)


def spectrum(w: np.ndarray, half: bool = False) -> np.ndarray:
    """Cut value of every assignment x (vertex i on side bit i of x).

    Uses cut = (sum_{u<v} w_uv - sum_{u<v} w_uv s_u s_v) / 2 with spins
    s = 1 - 2x. With half=True only x < 2^(n-1) is enumerated, which covers
    every bipartition once.
    """
    n = w.shape[0]
    total = float(w.sum()) / 2.0
    count = 1 << (n - 1 if half and n else n)
    out = np.empty(count)
    for start in range(0, count, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        s = _spins(idx, n)
        out[start : start + idx.size] = (total - 0.5 * np.einsum("ki,ki->k", s @ w, s)) / 2.0
    return out


def enumerate_cuts(w: np.ndarray) -> tuple[float, float]:
    """(max, min) cut value over all bipartitions, n <= ENUMERATION_CAP."""
    if w.shape[0] > ENUMERATION_CAP:
        raise ValueError(f"{w.shape[0]} vertices exceeds the reference cap {ENUMERATION_CAP}")
    if w.shape[0] == 0:
        return 0.0, 0.0
    values = spectrum(w, half=True)
    return float(values.max()), float(values.min())


def qaoa_moments(w: np.ndarray, gamma: float, beta: float) -> tuple[float, float]:
    """Mean and variance of the cut value measured from the depth-1 QAOA state.

    The state is exp(-i beta X)^n exp(-i gamma C) applied to the uniform
    superposition, simulated here on the full statevector.
    """
    n = w.shape[0]
    values = spectrum(w)
    amp = np.exp(-1j * gamma * values) * 2.0 ** (-n / 2.0)
    c, s = math.cos(beta), math.sin(beta)
    for q in range(n):
        pairs = amp.reshape(-1, 2, 1 << q)
        lo = pairs[:, 0, :].copy()
        pairs[:, 0, :] = c * lo - 1j * s * pairs[:, 1, :]
        pairs[:, 1, :] = c * pairs[:, 1, :] - 1j * s * lo
    p = amp.real**2 + amp.imag**2
    mean = float(p @ values)
    return mean, max(float(p @ values**2) - mean * mean, 0.0)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_report(report, w: np.ndarray, optimum: float | None = None) -> list[str]:
    """Checks every pipeline report must pass: the best value is the cut value of
    the best assignment, the mean does not exceed it, and (when the optimum is
    known) the best does not exceed the optimum."""
    tol = tolerance(w)
    problems = []
    own = cut_value(w, report.best_assignment)
    if not _close(report.best_cut_value, own, tol):
        problems.append(f"best_cut_value {report.best_cut_value!r} but best_assignment cuts {own!r}")
    if report.mean_cut_value > report.best_cut_value + tol:
        problems.append(f"mean_cut_value {report.mean_cut_value!r} exceeds best {report.best_cut_value!r}")
    if optimum is not None and report.best_cut_value > optimum + tol:
        problems.append(f"best_cut_value {report.best_cut_value!r} exceeds the optimum {optimum!r}")
    return problems


def check_exact_report(report, w: np.ndarray, optimum: float) -> list[str]:
    """grid-relax: the LP bound is exact on planar grids and shrinking with its
    correlations keeps an optimum, so bound and best both equal the optimum."""
    problems = check_report(report, w, optimum)
    if report.upper_bound is None or not _close(report.upper_bound, optimum, 1e-6):
        problems.append(f"upper_bound {report.upper_bound!r} differs from the optimum {optimum!r}")
    if not _close(report.best_cut_value, optimum, tolerance(w)):
        problems.append(f"best_cut_value {report.best_cut_value!r} differs from the optimum {optimum!r}")
    return problems


def check_sample_mean(report, expected: float, variance: float, tol: float) -> list[str]:
    """The sample mean of n i.i.d. draws lies within SE_LIMIT standard errors of
    the exact expectation."""
    limit = SE_LIMIT * math.sqrt(variance / report.n_samples) + tol
    if abs(report.mean_cut_value - expected) > limit:
        return [
            f"sample mean {report.mean_cut_value!r} is {abs(report.mean_cut_value - expected):.6g} "
            f"from the expectation {expected!r}; allowed {limit:.6g}"
        ]
    return []


def check_oracle(summary, w: np.ndarray, bounds: tuple[float, float]) -> list[str]:
    """brute_force's max and min equal the enumeration, and its argmax attains the max."""
    tol = tolerance(w)
    hi, lo = bounds
    problems = []
    if not _close(summary.max_value, hi, tol):
        problems.append(f"max_value {summary.max_value!r} differs from the enumerated {hi!r}")
    if not _close(summary.min_value, lo, tol):
        problems.append(f"min_value {summary.min_value!r} differs from the enumerated {lo!r}")
    if not _close(cut_value(w, summary.argmax), hi, tol):
        problems.append("argmax does not attain the maximum")
    return problems


def check_sweep(cells, w: np.ndarray, bounds: tuple[float, float], exact_modes: tuple[str, ...]) -> list[str]:
    """Every cell's ratio follows from its mean and the enumerated bounds; mean <=
    best <= optimum; exact cells of the modes in exact_modes reach ratio 1, and
    so does every exact cell that deleted no vertex."""
    tol = tolerance(w)
    hi, lo = bounds
    problems = []
    for c in cells:
        where = f"cell ({c.correlation_mode}, {c.subsolver}, deleted {c.deleted_vertices})"
        if c.best_cut_value > hi + tol or c.mean_cut_value > c.best_cut_value + tol:
            problems.append(f"{where}: mean {c.mean_cut_value!r}, best {c.best_cut_value!r}, optimum {hi!r}")
        ratio = min(max((c.mean_cut_value - lo) / (hi - lo), 0.0), 1.0)
        if not _close(c.ratio, ratio, 1e-9):
            problems.append(f"{where}: ratio {c.ratio!r}, expected {ratio!r}")
        if c.subsolver == "exact" and (c.correlation_mode in exact_modes or c.deleted_vertices == 0):
            if not _close(c.ratio, 1.0, 1e-9):
                problems.append(f"{where}: exact ratio {c.ratio!r} is not 1")
    return problems
