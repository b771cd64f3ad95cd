"""Dense primal simplex for box-constrained linear programs.

Solves max c.x subject to A x <= b and 0 <= x <= upper with a bounded-variable
simplex whose dictionary-form tableau stores only the nonbasic columns; a
pivot swaps the entering and leaving ids and updates m x (nonbasic count)
entries. Nonbasic variables sit at either bound and may move to the other
bound without a basis change. A phase-1 pass with artificial variables handles
negative right-hand sides; the triangle-relaxation LPs this package builds
never need it, but the solver does not assume that.

Determinism: entering variables are picked by Dantzig's rule with ties broken
by smallest variable id (not column position), switching to Bland's rule
permanently after an iteration threshold as an anti-cycling fallback. The
same input always yields the same pivots and the same basic optimal solution.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-6
# relative: a reduced cost counts as improving beyond COST_TOL * max|c| of the
# phase's objective, so the optimum does not depend on the weight scale
COST_TOL = 1e-9


class SimplexError(RuntimeError):
    """Numerical failure: iteration cap, unbounded direction, or drift."""


class InfeasibleError(SimplexError):
    """The constraint system has no point inside the variable box."""


def solve_box_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    upper: np.ndarray,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize c.x s.t. a_ub x <= b_ub, 0 <= x <= upper. Returns (x, value).

    upper entries may be np.inf. Raises InfeasibleError or SimplexError;
    never returns a silently wrong answer (the result is re-verified against
    the constraints before returning).
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = c.size
    if a_ub.size == 0:
        a_ub = a_ub.reshape(0, n)
    m = a_ub.shape[0]
    if a_ub.shape != (m, n) or b_ub.shape != (m,) or upper.shape != (n,):
        raise ValueError("inconsistent problem dimensions")
    if np.any(upper < 0):
        raise InfeasibleError("negative upper bound")

    flip_rows = np.flatnonzero(b_ub < 0)
    n_art = flip_rows.size
    total = n + m + n_art

    # Variable ids: structural | slacks | artificials (phase 1 only). The start
    # basis is the slacks, with each flipped row's artificial in its place.
    nonbasic = np.concatenate([np.arange(n), n + flip_rows])
    tab = np.zeros((m, nonbasic.size))
    tab[:, :n] = a_ub
    tab[flip_rows, n + np.arange(n_art)] = 1.0
    tab[flip_rows, :] *= -1.0
    beta = b_ub.copy()
    beta[flip_rows] *= -1.0

    bounds = np.concatenate([upper, np.full(m + n_art, np.inf)])
    basis = np.arange(n, n + m)
    basis[flip_rows] = n + m + np.arange(n_art)
    at_upper = np.zeros(total, dtype=bool)

    if max_iterations is None:
        max_iterations = 20000 + 40 * (m + total)
    bland_after = max(1000, 10 * (m + total))
    state = _State(tab, beta, basis, nonbasic, at_upper, bounds, bland_after, max_iterations)

    if n_art:
        c_phase1 = np.zeros(total)
        c_phase1[n + m :] = -1.0
        _pivot_loop(state, c_phase1)
        infeas = beta[basis >= n + m].sum()
        if infeas > FEAS_TOL:
            raise InfeasibleError(f"phase 1 ended with residual infeasibility {infeas:.3g}")
        bounds[n + m :] = 0.0

    c_full = np.zeros(total)
    c_full[:n] = c
    _pivot_loop(state, c_full)

    x_full = np.where(at_upper & np.isfinite(bounds), bounds, 0.0)
    x_full[basis] = beta
    x = np.clip(x_full[:n], 0.0, np.where(np.isfinite(upper), upper, np.inf))
    _verify(x, a_ub, b_ub)
    return x, float(c @ x)


class _State:
    def __init__(self, tab, beta, basis, nonbasic, at_upper, bounds, bland_after, max_iterations):
        self.tab = tab
        self.beta = beta
        self.basis = basis
        self.nonbasic = nonbasic
        self.at_upper = at_upper
        self.bounds = bounds
        self.bland_after = bland_after
        self.max_iterations = max_iterations
        self.iterations = 0


def _pivot_loop(s: _State, c: np.ndarray) -> None:
    # Reduced costs of the nonbasic columns, from scratch for the given
    # objective; pivots keep them updated incrementally afterwards.
    d = c[s.nonbasic] - c[s.basis] @ s.tab
    cost_tol = COST_TOL * np.abs(c).max(initial=0.0)
    while True:
        if s.iterations > s.max_iterations:
            raise SimplexError(f"iteration cap {s.max_iterations} exceeded")
        use_bland = s.iterations > s.bland_after
        q = _entering(s, d, use_bland, cost_tol)
        if q < 0:
            return
        s.iterations += 1
        j = s.nonbasic[q]
        direction = -1.0 if s.at_upper[j] else 1.0
        col = s.tab[:, q].copy()
        move = direction * col

        t_best = s.bounds[j] if np.isfinite(s.bounds[j]) else np.inf
        row = -1
        leave_to_upper = False
        dec = move > PIVOT_TOL
        if np.any(dec):
            ratios = np.maximum(s.beta[dec], 0.0) / move[dec]
            k = _best_row(np.flatnonzero(dec), ratios, s.basis)
            if ratios[k[1]] < t_best:
                t_best, row, leave_to_upper = ratios[k[1]], k[0], False
        ub_basis = s.bounds[s.basis]
        inc = (move < -PIVOT_TOL) & np.isfinite(ub_basis)
        if np.any(inc):
            ratios = np.maximum(ub_basis[inc] - s.beta[inc], 0.0) / (-move[inc])
            k = _best_row(np.flatnonzero(inc), ratios, s.basis)
            if ratios[k[1]] < t_best:
                t_best, row, leave_to_upper = ratios[k[1]], k[0], True

        if not np.isfinite(t_best):
            raise SimplexError("unbounded improving direction")

        if row < 0:
            # The entering variable travels to its other bound; basis unchanged.
            s.beta -= t_best * move
            s.at_upper[j] = not s.at_upper[j]
            continue

        enter_val = (s.bounds[j] if s.at_upper[j] else 0.0) + direction * t_best
        leaving = s.basis[row]
        s.beta -= t_best * move
        s.beta[row] = enter_val

        # Rank-1 update of the stored columns, then column q turns into the
        # leaving variable's column: the unit vector e_row after the pivot.
        inv = 1.0 / col[row]
        new_row = s.tab[row] / col[row]
        s.tab -= np.outer(col, new_row)
        s.tab[row] = new_row
        s.tab[:, q] = -(col * inv)
        s.tab[row, q] = inv
        d_q = d[q]
        d -= d_q * new_row
        d[q] = -(d_q * inv)

        s.basis[row] = j
        s.nonbasic[q] = leaving
        s.at_upper[j] = False
        s.at_upper[leaving] = leave_to_upper and np.isfinite(s.bounds[leaving])


def _entering(s: _State, d: np.ndarray, use_bland: bool, cost_tol: float) -> int:
    """Position in nonbasic of the entering column, or -1 at optimality."""
    eligible = np.flatnonzero(np.where(s.at_upper[s.nonbasic], d < -cost_tol, d > cost_tol))
    if eligible.size == 0:
        return -1
    if not use_bland:
        mag = np.abs(d[eligible])
        eligible = eligible[mag == mag.max()]
    return int(eligible[np.argmin(s.nonbasic[eligible])])


def _best_row(rows: np.ndarray, ratios: np.ndarray, basis: np.ndarray) -> tuple[int, int]:
    """Pick the blocking row: minimum ratio, ties broken by smallest basis id."""
    t = ratios.min()
    tied = np.flatnonzero(ratios == t)
    k = tied[np.argmin(basis[rows[tied]])]
    return int(rows[k]), int(k)


def _verify(x: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> None:
    if a_ub.shape[0] and np.any(a_ub @ x > b_ub + FEAS_TOL):
        worst = float(np.max(a_ub @ x - b_ub))
        raise SimplexError(f"solution drifted infeasible by {worst:.3g}")
