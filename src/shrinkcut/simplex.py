"""Dense bounded-variable simplex for box-constrained linear programs.

Solves max c.x subject to A x <= b and 0 <= x <= upper. The dictionary-form
tableau stores only the nonbasic columns; a pivot swaps the entering and
leaving ids and updates m x (nonbasic count) entries. Nonbasic variables sit
at either bound and may move to the other bound without a basis change.

A solve can start warm: a Tableau keeps the last optimal dictionary, and when
the same LP comes back with rows appended (a cutting-plane loop), each new row
enters as a dictionary row a_N - a_B T with its slack basic at b - a.x. A
bounded-variable dual simplex then pivots until every basic variable is back
inside its bounds, and the primal simplex finishes from there. A cold solve is
the same code from an empty tableau: the structural variables nonbasic at
zero and every row new, so rows with a negative right-hand side are made
feasible by the dual pass (no artificial variables).

The tableau is never refactorized. Before a solve returns, the point is
checked against the rows and a weak-duality bound from the final basis's row
prices is checked against its objective, so a drifted tableau raises
SimplexError instead of returning an infeasible or suboptimal vertex.

Determinism: primal entering variables are picked by Dantzig's rule with ties
broken by smallest variable id (not column position), and the blocking row by
minimum ratio, ties by smallest basic id. The dual pass picks the most
violated row (ties by smallest basic id) and the entering column by minimum
dual ratio, ties by largest |pivot entry|, then smallest id. Both switch to
Bland's rule permanently after an iteration threshold as an anti-cycling
fallback. The same sequence of inputs always yields the same pivots and the
same basic optimal solution.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
# tableau entries below this are rounding noise, far below any usable pivot
DROP_TOL = 1e-12
FEAS_TOL = 1e-6
# relative: a reduced cost counts as improving beyond COST_TOL * max|c|, so the
# optimum does not depend on the weight scale
COST_TOL = 1e-9
# relative to max(|objective|, max|c|): how far the dual bound of the final
# basis may lie above its objective before the basis counts as not optimal
GAP_TOL = 1e-6


class SimplexError(RuntimeError):
    """Numerical failure: iteration cap, unbounded direction, or drift."""


class InfeasibleError(SimplexError):
    """The constraint system has no point inside the variable box."""


class Tableau:
    """The dictionary of one box LP, kept between solves as its rows grow.

    Variable ids: structural 0..n-1, then the slack of row i is n + i. A fresh
    Tableau() is empty; solve_box_lp fills it on first use and leaves it at
    each solve's optimal basis. pivots counts the basis changes of the last
    solve (bound flips are not pivots).
    """

    def __init__(self) -> None:
        # the problem the dictionary belongs to; rows is None until the first solve
        self.c: np.ndarray | None = None
        self.upper: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.rhs: np.ndarray | None = None
        # the dictionary: basis[i] takes the value beta[i] and moves by -tab[i, q]
        # per unit step of nonbasic[q]; a nonbasic variable sits at 0, or at its
        # bound in bounds when at_upper
        self.tab: np.ndarray | None = None
        self.beta: np.ndarray | None = None
        self.basis: np.ndarray | None = None
        self.nonbasic: np.ndarray | None = None
        self.at_upper: np.ndarray | None = None
        self.bounds: np.ndarray | None = None
        self.pivots = 0

    def _start(self, c: np.ndarray, upper: np.ndarray) -> None:
        n = c.size
        self.c, self.upper = c.copy(), upper.copy()
        self.rows, self.rhs = np.zeros((0, n)), np.zeros(0)
        self.tab = np.zeros((0, n))
        self.beta = np.zeros(0)
        self.basis = np.zeros(0, dtype=np.int64)
        self.nonbasic = np.arange(n)
        self.at_upper = np.zeros(n, dtype=bool)
        self.bounds = upper.copy()

    def _point(self) -> np.ndarray:
        """Values of all variables at the current dictionary, unclipped."""
        x = np.where(self.at_upper, self.bounds, 0.0)
        x[self.basis] = self.beta
        return x

    def _append(self, c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, upper: np.ndarray) -> None:
        """Add the rows of a_ub beyond those already held, their slacks basic."""
        if self.rows is None:
            self._start(c, upper)
        m = self.rows.shape[0]
        if not (
            np.array_equal(c, self.c)
            and np.array_equal(upper, self.upper)
            and a_ub.shape[0] >= m
            and np.array_equal(a_ub[:m], self.rows)
            and np.array_equal(b_ub[:m], self.rhs)
        ):
            raise ValueError("a warm tableau needs the same c and upper and the earlier rows as a prefix")
        new = a_ub[m:]
        n, k = c.size, new.shape[0]
        # row a of the new block: slack = b - a.x = (b - a.x_now) - (a_N - a_B T) dx_N,
        # where only structural ids carry a coefficient
        struct_basic = self.basis < n
        block = -(new[:, self.basis[struct_basic]] @ self.tab[struct_basic])
        struct_nonbasic = self.nonbasic < n
        block[:, struct_nonbasic] += new[:, self.nonbasic[struct_nonbasic]]
        self.beta = np.concatenate((self.beta, b_ub[m:] - new @ self._point()[:n]))
        self.tab = np.vstack((self.tab, block))
        self.basis = np.concatenate((self.basis, n + m + np.arange(k)))
        self.at_upper = np.concatenate((self.at_upper, np.zeros(k, dtype=bool)))
        self.bounds = np.concatenate((self.bounds, np.full(k, np.inf)))
        # copies: the caller may change its arrays in place before the next solve
        self.rows, self.rhs = a_ub.copy(), b_ub.copy()


def solve_box_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    upper: np.ndarray,
    max_iterations: int | None = None,
    tableau: Tableau | None = None,
) -> tuple[np.ndarray, float]:
    """Maximize c.x s.t. a_ub x <= b_ub, 0 <= x <= upper. Returns (x, value).

    upper entries may be np.inf. With a tableau from an earlier solve of the
    same c and upper whose rows are a prefix of a_ub and b_ub, the solve
    starts from that solve's basis; the tableau then holds this solve's. A
    tableau whose problem differs otherwise raises ValueError. Raises
    InfeasibleError or SimplexError; never returns a silently wrong answer:
    before returning, the point is checked against the constraints and the
    final basis's row prices must bound the optimum by its objective.
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

    s = Tableau() if tableau is None else tableau
    s._append(c, a_ub, b_ub, upper)
    s.pivots = 0
    budget = _Budget(20000 + 40 * (m + n) if max_iterations is None else max_iterations, max(1000, 10 * (m + n)))
    c_full = np.concatenate((c, np.zeros(m)))
    _dual_loop(s, c_full, budget)
    _pivot_loop(s, c_full, budget)

    x = np.clip(s._point()[:n], 0.0, upper)
    value = float(c @ x)
    _verify(x, a_ub, b_ub)
    _verify_optimal(s, c_full, a_ub, b_ub, upper, value)
    return x, value


class _Budget:
    """Iteration count and limits of one solve, shared by its dual and primal passes."""

    def __init__(self, cap: int, bland_after: int) -> None:
        self.cap, self.bland_after, self.used = cap, bland_after, 0

    def use_bland(self) -> bool:
        """Raise past the iteration cap; True once Bland's rule applies."""
        if self.used > self.cap:
            raise SimplexError(f"iteration cap {self.cap} exceeded")
        return self.used > self.bland_after


def _pivot(s: Tableau, d: np.ndarray, row: int, q: int, leave_to_upper: bool) -> None:
    """Swap nonbasic column q with the basic variable of row.

    The caller has already moved beta to the new point. A rank-1 update of the
    stored columns, then column q turns into the leaving variable's column:
    the unit vector e_row after the pivot. d (reduced costs) follows.
    """
    col = s.tab[:, q].copy()
    inv = 1.0 / col[row]
    new_row = s.tab[row] / col[row]
    # rows with a zero in column q are unchanged; cut rows are sparse, so most
    # are, as long as rounding noise where an entry cancels is dropped
    hit = np.flatnonzero(col)
    block = s.tab[hit] - col[hit, None] * new_row
    block[np.abs(block) < DROP_TOL] = 0.0
    s.tab[hit] = block
    s.tab[row] = new_row
    s.tab[:, q] = -(col * inv)
    s.tab[row, q] = inv
    d_q = d[q]
    d -= d_q * new_row
    d[q] = -(d_q * inv)

    j, leaving = s.nonbasic[q], s.basis[row]
    s.basis[row] = j
    s.nonbasic[q] = leaving
    s.at_upper[j] = False
    s.at_upper[leaving] = leave_to_upper and np.isfinite(s.bounds[leaving])
    s.pivots += 1


def _dual_loop(s: Tableau, c: np.ndarray, budget: _Budget) -> None:
    """Pivot until every basic variable is inside its bounds (dual simplex).

    A reduced cost on the wrong side of zero for its nonbasic bound counts as
    zero, which keeps the basis dual feasible for a nearby objective; after a
    warm start there are none beyond rounding, and the primal pass that
    follows restores the true costs either way.
    """
    d = c[s.nonbasic] - c[s.basis] @ s.tab
    d = np.where(s.at_upper[s.nonbasic], np.maximum(d, 0.0), np.minimum(d, 0.0))
    while True:
        use_bland = budget.use_bland()
        ub = s.bounds[s.basis]
        infeas = np.maximum(-s.beta, s.beta - ub)
        rows = np.flatnonzero(infeas > PIVOT_TOL)
        if rows.size == 0:
            return
        budget.used += 1
        if not use_bland:
            rows = rows[infeas[rows] == infeas[rows].max()]
        r = int(rows[np.argmin(s.basis[rows])])
        to_upper = bool(s.beta[r] > ub[r])

        # x_B[r] moves by -alpha_q * dx_q: pick the columns that can push it
        # back toward its violated bound (dx_q >= 0 at lower, <= 0 at upper)
        alpha = s.tab[r]
        at_up = s.at_upper[s.nonbasic]
        push = np.where(at_up, alpha, -alpha) * (-1.0 if to_upper else 1.0)
        eligible = np.flatnonzero((push > PIVOT_TOL) & (s.bounds[s.nonbasic] > 0))
        if eligible.size == 0:
            raise InfeasibleError(f"a row cannot be satisfied: its basic variable is off its bound by {infeas[r]:.3g}")
        ratios = np.abs(d[eligible]) / np.abs(alpha[eligible])
        tied = eligible[ratios == ratios.min()]
        if not use_bland:
            mag = np.abs(alpha[tied])
            tied = tied[mag == mag.max()]
        q = int(tied[np.argmin(s.nonbasic[tied])])

        j = s.nonbasic[q]
        step = (s.beta[r] - (ub[r] if to_upper else 0.0)) / alpha[q]
        s.beta -= step * s.tab[:, q]
        s.beta[r] = (s.bounds[j] if s.at_upper[j] else 0.0) + step
        _pivot(s, d, r, q, to_upper)


def _pivot_loop(s: Tableau, c: np.ndarray, budget: _Budget) -> None:
    """Primal simplex from a basis whose basic variables are inside their bounds."""
    # Reduced costs of the nonbasic columns, from scratch for the given
    # objective; pivots keep them updated incrementally afterwards.
    d = c[s.nonbasic] - c[s.basis] @ s.tab
    cost_tol = COST_TOL * np.abs(c).max(initial=0.0)
    while True:
        q = _entering(s, d, budget.use_bland(), cost_tol)
        if q < 0:
            return
        budget.used += 1
        j = s.nonbasic[q]
        direction = -1.0 if s.at_upper[j] else 1.0
        move = direction * s.tab[:, q]

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
        s.beta -= t_best * move
        s.beta[row] = enter_val
        _pivot(s, d, row, q, leave_to_upper)


def _entering(s: Tableau, d: np.ndarray, use_bland: bool, cost_tol: float) -> int:
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


def _verify_optimal(
    s: Tableau, c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, upper: np.ndarray, value: float
) -> None:
    """Raise if the row prices of the final basis prove a better objective possible.

    _verify catches a drifted tableau that leaves the point infeasible; this
    catches one whose reduced costs wrongly report optimality. The price of
    row i is minus the reduced cost of its slack when that is nonbasic, and 0
    when it is basic. For any prices y >= 0, weak duality bounds the optimum
    by b.y + sum_j upper_j max(0, c_j - (A^T y)_j), whatever rounding did to
    the tableau; at an optimal basis the bound equals the objective. An
    excess within tol on a variable without an upper bound counts as rounding.
    """
    n = upper.size
    tol = GAP_TOL * max(abs(value), np.abs(c).max(initial=0.0))
    d = c[s.nonbasic] - c[s.basis] @ s.tab
    y = np.zeros(b_ub.size)
    slack = s.nonbasic >= n
    y[s.nonbasic[slack] - n] = np.maximum(-d[slack], 0.0)
    excess = np.maximum(c[:n] - a_ub.T @ y, 0.0)
    finite = np.isfinite(upper)
    bound = np.inf if np.any(excess[~finite] > tol) else b_ub @ y + upper[finite] @ excess[finite]
    if bound - value > tol:
        raise SimplexError(f"final basis not optimal: its dual bound exceeds the objective by {bound - value:.3g}")
