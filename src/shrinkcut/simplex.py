"""Dense bounded-variable dual simplex for linear programs on the unit box.

Solves max c.x subject to A x <= b and 0 <= x <= 1. The dictionary-form
tableau stores only the nonbasic columns; a pivot swaps the entering and
leaving ids and updates m x (nonbasic count) entries. A nonbasic structural
variable sits at 0 or at 1; a slack has no upper bound.

A solve starts every structural variable nonbasic at the bound its cost
favours, 1 where c_j > COST_TOL * max|c| and 0 otherwise, with the slack of
every row basic at b - a.x. The reduced costs are then c itself, so the basis
is dual feasible, and the bounded dual simplex pivots until every basic
variable is inside its bounds: that basis is optimal (Koberstein, "The dual
simplex method", 2005, ch. 4). A box LP cannot be unbounded, and rows with a
negative right-hand side need no artificial variables.

An LpProblem holds its rows once, with the dictionary of its last solve.
add_rows appends rows, each as a dictionary row a_N - a_B T with its slack
basic at b - a.x; the earlier basis stays dual feasible, so the next solve
goes on from it. A cold solve is the same code from the starting dictionary.

The tableau is never refactorized. Before a solve returns, the point is
checked against the rows and a weak-duality bound from the final basis's row
prices is checked against its objective, so a drifted tableau raises
SimplexError instead of returning an infeasible or suboptimal vertex.

Determinism: each pivot picks the most violated row (ties by smallest basic
id) and the entering column by minimum dual ratio, ties by largest |pivot
entry|, then smallest id. After an iteration threshold it switches to Bland's
rule for good, as an anti-cycling fallback. The same sequence of inputs always
yields the same pivots and the same basic optimal solution.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
# tableau entries below this are rounding noise, far below any usable pivot
DROP_TOL = 1e-12
FEAS_TOL = 1e-6
# relative: a cost counts as favouring the upper bound beyond COST_TOL * max|c|,
# so the optimum does not depend on the weight scale
COST_TOL = 1e-9
# relative to max(|objective|, max|c|): how far the dual bound of the final
# basis may lie above its objective before the basis counts as not optimal
GAP_TOL = 1e-6


class SimplexError(RuntimeError):
    """Numerical failure: iteration cap or drift."""


class InfeasibleError(SimplexError):
    """The constraint system has no point inside the variable box."""


class LpProblem:
    """max objective.x s.t. rows @ x <= rhs, 0 <= x <= 1, and its dictionary.

    objective, rows and rhs are read-only copies of what the problem was given;
    add_rows is the only way the LP changes. Variable ids: structural 0..n-1,
    then the slack of row i is n + i. The dictionary starts at the
    cost-favoured corner with no rows and is left at each solve's final basis;
    pivots counts the basis changes of the last solve.
    """

    def __init__(self, objective, rows=None, rhs=None) -> None:
        c = np.array(objective, dtype=float)
        if c.ndim != 1:
            raise ValueError(f"inconsistent problem dimensions: objective of shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("objective holds a non-finite entry")
        self._objective, self._rows, self._rhs = c, np.zeros((0, c.size)), np.zeros(0)
        c.flags.writeable = self._rows.flags.writeable = self._rhs.flags.writeable = False
        # the dictionary: basis[i] takes the value beta[i] and moves by -tab[i, q]
        # per unit step of nonbasic[q]; a nonbasic variable sits at 0, or at 1
        # when at_upper
        self.tab, self.beta = np.zeros((0, c.size)), np.zeros(0)
        self.basis, self.nonbasic = np.zeros(0, dtype=np.int64), np.arange(c.size)
        self.at_upper = c > COST_TOL * np.abs(c).max(initial=0.0)
        self.pivots = 0
        if rows is not None or rhs is not None:
            self.add_rows(rows, rhs)

    objective = property(lambda self: self._objective)
    rows = property(lambda self: self._rows)
    rhs = property(lambda self: self._rhs)

    def _point(self) -> np.ndarray:
        """Values of all variables at the current dictionary, unclipped."""
        x = self.at_upper.astype(float)
        x[self.basis] = self.beta
        return x

    def add_rows(self, rows, rhs) -> None:
        """Append rows @ x <= rhs below the earlier rows, their slacks basic; the
        earlier basis stays dual feasible, so the next solve goes on from it.
        Raises ValueError, naming it, for a block of another width, an rhs of
        another length or a non-finite entry, and leaves the problem as it was."""
        m, n = self._rows.shape
        new, b = np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float)
        if new.ndim != 2 or new.shape[1] != n:
            raise ValueError(f"inconsistent problem dimensions: rows of shape {new.shape} for {n} variables")
        if b.shape != (new.shape[0],):
            raise ValueError(f"inconsistent problem dimensions: rhs of shape {b.shape} for {new.shape[0]} rows")
        for name, values in (("rows", new), ("rhs", b)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} holds a non-finite entry")
        k = new.shape[0]
        # row a of the new block: slack = b - a.x = (b - a.x_now) - (a_N - a_B T) dx_N,
        # where only structural ids carry a coefficient
        struct_basic = self.basis < n
        block = -(new[:, self.basis[struct_basic]] @ self.tab[struct_basic])
        struct_nonbasic = self.nonbasic < n
        block[:, struct_nonbasic] += new[:, self.nonbasic[struct_nonbasic]]
        self.beta = np.concatenate((self.beta, b - new @ self._point()[:n]))
        self.tab = np.vstack((self.tab, block))
        self.basis = np.concatenate((self.basis, n + m + np.arange(k)))
        self.at_upper = np.concatenate((self.at_upper, np.zeros(k, dtype=bool)))
        # copies: the caller may change its arrays in place afterwards
        self._rows, self._rhs = np.vstack((self._rows, new)), np.concatenate((self._rhs, b))
        self._rows.flags.writeable = self._rhs.flags.writeable = False


def iteration_cap(m: int, n: int) -> int:
    """Pivots a solve of m rows in n variables may take before it raises SimplexError."""
    return 20000 + 40 * (m + n)


def solve_box_lp(problem: LpProblem) -> tuple[np.ndarray, float]:
    """Maximize objective.x s.t. rows @ x <= rhs, 0 <= x <= 1 from the problem's
    last basis, and leave it at this solve's. Returns (x, value). Raises
    InfeasibleError or SimplexError, never a silently wrong answer: the point
    is checked against the rows, and the final basis's row prices must bound
    the optimum by its objective."""
    c, a_ub, b_ub = problem.objective, problem.rows, problem.rhs
    m, n = a_ub.shape
    problem.pivots = 0
    c_full = np.concatenate((c, np.zeros(m)))
    _dual_loop(problem, c_full, iteration_cap(m, n))

    x = np.clip(problem._point()[:n], 0.0, 1.0)
    value = float(c @ x)
    _verify(x, a_ub, b_ub)
    _verify_optimal(problem, c_full, a_ub, b_ub, value)
    return x, value


def _pivot(s: LpProblem, d: np.ndarray, row: int, q: int, leave_to_upper: bool) -> None:
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
    s.at_upper[leaving] = leave_to_upper
    s.pivots += 1


def _dual_loop(s: LpProblem, c: np.ndarray, max_iterations: int) -> None:
    """Pivot until every basic variable is inside its bounds (dual simplex).

    Raises SimplexError when that takes more than max_iterations pivots, and
    picks by Bland's rule after max(1000, 10 * ids) of them. A reduced cost on
    the wrong side of zero for its nonbasic bound counts as zero, which keeps
    the basis dual feasible for a nearby objective: those are costs within
    COST_TOL of zero at the start and rounding after a warm start, and
    _verify_optimal bounds what they can lose.
    """
    n = s.objective.size
    bland_after = max(1000, 10 * c.size)
    d = c[s.nonbasic] - c[s.basis] @ s.tab
    d = np.where(s.at_upper[s.nonbasic], np.maximum(d, 0.0), np.minimum(d, 0.0))
    used = 0
    while True:
        # only a structural variable has an upper bound
        ub = np.where(s.basis < n, 1.0, np.inf)
        infeas = np.maximum(-s.beta, s.beta - ub)
        rows = np.flatnonzero(infeas > PIVOT_TOL)
        if rows.size == 0:
            return
        if used == max_iterations:
            raise SimplexError(f"iteration cap {max_iterations} exceeded")
        use_bland = used > bland_after
        used += 1
        if not use_bland:
            rows = rows[infeas[rows] == infeas[rows].max()]
        r = int(rows[np.argmin(s.basis[rows])])
        to_upper = bool(s.beta[r] > ub[r])

        # x_B[r] moves by -alpha_q * dx_q: pick the columns that can push it
        # back toward its violated bound (dx_q >= 0 at lower, <= 0 at upper)
        alpha = s.tab[r]
        at_up = s.at_upper[s.nonbasic]
        push = np.where(at_up, alpha, -alpha) * (-1.0 if to_upper else 1.0)
        eligible = np.flatnonzero(push > PIVOT_TOL)
        if eligible.size == 0:
            raise InfeasibleError(f"a row cannot be satisfied: its basic variable is off its bound by {infeas[r]:.3g}")
        ratios = np.abs(d[eligible]) / np.abs(alpha[eligible])
        tied = eligible[ratios == ratios.min()]
        if not use_bland:
            mag = np.abs(alpha[tied])
            tied = tied[mag == mag.max()]
        q = int(tied[np.argmin(s.nonbasic[tied])])

        step = (s.beta[r] - (ub[r] if to_upper else 0.0)) / alpha[q]
        s.beta -= step * s.tab[:, q]
        s.beta[r] = (1.0 if s.at_upper[s.nonbasic[q]] else 0.0) + step
        _pivot(s, d, r, q, to_upper)


def _verify(x: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> None:
    if a_ub.shape[0] and np.any(a_ub @ x > b_ub + FEAS_TOL):
        worst = float(np.max(a_ub @ x - b_ub))
        raise SimplexError(f"solution drifted infeasible by {worst:.3g}")


def _verify_optimal(s: LpProblem, c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, value: float) -> None:
    """Raise if the row prices of the final basis prove a better objective possible.

    _verify catches a drifted tableau that leaves the point infeasible; this
    catches one whose reduced costs wrongly report optimality. The price of
    row i is minus the reduced cost of its slack when that is nonbasic, and 0
    when it is basic. For any prices y >= 0, weak duality bounds the optimum
    by b.y + sum_j max(0, c_j - (A^T y)_j), whatever rounding did to the
    tableau; at an optimal basis the bound equals the objective.
    """
    n = a_ub.shape[1]
    tol = GAP_TOL * max(abs(value), np.abs(c).max(initial=0.0))
    d = c[s.nonbasic] - c[s.basis] @ s.tab
    y = np.zeros(b_ub.size)
    slack = s.nonbasic >= n
    y[s.nonbasic[slack] - n] = np.maximum(-d[slack], 0.0)
    bound = b_ub @ y + np.maximum(c[:n] - a_ub.T @ y, 0.0).sum()
    if bound - value > tol:
        raise SimplexError(f"final basis not optimal: its dual bound exceeds the objective by {bound - value:.3g}")
