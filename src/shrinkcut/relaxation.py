"""Cycle relaxation of MaxCut on a dense closure, via triangle separation.

The LP has one variable per vertex pair with bounds [0, 1] and is tightened
iteratively: solve, enumerate all triangles for violated inequalities, add the
most violated ones, repeat until none is violated beyond tolerance. Each
re-solve starts from the previous round's optimal basis (the LpProblem keeps
the simplex tableau), since a round only appends rows. On a
complete graph the triangle inequalities are exactly the odd-cycle
inequalities, so the final objective upper-bounds the maximum cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph
from .simplex import FEAS_TOL, SimplexError, Tableau, solve_box_lp

DEFAULT_TOL = 1e-6
PER_ROUND_CAP = 500


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(u: int, v: int, n: int) -> int:
    """Flat index of pair (u, v), u < v, in lexicographic order."""
    if not 0 <= u < v < n:
        raise ValueError(f"({u}, {v}) is not a canonical pair for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def iter_pairs(n: int):
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v


def pair_matrix(x: np.ndarray, n: int) -> np.ndarray:
    """Symmetric n x n matrix holding x, indexed like iter_pairs(n), off the diagonal."""
    m = np.zeros((n, n))
    u, v = np.triu_indices(n, 1)
    m[u, v] = x
    m[v, u] = x
    return m


# Coefficients on pairs (t, u), (u, v), (t, v) of triangle variants 1..4; the
# right-hand side is 0 for variants 1..3 and 2 for variant 4.
_TRIANGLE_SIGNS = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0], [1.0, 1.0, 1.0]])


def triangle_rows(cuts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (k, pair_count(n)) coefficient rows and right-hand sides of triangle cuts.

    cuts is a (k, 4) int array of (t, u, v, variant) rows, t < u < v: variants
    1..3 bound each pair variable by the sum of the other two
    (x_tu - x_uv - x_tv <= 0 and its rotations); variant 4 is
    x_tu + x_uv + x_tv <= 2.
    """
    t, u, v, variant = np.asarray(cuts).T
    k = pair_count(n)
    flat = pair_matrix(np.arange(k), n).astype(np.int64)  # pair_index of every pair
    rows = np.zeros((t.size, k))
    rows[np.arange(t.size)[:, None], np.column_stack((flat[t, u], flat[u, v], flat[t, v]))] = (
        _TRIANGLE_SIGNS[variant - 1]
    )
    return rows, np.where(variant == 4, 2.0, 0.0)


@dataclass
class LpProblem:
    """max objective.x s.t. rows @ x <= rhs, x in [0,1]^k; rows is a dense (r, k) block.

    tableau keeps the last solve's optimal dictionary, so a problem that only
    ever gains rows (appended below the earlier ones) is re-solved warm.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    tableau: Tableau = field(default_factory=Tableau, repr=False, compare=False)


def lp_solve(problem: LpProblem) -> tuple[np.ndarray, float]:
    """Solve the box LP with the bundled simplex, from the problem's last optimal
    basis; deterministic for a fixed sequence of inputs."""
    return solve_box_lp(
        problem.objective, problem.rows, problem.rhs, np.ones(problem.objective.size), tableau=problem.tableau
    )


@dataclass(eq=False)
class FractionalSolution:
    """Optimal point of the triangle relaxation over all vertex pairs.

    x is indexed like iter_pairs(n); objective_value upper-bounds the maximum
    cut; rounds counts LP solves (separation rounds, not simplex pivots),
    round_values records the (non-increasing) objective after each of them and
    round_pivots the simplex pivots each of them took.
    """

    n: int
    x: np.ndarray
    objective_value: float
    rounds: int
    constraints_added: int
    round_values: tuple[float, ...]
    round_pivots: tuple[int, ...]

    def x_of(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return float(self.x[pair_index(u, v, self.n)])

    def to_matrix(self) -> np.ndarray:
        return pair_matrix(self.x, self.n)


def separate_triangles(
    x: np.ndarray, n: int, tol: float = DEFAULT_TOL, cap: int = PER_ROUND_CAP
) -> np.ndarray:
    """All triangle inequalities violated by more than tol, most violated first,
    as a (k, 4) int array of (t, u, v, variant) rows (see triangle_rows).

    Ties are broken by (t, u, v, variant); at most cap constraints are
    returned per call to bound LP growth.
    """
    m = pair_matrix(x, n)
    r = np.arange(n)
    # nonzero walks the mask in C order, so the triples come out lexicographic
    t, u, v = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    a, bv, cv = m[t, u], m[u, v], m[t, v]
    lhs = np.column_stack((a - bv - cv, -a + bv - cv, -a - bv + cv, a + bv + cv - 2.0)).ravel()
    hit = np.flatnonzero(lhs > tol)
    hit = hit[np.argsort(-lhs[hit], kind="stable")][:cap]
    triple = hit // 4
    return np.column_stack((t[triple], u[triple], v[triple], hit % 4 + 1))


def solve_cycle_relaxation(g: WeightedGraph, tol: float = DEFAULT_TOL) -> FractionalSolution:
    """Iterated LP solve + triangle separation on a complete (dense-closure) graph."""
    if not g.is_complete():
        raise ValueError("expected a dense closure (complete graph); apply dense_closure first")
    if not (np.isfinite(tol) and tol >= FEAS_TOL):
        # the simplex meets rows only to FEAS_TOL, so below it a row already in
        # the model could count as violated and separation would stall
        raise ValueError(f"tol must be finite and at least the simplex's feasibility tolerance {FEAS_TOL:g}, got {tol}")
    n = g.vertex_count
    k = pair_count(n)
    if k == 0:
        return FractionalSolution(n, np.zeros(0), 0.0, 0, 0, (), ())
    # Edges of a complete graph are stored in the same lexicographic order as
    # the LP variables, so objective coefficients line up by position.
    objective = np.array([w for _, _, w in g.edges])
    problem = LpProblem(objective, np.zeros((0, k)), np.zeros(0))
    seen: set[tuple[int, ...]] = set()
    round_values: list[float] = []
    round_pivots: list[int] = []
    while True:
        x, value = lp_solve(problem)
        round_values.append(value)
        round_pivots.append(problem.tableau.pivots)
        violated = separate_triangles(x, n, tol)
        keys = list(map(tuple, violated.tolist()))
        fresh = violated[[key not in seen for key in keys]]
        if len(violated) and not len(fresh):
            raise SimplexError("separation stalled: violated constraints already in the model")
        if not len(fresh):
            break
        seen.update(keys)
        rows, rhs = triangle_rows(fresh, n)
        problem.rows = np.vstack((problem.rows, rows))
        problem.rhs = np.concatenate((problem.rhs, rhs))
    return FractionalSolution(
        n, x, value, len(round_values), len(problem.rows), tuple(round_values), tuple(round_pivots)
    )


def format_solution(sol: FractionalSolution) -> str:
    """Dump the fractional point as one "u v value" line per pair (0-based ids)."""
    lines = [f"{u} {v} {val:.12g}" for (u, v), val in zip(iter_pairs(sol.n), sol.x)]
    return "\n".join(lines) + ("\n" if lines else "")
