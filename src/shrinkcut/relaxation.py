"""Cycle relaxation of MaxCut on a dense closure, via triangle separation.

The LP has one variable per vertex pair with bounds [0, 1] and is tightened
iteratively: solve, enumerate all triangles for violated inequalities, add the
most violated ones, repeat until none is violated beyond tolerance. On a
complete graph the triangle inequalities are exactly the odd-cycle
inequalities, so the final objective upper-bounds the maximum cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import WeightedGraph
from .simplex import SimplexError, solve_box_lp

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


@dataclass
class LpProblem:
    """max objective.x s.t. sparse rows (indices, coefficients) <= rhs, x in [0,1]^k."""

    objective: np.ndarray
    rows: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)

    @property
    def var_count(self) -> int:
        return int(np.asarray(self.objective).size)


def lp_solve(problem: LpProblem) -> tuple[np.ndarray, float]:
    """Solve the box LP with the bundled simplex; deterministic for fixed input."""
    k = problem.var_count
    a = np.zeros((len(problem.rows), k))
    b = np.zeros(len(problem.rows))
    for r, (idx, coef, rhs) in enumerate(problem.rows):
        a[r, np.asarray(idx, dtype=int)] = coef
        b[r] = rhs
    return solve_box_lp(np.asarray(problem.objective, dtype=float), a, b, np.ones(k))


@dataclass(frozen=True)
class TriangleConstraint:
    """One of the four triangle inequalities on vertices t < u < v.

    Variants 1..3 bound each pair variable by the sum of the other two
    (x_tu - x_uv - x_tv <= 0 and its rotations); variant 4 is
    x_tu + x_uv + x_tv <= 2.
    """

    t: int
    u: int
    v: int
    variant: int

    _SIGNS = {1: (1.0, -1.0, -1.0), 2: (-1.0, 1.0, -1.0), 3: (-1.0, -1.0, 1.0), 4: (1.0, 1.0, 1.0)}

    def __post_init__(self):
        if not self.t < self.u < self.v:
            raise ValueError("triangle vertices must satisfy t < u < v")
        if self.variant not in (1, 2, 3, 4):
            raise ValueError(f"unknown variant {self.variant}")

    def row(self, n: int) -> tuple[np.ndarray, np.ndarray, float]:
        idx = np.array(
            [pair_index(self.t, self.u, n), pair_index(self.u, self.v, n), pair_index(self.t, self.v, n)]
        )
        coef = np.array(self._SIGNS[self.variant])
        rhs = 2.0 if self.variant == 4 else 0.0
        return idx, coef, rhs

    def violation(self, x: np.ndarray, n: int) -> float:
        idx, coef, rhs = self.row(n)
        return float(coef @ x[idx] - rhs)


@dataclass(eq=False)
class FractionalSolution:
    """Optimal point of the triangle relaxation over all vertex pairs.

    x is indexed like iter_pairs(n); objective_value upper-bounds the maximum
    cut; rounds counts LP solves (separation rounds, not simplex pivots) and
    round_values records the (non-increasing) objective after each of them.
    """

    n: int
    x: np.ndarray
    objective_value: float
    rounds: int
    constraints_added: int
    round_values: tuple[float, ...]

    def x_of(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        return float(self.x[pair_index(u, v, self.n)])

    def to_matrix(self) -> np.ndarray:
        return pair_matrix(self.x, self.n)


def separate_triangles(
    x: np.ndarray, n: int, tol: float = DEFAULT_TOL, cap: int = PER_ROUND_CAP
) -> list[TriangleConstraint]:
    """All triangle inequalities violated by more than tol, most violated first.

    Ties are broken by (t, u, v, variant); at most cap constraints are
    returned per call to bound LP growth.
    """
    m = pair_matrix(x, n)
    found: list[tuple[float, int, int, int, int]] = []
    for t in range(n):
        for u in range(t + 1, n):
            vs = np.arange(u + 1, n)
            if vs.size == 0:
                continue
            a = m[t, u]
            bv = m[u, vs]
            cv = m[t, vs]
            for variant, lhs in (
                (1, a - bv - cv),
                (2, -a + bv - cv),
                (3, -a - bv + cv),
                (4, a + bv + cv - 2.0),
            ):
                for k in np.flatnonzero(lhs > tol):
                    found.append((float(lhs[k]), t, u, int(vs[k]), variant))
    found.sort(key=lambda rec: (-rec[0], rec[1], rec[2], rec[3], rec[4]))
    return [TriangleConstraint(t, u, v, var) for _, t, u, v, var in found[:cap]]


def solve_cycle_relaxation(
    g: WeightedGraph, tol: float = DEFAULT_TOL, per_round_cap: int = PER_ROUND_CAP
) -> FractionalSolution:
    """Iterated LP solve + triangle separation on a complete (dense-closure) graph."""
    if not g.is_complete():
        raise ValueError("expected a dense closure (complete graph); apply dense_closure first")
    n = g.vertex_count
    k = pair_count(n)
    if k == 0:
        return FractionalSolution(n, np.zeros(0), 0.0, 0, 0, ())
    # Edges of a complete graph are stored in the same lexicographic order as
    # the LP variables, so objective coefficients line up by position.
    objective = np.array([w for _, _, w in g.edges])
    problem = LpProblem(objective)
    seen: set[TriangleConstraint] = set()
    round_values: list[float] = []
    while True:
        x, value = lp_solve(problem)
        round_values.append(value)
        violated = separate_triangles(x, n, tol, per_round_cap)
        fresh = [tc for tc in violated if tc not in seen]
        if violated and not fresh:
            raise SimplexError("separation stalled: violated constraints already in the model")
        if not fresh:
            break
        for tc in fresh:
            seen.add(tc)
            problem.rows.append(tc.row(n))
    return FractionalSolution(
        n, x, value, len(round_values), len(problem.rows), tuple(round_values)
    )


def format_solution(sol: FractionalSolution) -> str:
    """Dump the fractional point as one "u v value" line per pair (0-based ids)."""
    lines = [f"{u} {v} {val:.12g}" for (u, v), val in zip(iter_pairs(sol.n), sol.x)]
    return "\n".join(lines) + ("\n" if lines else "")
