"""Cycle relaxation of MaxCut on the instance's own edges, via odd-cycle separation.

The LP has one variable x_e in [0, 1] per edge of the graph and is tightened
iteratively: solve, find violated odd-cycle inequalities, append them, repeat
until none is violated beyond tolerance. For a cycle C and an odd subset F of
its edges the inequality reads x(F) - x(C \\ F) <= |F| - 1. Each re-solve
starts from the previous round's optimal basis, which the LpProblem keeps
with its rows, since a round only appends rows (LpProblem.add_rows).

Separation is exact. In the doubled graph on vertices (v, 0) and (v, 1), the
even copy of edge uv joins (u, p) to (v, p) at length x_e and the odd copy
joins (u, p) to (v, 1 - p) at length 1 - x_e. A (v, 0)-(v, 1) path of length
d crosses an odd number of odd copies F, and its inequality is violated by
1 - d. The projection of the metric polytope of the complete graph onto the
edges is the cycle polytope (Barahona & Mahjoub, "On the cut polytope", Math.
Prog. 36, 1986), so the bound equals the triangle relaxation of the dense
closure: it upper-bounds the maximum cut and is exact on graphs with no K5
minor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .simplex import FEAS_TOL, LpProblem, SimplexError, solve_box_lp


def lp_solve(problem: LpProblem) -> tuple[np.ndarray, float]:
    """Solve the box LP with the bundled simplex, from the problem's last optimal
    basis; deterministic for a fixed sequence of inputs."""
    return solve_box_lp(problem)


@dataclass(eq=False)
class FractionalSolution:
    """Optimal point of the cycle relaxation on a graph's own edges.

    x holds one value per edge of graph, in its edge order; objective_value
    upper-bounds the maximum cut; rounds counts LP solves (separation rounds,
    not simplex pivots), round_values records the (non-increasing) objective
    after each of them and round_pivots the simplex pivots each of them took.
    """

    graph: WeightedGraph
    x: np.ndarray
    objective_value: float
    rounds: int
    constraints_added: int
    round_values: tuple[float, ...]
    round_pivots: tuple[int, ...]


def separate_odd_cycles(x: np.ndarray, g: WeightedGraph, tol: float = FEAS_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Violated odd-cycle inequalities of the point x on the edges of g, as
    dense (r, k) rows and right-hand sides, most violated first.

    For every vertex v a shortest (v, 0)-(v, 1) path of the doubled graph
    (see the module docstring) comes from one Floyd-Warshall pass that keeps
    next hops. A path shorter than 1 - tol whose vertices are distinct in the
    graph is a simple odd cycle: +1 on its odd-copy edges F, -1 on the rest,
    right-hand side |F| - 1. Repeats of one cycle are returned once; ties in
    violation keep the order of v. An odd closed walk splits into a simple
    odd cycle and even closed walks of non-negative length, so some shortest
    violated walk is a simple cycle and rows come back whenever x violates
    an odd-cycle inequality by more than tol; should every path found repeat
    a vertex, SimplexError is raised instead of reporting no violation.

    Raises ValueError, naming the first bad entry, when x is not k finite
    values; g's edges are distinct pairs u < v in [0, n) by construction.
    """
    x = np.asarray(x, dtype=float)
    n, k, u, v = g.vertex_count, g.edge_count, g.u, g.v
    if x.shape != (k,):
        raise ValueError(f"x must hold one value per edge, shape ({k},), got {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"x[{bad[0]}] = {x[bad[0]]} is not finite")
    x = np.clip(x, 0.0, 1.0)
    # node v + p * n is (v, p); hop[i, j] is the node after i on a shortest i-j path
    size = 2 * n
    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    hop = np.tile(np.arange(size), (size, 1))
    # both ways: the even copies (u, p)-(v, p) at x and the odd copies
    # (u, p)-(v, 1 - p) at 1 - x, copy 0 then copy 1
    y = 1.0 - x
    tails = np.concatenate((u, v, u, v + n, u + n, v + n, u + n, v))
    heads = np.concatenate((v, u, v + n, u, v + n, u + n, v, u + n))
    dist[tails, heads] = np.concatenate((x, x, y, y, x, x, y, y))
    # in place: pivot m changes neither row m nor column m (dist[m, m] == 0),
    # so the pivot's row and column read below stay as they were
    via = np.empty_like(dist)
    better = np.empty(dist.shape, dtype=bool)
    for m in range(size):
        np.add(dist[:, m, None], dist[m], out=via)
        np.less(via, dist, out=better)
        np.copyto(dist, via, where=better)
        np.copyto(hop, hop[:, m, None], where=better)

    length = dist[np.arange(n), np.arange(n) + n]
    start = np.flatnonzero(length < 1.0 - tol)
    start = start[np.argsort(length[start], kind="stable")]
    edge_id = np.full((n, n), -1)
    edge_id[u, v] = edge_id[v, u] = np.arange(k)
    edge_id = edge_id.tolist()
    # each simple cycle keyed by its sorted (edge id, sign) pairs, in the order
    # of its first walk
    cycles: dict[tuple, None] = {}
    for first, hops in zip(start.tolist(), hop[:, start + n].T.tolist()):
        walk = [first]
        while walk[-1] != first + n:
            walk.append(hops[walk[-1]])
        # a walk is a simple cycle when the vertices it leaves are distinct
        if len({node % n for node in walk[:-1]}) == len(walk) - 1:
            # an odd-copy step changes the copy: +1; an even-copy step: -1
            row = {edge_id[a % n][b % n]: 1.0 if (a >= n) != (b >= n) else -1.0 for a, b in zip(walk, walk[1:])}
            cycles.setdefault(tuple(sorted(row.items())), None)
    if start.size and not cycles:
        raise SimplexError("separation found violated closed walks but no simple cycle among them")
    rows = np.zeros((len(cycles), k))
    if cycles:
        row_of = np.repeat(np.arange(len(cycles)), [len(cycle) for cycle in cycles])
        columns, values = zip(*(pair for cycle in cycles for pair in cycle))
        rows[row_of, columns] = values
    return rows, (rows > 0).sum(axis=1) - 1.0


def solve_cycle_relaxation(g: WeightedGraph) -> FractionalSolution:
    """Iterated LP solve + odd-cycle separation, one variable per edge of g. It
    separates at FEAS_TOL: the simplex meets rows only that closely, so with a
    finer tolerance a row already in the model could read violated and stall."""
    if not g.edge_count:
        return FractionalSolution(g, np.zeros(0), 0.0, 0, 0, (), ())
    problem = LpProblem(g.w)
    seen: set[bytes] = set()
    round_values: list[float] = []
    round_pivots: list[int] = []
    while True:
        x, value = lp_solve(problem)
        round_values.append(value)
        round_pivots.append(problem.pivots)
        rows, rhs = separate_odd_cycles(x, g)
        if not len(rows):
            break
        keys = [row.tobytes() for row in rows]
        fresh = np.array([key not in seen for key in keys])
        if not fresh.any():
            raise SimplexError("separation stalled: violated constraints already in the model")
        seen.update(keys)
        problem.add_rows(rows[fresh], rhs[fresh])
    return FractionalSolution(g, x, value, len(round_values), len(problem.rows), tuple(round_values), tuple(round_pivots))


def format_solution(sol: FractionalSolution) -> str:
    """Dump the fractional point as one "u v value" line per edge (0-based ids)."""
    lines = [f"{u} {v} {val:.12g}" for u, v, val in zip(sol.graph.u.tolist(), sol.graph.v.tolist(), sol.x)]
    return "\n".join(lines) + ("\n" if lines else "")
