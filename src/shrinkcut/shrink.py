"""Correlation-driven graph contraction and solution reconstruction.

A contraction identifies two current super-vertices, either on equal sides
(sign +1) or on opposite sides (sign -1) of the cut; it is one union in a
union-find forest with parities over the original vertices, so every vertex
has a super-vertex and a flip, its side relative to that super-vertex. Each
original edge between two super-vertices joins them with its weight, negated
where its ends' flips differ. Every cut of the contracted graph lifts back to
a cut of the original graph whose value exceeds the contracted one by a
constant offset, the total weight of the edges whose ends' flips differ.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .graph import WeightedGraph, check_integer
from .relaxation import FractionalSolution

# Nonzero correlations ordered_pairs turns into Python tuples at a time.
ORDER_CHUNK = 512


def correlation_sign(b: float) -> int:
    """+1 for equal sides, -1 for opposite sides; zero correlations pair up."""
    return -1 if b < 0 else 1


def correlations_from_relaxation(sol: FractionalSolution) -> WeightedGraph:
    """The relaxed graph weighted by b_uv = 1 - 2 x_uv; every other pair reads 0,
    so shrinking can always go on to a single vertex."""
    g = sol.graph
    return WeightedGraph(g.vertex_count, g.u, g.v, 1.0 - 2.0 * np.clip(sol.x, 0.0, 1.0))


def zero_correlations(n: int) -> WeightedGraph:
    """All-zero correlations, the edgeless graph: contracts lexicographic pairs with sign +1."""
    return WeightedGraph(n, [], [], [])


def ordered_pairs(correlations: WeightedGraph) -> Iterator[tuple[tuple[int, int], float]]:
    """The pairs a shrink reads, each once with its correlation b: the nonzero
    edges by decreasing |b|, ties in pair order, ORDER_CHUNK tuples at a time,
    then the pairs (0, v) that are not among them at b = 0.0, by v. Once every
    nonzero pair lies inside one super-vertex, those join every vertex to 0;
    any other pair that reads 0 would come later and join vertices already
    together, so a shrink reads the same pairs as over all n(n-1)/2 in order."""
    u, v, b = correlations.u, correlations.v, correlations.w
    magnitude = np.abs(b)
    nonzero = np.flatnonzero(magnitude)
    order = nonzero[np.argsort(-magnitude[nonzero], kind="stable")]
    for start in range(0, order.size, ORDER_CHUNK):
        chunk = order[start : start + ORDER_CHUNK]
        yield from zip(zip(u[chunk].tolist(), v[chunk].tolist()), b[chunk].tolist())
    rest = np.delete(np.arange(1, correlations.vertex_count), v[nonzero][u[nonzero] == 0] - 1)
    yield from zip(zip(itertools.repeat(0), rest.tolist()), itertools.repeat(0.0))


class ShrinkRecord(NamedTuple):
    """One contraction: removed merged into kept with the given sign, for a
    pair whose correlation read b."""

    kept: int
    removed: int
    sign: int
    b: float


class ShrinkState:
    """Mutable contraction state over one original graph (single-owner).

    Conservation law, the contract every operation preserves: for every
    assignment a of the reduced graph,

        cut_value(original, reconstruct(a)) == cut_value(reduced, a) + offset.

    The state is a union-find forest over the original vertices and nothing
    else: each tree's root is the vertex its super-vertex is labelled by, and
    each vertex holds its side relative to its parent. The lift map is read
    off the forest, and the reduced graph, its weight matrix and the offset
    off the lift map, each in one pass over the original edges; records are
    kept for the trace.
    """

    def __init__(self, graph: WeightedGraph):
        self.original = graph
        n = graph.vertex_count
        self._parent, self._parity = list(range(n)), [False] * n
        self.records: list[ShrinkRecord] = []
        self._lift = (0, np.arange(n), np.zeros(n, dtype=bool))
        self._reduced: tuple[int, WeightedGraph | None] = (-1, None)

    @property
    def reduced_size(self) -> int:
        return len(self._parent) - len(self.records)

    def _between(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges between two super-vertices in edge order: their columns i < j
        keyed i * reduced_size + j, and their weights negated where their ends' flips differ."""
        g, size, (columns, flip) = self.original, self.reduced_size, self.lift_map
        a, b = columns[g.u], columns[g.v]
        between = a != b
        w = np.where(flip[g.u] != flip[g.v], -g.w, g.w)[between]
        return np.minimum(a, b)[between] * size + np.maximum(a, b)[between], w

    @property
    def reduced(self) -> WeightedGraph:
        """The contracted instance: _between's weights summed per pair in edge
        order, pairs that sum to 0.0 dropped; built once per contraction count."""
        count, graph = self._reduced
        if count != len(self.records):
            size, (pairs, w) = self.reduced_size, self._between()
            pairs, index = np.unique(pairs, return_inverse=True)
            w = np.bincount(index, weights=w, minlength=pairs.size)
            keep = w != 0.0
            graph = WeightedGraph(size, pairs[keep] // size, pairs[keep] % size, w[keep])
            self._reduced = (len(self.records), graph)
        return graph

    def reduced_matrix(self) -> np.ndarray:
        """reduced.weight_matrix, bit for bit, summed from _between without building
        the reduced graph; its pairs' Σ|w| is within the original's."""
        size, (pairs, w) = self.reduced_size, self._between()
        upper = np.bincount(pairs, weights=w, minlength=size * size).reshape(size, size)
        return np.add(upper, upper.T, dtype=float)

    @property
    def offset(self) -> float:
        """Σ w over the original edges whose ends sit on opposite sides of their
        super-vertices: a lift cuts such an edge exactly when the reduced
        assignment leaves its pair uncut, or always inside one super-vertex.
        Adding to 0.0 keeps a sum of -0.0 weights from reading -0.0."""
        g, (_, flip) = self.original, self.lift_map
        return 0.0 + float(g.w[flip[g.u] != flip[g.v]].sum())

    def find(self, vertex: int) -> tuple[int, int]:
        """Super-vertex label of an original vertex, with relative sign;
        compresses the path walked."""
        if not 0 <= vertex < len(self._parent):
            raise ValueError(f"vertex {vertex} outside [0, {len(self._parent)})")
        parent, parity, path = self._parent, self._parity, []
        while parent[vertex] != vertex:
            path.append(vertex)
            vertex = parent[vertex]
        opposite = False
        for node in reversed(path):
            opposite ^= parity[node]
            parent[node], parity[node] = vertex, opposite
        return vertex, -1 if opposite else 1

    def contract(self, u: int, v: int, sign: int, b: float) -> bool:
        """Contract the pair (u, v) of original vertices, on equal sides for sign
        +1 and opposite for -1, for a correlation b: u's root goes under v's,
        with sign composed with u's and v's parities. Returns False, and records
        nothing, when u and v already share a root."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        (root_u, sign_u), (root_v, sign_v) = self.find(u), self.find(v)
        if root_u == root_v:
            return False
        sign = int(sign) * sign_u * sign_v
        self._parent[root_u], self._parity[root_u] = root_v, sign == -1
        self.records.append(ShrinkRecord(root_v, root_u, sign, float(b)))
        return True

    @property
    def lift_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Each original vertex's column in the reduced graph, and whether it
        sits opposite its super-vertex: reconstruct(a) is a[..., columns] ^ flip.
        Read off the forest once per contraction count: pointer doubling takes
        every vertex to its root with the parity of the way, and the columns
        are one cumulative count of the roots. Returned arrays are never written."""
        count, columns, flip = self._lift
        if count != len(self.records):
            up, flip = np.array(self._parent), np.array(self._parity)
            while ((hop := up[up]) != up).any():  # each round halves every path
                flip ^= flip[up]
                up = hop
            columns = (np.cumsum(up == np.arange(up.size)) - 1)[up]  # the roots below each root
            self._lift = (len(self.records), columns, flip)
        return columns, flip

    def reconstruct(self, reduced_assignment: np.ndarray) -> np.ndarray:
        """Lift a reduced-graph assignment, or a (k, reduced_size) matrix of
        them, to the original graph.

        Each original vertex takes the side of its super-vertex, flipped when
        it sits opposite that super-vertex.
        """
        a = np.asarray(reduced_assignment, dtype=bool)
        size = self.reduced_size
        if a.ndim not in (1, 2) or a.shape[-1] != size:
            raise ValueError(f"assignment has shape {a.shape}, expected ({size},) or (k, {size})")
        columns, flip = self.lift_map
        return a[..., columns] ^ flip


def shrink_to_target(g: WeightedGraph, correlations: WeightedGraph, target: int) -> ShrinkState:
    """Contract pairs in decreasing |correlation| until target vertices remain.

    Pairs whose endpoints already share a super-vertex are skipped, so only a
    forest of identifications is imposed. The pair ordering is computed once
    from the original correlations and projected through the current
    super-vertices; the pair sign composes with the endpoints' relative signs.
    """
    *_, state = _contractions(g, correlations, target)
    return state


def _contractions(g: WeightedGraph, correlations: WeightedGraph, target: int) -> Iterator[ShrinkState]:
    """shrink_to_target's loop: yields its one ShrinkState before the first
    contraction and after each one, so read it before resuming. Raises
    TypeError for a target that is not an integer, ValueError for one outside
    [1, n], correlations on other than n vertices or one outside [-1, 1];
    ordered_pairs ends by joining every vertex to 0, so it always reaches target."""
    n, target = g.vertex_count, check_integer(target, "target size")
    if not 1 <= target <= n:
        raise ValueError(f"target size {target} outside [1, {n}]")
    if correlations.vertex_count != n:
        raise ValueError(f"correlations on {correlations.vertex_count} vertices for a graph on {n}")
    if (bad := np.flatnonzero(np.abs(correlations.w) > 1.0 + 1e-9)).size:
        u, v, b = correlations.edges[bad[0]]
        raise ValueError(f"correlation {b} for ({u}, {v}) outside [-1, 1]")
    state = ShrinkState(g)
    yield state
    for (u, v), b in ordered_pairs(correlations):
        if state.reduced_size == target:
            return
        if state.contract(u, v, correlation_sign(b), b):
            yield state


def format_trace(state: ShrinkState) -> str:
    """One line per contraction: "kept removed sign b", b the correlation of the
    pair it contracted."""
    return "".join(f"{kept} {removed} {sign} {b!r}\n" for kept, removed, sign, b in state.records)
