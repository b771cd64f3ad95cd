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

from .graph import WeightedGraph
from .relaxation import FractionalSolution

# Pairs CorrelationSet.ordered_pairs turns into Python tuples at a time.
ORDER_CHUNK = 512


def correlation_sign(b: float) -> int:
    """+1 for equal sides, -1 for opposite sides; zero correlations pair up."""
    return -1 if b < 0 else 1


class CorrelationSet:
    """Pairwise tendencies in [-1, 1] on every pair u < v < vertex_count: +1
    same side, -1 opposite sides.

    Built from the sorted, unique pairs u < v that are given a value, as a
    (k, 2) array or sequence of pairs and k values; every other pair reads 0
    without being stored. pairs and values keep the given pairs that are
    nonzero, as read-only arrays.
    """

    def __init__(self, vertex_count: int, pairs=(), values=()):
        ends = np.array(pairs).reshape(-1, 2)
        with np.errstate(invalid="ignore"):  # a nan or inf id fails the comparison below
            self.pairs = ends.astype(np.int64)
        self.values = np.array(values, dtype=float)
        if self.values.shape != (len(self.pairs),):
            raise ValueError(f"{len(self.pairs)} pairs but {self.values.size} values")
        # an id such as 1.5 is rejected, not truncated by the cast
        bad = np.flatnonzero(self.pairs != ends) // 2
        if bad.size:
            raise ValueError(f"pair ({ends[bad[0], 0]}, {ends[bad[0], 1]}) needs integer ids")
        u, v = self.pairs.T
        magnitude = np.abs(self.values)
        bad = np.flatnonzero((u >= v) | ~(magnitude <= 1.0 + 1e-9))
        if bad.size:
            (bu, bv), b = self.pairs[bad[0]].tolist(), self.values[bad[0]].item()
            if bu >= bv:
                raise ValueError(f"pair ({bu}, {bv}) must be ordered u < v")
            raise ValueError(f"correlation {b} for ({bu}, {bv}) outside [-1, 1]")
        # only the nonzero pairs are kept, with their index u * n + v
        index = u * vertex_count + v
        if np.any((u < 0) | (v >= vertex_count)) or np.any(index[1:] <= index[:-1]):
            raise ValueError(f"pairs must be sorted, unique and in [0, {vertex_count})")
        nonzero = magnitude > 0
        self.vertex_count = vertex_count
        self.pairs, self.values, self._index = self.pairs[nonzero], self.values[nonzero], index[nonzero]
        self.pairs.flags.writeable = self.values.flags.writeable = False
        self._order = np.lexsort((v[nonzero], u[nonzero], -magnitude[nonzero]))

    def ordered_pairs(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Every pair u < v once, by decreasing |correlation|, ties in
        lexicographic pair order, yielded lazily: a shrink reads a few hundred
        of n(n-1)/2 pairs, so the stored ones become tuples ORDER_CHUNK at a
        time, and then the pairs that read 0, one row u at a time."""
        for start in range(0, self._order.size, ORDER_CHUNK):
            chunk = self._order[start : start + ORDER_CHUNK]
            u, v = self.pairs[chunk].T
            yield from zip(zip(u.tolist(), v.tolist()), self.values[chunk].tolist())
        n = self.vertex_count
        for u in range(n - 1):
            lo, hi = np.searchsorted(self._index, (u * n + u + 1, u * n + n))
            row = np.delete(np.arange(u + 1, n), self._index[lo:hi] - (u * n + u + 1))
            yield from zip(zip(itertools.repeat(u), row.tolist()), itertools.repeat(0.0))


def correlations_from_relaxation(sol: FractionalSolution) -> CorrelationSet:
    """b_uv = 1 - 2 x_uv on every edge of the relaxed graph and 0 on every other
    pair, so shrinking can always go on to a single vertex."""
    g = sol.graph
    return CorrelationSet(g.vertex_count, np.column_stack((g.u, g.v)), 1.0 - 2.0 * np.clip(sol.x, 0.0, 1.0))


def zero_correlations(n: int) -> CorrelationSet:
    """All-zero correlations: contracts lexicographic pairs with sign +1."""
    return CorrelationSet(n)


class ShrinkRecord(NamedTuple):
    """One contraction: removed merged into kept with the given sign."""

    kept: int
    removed: int
    sign: int


class ShrinkState:
    """Mutable contraction state over one original graph (single-owner).

    Conservation law, the contract every operation preserves: for every
    assignment a of the reduced graph,

        cut_value(original, reconstruct(a)) == cut_value(reduced, a) + offset.

    The state is a union-find forest over the original vertices and nothing
    else: each tree's root is the vertex its super-vertex is labelled by, and
    each vertex holds its side relative to its parent. The reduced graph, its
    weight matrix, the offset and the cuttable graph are read off the lift map,
    each in one pass over the original edges.
    """

    def __init__(self, graph: WeightedGraph):
        self.original = graph
        n = graph.vertex_count
        self._parent, self._parity = list(range(n)), [False] * n
        self.records: list[ShrinkRecord] = []
        self._lift = (0, np.arange(n), np.zeros(n, dtype=bool), np.arange(n))
        self._reduced: tuple[int, WeightedGraph | None] = (-1, None)
        self._cuttable: tuple[int, WeightedGraph] = (0, graph)

    @property
    def reduced_size(self) -> int:
        return len(self._parent) - len(self.records)

    def _check_super_vertex(self, *vertices: int) -> None:
        for v in vertices:
            if not (0 <= v < len(self._parent) and self._parent[v] == v):
                raise ValueError(f"vertex {v} is not a current super-vertex")

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

    def current_weight(self, u: int, v: int) -> float:
        """Weight between two current super-vertices, summed from the lift map
        bit for bit as `reduced` sums it; 0.0 when they share no edge."""
        self._check_super_vertex(u, v)
        (columns, _), (pairs, w) = self.lift_map, self._between()
        i, j = sorted((columns[u], columns[v]))
        return float(np.bincount(pairs == i * self.reduced_size + j, weights=w, minlength=2)[1])

    def contract(self, removed: int, kept: int, sign: int) -> None:
        """Merge super-vertex `removed` into `kept`, on equal sides for sign +1
        and opposite for -1: removed's root goes under kept's."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if removed == kept:
            raise ValueError("cannot contract a super-vertex with itself")
        self._check_super_vertex(removed, kept)
        self._parent[removed], self._parity[removed] = kept, sign == -1
        self.records.append(ShrinkRecord(kept, removed, int(sign)))

    @property
    def lift_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Each original vertex's column in the reduced graph, and whether it
        sits opposite its super-vertex: reconstruct(a) is a[..., columns] ^ flip.
        Kept as each vertex's (count, root, flip, column) and caught up by pointer
        doubling over the links new records add; returned arrays are never written."""
        count, roots, flip, columns = self._lift
        if count != len(self.records):
            kept, removed, sign = np.fromiter(itertools.chain(*self.records[count:]), np.int64).reshape(-1, 3).T
            up, opposite = np.arange(roots.size), np.zeros(roots.size, dtype=bool)
            up[removed], opposite[removed] = kept, sign == -1
            while ((hop := up[up]) != up).any():  # each round halves every chain
                opposite ^= opposite[up]
                up = hop
            roots, flip = up[roots], flip ^ opposite[roots]
            columns = (np.cumsum(roots == np.arange(roots.size)) - 1)[roots]  # the roots below each root
            self._lift = (len(self.records), roots, flip, columns)
        return columns, flip

    @property
    def cuttable(self) -> WeightedGraph:
        """The original graph without the edges no lift can cut: those inside
        one super-vertex with both ends on the same side of it. Each of them
        adds 0.0 * w = ±0.0 to a cut value, and a sum that starts at +0.0 never
        is -0.0, so this graph scores every lift bit for bit as the original
        does. Built once per contraction count; the original itself while
        nothing drops."""
        count, graph = self._cuttable
        if count != len(self.records):
            g, (columns, flip) = self.original, self.lift_map
            keep = (columns[g.u] != columns[g.v]) | (flip[g.u] != flip[g.v])
            graph = g if keep.all() else g.edge_subgraph(keep)
            self._cuttable = (len(self.records), graph)
        return graph

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


def shrink_to_target(g: WeightedGraph, correlations: CorrelationSet, target: int) -> ShrinkState:
    """Contract pairs in decreasing |correlation| until target vertices remain.

    Pairs whose endpoints already share a super-vertex are skipped, so only a
    forest of identifications is imposed. The pair ordering is computed once
    from the original correlations and projected through the current
    super-vertices; the pair sign composes with the endpoints' relative signs.
    """
    *_, state = _contractions(g, correlations, target)
    return state


def _contractions(g: WeightedGraph, correlations: CorrelationSet, target: int) -> Iterator[ShrinkState]:
    """shrink_to_target's loop: yields its one ShrinkState before the first
    contraction and after each one, so read it before resuming. Raises
    ValueError for a target outside [1, n] or correlations on other than n
    vertices; correlations on every pair of n vertices always reach target."""
    n = g.vertex_count
    if not 1 <= target <= n:
        raise ValueError(f"target size {target} outside [1, {n}]")
    if correlations.vertex_count != n:
        raise ValueError(f"correlations on {correlations.vertex_count} vertices for a graph on {n}")
    state = ShrinkState(g)
    yield state
    for (u, v), b in correlations.ordered_pairs():
        if state.reduced_size == target:
            return
        root_u, sign_u = state.find(u)
        root_v, sign_v = state.find(v)
        if root_u == root_v:
            continue
        state.contract(root_u, root_v, correlation_sign(b) * sign_u * sign_v)
        yield state


def format_trace(state: ShrinkState) -> str:
    """One line per contraction: "kept removed sign pair_weight", the pair
    weight read just before it by replaying the records on a fresh state."""
    replay, lines = ShrinkState(state.original), []
    for kept, removed, sign in state.records:
        w = replay.current_weight(removed, kept)
        lines.append(f"{kept} {removed} {sign} {int(w) if w == int(w) else repr(w)}")
        replay.contract(removed, kept, sign)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[tuple[int, int, int, float]]:
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"trace line {line_no}: expected 'kept removed sign weight'")
        try:
            steps.append((int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])))
        except ValueError:
            raise ValueError(f"trace line {line_no}: malformed step {line!r}") from None
    return steps


def replay_trace(g: WeightedGraph, steps: list[tuple[int, int, int, float]]) -> ShrinkState:
    """Re-run a recorded contraction sequence, auditing the recorded weights."""
    state = ShrinkState(g)
    for kept, removed, sign, weight in steps:
        current = state.current_weight(removed, kept)
        if not abs(current - weight) <= 1e-9:  # a NaN weight fails too
            raise ValueError(
                f"trace mismatch at ({kept}, {removed}): recorded weight {weight}, current {current}"
            )
        state.contract(removed, kept, sign)
    return state
