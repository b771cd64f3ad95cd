"""Correlation-driven graph contraction and solution reconstruction.

A contraction identifies two current super-vertices, either on equal sides
(sign +1) or on opposite sides (sign -1) of the cut. Weights of parallel
edges combine as w_kept,t + sign * w_removed,t on the dense weight matrix, so
pairs that share no edge stay contractible. Every cut of the contracted graph
lifts back to a cut of the original graph whose value exceeds the contracted
one by a constant offset; the offset grows, at each sign -1 contraction, by
the removed super-vertex's total incident weight at contraction time (those
edges are forcibly cut or uncut regardless of the remaining assignment).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph
from .relaxation import FractionalSolution


def correlation_sign(b: float) -> int:
    """+1 for equal sides, -1 for opposite sides; zero correlations pair up."""
    return -1 if b < 0 else 1


class CorrelationSet:
    """Pairwise tendencies in [-1, 1]: +1 same side, -1 opposite sides.

    Held as a read-only (k, 2) array of pairs u < v and a (k,) array of
    values; entries lists them as ((u, v), b) tuples.
    """

    def __init__(self, entries: Iterable[tuple[tuple[int, int], float]]):
        entries = tuple(entries)
        self._set([p for p, _ in entries], [b for _, b in entries])

    @classmethod
    def from_arrays(cls, pairs: np.ndarray, values: np.ndarray) -> "CorrelationSet":
        """Build from a (k, 2) array of pairs and a (k,) array of values."""
        correlations = cls.__new__(cls)
        correlations._set(pairs, values)
        return correlations

    @classmethod
    def from_dict(cls, entries: dict[tuple[int, int], float]) -> "CorrelationSet":
        return cls(tuple(sorted(entries.items())))

    def _set(self, pairs, values) -> None:
        self.pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        self.values = np.array(values, dtype=float)
        if self.values.shape != (len(self.pairs),):
            raise ValueError(f"{len(self.pairs)} pairs but {self.values.size} values")
        u, v = self.pairs.T
        magnitude = np.abs(self.values)
        bad = np.flatnonzero((u >= v) | ~(magnitude <= 1.0 + 1e-9))
        if bad.size:
            (bu, bv), b = self.pairs[bad[0]].tolist(), self.values[bad[0]].item()
            if bu >= bv:
                raise ValueError(f"pair ({bu}, {bv}) must be ordered u < v")
            raise ValueError(f"correlation {b} for ({bu}, {bv}) outside [-1, 1]")
        self.pairs.flags.writeable = self.values.flags.writeable = False
        self._order = np.lexsort((v, u, -magnitude))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], float], ...]:
        return tuple(zip(map(tuple, self.pairs.tolist()), self.values.tolist()))

    def ordered_pairs(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Pairs by decreasing |correlation|, ties in lexicographic pair order
        (repeated entries keep their order), yielded lazily."""
        u, v = self.pairs[self._order].T
        return zip(zip(u.tolist(), v.tolist()), self.values[self._order].tolist())


def _all_pairs(n: int, values: np.ndarray) -> CorrelationSet:
    """One correlation per pair u < v, values in lexicographic pair order."""
    return CorrelationSet.from_arrays(np.column_stack(np.triu_indices(n, 1)), values)


def correlations_from_relaxation(sol: FractionalSolution) -> CorrelationSet:
    """b_uv = 1 - 2 x_uv on every edge of the relaxed graph and 0 on every other
    pair, so shrinking can always go on to a single vertex."""
    b = np.zeros((sol.n, sol.n))
    u, v = sol.ends.T
    b[u, v] = 1.0 - 2.0 * np.clip(sol.x, 0.0, 1.0)
    return _all_pairs(sol.n, b[np.triu_indices(sol.n, 1)])


def zero_correlations(n: int) -> CorrelationSet:
    """All-zero correlations: contracts lexicographic pairs with sign +1."""
    return _all_pairs(n, np.zeros(n * (n - 1) // 2))


@dataclass(frozen=True)
class ShrinkRecord:
    """One contraction: removed merged into kept with the given sign.

    pair_weight is the weight between the two super-vertices at contraction
    time; offset_delta is the constant this contraction added to the
    reconstruction offset (0 for sign +1).
    """

    kept: int
    removed: int
    sign: int
    pair_weight: float
    offset_delta: float


class ShrinkState:
    """Mutable contraction state over one original graph (single-owner).

    Conservation law, the contract every operation preserves: for every
    assignment a of the reduced graph,

        cut_value(original, reconstruct(a)) == cut_value(reduced, a) + offset.
    """

    def __init__(self, graph: WeightedGraph):
        self.original = graph
        n = graph.vertex_count
        self._w = np.array(graph.weight_matrix, copy=True)
        # the contraction forest, flat: each original vertex's current
        # super-vertex, and whether it sits on the side opposite that root
        self._root = np.arange(n)
        self._flip = np.zeros(n, dtype=bool)
        self.records: list[ShrinkRecord] = []
        self.offset = 0.0

    @property
    def reduced_size(self) -> int:
        return self._root.size - len(self.records)

    def _check_super_vertex(self, *vertices: int) -> None:
        for v in vertices:
            if not (0 <= v < self._root.size) or self._root[v] != v:
                raise ValueError(f"vertex {v} is not a current super-vertex")

    def active_vertices(self) -> np.ndarray:
        """Current super-vertex representatives, ascending; their order defines
        the reduced graph's vertex numbering: the vertices that are their own root."""
        return np.flatnonzero(self._root == np.arange(self._root.size))

    @property
    def reduced(self) -> WeightedGraph:
        """The contracted instance; zero-weight pairs are dropped."""
        active = self.active_vertices()
        upper = np.triu(self._w[np.ix_(active, active)], 1)
        u, v = np.nonzero(upper)
        return WeightedGraph(active.size, u, v, upper[u, v])

    def find(self, vertex: int) -> tuple[int, int]:
        """Super-vertex representative of an original vertex, with relative sign."""
        if not 0 <= vertex < self._root.size:
            raise ValueError(f"vertex {vertex} outside [0, {self._root.size})")
        return int(self._root[vertex]), -1 if self._flip[vertex] else 1

    def current_weight(self, u: int, v: int) -> float:
        """Dense-representation weight between two current super-vertices."""
        self._check_super_vertex(u, v)
        return float(self._w[u, v])

    def contract(self, removed: int, kept: int, sign: int) -> None:
        """Merge super-vertex `removed` into `kept` (equal sides for sign +1,
        opposite for -1), adjusting weights and the offset."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if removed == kept:
            raise ValueError("cannot contract a super-vertex with itself")
        self._check_super_vertex(removed, kept)
        pair_weight = float(self._w[removed, kept])
        # summed over the current super-vertices only: zeros in between would
        # regroup numpy's pairwise sum and can change the last bits
        delta = float(self._w[removed, self.active_vertices()].sum()) if sign == -1 else 0.0
        # contracted vertices' rows and columns are zero, so whole rows merge safely
        self._w[kept] += sign * self._w[removed]
        self._w[kept, kept] = 0.0
        self._w[:, kept] = self._w[kept]
        self._w[removed] = 0.0
        self._w[:, removed] = 0.0
        moved = self._root == removed
        self._root[moved] = kept
        if sign == -1:
            self._flip[moved] ^= True
        self.offset += delta
        self.records.append(ShrinkRecord(kept, removed, sign, pair_weight, delta))

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
        return a[..., np.searchsorted(self.active_vertices(), self._root)] ^ self._flip


def shrink_to_target(g: WeightedGraph, correlations: CorrelationSet, target: int) -> ShrinkState:
    """Contract pairs in decreasing |correlation| until target vertices remain.

    Pairs whose endpoints already share a super-vertex are skipped, so only a
    forest of identifications is imposed. The pair ordering is computed once
    from the original correlations and projected through the current
    super-vertices; the pair sign composes with the endpoints' relative signs.
    """
    n = g.vertex_count
    if not 1 <= target <= n:
        raise ValueError(f"target size {target} outside [1, {n}]")
    state = ShrinkState(g)
    remaining = n - target
    for (u, v), b in correlations.ordered_pairs():
        if remaining == 0:
            break
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"correlation pair ({u}, {v}) outside the graph")
        root_u, sign_u = state.find(u)
        root_v, sign_v = state.find(v)
        if root_u == root_v:
            continue
        state.contract(root_u, root_v, correlation_sign(b) * sign_u * sign_v)
        remaining -= 1
    if remaining:
        raise ValueError(
            f"correlations exhausted with {remaining} contractions still needed; "
            "provide correlations for more pairs (one for every pair u < v always suffices)"
        )
    return state


def format_trace(state: ShrinkState) -> str:
    """One line per contraction: "kept removed sign pair_weight"."""
    lines = [
        f"{r.kept} {r.removed} {r.sign} "
        f"{int(r.pair_weight) if r.pair_weight == int(r.pair_weight) else repr(r.pair_weight)}"
        for r in state.records
    ]
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
