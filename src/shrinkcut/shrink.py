"""Correlation-driven graph contraction and solution reconstruction.

A contraction identifies two current super-vertices, either on equal sides
(sign +1) or on opposite sides (sign -1) of the cut. Weights of parallel
edges combine as w_kept,t + sign * w_removed,t, so pairs that share no edge
stay contractible. Every cut of the contracted graph lifts back to a cut of
the original graph whose value exceeds the contracted one by a constant
offset; the offset grows, at each sign -1 contraction, by the removed
super-vertex's total incident weight at contraction time (those edges are
forcibly cut or uncut regardless of the remaining assignment).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
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
    """Pairwise tendencies in [-1, 1]: +1 same side, -1 opposite sides.

    Held as a read-only (k, 2) array of pairs u < v and a (k,) array of
    values; entries lists them as ((u, v), b) tuples. A set with a
    vertex_count also reads 0 on every other pair u < v < vertex_count without
    storing it: pairs and values keep only its nonzero pairs, and entries
    lists every pair in lexicographic order.
    """

    def __init__(self, entries: Iterable[tuple[tuple[int, int], float]]):
        entries = tuple(entries)
        self._set([p for p, _ in entries], [b for _, b in entries])

    @classmethod
    def from_arrays(cls, pairs: np.ndarray, values: np.ndarray, vertex_count: int | None = None) -> "CorrelationSet":
        """Build from a (k, 2) array of pairs and a (k,) array of values; with a
        vertex_count, every pair not given reads 0 and the pairs must be sorted."""
        correlations = cls.__new__(cls)
        correlations._set(pairs, values, vertex_count)
        return correlations

    @classmethod
    def from_dict(cls, entries: dict[tuple[int, int], float]) -> "CorrelationSet":
        return cls(tuple(sorted(entries.items())))

    def _set(self, pairs, values, vertex_count=None) -> None:
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
        self.vertex_count = vertex_count
        if vertex_count is not None:
            # only the nonzero pairs are kept, with their index u * n + v
            index = u * vertex_count + v
            if np.any(v >= vertex_count) or np.any(index[1:] <= index[:-1]):
                raise ValueError(f"pairs must be sorted, unique and below {vertex_count} when the others read 0")
            nonzero = magnitude > 0
            self.pairs, self.values, self._index = self.pairs[nonzero], self.values[nonzero], index[nonzero]
            u, v, magnitude = u[nonzero], v[nonzero], magnitude[nonzero]
        self.pairs.flags.writeable = self.values.flags.writeable = False
        self._order = np.lexsort((v, u, -magnitude))

    @property
    def entries(self) -> tuple[tuple[tuple[int, int], float], ...]:
        pairs, values = self.pairs, self.values
        if self.vertex_count is not None:
            pairs = np.column_stack(np.triu_indices(self.vertex_count, 1))
            values = np.zeros(len(pairs))
            values[np.isin(pairs @ (self.vertex_count, 1), self._index)] = self.values
        return tuple(zip(map(tuple, pairs.tolist()), values.tolist()))

    def ordered_pairs(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Pairs by decreasing |correlation|, ties in lexicographic pair order
        (repeated entries keep their order), yielded lazily: a shrink reads a
        few hundred of n(n-1)/2 pairs, so they become tuples ORDER_CHUNK at a
        time, and then the pairs that read 0 without being stored, one row u
        at a time."""
        for start in range(0, self._order.size, ORDER_CHUNK):
            chunk = self._order[start : start + ORDER_CHUNK]
            u, v = self.pairs[chunk].T
            yield from zip(zip(u.tolist(), v.tolist()), self.values[chunk].tolist())
        n = self.vertex_count or 0
        for u in range(n - 1):
            lo, hi = np.searchsorted(self._index, (u * n + u + 1, u * n + n))
            row = np.delete(np.arange(u + 1, n), self._index[lo:hi] - (u * n + u + 1))
            yield from zip(zip(itertools.repeat(u), row.tolist()), itertools.repeat(0.0))


def correlations_from_relaxation(sol: FractionalSolution) -> CorrelationSet:
    """b_uv = 1 - 2 x_uv on every edge of the relaxed graph and 0 on every other
    pair, so shrinking can always go on to a single vertex."""
    return CorrelationSet.from_arrays(sol.ends, 1.0 - 2.0 * np.clip(sol.x, 0.0, 1.0), sol.n)


def zero_correlations(n: int) -> CorrelationSet:
    """All-zero correlations: contracts lexicographic pairs with sign +1."""
    return CorrelationSet.from_arrays(np.empty((0, 2), dtype=np.int64), np.empty(0), n)


class ShrinkRecord(NamedTuple):
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

    Each super-vertex keeps its weights in an adjacency slot, a dict keyed by
    its neighbours' slots and mirrored in theirs. The slots are the roots of a
    union-find forest over the original vertices: each vertex holds its side
    relative to its parent, a root relative to its super-vertex.
    """

    def __init__(self, graph: WeightedGraph):
        self.original = graph
        n = graph.vertex_count
        self._adj: list[dict[int, float]] = [{} for _ in range(n)]
        for u, v, w in zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist()):
            self._adj[u][v] = self._adj[v][u] = w
        self._parent, self._parity = list(range(n)), [False] * n
        self._slot, self._label = list(range(n)), list(range(n))  # label -> slot, slot -> label
        self._active = bytearray(b"\1" * n)  # 1 at each current super-vertex's label
        self.records: list[ShrinkRecord] = []
        self.offset = 0.0
        self._lift: tuple[int, tuple[np.ndarray, np.ndarray] | None] = (-1, None)
        self._cuttable: tuple[int, WeightedGraph] = (0, graph)

    @property
    def reduced_size(self) -> int:
        return len(self._active) - len(self.records)

    def _check_super_vertex(self, *vertices: int) -> None:
        for v in vertices:
            if not (0 <= v < len(self._active) and self._active[v]):
                raise ValueError(f"vertex {v} is not a current super-vertex")

    def active_vertices(self) -> np.ndarray:
        """Current super-vertex labels, ascending; their order defines the
        reduced graph's vertex numbering."""
        return np.flatnonzero(np.frombuffer(self._active, dtype=bool))

    @property
    def reduced(self) -> WeightedGraph:
        """The contracted instance; zero-weight pairs are dropped."""
        slots = [self._slot[label] for label in self.active_vertices().tolist()]
        rows, vertex = [self._adj[s] for s in slots], np.empty(len(self._active), dtype=np.int64)
        vertex[slots] = np.arange(len(slots))
        u = np.repeat(np.arange(len(slots)), [len(row) for row in rows])
        v = vertex[np.fromiter(itertools.chain.from_iterable(rows), np.int64, u.size)]
        w = np.fromiter(itertools.chain.from_iterable(row.values() for row in rows), float, u.size)
        keep = np.flatnonzero((u < v) & (w != 0.0))
        keep = keep[np.lexsort((v[keep], u[keep]))]
        return WeightedGraph(len(slots), u[keep], v[keep], w[keep])

    def find(self, vertex: int) -> tuple[int, int]:
        """Super-vertex representative of an original vertex, with relative
        sign; compresses the path walked."""
        if not 0 <= vertex < len(self._active):
            raise ValueError(f"vertex {vertex} outside [0, {len(self._active)})")
        parent, parity, path = self._parent, self._parity, []
        while parent[vertex] != vertex:
            path.append(vertex)
            vertex = parent[vertex]
        opposite = False
        for node in reversed(path):
            opposite ^= parity[node]
            parent[node], parity[node] = vertex, opposite
        return self._label[vertex], -1 if opposite ^ parity[vertex] else 1

    def current_weight(self, u: int, v: int) -> float:
        """Weight between two current super-vertices; 0.0 when they share no edge."""
        self._check_super_vertex(u, v)
        return self._adj[self._slot[u]].get(self._slot[v], 0.0)

    def contract(self, removed: int, kept: int, sign: int) -> None:
        """Merge super-vertex `removed` into `kept` (equal sides for sign +1,
        opposite for -1), adjusting weights and the offset."""
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if removed == kept:
            raise ValueError("cannot contract a super-vertex with itself")
        self._check_super_vertex(removed, kept)
        adj, r, k = self._adj, self._slot[removed], self._slot[kept]
        pair_weight = adj[k].pop(r, 0.0)
        adj[r].pop(k, None)
        delta = 0.0
        if sign == -1:
            # removed's row over the current super-vertices in ascending order,
            # zeros included: numpy's pairwise sum then groups as it always has
            row = np.zeros(len(self._active))
            row[[self._label[t] for t in adj[r]]] = list(adj[r].values())
            row[kept] = pair_weight
            delta = float(row[np.frombuffer(self._active, dtype=bool)].sum())
        elif len(adj[r]) > len(adj[k]):
            # union by size: the larger dict keeps its slot, relabelled kept, so
            # a growing super-vertex is not re-keyed (sign -1 read removed's anyway)
            r, k = k, r
        for t, x in adj[r].items():
            # w_kept,t + sign * w_removed,t in either order: IEEE addition commutes
            adj[k][t] = adj[t][k] = adj[k].get(t, 0.0) + sign * x
            del adj[t][r]
        adj[r] = {}
        # r's tree goes under k's, and removed's vertices turn over for sign -1
        self._parity[r] ^= self._parity[k] ^ (sign == -1)
        self._parent[r], self._label[k], self._slot[kept] = k, kept, k
        self._active[removed] = 0
        self.offset += delta
        self.records.append(ShrinkRecord(kept, removed, sign, pair_weight, delta))

    @property
    def lift_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Each original vertex's column in the reduced graph, and whether it
        sits opposite its super-vertex: reconstruct(a) is a[..., columns] ^ flip."""
        if self._lift[0] != len(self.records):
            up, side = np.array(self._parent, dtype=np.int64), np.array(self._parity, dtype=bool)
            opposite = side & (up != np.arange(up.size))  # relative to the parent
            while not np.array_equal(up[up], up):  # pointer doubling halves every path
                opposite ^= opposite[up]
                up = up[up]
            columns = np.searchsorted(self.active_vertices(), np.array(self._label, dtype=np.int64)[up])
            self._lift = (len(self.records), (columns, opposite ^ side[up]))
        return self._lift[1]

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
            g = self.original
            columns, flip = self.lift_map
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
    ValueError for a target outside [1, n] or correlations that run out."""
    n = g.vertex_count
    if not 1 <= target <= n:
        raise ValueError(f"target size {target} outside [1, {n}]")
    state = ShrinkState(g)
    yield state
    for (u, v), b in correlations.ordered_pairs():
        if state.reduced_size == target:
            return
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"correlation pair ({u}, {v}) outside the graph")
        root_u, sign_u = state.find(u)
        root_v, sign_v = state.find(v)
        if root_u == root_v:
            continue
        state.contract(root_u, root_v, correlation_sign(b) * sign_u * sign_v)
        yield state
    if state.reduced_size > target:
        raise ValueError(
            f"correlations exhausted with {state.reduced_size - target} contractions still needed; "
            "provide correlations for more pairs (one for every pair u < v always suffices)"
        )


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
