"""Weighted MaxCut instances: parsing, cut evaluation, exact enumeration, QUBO mapping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

BRUTE_FORCE_CAP = 24
# Index bits one cut_values_for_indices block covers: 2^20 cut values per prefix.
ENUM_BLOCK_BITS = 20
# Index bits one brute_force block covers: 2^16 cut values, 512 KB, which stay
# in cache while the block is built and scanned.
ORACLE_BLOCK_BITS = 16


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..vertex_count-1.

    Edges are stored canonically: u < v, sorted by (u, v), at most one entry
    per pair (parallel edges are merged by summing their weights at
    construction). Instances are immutable and safe to share across threads.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        prev = None
        for u, v, _ in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) is not canonical for {self.vertex_count} vertices")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be sorted with unique pairs; use from_edges()")
            prev = (u, v)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a graph, canonicalizing pairs and summing duplicate entries.

        Raises ValueError for a non-finite weight, including a sum of
        duplicates that overflows.
        """
        merged: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + float(w)
        items = tuple((u, v, merged[(u, v)]) for u, v in sorted(merged))
        for u, v, w in items:
            # a non-finite input makes its pair's sum non-finite too
            if not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight {w}")
        return cls(vertex_count, items)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Symmetric (n, n) weight matrix; absent pairs are 0."""
        m = np.zeros((self.vertex_count, self.vertex_count))
        for u, v, w in self.edges:
            m[u, v] = w
            m[v, u] = w
        m.setflags(write=False)
        return m

    @cached_property
    def nonzero_edges(self) -> tuple[tuple[int, int, float], ...]:
        """Edges with weight != 0 (dense closures carry explicit zero pairs)."""
        return tuple(e for e in self.edges if e[2] != 0.0)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


@dataclass(frozen=True)
class QuboProblem:
    """max sum_{i<=j} q_ij x_i x_j over binary x; coefficients keyed (i, j) with i <= j."""

    n: int
    coefficients: tuple[tuple[tuple[int, int], float], ...]

    @classmethod
    def from_entries(cls, n: int, entries: Iterable[tuple[int, int, float]]) -> "QuboProblem":
        merged: dict[tuple[int, int], float] = {}
        for i, j, q in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index out of range in entry ({i}, {j})")
            key = (i, j) if i <= j else (j, i)
            merged[key] = merged.get(key, 0.0) + float(q)
        return cls(n, tuple(sorted(merged.items())))

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=bool)
        if x.shape != (self.n,):
            raise ValueError("assignment length mismatch")
        return float(sum(q * (x[i] and x[j]) for (i, j), q in self.coefficients))


@dataclass(eq=False)
class ExactCutSummary:
    """Result of exhaustive cut enumeration.

    argmax is the optimal assignment with the lowest binary encoding (vertex i
    is bit i); optimum_count counts distinct optimal bipartitions, where a set
    and its complement are the same bipartition.
    """

    max_value: float
    min_value: float
    argmax: np.ndarray
    optimum_count: int


def parse_instance(text: str) -> WeightedGraph:
    """Parse an instance: header line "n m", then m lines "i j w" (1-based ids).

    Lines starting with '#' and blank lines are ignored. Duplicate pairs are
    summed. Raises ParseError with the offending line number, also for a
    weight that is not finite.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, float]] = []
    edge_lines = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError(line_no, f"expected header 'n m', got {line!r}")
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer header field in {line!r}") from None
            if n < 0 or m < 0:
                raise ParseError(line_no, "negative count in header")
            header = (n, m)
            continue
        if len(parts) != 3:
            raise ParseError(line_no, f"expected edge 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise ParseError(line_no, f"malformed edge line {line!r}") from None
        if not math.isfinite(w):
            raise ParseError(line_no, f"non-finite weight in {line!r}")
        n = header[0]
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(line_no, f"vertex id out of range [1, {n}] in {line!r}")
        if i == j:
            raise ParseError(line_no, f"self-loop at vertex {i}")
        edges.append((i - 1, j - 1, w))
        edge_lines += 1
    if header is None:
        raise ParseError(1, "empty instance: missing header line")
    n, m = header
    if edge_lines != m:
        raise ParseError(1, f"header declares {m} edges but {edge_lines} edge lines found")
    return WeightedGraph.from_edges(n, edges)


def format_instance(g: WeightedGraph) -> str:
    """Inverse of parse_instance: 1-based ids, weights round-trip exactly."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(
        f"{u + 1} {v + 1} {int(w) if w == int(w) else repr(w)}" for u, v, w in g.edges
    )
    return "\n".join(lines) + "\n"


def cut_value(g: WeightedGraph, assignment: np.ndarray) -> float:
    """Total weight of edges crossing the bipartition given by a boolean side vector."""
    a = np.asarray(assignment, dtype=bool)
    if a.shape != (g.vertex_count,):
        raise ValueError(f"assignment has length {a.size}, expected {g.vertex_count}")
    return float(cut_value_batch(g, a[None])[0])


def cut_value_batch(g: WeightedGraph, assignments: np.ndarray) -> np.ndarray:
    """Cut values for a (k, n) boolean matrix of assignments, one row each."""
    a = np.asarray(assignments, dtype=bool)
    if a.ndim != 2 or a.shape[1] != g.vertex_count:
        raise ValueError(f"expected shape (k, {g.vertex_count})")
    vals = np.zeros(a.shape[0])
    for u, v, w in g.edges:
        vals += w * (a[:, u] ^ a[:, v])
    return vals


def cut_values_for_indices(g: WeightedGraph, indices: np.ndarray) -> np.ndarray:
    """Cut values for assignments encoded as integers (vertex i = bit i).

    Indices are grouped by their bits from b = min(n, ENUM_BLOCK_BITS) up.
    Each group is read from one block of cut values over its low b bits,
    built by per-vertex doubling in O(2^b) adds whatever the edge count.
    Raises ValueError for an index outside [0, 2^n).
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(idx.shape)
    smallest, largest = int(idx.min()), int(idx.max())
    if smallest < 0 or largest >> g.vertex_count:
        bad = smallest if smallest < 0 else largest
        raise ValueError(f"assignment index {bad} is outside [0, 2^{g.vertex_count})")
    b = min(g.vertex_count, ENUM_BLOCK_BITS)
    low = idx & ((1 << b) - 1)
    top = int(low.max()).bit_length()
    first = smallest >> b
    if first == largest >> b:
        return _cut_block(g.weight_matrix, b, first, top)[low]
    high = idx >> b
    vals = np.empty(idx.shape)
    for prefix in np.unique(high):
        sel = high == prefix
        vals[sel] = _cut_block(g.weight_matrix, b, int(prefix), top)[low[sel]]
    return vals


def _cut_block(w: np.ndarray, b: int, prefix: int, top: int, out: np.ndarray | None = None) -> np.ndarray:
    """Cut values of the 2^top assignments x whose bits from b up spell prefix
    and whose bits top..b-1 are 0, indexed by their low bits.

    Setting bit k of x (bits k..b-1 clear) gains d_k[x] = sum_j w[k, j] (1 - 2 x_j),
    so out[2^k + x] = out[x] + d_k[x] for x < 2^k, and d_k itself doubles bit by
    bit: d_k[x + 2^j] = d_k[x] - 2 w[k, j] for x < 2^j and j < k. d_k is built
    in the half of out it then fills, so a block allocates nothing else; a
    given out (at least 2^top long) is reused.
    """
    n = w.shape[0]
    side = np.zeros(n)
    side[b:] = [(prefix >> k) & 1 for k in range(n - b)]
    gain = w[:b] @ (1.0 - 2.0 * side)
    out = np.empty(1 << top) if out is None else out[: 1 << top]
    out[0] = side @ w @ (1.0 - side)
    for k in range(top):
        d = out[1 << k : 2 << k]
        d[0] = gain[k]
        for j in range(k):
            np.subtract(d[: 1 << j], 2.0 * w[k, j], out=d[1 << j : 2 << j])
        np.add(out[: 1 << k], d, out=d)
    return out


def index_to_assignment(index: int, n: int) -> np.ndarray:
    return ((index >> np.arange(n)) & 1).astype(bool)


def brute_force(g: WeightedGraph, max_vertices: int = BRUTE_FORCE_CAP) -> ExactCutSummary:
    """Exact min/max cut by enumerating all 2^(n-1) bipartitions.

    Complement symmetry halves the search: only assignments with the top
    vertex on the False side are visited, which also makes the reported
    argmax the optimum with the lowest binary encoding. The empty bipartition
    is included, so max_value >= 0 >= min_value always holds.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceeds the enumeration cap of {max_vertices}")
    if n == 0:
        return ExactCutSummary(0.0, 0.0, np.zeros(0, dtype=bool), 1)
    # Blocks of 2^bits assignments, in index order, one per prefix of the bits
    # from `bits` up: the block of prefix 0 is one _cut_block, every other one
    # that block plus an affine term (_prefix_block) in a second buffer. The
    # two buffers are all the call allocates, and they stay in cache.
    bits = min(n - 1, ORACLE_BLOCK_BITS)
    prefixes = 1 << (n - 1 - bits)
    base = _cut_block(g.weight_matrix, bits, 0, bits)
    block = np.empty(base.size) if prefixes > 1 else None
    best = -np.inf
    worst = np.inf
    arg = 0
    count = 0
    for prefix in range(prefixes):
        vals = _prefix_block(g.weight_matrix, bits, prefix, base, block) if prefix else base
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            arg = (prefix << bits) + i
            count = 0
        if vals[i] == best:
            count += int(np.count_nonzero(vals == best))
        worst = min(worst, float(np.min(vals)))
    return ExactCutSummary(best, worst, index_to_assignment(arg, n), count)


def _prefix_block(w: np.ndarray, b: int, prefix: int, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cut values of the assignments whose bits from b up spell prefix, indexed
    by their low b bits, from base, the block of prefix 0.

    Let y be the high vertices' sides and g = w[:b, b:] @ y. Against prefix 0,
    the high vertices add their own cut C_HH(y), and an edge (k, h) from a low
    vertex to a high vertex with y_h = 1 is cut iff x_k is 0 instead of iff it
    is 1. So out[x] = base[x] + C_HH(y) + sum(g) - 2 g.x, whose affine term
    doubles bit by bit like _cut_block's: term[2^k + x] = term[x] - 2 g_k.
    """
    y = ((prefix >> np.arange(w.shape[0] - b)) & 1).astype(float)
    g = w[:b, b:] @ y
    out[0] = y @ w[b:, b:] @ (1.0 - y) + g.sum()
    for k in range(b):
        np.subtract(out[: 1 << k], 2.0 * g[k], out=out[1 << k : 2 << k])
    out += base
    return out


def format_summary(s: ExactCutSummary) -> str:
    """Flat key/value text record for an enumeration result."""
    bits = "".join("1" if b else "0" for b in s.argmax)
    return (
        f"max_value {s.max_value:.12g}\n"
        f"min_value {s.min_value:.12g}\n"
        f"optimum_count {s.optimum_count}\n"
        f"argmax {bits}\n"
    )


def qubo_to_maxcut(q: QuboProblem) -> tuple[WeightedGraph, float]:
    """Map a QUBO to an equivalent MaxCut instance on n+1 vertices.

    Vertex 0 is the reference vertex. For every binary x, the bipartition
    W = {i+1 : x_i = 1} satisfies cut value = objective + offset. Pair weights
    are -q_ij/2 and reference weights q_ii + sum_j q_ij / 2, which makes the
    offset zero; the equivalence is what tests pin down, not the constants.
    """
    n = q.n
    coeff = dict(q.coefficients)
    edges: list[tuple[int, int, float]] = []
    for (i, j), qq in coeff.items():
        if i != j and qq != 0.0:
            edges.append((i + 1, j + 1, -qq / 2.0))
    for i in range(n):
        w = coeff.get((i, i), 0.0)
        for (a, b), qq in coeff.items():
            if a != b and (a == i or b == i):
                w += qq / 2.0
        if w != 0.0:
            edges.append((0, i + 1, w))
    return WeightedGraph.from_edges(n + 1, edges), 0.0


def dense_closure(g: WeightedGraph) -> WeightedGraph:
    """Complete graph on the same vertices; missing pairs get weight 0."""
    existing = {(u, v): w for u, v, w in g.edges}
    n = g.vertex_count
    edges = [(u, v, existing.get((u, v), 0.0)) for u in range(n) for v in range(u + 1, n)]
    return WeightedGraph.from_edges(n, edges)
