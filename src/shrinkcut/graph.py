"""MaxCut graphs: parsing, cut evaluation, exact enumeration and spectrum, and a QUBO as a graph on n + 1 vertices."""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

BRUTE_FORCE_CAP = 24
# Index bits one block of cut values covers: 2^16 values, 512 KB, which stay
# in cache while the block is built and read.
ENUM_BLOCK_BITS = 16
# Doubling levels _double_by_vertex builds for all vertices at once: a table
# of 2^8 entries per vertex, 48 KB for 24 float vertices.
DOUBLING_TABLE_BITS = 8
# Bytes of temporaries one cut_value_batch chunk of rows may hold.
SCORE_CHUNK_BYTES = 1 << 21
# Largest total absolute weight Σ|w| a WeightedGraph may have: _cut_block and _prefix_block form
# cut values and row sums within Σ|w|, and their -2w and 2g steps within 2Σ|w|, with 2x left for rounding.
# Reduced and dense-closure graphs sum or copy the original's weights, so they stay within it.
CUT_WEIGHT_LIMIT = sys.float_info.max / 4


class ParseError(ValueError):
    """Malformed instance text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..vertex_count-1.

    Edge i joins u[i] < v[i] with finite weight w[i], sorted by (u, v) and
    unique, and Σ|w| is at most CUT_WEIGHT_LIMIT. The arrays are read-only
    copies of the constructor's inputs, so instances are immutable and safe to
    share across threads.
    """

    vertex_count: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        n = check_integer(self.vertex_count, "vertex_count")
        ends = np.array((self.u, self.v))
        w = np.array(self.w, dtype=float)
        if n < 0 or ends.ndim != 2 or w.shape != ends.shape[1:]:
            raise ValueError(f"need vertex_count >= 0 and 1-d u, v, w of one length, got {n}, {ends.shape}, {w.shape}")
        with np.errstate(invalid="ignore"):  # a nan or inf id fails the comparison below
            u, v = ids = ends.astype(np.int64)
        # an id such as 1.5 is rejected, not truncated by the cast
        bad = np.flatnonzero(np.any(ids != ends, axis=0) | (u < 0) | (u >= v) | (v >= n))
        if bad.size:
            raise ValueError(f"edge ({ends[0, bad[0]]}, {ends[1, bad[0]]}) needs integer ids u < v in [0, {n})")
        if np.any((u[1:] < u[:-1]) | (u[1:] == u[:-1]) & (v[1:] <= v[:-1])):
            raise ValueError("edges must be sorted with unique pairs; use from_edges()")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"edge ({u[bad[0]]}, {v[bad[0]]}) has non-finite weight {w[bad[0]]}")
        with np.errstate(over="ignore"):  # a sum that overflows reads inf and is rejected below
            total = float(np.abs(w).sum())
        if not total <= CUT_WEIGHT_LIMIT:
            raise ValueError(f"total absolute weight {total!r} exceeds {CUT_WEIGHT_LIMIT:.6g}; cut values could overflow")
        ids.setflags(write=False)
        w.setflags(write=False)
        for name, value in zip(("vertex_count", "u", "v", "w"), (n, ids[0], ids[1], w)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # unpickling runs the constructor, so the copy is validated and read-only too
        return type(self), (self.vertex_count, self.u, self.v, self.w)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int, float]]) -> "WeightedGraph":
        """Build a graph from (u, v, w) triples in any order and orientation.

        Duplicate pairs are summed in input order from -0.0, so a pair given
        once keeps its weight bit for bit, -0.0 too, and a zero sum stays an
        edge. Raises ValueError as the constructor does, also for a sum of
        duplicates that overflows.
        """
        first, second, weights = tuple(zip(*edges)) or ((), (), ())
        ends = np.sort((first, second), axis=0)
        # stable, so each pair's duplicates stay in input order
        order = np.lexsort(ends[::-1])
        ends = ends[:, order]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = np.any(ends[:, 1:] != ends[:, :-1], axis=0)
        merged = np.full(np.count_nonzero(starts), -0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects a non-finite sum
            np.add.at(merged, np.cumsum(starts) - 1, np.array(weights, dtype=float)[order])
        return cls(vertex_count, *ends[:, starts], merged)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as Python (u, v, w) tuples, in array order."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return self.w.size

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, WeightedGraph) and self.vertex_count == other.vertex_count
        return same and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in "uvw")

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Symmetric (n, n) weight matrix; absent pairs are 0."""
        m = np.zeros((self.vertex_count, self.vertex_count))
        m[self.u, self.v] = m[self.v, self.u] = self.w
        m.setflags(write=False)
        return m

    def total_weight(self) -> float:
        return float(sum(self.w.tolist()))


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
    lines.extend(f"{u + 1} {v + 1} {repr(w).removesuffix('.0')}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def cut_value(g: WeightedGraph, assignment: np.ndarray) -> float:
    """Total weight of edges crossing the bipartition given by a boolean side vector."""
    a = np.asarray(assignment, dtype=bool)
    if a.shape != (g.vertex_count,):
        raise ValueError(f"assignment has shape {a.shape}, expected ({g.vertex_count},)")
    return float(cut_value_batch(g, a[None])[0])


def cut_value_batch(
    g: WeightedGraph, assignments: np.ndarray, lift: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Cut values for a (k, n) boolean matrix of assignments, one row each.

    A row's value is the sum of the weights it cuts, in edge order from 0.0,
    whatever rows it is scored with. Rows are scored in chunks with about
    SCORE_CHUNK_BYTES of temporaries, all edges at once on the transpose.

    With lift = (columns, flip), (n,) integer and boolean arrays (ShrinkState.lift_map),
    a row a with every column they read stands for the assignment a[columns] ^ flip and scores
    bit for bit as it, without it being built: each edge reads its ends'
    columns, XORed with its ends' flips when any edge's ends differ in flip.
    An edge whose ends share a column and a flip is never cut and is skipped:
    it would add 0.0 * w = ±0.0 to a sum that starts at +0.0, which never
    changes its bits.
    """
    a = np.asarray(assignments, dtype=bool)
    u, v, w, width, flips = g.u, g.v, g.w, g.vertex_count, None
    if lift is not None:
        columns, flip = lift
        width = a.shape[-1] if a.ndim else 0
        if np.shape(columns) != (g.vertex_count,) or np.shape(flip) != (g.vertex_count,) or flip.dtype != bool:
            raise ValueError(f"lift needs columns and a boolean flip of shape ({g.vertex_count},)")
        if np.any((columns < 0) | (columns >= width)):
            raise ValueError(f"lift reads columns {columns.min()} to {columns.max()} of assignments of width {width}")
        u, v, flips = columns[g.u], columns[g.v], flip[g.u] ^ flip[g.v]
        keep = (u != v) | flips
        u, v, w, flips = u[keep], v[keep], w[keep], flips[keep]
        flips = flips[:, None] if flips.any() else None
    if a.ndim != 2 or a.shape[1] != width:
        raise ValueError(f"expected shape (k, {width})")
    # bytes per row: its sides, the two gathered endpoint sides, their XOR, its value
    step = max(2, SCORE_CHUNK_BYTES // (width + 3 * w.size + 8))
    vals = np.empty(a.shape[0])
    for start in range(0, a.shape[0], step):
        rows = a[start : start + step]
        # two columns at least: einsum sums a lone column with several
        # accumulators, not in edge order, so a row alone would score differently
        sides = np.zeros((width, max(2, len(rows))), dtype=bool)
        sides[:, : len(rows)] = rows.T
        cut = sides[u] ^ sides[v]
        if flips is not None:
            cut ^= flips
        vals[start : start + len(rows)] = np.einsum("ek,e->k", cut, w)[: len(rows)]
    return vals


def _spectrum(g: WeightedGraph) -> np.ndarray:
    """Cut values of the 2^(n-1) assignments whose top vertex is on the False
    side (one for n = 0), in index order: brute_force's blocks (_blocks), each
    copied into its slice before the reused buffer is overwritten."""
    out = np.empty(1 << max(g.vertex_count - 1, 0))
    for prefix, block in enumerate(_blocks(g.weight_matrix)):
        out[prefix * block.size : (prefix + 1) * block.size] = block
    return out


def _blocks(w: np.ndarray) -> Iterator[np.ndarray]:
    """Yield, prefix by prefix, the cut values of the assignments of the top
    vertex's False half whose bits from b = min(n - 1, ENUM_BLOCK_BITS) up
    spell the prefix, indexed by their low b bits: prefix 0's block
    (_cut_block), then that block plus an affine term (_prefix_block) in one
    reused buffer, valid until the next block is drawn."""
    half = max(w.shape[0] - 1, 0)
    b = min(half, ENUM_BLOCK_BITS)
    base = _cut_block(w, b)
    yield base
    if half > b:
        buffer = np.empty_like(base)
        for prefix in range(1, 1 << (half - b)):
            yield _prefix_block(w, b, prefix, base, buffer)


def _cut_block(w: np.ndarray, b: int) -> np.ndarray:
    """Cut values of the 2^b assignments x whose bits from b up are 0: setting
    bit k of x (bits k..b-1 clear) gains sum_j w[k, j] (1 - 2 x_j), which
    _double_by_vertex builds with np.add in O(2^b) adds whatever the edge count."""
    out = np.empty(1 << b)
    out[0] = 0.0
    return _double_by_vertex(out, w[:b] @ np.ones(w.shape[0]), -2.0 * w, np.add)


def _double_by_vertex(out: np.ndarray, start: np.ndarray, step: np.ndarray, op: Callable) -> np.ndarray:
    """Fill out (2^t long, out[0] given) one vertex k < t at a time: out[2^k + x]
    = op(d_k[x], out[x]) for x < 2^k, with d_k[0] = start[k] and d_k[x + 2^j] =
    op(d_k[x], step[k, j]) for x < 2^j < 2^k.

    The first DOUBLING_TABLE_BITS levels of every d_k are built together, one
    op per level over all vertices, as the columns of a table; a vertex k past
    them copies its column into the half it fills and doubles on from there.
    Each entry is the same op on the same operands as one vertex at a time,
    in far fewer numpy calls."""
    t = out.size.bit_length() - 1
    # at t = 2 the one level would be a 1x1 op, which numpy 2.4's complex
    # multiply rounds unfused, unlike the 1-long op it replaces
    levels = min(DOUBLING_TABLE_BITS, t - 1) if t > 2 else 0
    table = np.empty((1 << levels, t), dtype=out.dtype)
    table[0] = start[:t]
    for j in range(levels):
        op(table[: 1 << j, j + 1 :], step[j + 1 : t, j], out=table[1 << j : 2 << j, j + 1 :])
    for k in range(t):
        d = out[1 << k : 2 << k]
        if k <= levels:
            op(table[: 1 << k, k], out[: 1 << k], out=d)
            continue
        d[: 1 << levels] = table[:, k]
        for j in range(levels, k):
            op(d[: 1 << j], step[k, j], out=d[1 << j : 2 << j])
        op(d, out[: 1 << k], out=d)
    return out


def index_to_assignment(index: int, n: int) -> np.ndarray:
    return ((index >> np.arange(n)) & 1).astype(bool)


def brute_force(g: WeightedGraph) -> ExactCutSummary:
    """Exact min/max cut by enumerating all 2^(n-1) bipartitions.

    Complement symmetry halves the search: only assignments with the top
    vertex on the False side are visited, which also makes the reported
    argmax the optimum with the lowest binary encoding. The empty bipartition
    is included, so max_value >= 0 >= min_value always holds. Raises
    ValueError past BRUTE_FORCE_CAP vertices, before enumerating anything.
    """
    check_enumerable(g.vertex_count)
    return brute_force_matrix(g.weight_matrix)


def check_integer(value, name: str) -> int:
    """operator.index(value), or a TypeError that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def check_enumerable(n: int) -> None:
    if n > BRUTE_FORCE_CAP:
        raise ValueError(f"{n} vertices exceeds the enumeration cap of {BRUTE_FORCE_CAP}")


def brute_force_matrix(w: np.ndarray) -> ExactCutSummary:
    """brute_force on a symmetric weight matrix whose pairs' Σ|w| is within
    CUT_WEIGHT_LIMIT, a graph's or one summed from it: its blocks (_blocks) are
    scanned in index order, with no index array."""
    best, worst, arg, count = -np.inf, np.inf, 0, 0
    for prefix, vals in enumerate(_blocks(w)):
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            arg = prefix * vals.size + i
            count = 0
        if vals[i] == best:
            count += int(np.count_nonzero(vals == best))
        worst = min(worst, float(np.min(vals)))
    return ExactCutSummary(best, worst, index_to_assignment(arg, w.shape[0]), count)


def _prefix_block(w: np.ndarray, b: int, prefix: int, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cut values of the assignments whose bits from b up spell prefix, indexed
    by their low b bits, from base, the block of prefix 0.

    Let y be the high vertices' sides and g = w[:b, b:] @ y. Against prefix 0,
    the high vertices add their own cut C_HH(y), and an edge (k, h) from a low
    vertex to a high vertex with y_h = 1 is cut iff x_k is 0 instead of iff it
    is 1. So out[x] = base[x] + C_HH(y) + sum(g) - 2 g.x, whose affine term
    doubles bit by bit: term[2^k + x] = term[x] - 2 g_k.
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


def qubo_to_maxcut(n: int, entries: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """MaxCut on vertices 0..n that cuts Σ q_ij x_i x_j with {i + 1 : x_i = 1}, for every binary x.

    Entries (i, j, q), either way round, are summed per pair in input order from 0.0. Pair (i + 1, j + 1) weighs
    -q_ij / 2 and (0, i + 1) q_ii + Σ_j q_ij / 2, diagonal first, then halves in pair order; zero weights are dropped.
    A cut's x_i is side(i + 1) XOR side(0). A non-integer index raises TypeError and one outside [0, n) ValueError,
    naming the entry; the graph constructor rejects a non-finite weight and a Σ|w| past CUT_WEIGHT_LIMIT.
    """
    if check_integer(n, "n") < 0:
        raise ValueError(f"need n >= 0 variables, got {n}")
    keys, coefficients = [], []
    for entry in entries:
        i, j, q = entry
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise TypeError(f"entry {entry} needs integer indices") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"index out of range in entry {entry}")
        keys.append(min(i, j) * n + max(i, j))
        coefficients.append(float(q))
    keys, inverse = np.unique(np.array(keys, dtype=np.int64), return_inverse=True)
    # bincount sums each bin in input order from 0.0; an overflow reads inf, which the constructor rejects
    merged = np.bincount(inverse, coefficients, keys.size)
    i, j = np.divmod(keys, n)
    # a zero pair is no edge, and its halves, +0.0, change no sum: one from +0.0 is never -0.0
    diagonal, pair = i == j, (i != j) & (merged != 0.0)
    ends, halves = np.column_stack((i[pair], j[pair])).ravel(), np.repeat(merged[pair] / 2, 2)
    reference = np.bincount(np.append(i[diagonal], ends), np.append(merged[diagonal], halves), n)
    kept = np.flatnonzero(reference)
    u, v = np.append(np.zeros_like(kept), i[pair] + 1), np.append(kept + 1, j[pair] + 1)
    return WeightedGraph(n + 1, u, v, np.append(reference[kept], merged[pair] / -2))


def dense_closure(g: WeightedGraph) -> WeightedGraph:
    """Complete graph on the same vertices; missing pairs get weight 0."""
    u, v = np.triu_indices(g.vertex_count, 1)
    return WeightedGraph(g.vertex_count, u, v, g.weight_matrix[u, v])
