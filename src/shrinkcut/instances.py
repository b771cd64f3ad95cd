"""Instance generators for experiments and tests: small named topologies,
planar grids, and random families with sign or normal weights."""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph


def ring_pairs(n: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ValueError("a ring needs at least 3 vertices")
    return [(i, (i + 1) % n) for i in range(n)]


def star_pairs(n: int) -> list[tuple[int, int]]:
    """Center 0 joined to every other vertex."""
    return [(0, i) for i in range(1, n)]


def complete_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def ring_with_chord_pairs(n: int) -> list[tuple[int, int]]:
    return ring_pairs(n) + [(0, n // 2)]


def grid_pairs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Planar grid; vertex (r, c) is r * cols + c."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return pairs


def complete_bipartite_pairs(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def circulant_pairs(n: int, offsets: list[int]) -> list[tuple[int, int]]:
    """Ring-like regular graph joining i to i +- k for each offset k."""
    pairs = set()
    for i in range(n):
        for k in offsets:
            u, v = i, (i + k) % n
            if u != v:
                pairs.add((min(u, v), max(u, v)))
    return sorted(pairs)


def triangle_free_ring_pairs(n: int, extra_edges: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Ring plus random chords inserted only when they close no triangle.

    Best effort: stops early if attempts run out before extra_edges chords fit.
    """
    adjacency: list[set[int]] = [set() for _ in range(n)]
    pairs = ring_pairs(n)
    for u, v in pairs:
        adjacency[u].add(v)
        adjacency[v].add(u)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 100 * extra_edges:
        attempts += 1
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if v in adjacency[u] or adjacency[u] & adjacency[v]:
            continue
        adjacency[u].add(v)
        adjacency[v].add(u)
        pairs.append((u, v))
        added += 1
    return pairs


def random_pairs(n: int, edge_probability: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    pairs = complete_pairs(n)
    return [pair for pair, keep in zip(pairs, (rng.random(len(pairs)) < edge_probability).tolist()) if keep]


def sign_weights(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from {-1, +1}."""
    return rng.choice([-1.0, 1.0], size=count)


def normal_weights(count: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=count)


def build(n: int, pairs: list[tuple[int, int]], weights: np.ndarray) -> WeightedGraph:
    if len(pairs) != len(weights):
        raise ValueError("one weight per pair required")
    return WeightedGraph.from_edges(n, [(u, v, float(w)) for (u, v), w in zip(pairs, weights)])


def unit(n: int, pairs: list[tuple[int, int]]) -> WeightedGraph:
    return build(n, pairs, np.ones(len(pairs)))


def random_weighted_graph(
    n: int, edge_probability: float, rng: np.random.Generator, kind: str = "normal"
) -> WeightedGraph:
    """Random topology with random weights; kind is "normal" or "sign"."""
    pairs = random_pairs(n, edge_probability, rng)
    if kind == "normal":
        weights = normal_weights(len(pairs), rng)
    elif kind == "sign":
        weights = sign_weights(len(pairs), rng)
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return build(n, pairs, weights)
