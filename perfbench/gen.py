"""Seeded input generators, independent of homext.

Every generator returns plain data (ints, Fractions, edge lists, numpy
arrays) drawn from ``numpy.random.default_rng([seed, tag])``.  Instance
shapes (vertex counts, table shapes, row counts) are fixed by the
instance index, and only the contents depend on the seed, so the work in
a round varies little from seed to seed.
"""

from __future__ import annotations

import zlib
from fractions import Fraction
from itertools import combinations

import numpy as np


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def is_connected(n: int, edges) -> bool:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def connected_graph(rng, n: int, m: int) -> list[tuple[int, int]]:
    """Edge list of a uniform random graph with n vertices and m edges,
    redrawn until connected."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = sorted(pairs[i] for i in rng.choice(len(pairs), size=m, replace=False))
        if is_connected(n, edges):
            return edges


# -- minimax-lp ---------------------------------------------------------------

GAME_SHAPES = [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)]


def games(seed: int) -> list[np.ndarray]:
    """One integer payoff matrix in [-4, 4] per shape 2..4 x 2..4."""
    rng = rng_for(seed, "games")
    return [rng.integers(-4, 5, size=shape).astype(float) for shape in GAME_SHAPES]


def convex_concave(seed: int, count: int) -> list[dict]:
    """Two connected graphs with 4 vertices and 3 to 5 edges, and a
    coupling with entries in [0, 4) on a 1/64 grid (exact in binary, so
    the lattice checks see exact sums).

    f(A, B) = coupling(A, B) + cut_G(A) |B| - |A| cut_H(B) is submodular
    in A and supermodular in B; g(A, B) = |A| |B| is positive modular.
    """
    rng = rng_for(seed, "convex-concave")
    return [{"G": connected_graph(rng, 4, int(rng.integers(3, 6))),
             "H": connected_graph(rng, 4, int(rng.integers(3, 6))),
             "C": rng.integers(0, 256, size=(4, 4)) / 64.0}
            for _ in range(count)]


# Integer data whose minimax value 1 is a bisection midpoint: once a probe
# hits it, every later probe is infeasible and tries all 24 cones.
FIXED_CONVEX_CONCAVE = {"G": [(0, 1), (0, 3), (1, 2), (2, 3)],
                        "H": [(0, 1), (1, 2), (2, 3)],
                        "C": np.ones((4, 4))}


def cut_value(edges, mask: int) -> int:
    return sum(1 for i, j in edges if ((mask >> i) & 1) != ((mask >> j) & 1))


def convex_concave_value(inst: dict, a: int, b: int) -> Fraction:
    """f(A, B) of :func:`convex_concave` in exact arithmetic."""
    C = inst["C"]
    coup = sum(Fraction(C[i, j]) for i in members(a) for j in members(b))
    return (coup + cut_value(inst["G"], a) * b.bit_count()
            - a.bit_count() * cut_value(inst["H"], b))


# -- dinkelbach ---------------------------------------------------------------

def chemical_hypergraphs(seed: int, sizes) -> list[list[tuple[int, int]]]:
    """Chemical hypergraph edge lists (input mask, output mask), one per
    vertex count in ``sizes``; n + n // 2 edges of 2 to 4 vertices, half
    of them with the first input vertex also an output; redrawn until the
    underlying graph is connected."""
    rng = rng_for(seed, "chemical")
    out = []
    for n in sizes:
        while True:
            edges = []
            for _ in range(n + n // 2):
                size = int(rng.integers(2, min(4, n) + 1))
                verts = [int(v) for v in rng.choice(n, size=size, replace=False)]
                cut = int(rng.integers(1, size))
                e_in = sum(1 << v for v in verts[:cut])
                e_out = sum(1 << v for v in verts[cut:])
                if rng.random() < 0.5:
                    e_out |= 1 << verts[0]
                edges.append((e_in, e_out))
            pairs = [(i, j) for e_in, e_out in edges
                     for i, j in combinations(members(e_in | e_out), 2)]
            if is_connected(n, pairs):
                out.append(edges)
                break
    return out


# -- extension-exact ----------------------------------------------------------

EXACT_SHAPES = [(n, k) for k in (1, 2, 3) for n in range(1, 6)]


def integer_tables(seed: int, count: int) -> list[tuple[int, int, list[int]]]:
    """(n, k, dense table) with entries in [-9, 9] at tuples whose
    components are all nonempty and 0 elsewhere; shapes cycle through
    n = 1..5, k = 1..3.  The table is indexed by the concatenated masks,
    block 0 in the most significant bits."""
    rng = rng_for(seed, "integer-tables")
    out = []
    for idx in range(count):
        n, k = EXACT_SHAPES[idx % len(EXACT_SHAPES)]
        t = np.arange(1 << (n * k))
        nonempty = np.all([(t >> (n * b)) & ((1 << n) - 1) for b in range(k)], axis=0)
        vals = rng.integers(-9, 10, size=t.size)
        out.append((n, k, np.where(nonempty, vals, 0).tolist()))
    return out


# -- extension-float ----------------------------------------------------------

FLOAT_SHAPES = [(5, 1), (4, 2), (5, 2), (3, 3), (4, 3)]


def float_tables(seed: int) -> list[tuple[int, int, np.ndarray]]:
    """(n, k, dense float table in [-1, 1]) per shape in FLOAT_SHAPES."""
    rng = rng_for(seed, "float-tables")
    return [(n, k, rng.uniform(-1.0, 1.0, size=1 << (n * k)))
            for n, k in FLOAT_SHAPES]


def points(rng, n: int, k: int, kind: str) -> list[np.ndarray]:
    """k fresh coordinate blocks of length n.

    ``signed``: free, uniform in [-1, 1]; ``nonneg``: free, uniform in
    [0, 1]; ``comonotone``: one random order shared by all blocks, each
    block a positive rescaling of the first.
    """
    if kind == "signed":
        return [rng.uniform(-1.0, 1.0, n) for _ in range(k)]
    if kind == "nonneg":
        return [rng.uniform(0.0, 1.0, n) for _ in range(k)]
    if kind == "comonotone":
        base = np.sort(rng.uniform(0.0, 1.0, n))[np.argsort(rng.permutation(n))]
        return [base * s for s in [1.0] + list(rng.uniform(0.5, 2.0, k - 1))]
    raise ValueError(f"unknown point kind {kind!r}")


# -- spectra-enum -------------------------------------------------------------

def up_complex(rng, rows: int, vertices: int = 10) -> list[tuple[int, int, int]]:
    """Random triangles on ``vertices`` vertices, added until their edges
    number exactly ``rows``; every edge then has a coface."""
    tris: list[tuple[int, int, int]] = []
    edges: set = set()
    allt = list(combinations(range(vertices), 3))
    while len(edges) < rows:
        t = allt[int(rng.integers(len(allt)))]
        new = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} - edges
        if t in tris or len(edges) + len(new) > rows:
            continue
        tris.append(t)
        edges |= new
    return sorted(tris)


def boundary_2(tris) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Edges (sorted) of the triangles and the signed boundary matrix with
    rows the edges, columns the triangles: face j of (a, b, c) without
    its j-th vertex carries (-1)^j."""
    edges = sorted({e for a, b, c in tris for e in ((a, b), (a, c), (b, c))})
    row = {e: r for r, e in enumerate(edges)}
    B = np.zeros((len(edges), len(tris)))
    for col, (a, b, c) in enumerate(tris):
        B[row[(b, c)], col] = 1.0
        B[row[(a, c)], col] = -1.0
        B[row[(a, b)], col] = 1.0
    return edges, B
