"""Combinatorial carriers: weighted/signed graphs, chemical hypergraphs,
symmetric tensors of uniform hypergraphs, and simplicial complexes with
signed boundary matrices.

Simplices are stored with vertices in increasing order; every sign is
derived from that orientation, so all outputs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, Optional, Sequence

import numpy as np

from .setfn import SetTupleFunction, full_mask, mask_members, mask_of, popcount


class WeightedGraph:
    """Undirected graph with symmetric nonnegative weights, zero diagonal."""

    def __init__(self, weights):
        W = np.asarray(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight table must be square")
        if not np.allclose(W, W.T):
            raise ValueError("weight table must be symmetric")
        if np.any(np.diag(W) != 0):
            raise ValueError("diagonal must be zero")
        if np.any(W < 0):
            raise ValueError("weights must be nonnegative")
        self.W = W
        self.n = W.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "WeightedGraph":
        W = np.zeros((n, n))
        for e in edges:
            i, j = e[0], e[1]
            w = e[2] if len(e) > 2 else 1.0
            if i == j:
                raise ValueError("no self loops")
            W[i, j] = W[j, i] = w
        return cls(W)

    @classmethod
    def path(cls, n: int) -> "WeightedGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "WeightedGraph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "WeightedGraph":
        return cls.from_edges(n, combinations(range(n), 2))

    @classmethod
    def erdos_renyi(cls, n: int, p: float, rng) -> "WeightedGraph":
        edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
        return cls.from_edges(n, edges)

    def edges(self) -> list[tuple[int, int, float]]:
        return [(i, j, self.W[i, j]) for i, j in combinations(range(self.n), 2)
                if self.W[i, j] != 0]

    @property
    def degrees(self) -> np.ndarray:
        return self.W.sum(axis=1)

    def laplacian(self) -> np.ndarray:
        return np.diag(self.degrees) - self.W

    def signless_laplacian(self) -> np.ndarray:
        return np.diag(self.degrees) + self.W

    def incidence(self) -> np.ndarray:
        """Vertex-edge incidence with +1/-1 per the increasing orientation."""
        E = self.edges()
        B = np.zeros((self.n, len(E)))
        for c, (i, j, w) in enumerate(E):
            B[i, c] = -1.0
            B[j, c] = 1.0
        return B

    def components(self) -> list[int]:
        """Connected components as vertex masks."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, mask = [s], 0
            seen[s] = True
            while stack:
                v = stack.pop()
                mask |= 1 << v
                for u in range(self.n):
                    if self.W[v, u] != 0 and not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(mask)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def is_bipartite(self) -> tuple[bool, Optional[int]]:
        """(flag, mask of one side) via BFS 2-coloring."""
        color = [-1] * self.n
        side = 0
        for s in range(self.n):
            if color[s] >= 0:
                continue
            color[s] = 0
            stack = [s]
            while stack:
                v = stack.pop()
                for u in range(self.n):
                    if self.W[v, u] != 0:
                        if color[u] < 0:
                            color[u] = 1 - color[v]
                            stack.append(u)
                        elif color[u] == color[v]:
                            return False, None
        for i in range(self.n):
            if color[i] == 0:
                side |= 1 << i
        return True, side

    def complement(self) -> "WeightedGraph":
        W = 1.0 - np.eye(self.n) - (self.W != 0)
        return WeightedGraph(np.maximum(W, 0))

    # set-function views -------------------------------------------------

    def cut_function(self) -> SetTupleFunction:
        """A |-> cut weight, ``ordered_edge_count``'s callback at (A, V - A):
        a Fraction for integral weights, else np.float64 (0.0 at the empty
        set and V)."""
        count, full = self.ordered_edge_count().callback, full_mask(self.n)
        return SetTupleFunction(self.n, 1, lambda mask: count(mask, full & ~mask))

    def ordered_edge_count(self) -> SetTupleFunction:
        """f(A, B) = number of ordered adjacent pairs (i, j), i in A, j in B: a
        Fraction for integral weights, else np.float64 (0.0 if A or B is empty)."""
        exact = np.array_equal(self.W, np.round(self.W))
        rows = self.W.tolist()
        def f(a, b):
            js = mask_members(b)
            total = 0.0
            for i in mask_members(a):
                row = rows[i]
                for j in js:
                    total += row[j]
            if exact:
                return Fraction(int(round(total)))
            return np.float64(total) if a and b else total
        return SetTupleFunction(self.n, 2, f)


class SignedGraph:
    """Symmetric signed weights, zero diagonal; sign pattern is what matters."""

    def __init__(self, weights):
        W = np.asarray(weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight table must be square")
        if not np.allclose(W, W.T):
            raise ValueError("weight table must be symmetric")
        if np.any(np.diag(W) != 0):
            raise ValueError("diagonal must be zero")
        self.W = W
        self.n = W.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.abs(self.W).sum(axis=1)

    def balanced_components(self):
        """(count, per-component switching or None) via spanning-tree
        propagation; a component is balanced iff every non-tree edge is
        consistent with the propagated signs."""
        n = self.n
        seen = [False] * n
        sign = [0] * n
        count = 0
        details = []
        for s in range(n):
            if seen[s]:
                continue
            seen[s] = True
            sign[s] = 1
            stack = [s]
            comp = [s]
            while stack:
                v = stack.pop()
                for u in range(n):
                    if self.W[v, u] != 0 and not seen[u]:
                        seen[u] = True
                        sign[u] = sign[v] * (1 if self.W[v, u] > 0 else -1)
                        stack.append(u)
                        comp.append(u)
            balanced = True
            witness = None
            for v in comp:
                for u in comp:
                    if u > v and self.W[v, u] != 0:
                        expect = 1 if self.W[v, u] > 0 else -1
                        if sign[v] * sign[u] != expect:
                            balanced = False
                            witness = (v, u)
            if balanced:
                count += 1
                details.append((mask_of(comp), {v: sign[v] for v in comp}))
            else:
                details.append((mask_of(comp), witness))
        return count, details


class ChemicalHypergraph:
    """Hyperedges carry input and output vertex sets (both nonempty)."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.n = n
        self.edges = []
        for e_in, e_out in edges:
            if e_in == 0 or e_out == 0:
                raise ValueError("each edge needs nonempty inputs and outputs")
            if popcount(e_in | e_out) < 2:
                raise ValueError("each edge must touch at least two vertices")
            if (e_in | e_out) >> n:
                raise ValueError("edge vertex out of range")
            self.edges.append((e_in, e_out))

    @property
    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        for e_in, e_out in self.edges:
            for i in mask_members(e_in | e_out):
                d[i] += 1
        return d

    def incidence(self) -> np.ndarray:
        """Signed incidence: +1 on inputs, -1 on outputs, +2 marks both."""
        B = np.zeros((len(self.edges), self.n))
        for r, (e_in, e_out) in enumerate(self.edges):
            for i in mask_members(e_in):
                B[r, i] += 1
            for i in mask_members(e_out):
                B[r, i] -= 1
        return B

    def underlying_graph(self) -> WeightedGraph:
        W = np.zeros((self.n, self.n))
        for e_in, e_out in self.edges:
            mem = mask_members(e_in | e_out)
            for i, j in combinations(mem, 2):
                W[i, j] = W[j, i] = 1.0
        return WeightedGraph(W)


class SymmetricTensor:
    """Order-k symmetric tensor stored sparsely on sorted index tuples.

    The stored value is the common entry of every permutation of the
    index multiset.
    """

    def __init__(self, order: int, dim: int):
        if order < 1 or dim < 1:
            raise ValueError("order and dim must be positive")
        self.order = order
        self.dim = dim
        self.entries: dict[tuple[int, ...], float] = {}

    def __setitem__(self, idx, v):
        idx = tuple(sorted(idx))
        if len(idx) != self.order or any(not 0 <= i < self.dim for i in idx):
            raise ValueError("bad index")
        if v == 0:
            self.entries.pop(idx, None)
        else:
            self.entries[idx] = v

    def __getitem__(self, idx) -> float:
        return self.entries.get(tuple(sorted(idx)), 0.0)

    @staticmethod
    def _perm_count(idx: Sequence[int]) -> int:
        cnt = factorial(len(idx))
        for i in set(idx):
            cnt //= factorial(list(idx).count(i))
        return cnt

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(C x^{k-1})_i summed over all arrangements of the other indices."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(self.dim)
        for idx, v in self.entries.items():
            for i in set(idx):
                rest = list(idx)
                rest.remove(i)
                mult = self._perm_count(rest)
                prod = 1.0
                for j in rest:
                    prod *= x[j]
                out[i] += v * mult * prod
        return out


def adjacency_tensor(n: int, hyperedges: Sequence[Sequence[int]], k: Optional[int] = None) -> SymmetricTensor:
    """Entry 1 on every permutation of every hyperedge; the induced diagonal
    extension therefore counts ordered tuples."""
    if k is None:
        if not hyperedges:
            raise ValueError("need k for an empty hypergraph")
        k = len(hyperedges[0])
    T = SymmetricTensor(k, n)
    for e in hyperedges:
        if len(set(e)) != k:
            raise ValueError(f"hyperedge {e} must have {k} distinct vertices")
        T[tuple(e)] = 1.0
    return T


def huang_signing(m: int) -> np.ndarray:
    """Recursive signing of the m-cube adjacency with square m * identity."""
    if not 1 <= m <= 10:
        raise ValueError("m must be in [1, 10]")
    W = np.array([[0, 1], [1, 0]], dtype=np.int64)
    for _ in range(m - 1):
        size = W.shape[0]
        I = np.eye(size, dtype=np.int64)
        W = np.block([[W, I], [I, -W]])
    return W


def hypercube(m: int) -> WeightedGraph:
    """The m-cube on vertices 0..2^m - 1: i ~ j iff i and j differ in one
    bit, with unit weights."""
    n = 1 << m
    return WeightedGraph([[1.0 if popcount(i ^ j) == 1 else 0.0 for j in range(n)]
                          for i in range(n)])


class SimplicialComplex:
    """Abstract simplicial complex; downward closure is computed on build."""

    def __init__(self, maximal: Sequence[Sequence[int]]):
        faces = set()
        for s in maximal:
            s = tuple(sorted(set(s)))
            if not s:
                raise ValueError("empty simplex")
            for r in range(1, len(s) + 1):
                faces.update(combinations(s, r))
        if not faces:
            raise ValueError("complex needs at least one vertex")
        self.dim = max(len(f) for f in faces) - 1
        self.simplices: list[list[tuple[int, ...]]] = []
        for d in range(self.dim + 1):
            level = sorted(f for f in faces if len(f) == d + 1)
            self.simplices.append(level)
        self.n_vertices = len(self.simplices[0])
        self._index = [dict((s, i) for i, s in enumerate(level))
                       for level in self.simplices]

    def count(self, d: int) -> int:
        return len(self.simplices[d]) if 0 <= d <= self.dim else 0

    def boundary_matrix(self, d: int) -> np.ndarray:
        """B_d with rows the (d-1)-simplices, columns the d-simplices,
        entries (-1)^j from the increasing-vertex orientation."""
        if not 1 <= d <= self.dim:
            raise ValueError(f"d must be in [1, {self.dim}]")
        rows = self._index[d - 1]
        cols = self.simplices[d]
        B = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for c, s in enumerate(cols):
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                B[rows[face], c] = (-1) ** j
        return B

    def up_degrees(self, d: int) -> np.ndarray:
        """Number of (d+1)-cofaces per d-simplex."""
        deg = np.zeros(self.count(d))
        if d + 1 > self.dim:
            return deg
        idx = self._index[d]
        for s in self.simplices[d + 1]:
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                deg[idx[face]] += 1
        return deg

    def anti_signed_graph(self, d: int) -> SignedGraph:
        """Graph on the d-simplices; two are adjacent iff they share a
        (d+1)-coface, with edge sign the product of their boundary signs in
        that coface.  The coface is unique, which is asserted."""
        if d + 1 > self.dim:
            raise ValueError("no cofaces at this dimension")
        nd = self.count(d)
        idx = self._index[d]
        W = np.zeros((nd, nd))
        for s in self.simplices[d + 1]:
            members = []
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                members.append((idx[face], (-1) ** j))
            for (a, sa), (b, sb) in combinations(members, 2):
                assert W[a, b] == 0, "two simplices share two cofaces"
                W[a, b] = W[b, a] = sa * sb
        return SignedGraph(W)
