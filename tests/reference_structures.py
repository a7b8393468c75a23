"""Test-side references for the carriers: the full multilinear form and
the set function of a symmetric tensor, the graph read as a chemical
hypergraph whose edges carry both endpoints as inputs and as outputs,
its boundary-edge count, the volume of a vertex set, and the ordered
edge count as a double loop over the numpy entries."""

from fractions import Fraction
from itertools import permutations

import numpy as np

from homext.setfn import SetTupleFunction, full_mask, mask_members, mask_of
from homext.structures import ChemicalHypergraph


def full_form(T, x) -> float:
    """Sum over all n^k index tuples of the entry times the monomial."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for idx, v in T.entries.items():
        prod = 1.0
        for j in idx:
            prod *= x[j]
        total += v * T._perm_count(idx) * prod
    return total


def as_set_function(T) -> SetTupleFunction:
    """f(V_1, ..., V_k) = sum of entries with i_l in V_l."""
    def f(*masks):
        total = Fraction(0)
        for idx, v in T.entries.items():
            for arrangement in set(permutations(idx)):
                if all((masks[l] >> arrangement[l]) & 1 for l in range(T.order)):
                    total += Fraction(v) if v == int(v) else v
        return total
    return SetTupleFunction(T.dim, T.order, f)


def chemical_from_graph(g) -> ChemicalHypergraph:
    edges = [(mask_of([i, j]), mask_of([i, j])) for i, j, _ in g.edges()]
    return ChemicalHypergraph(g.n, edges)


def boundary_edges(H, mask) -> int:
    """#{e : e_in meets A and e_out leaves A, or e_out inside A inside
    the complement of e_in}."""
    comp = full_mask(H.n) & ~mask
    cnt = 0
    for e_in, e_out in H.edges:
        if (e_in & mask) and (e_out & comp):
            cnt += 1
        elif (e_out | mask) == mask and (e_in & mask) == 0:
            cnt += 1
    return cnt


def vol(carrier, mask) -> float:
    """Sum of a graph's or chemical hypergraph's degrees over the mask."""
    d = carrier.degrees
    return float(sum(d[i] for i in mask_members(mask)))


def ordered_edge_count_loop(g):
    """f(A, B) summed over i in A, then j in B, reading g.W[i, j] each time."""
    exact = np.allclose(g.W, np.round(g.W))
    def f(a, b):
        total = 0.0
        for i in mask_members(a):
            for j in mask_members(b):
                total += g.W[i, j]
        return Fraction(int(round(total))) if exact else total
    return f
