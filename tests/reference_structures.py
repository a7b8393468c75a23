"""Test-side references for the carriers: the full multilinear form and
the set function of a symmetric tensor, and the graph read as a chemical
hypergraph whose edges carry both endpoints as inputs and as outputs."""

from fractions import Fraction
from itertools import permutations

import numpy as np

from homext.setfn import SetTupleFunction, mask_of
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
