"""Set-function storage, modularity checks and chain enumeration."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from homext.setfn import (CapExceeded, DisjointPairFunction, SetTupleFunction,
                          enumerate_chains, is_chain_tuple, mask_of,
                          modularity_check, popcount, submodularity_check,
                          supermodularity_check)
from homext.structures import WeightedGraph


def path3():
    return WeightedGraph.path(3)


def test_eval_tuple_edge_count_path():
    f = path3().ordered_edge_count()
    # A={0}, B={1} on the path 0-1-2: one ordered adjacent pair
    assert f(mask_of([0]), mask_of([1])) == 1


def test_eval_tuple_empty_component_no_zeroing():
    f = SetTupleFunction(2, 1, {(m,): 7 for m in range(4)})
    assert f(0) == 7  # stored value returned verbatim


def test_eval_tuple_cardinality():
    f = SetTupleFunction(3, 1, lambda m: popcount(m))
    assert f(mask_of([0, 2])) == 2


def test_eval_errors():
    # a callback called directly still has its masks checked; the
    # extension kernel skips __call__ and checks them once per block term
    f = SetTupleFunction(2, 2, lambda a, b: 0)
    with pytest.raises(ValueError):
        f(1)
    for masks in ((1, 4), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            f(*masks)
    g = DisjointPairFunction(2, 1, lambda pr: 0)
    with pytest.raises(ValueError, match="out of range"):
        g((4, 0))
    with pytest.raises(ValueError, match="disjoint"):
        g((1, 1))


def test_modularity_product_of_cardinalities():
    g = SetTupleFunction(3, 2, lambda a, b: popcount(a) * popcount(b))
    assert modularity_check(g, 0)
    assert modularity_check(g, 1)


def test_cut_function_not_modular_but_submodular():
    f = path3().cut_function()
    assert not modularity_check(f, 0)
    assert submodularity_check(f, 0)


def test_edge_count_modular_both_components():
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        g = WeightedGraph.erdos_renyi(n, 0.6, rng)
        f = g.ordered_edge_count()
        assert modularity_check(f, 0)
        assert modularity_check(f, 1)


def test_cardinality_squared_not_submodular():
    f = SetTupleFunction(2, 1, lambda m: popcount(m) ** 2)
    assert not submodularity_check(f, 0)
    assert supermodularity_check(f, 0)


def test_modular_implies_submodular():
    rng = np.random.default_rng(1)
    for _ in range(20):
        # random modular function: sum of per-element values plus a constant
        vals = [Fraction(int(v)) for v in rng.integers(-5, 6, size=4)]
        c = Fraction(int(rng.integers(-3, 4)))
        f = SetTupleFunction(4, 1, lambda m: c + sum(vals[i] for i in range(4) if (m >> i) & 1))
        assert modularity_check(f, 0)
        assert submodularity_check(f, 0)
        assert supermodularity_check(f, 0)


def test_product_function_component_modularity():
    # f(A,B) = f1(A) f2(B): modularity in component i is modularity of f_i
    f1 = lambda m: popcount(m)                      # modular
    f2 = lambda m: popcount(m) ** 2                 # not modular (n >= 2)
    f = SetTupleFunction(3, 2, lambda a, b: f1(a) * f2(b))
    assert modularity_check(f, 0)
    assert not modularity_check(f, 1)


def _slices(f, component):
    """Each A |-> f(..., A, ...) as a value list, one per fixing of the
    other components."""
    top = 1 << f.n
    for others in product(range(top), repeat=f.k - 1):
        yield [f(*(list(others[:component]) + [m] + list(others[component:])))
               for m in range(top)]


def _pairs(top):
    return ((a, b) for a in range(top) for b in range(a + 1, top))


# the three checks as separate loops, with their former tol = 0 comparisons
def ref_modular(f, component, tol=0):
    for vals in _slices(f, component):
        for a, b in _pairs(1 << f.n):
            if abs(vals[a | b] + vals[a & b] - (vals[a] + vals[b])) > tol:
                return False
    return True


def ref_submodular(f, component, tol=0):
    for vals in _slices(f, component):
        for a, b in _pairs(1 << f.n):
            if vals[a | b] + vals[a & b] > vals[a] + vals[b] + tol:
                return False
    return True


def ref_supermodular(f, component, tol=0):
    for vals in _slices(f, component):
        for a, b in _pairs(1 << f.n):
            if vals[a | b] + vals[a & b] < vals[a] + vals[b] - tol:
                return False
    return True


def test_lattice_checks_match_separate_loops():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    kinds = {"int": int, "fraction": lambda v: Fraction(v, 3), "float": lambda v: v / 10}

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(sorted(kinds)), st.integers(1, 2), st.integers(1, 3),
               st.booleans(), st.data())
    def check(kind, k, n, modular, data):
        size = 1 << (n * k)
        if modular:     # modular in every component, with at most one entry moved
            w = data.draw(st.lists(st.integers(-3, 3), min_size=n * k + 1, max_size=n * k + 1))
            raw = [w[-1] + sum(w[i] for i in range(n * k) if (idx >> i) & 1)
                   for idx in range(size)]
            raw[data.draw(st.integers(0, size - 1))] += data.draw(st.integers(-1, 1))
        else:
            raw = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        f = SetTupleFunction(n, k, [kinds[kind](v) for v in raw])
        for c in range(k):
            assert modularity_check(f, c) == ref_modular(f, c), (raw, c)
            assert submodularity_check(f, c) == ref_submodular(f, c), (raw, c)
            assert supermodularity_check(f, c) == ref_supermodular(f, c), (raw, c)

    check()


def test_enumerate_chains_small():
    assert set(enumerate_chains(1, 2)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(list(enumerate_chains(2, 1))) == 4
    assert len(list(enumerate_chains(2, 2))) == 14


def test_enumerate_chains_matches_bruteforce():
    for n, k in [(2, 3), (3, 2)]:
        got = set(enumerate_chains(n, k))
        expect = {t for t in product(range(1 << n), repeat=k) if is_chain_tuple(t)}
        assert got == expect


def test_chains_closed_under_permutation():
    chains = set(enumerate_chains(2, 3))
    for t in chains:
        assert (t[2], t[0], t[1]) in chains


def test_chain_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_chains(13, 2))


def test_dense_table_roundtrip():
    vals = {(a, b): a * 7 + b for a in range(4) for b in range(4)}
    f = SetTupleFunction(2, 2, vals)
    for (a, b), v in vals.items():
        assert f(a, b) == v
