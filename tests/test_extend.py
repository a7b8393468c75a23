"""Extension operators: exactness, indicator consistency, homogeneity,
tie independence, and the closed forms the extensions must reproduce."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from homext.extend import (MULTILINEAR_PROBE_CAP, _block_terms,
                           _signed_block_terms, absolutely_comonotone_check,
                           comonotone_check, diagonal, disjoint_pair_lovasz,
                           lovasz, multilinear, multiple_integral,
                           upper_level_tuples)
from homext.setfn import (CapExceeded, DisjointPairFunction, SetTupleFunction,
                          enumerate_chains, full_mask, mask_of, popcount,
                          submasks)
from homext.structures import WeightedGraph

import reference_extend


def rand_fraction(rng, lo=-4, hi=5):
    return Fraction(int(rng.integers(lo, hi)), int(rng.integers(1, 4)))


def rand_table(rng, n, k, zero_on_empty=True):
    vals = {}
    for masks in product(range(1 << n), repeat=k):
        if zero_on_empty and any(m == 0 for m in masks):
            vals[masks] = Fraction(0)
        else:
            vals[masks] = rand_fraction(rng)
    return SetTupleFunction(n, k, vals)


def indicator(mask, n):
    return [Fraction(1) if (mask >> i) & 1 else Fraction(0) for i in range(n)]


def signed_level_sets(x):
    """The signed level-set pairs of one block over thresholds t >= 0: the
    first term of _signed_block_terms is t = 0, and (0, 0) is t = max |x_j|."""
    return {(0, 0)} | {(p, m) for _, p, m in _signed_block_terms(x)}


def nonempty_level_tuples(xs):
    return {t for t in upper_level_tuples(xs) if all(t)}


# -- Lovasz extension --------------------------------------------------------

def test_lovasz_cut_path_matches_total_variation():
    g = WeightedGraph.path(3)
    f = g.cut_function()
    x = [Fraction(1, 2), Fraction(1), Fraction(0)]
    val = lovasz(f, x)
    tv = sum(Fraction(abs(x[i] - x[j])) for i, j, _ in g.edges())
    assert val == tv == Fraction(3, 2)


def test_lovasz_indicator_consistency():
    rng = np.random.default_rng(2)
    f = rand_table(rng, 4, 1, zero_on_empty=False)
    for mask in range(1, 1 << 4):
        assert lovasz(f, indicator(mask, 4)) == f(mask)
    assert lovasz(f, indicator(0, 4)) == 0  # zero weights never read the table


def test_lovasz_constant_direction():
    rng = np.random.default_rng(3)
    f = rand_table(rng, 3, 1)
    t = Fraction(5, 3)
    assert lovasz(f, [t, t, t]) == t * f(full_mask(3))


def test_lovasz_tie_independence():
    f = SetTupleFunction(4, 1, lambda m: popcount(m) ** 2)
    x = [2.0, 1.0, 2.0, 1.0]
    perms = [[0, 1, 2, 3], [2, 1, 0, 3], [0, 3, 2, 1]]
    vals = set()
    for p in perms:
        y = [x[p[i]] for i in range(4)]
        vals.add(lovasz(f, y))
    assert len(vals) == 1


# -- multilinear / diagonal --------------------------------------------------

def test_multilinear_cardinality_product():
    g = SetTupleFunction(2, 2, lambda a, b: Fraction(popcount(a) * popcount(b)))
    x = [Fraction(1), Fraction(2)]
    y = [Fraction(3), Fraction(0)]
    assert multilinear(g, [x, y]) == (1 + 2) * (3 + 0)


def test_multilinear_intersection_count():
    f = SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a & b)))
    x = [Fraction(1), Fraction(1), Fraction(0)]
    assert multilinear(f, [x, x]) == 2


def test_multilinear_indicator_consistency_exact():
    rng = np.random.default_rng(4)
    for n, k in [(3, 2), (2, 3)]:
        f = rand_table(rng, n, k)
        for masks in product(range(1 << n), repeat=k):
            xs = [indicator(m, n) for m in masks]
            assert multilinear(f, xs) == f(*masks)


def test_multilinear_block_homogeneity():
    rng = np.random.default_rng(5)
    f = rand_table(rng, 3, 2)
    xs = [[rand_fraction(rng, 0, 5) for _ in range(3)] for _ in range(2)]
    base = multilinear(f, xs)
    t = Fraction(7, 2)
    assert multilinear(f, [[t * v for v in xs[0]], xs[1]]) == t * base
    assert multilinear(f, [[t * v for v in xs[0]], [t * v for v in xs[1]]]) == t * t * base


def test_multilinear_restriction_is_lovasz():
    # fixing all blocks but one reduces to the Lovasz extension of the slice
    rng = np.random.default_rng(6)
    f = rand_table(rng, 3, 2)
    y = [rand_fraction(rng, 0, 5) for _ in range(3)]
    slice_f = SetTupleFunction(3, 1, lambda a: multilinear(f, [indicator(a, 3), y]))
    x = [rand_fraction(rng, 0, 5) for _ in range(3)]
    assert lovasz(slice_f, x) == multilinear(f, [x, y])


def test_modular_multilinearity_second_differences():
    # modular f on each component <=> multilinear extension linear per block
    rng = np.random.default_rng(7)
    g = SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a) * popcount(b)))
    for _ in range(10):
        x = [rand_fraction(rng) for _ in range(3)]
        y = [rand_fraction(rng) for _ in range(3)]
        d = [rand_fraction(rng) for _ in range(3)]
        plus = multilinear(g, [[xi + di for xi, di in zip(x, d)], y])
        minus = multilinear(g, [[xi - di for xi, di in zip(x, d)], y])
        mid = multilinear(g, [x, y])
        assert plus + minus == 2 * mid


def test_separable_product_factorizes():
    rng = np.random.default_rng(8)
    f1 = rand_table(rng, 3, 1)
    f2 = rand_table(rng, 3, 1)
    f = SetTupleFunction(3, 2, lambda a, b: f1(a) * f2(b))
    for _ in range(10):
        x = [rand_fraction(rng, 0, 6) for _ in range(3)]
        y = [rand_fraction(rng, 0, 6) for _ in range(3)]
        assert multilinear(f, [x, y]) == lovasz(f1, x) * lovasz(f2, y)


def test_diagonal_hyperedge_ordered_count():
    # one 3-uniform hyperedge {0,1,2}: diagonal extension at all-ones is 3!
    def f(*masks):
        total = 0
        for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            if all((masks[l] >> p[l]) & 1 for l in range(3)):
                total += 1
        return Fraction(total)
    F = SetTupleFunction(3, 3, f)
    assert diagonal(F, [Fraction(1)] * 3) == 6
    x = [Fraction(1), Fraction(2), Fraction(3)]
    assert diagonal(F, x) == 6 * 1 * 2 * 3


def test_diagonal_indicator():
    rng = np.random.default_rng(9)
    f = rand_table(rng, 3, 2)
    for mask in range(1, 8):
        assert diagonal(f, indicator(mask, 3)) == f(mask, mask)


def threshold_level_terms(x):
    """Reference level sets by their definition: weight x_(i) - x_(i-1)
    (x_(-1) = 0) with mask {j: x_j > x_(i-1)}, all of V for i = 0; zero
    weights kept."""
    n = len(x)
    xs = sorted(x)
    terms = []
    prev = 0
    for i, v in enumerate(xs):
        mask = full_mask(n) if i == 0 else mask_of(j for j in range(n) if x[j] > xs[i - 1])
        terms.append((v - prev, mask))
        prev = v
    return terms


def level_weight_sum(f, xs):
    """Reference extension: sum over all level-set combinations."""
    total = 0
    for combo in product(*[threshold_level_terms(x) for x in xs]):
        w = 1
        for wi, _ in combo:
            w = w * wi
        total += w * f(*(m for _, m in combo))
    return total


def test_multilinear_memo_keeps_coordinate_types():
    # 1, 1.0 and Fraction(1) are equal dict keys; memoized block terms must
    # still give exact results for int/Fraction and floats for floats
    rng = np.random.default_rng(10)
    dense = rand_table(rng, 3, 2)
    callback = SetTupleFunction(3, 2, lambda a, b: dense(a, b))
    cases = [[[2, 0, 1], [1, 1, 3]],       # several ordering cells, with ties
             [[1, 1, 1], [1, 1, 1]],       # one cell of unit weight
             [[0, 1, 1], [1, 0, 1]]]       # indicators
    kinds = [int, Fraction, float]
    for order in (kinds, kinds[::-1]):
        for f in (dense, callback):
            for xs in cases:
                for kind in order:
                    typed = [[kind(v) for v in x] for x in xs]
                    got = multilinear(f, typed)
                    assert got == level_weight_sum(f, typed), (kind, xs)
                    if kind is float:
                        assert type(got) is float, (xs, got)
                    else:
                        assert isinstance(got, (int, Fraction)), (kind, xs, got)


def test_zero_block_keeps_the_coordinate_type():
    # a zero block makes the extension vanish: 0.0 for float coordinates,
    # the exact 0 for int and Fraction ones
    rng = np.random.default_rng(11)
    exact = rand_table(rng, 2, 2)
    floats = SetTupleFunction(2, 2, [float(exact(a, b)) for a in range(4) for b in range(4)])
    lov = SetTupleFunction(2, 1, [0.0, 0.5, -1.5, 2.0])
    for kind, zero_type in ((float, float), (int, int), (Fraction, int)):
        zero = [kind(0), kind(0)]
        for other in ([kind(3), kind(2)],            # two cells: the product path
                      [kind(1), kind(1)]):           # one cell
            for f in (exact, floats):
                for xs in ([zero, other], [other, zero]):
                    got = multilinear(f, xs)
                    assert got == 0 and type(got) is zero_type, (kind, xs, got)
        got = lovasz(lov, zero)
        assert got == 0 and type(got) is zero_type, (kind, got)


def test_multilinear_probe_cap_before_evaluation():
    calls = []

    def fn(*masks):
        calls.append(masks)
        return 0

    n = 101
    f = SetTupleFunction(n, 3, fn)
    x = list(range(1, n + 1))             # n distinct levels per block
    assert n ** 3 > MULTILINEAR_PROBE_CAP
    with pytest.raises(CapExceeded):
        multilinear(f, [x, x, x])
    assert calls == []


# -- multiple integral -------------------------------------------------------

def test_disjoint_pair_support_size_is_l1():
    f = DisjointPairFunction(2, 1, lambda pr: Fraction(popcount(pr[0] | pr[1])))
    assert disjoint_pair_lovasz(f, [Fraction(1), Fraction(-2)]) == 3


def test_disjoint_pair_indicator_of_nonempty_is_linf():
    f = DisjointPairFunction(2, 1, lambda pr: Fraction(1) if (pr[0] | pr[1]) else Fraction(0))
    assert disjoint_pair_lovasz(f, [Fraction(1), Fraction(-2)]) == 2


def test_disjoint_pair_indicator_consistency():
    rng = np.random.default_rng(10)
    n = 3
    table = {}
    for p in range(1 << n):
        for m in submasks(full_mask(n) & ~p):
            table[(p, m)] = rand_fraction(rng) if (p | m) else Fraction(0)
    f = DisjointPairFunction(n, 1, lambda pr: table[pr])
    for p in range(1 << n):
        for m in submasks(full_mask(n) & ~p):
            x = [Fraction((p >> i) & 1) - Fraction((m >> i) & 1) for i in range(n)]
            assert disjoint_pair_lovasz(f, x) == table[(p, m)]


def test_multiple_integral_product_of_l1():
    f = DisjointPairFunction(2, 2, lambda a, b: Fraction(popcount(a[0] | a[1]) * popcount(b[0] | b[1])))
    x = [Fraction(1), Fraction(-2)]
    y = [Fraction(-3), Fraction(1)]
    assert multiple_integral(f, [x, y]) == 3 * 4


def abs_block_terms(x):
    """Reference signed terms by their definition: (cell width, {j: x_j > lo},
    {j: -x_j > lo}) over the cells [lo, hi) of the breakpoints {0} | {|x_j|}."""
    n = len(x)
    breaks = sorted({abs(v) for v in x} | {0})
    terms = []
    for lo, hi in zip(breaks, breaks[1:]):
        w = hi - lo
        if w == 0:
            continue
        plus = mask_of(j for j in range(n) if x[j] > lo)
        minus = mask_of(j for j in range(n) if -x[j] > lo)
        terms.append((w, plus, minus))
    return terms


def mixed_level_terms(x):
    """Level terms of an int and float block by definition: the levels are
    the runs of equal coordinates in sorted order, a level's weight is its
    value minus the one below (0 below the first) and is a float when
    either level holds a float; zero weights dropped."""
    levels = []
    for v in sorted(x):
        if levels and v == levels[-1][0]:
            levels[-1].append(v)
        else:
            levels.append([v])
    n = len(x)
    terms, below = [], [0]
    for level in levels:
        w = level[0] - below[0]
        if any(type(v) is float for v in level + below):
            w = float(w)
        if w != 0:
            terms.append((w, mask_of(j for j in range(n) if x[j] >= level[0])))
        below = level
    return terms


def _exact(terms):
    # repr tells 1 from 1.0 from Fraction(1, 1), and 0.0 from -0.0
    return [tuple((type(v), repr(v)) for v in t) for t in terms]


def test_level_kernel_matches_threshold_definitions():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    kinds = {
        "int": st.integers(-3, 3),
        "fraction": st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
        "float": st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -1.5]),
                           st.floats(-4.0, 4.0, allow_nan=False)),
        "mixed": st.sampled_from([-1, 0, 1, 2, -1.0, -0.0, 0.0, 1.0, 2.0, 0.5]),
    }


    def same(a, b, kind):
        # mixed blocks by value: their weights' types are mixed_level_terms'
        if kind == "mixed":
            return [tuple(map(float, t)) for t in a] == [tuple(map(float, t)) for t in b]
        return _exact(a) == _exact(b)

    # a tie's order does not change a weight's type
    assert _exact(_block_terms([1.0, 1, 2])) == _exact(_block_terms([1, 1.0, 2])) \
        == _exact([(1.0, 7), (1.0, 4)])
    @hyp.settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(sorted(kinds)), st.integers(1, 6), st.integers(1, 2),
               st.data())
    def check(kind, n, k, data):
        xs = [data.draw(st.lists(kinds[kind], min_size=n, max_size=n)) for _ in range(k)]
        for x in xs:
            want = [(w, m) for w, m in threshold_level_terms(x) if w != 0]
            assert same(_block_terms(x), want, kind), x
            assert same(_signed_block_terms(x), abs_block_terms(x), kind), x
            if kind == "mixed":
                assert _exact(_block_terms(x)) == _exact(mixed_level_terms(x)), x
        upper, signed = [], []
        for x in xs:
            upper.append({mask_of(j for j in range(n) if x[j] > t) for t in x} | {full_mask(n)})
            signed.append({(mask_of(j for j in range(n) if x[j] > t),
                            mask_of(j for j in range(n) if -x[j] > t))
                           for t in {0} | {abs(v) for v in x}})
        assert upper_level_tuples(xs) == set(product(*upper)), xs
        assert [signed_level_sets(x) for x in xs] == signed, xs
        f = DisjointPairFunction(n, k, lambda *prs: sum(3 * p - 5 * m for p, m in prs) % 7 - 3)
        want = 0
        for combo in product(*[abs_block_terms(x) for x in xs]):
            w = 1
            for wi, _, _ in combo:
                w = w * wi
            if w != 0:
                want += w * f(*((p, m) for _, p, m in combo))
        assert same([(multiple_integral(f, xs),)], [(want,)], kind), xs

    check()


def test_multiple_integral_first_quadrant_agrees_with_multilinear():
    rng = np.random.default_rng(11)
    h = rand_table(rng, 3, 2)
    f = DisjointPairFunction(3, 2, lambda a, b: h(a[0], b[0]))
    for _ in range(8):
        xs = [[rand_fraction(rng, 0, 5) for _ in range(3)] for _ in range(2)]
        assert multiple_integral(f, xs) == multilinear(h, xs)


# -- comonotonicity and perfect pairs ---------------------------------------

def test_comonotone_simple():
    assert comonotone_check([[1, 2], [0, 5]])
    assert not comonotone_check([[1, 2], [5, 0]])


def test_comonotone_indicators_iff_nested():
    for a in range(1 << 4):
        for b in range(1 << 4):
            xs = [indicator(a, 4), indicator(b, 4)]
            nested = (a & b) in (a, b)
            assert comonotone_check(xs) == nested


def test_absolutely_comonotone_matches_signed_chain_property():
    # pointwise characterization vs the level-set chain definition
    vals = [-2, -1, 0, 1, 2]
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = [int(rng.choice(vals)) for _ in range(3)]
        y = [int(rng.choice(vals)) for _ in range(3)]
        got = absolutely_comonotone_check([x, y])
        flat = signed_level_sets(x) | signed_level_sets(y)
        chain = True
        for (p1, m1) in flat:
            for (p2, m2) in flat:
                le = (p1 & p2) == p1 and (m1 & m2) == m1
                ge = (p1 & p2) == p2 and (m1 & m2) == m2
                if not (le or ge):
                    chain = False
        assert got == chain, (x, y)


def test_comonotone_checks_match_their_pairwise_definitions():
    # the level-set chain tests against the pairwise definitions, k = 1..3,
    # on ints, Fractions and floats with ties and signed zeros
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pools = [[0, 1, 2, -1, -2], [Fraction(1, 2), Fraction(0), Fraction(-1, 3), 1],
             [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.0], [0, 0.0, -0.0, 1, 1.0, Fraction(1), -1]]

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(pools), st.integers(1, 3), st.integers(1, 5), st.data())
    def check(pool, k, n, data):
        xs = [data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
              for _ in range(k)]
        pairs = [(x, y) for a, x in enumerate(xs) for y in xs[a + 1:]]
        ij = list(product(range(n), repeat=2))
        como = all((x[i] - x[j]) * (y[i] - y[j]) >= 0 for x, y in pairs for i, j in ij)
        absco = all(x[i] * y[i] >= 0 and (abs(x[i]) - abs(x[j])) * (abs(y[i]) - abs(y[j])) >= 0
                    for x, y in pairs for i, j in ij)
        assert comonotone_check(xs) == como, xs
        assert absolutely_comonotone_check(xs) == absco, xs

    check()
    for f in (comonotone_check, absolutely_comonotone_check):
        with pytest.raises(ValueError, match="equal length"):
            f([[1, 2], [1]])


def test_perfect_pair_chain_family():
    x = [2, 1, 0]
    y = [4, 1, 0]
    assert nonempty_level_tuples([x, y]) <= nonempty_chains(3, 2)
    assert not nonempty_level_tuples([[1, 2, 0], [0, 1, 2]]) <= nonempty_chains(3, 2)


def test_perfect_pair_full_family_any_positive():
    n = 3
    fam = {(a, b) for a in range(1, 8) for b in range(1, 8)}
    rng = np.random.default_rng(13)
    for _ in range(10):
        xs = [list(rng.uniform(0.1, 1, n)) for _ in range(2)]
        assert nonempty_level_tuples(xs) <= fam


def nonempty_chains(n, k):
    return {t for t in enumerate_chains(n, k) if all(t)}


def test_perfect_pair_chain_vs_custom_consistency():
    # nonnegative blocks are comonotone iff their level sets form chains
    fam = nonempty_chains(3, 2)
    rng = np.random.default_rng(14)
    for _ in range(50):
        xs = [list(rng.integers(0, 4, 3)) for _ in range(2)]
        assert comonotone_check(xs) == (nonempty_level_tuples(xs) <= fam)


def test_induced_family_idempotent_on_chain_samples():
    rng = np.random.default_rng(15)
    samples = []
    for _ in range(60):
        base = sorted(rng.uniform(0, 1, 3))
        perm = rng.permutation(3)
        x = [base[perm[i]] for i in range(3)]
        t = rng.uniform(0.5, 2.0)
        samples.append([x, [t * v for v in x]])
    fam = set().union(*map(nonempty_level_tuples, samples))
    assert fam <= nonempty_chains(3, 2)
    again = set().union(*(nonempty_level_tuples(s) for s in samples
                          if nonempty_level_tuples(s) <= fam))
    assert again == fam


def test_level_decomposition_nested():
    masks = [m for _, m in _block_terms([3, 1, 2])]
    assert masks[0] == full_mask(3)
    for a, b in zip(masks, masks[1:]):
        assert a & b == b


# -- the block-by-block kernel against the per-cell reference ----------------

def test_kernel_matches_per_cell_reference():
    # dense tables and callbacks, int/Fraction/float blocks with ties, +-0.0
    # and weights whose products underflow to zero; the callbacks are spies
    # that check their masks and log every call, so the kernel must also
    # call them in the reference's order
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    coords = {
        "int": st.integers(-3, 3),
        "fraction": st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
        "float": st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, 1e-200, -1e-200]),
                           st.floats(-4.0, 4.0, allow_nan=False)),
    }
    pools = {
        "int": list(range(-3, 4)),
        "fraction": [Fraction(v, 3) for v in range(-6, 7)],
        "float": [0.0, -0.0, 0.5, -1.25, 2.0, 1e-200, 3.7, -0.1],
    }
    pools["mixed"] = pools["int"] + pools["fraction"] + pools["float"]

    def exact(v):
        return type(v), repr(v)

    @hyp.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hyp.given(st.sampled_from(sorted(coords)), st.sampled_from(sorted(pools)),
               st.integers(1, 5), st.integers(1, 3), st.integers(0, 2 ** 32 - 1), st.data())
    def check(kind, pool, n, k, seed, data):
        xs = [data.draw(st.lists(coords[kind], min_size=n, max_size=n)) for _ in range(k)]
        rng = np.random.default_rng(seed)
        vals = [pools[pool][i] for i in rng.integers(0, len(pools[pool]), 1 << (n * k))]
        log = []

        def spy(*masks):
            assert len(masks) == k and all(0 <= m < 1 << n for m in masks), masks
            log.append(masks)
            idx = 0
            for m in masks:
                idx = (idx << n) | m
            return vals[idx]

        def pair_spy(*prs):
            assert len(prs) == k, prs
            for p, m in prs:
                assert 0 <= p < 1 << n and 0 <= m < 1 << n and not p & m, prs
            log.append(prs)
            return vals[sum((3 * p + 5 * m) << i for i, (p, m) in enumerate(prs)) % len(vals)]

        dense, callback = SetTupleFunction(n, k, vals), SetTupleFunction(n, k, spy)
        pairs = DisjointPairFunction(n, k, pair_spy)
        runs = [(multilinear, reference_extend.multilinear, dense),
                (multilinear, reference_extend.multilinear, callback),
                (multiple_integral, reference_extend.multiple_integral, pairs)]
        if k == 1:
            runs += [(lovasz, reference_extend.lovasz, dense),
                     (lovasz, reference_extend.lovasz, callback)]
        for new, ref, f in runs:
            arg = xs[0] if new is lovasz else xs
            want = ref(f, arg)
            ref_log = log[:]
            log.clear()
            assert exact(new(f, arg)) == exact(want), (new.__name__, xs)
            assert log == ref_log, (new.__name__, xs)
            log.clear()

    check()
