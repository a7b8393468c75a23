"""LP kernel against a brute-force vertex-enumeration oracle, a reference
row-loop pivot and, where installed, scipy's HiGHS."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from homext.simplex import (PIVOT_TOL, LPResult, _pivot, _solve_standard_once,
                            l1_residual_lp, linprog, solve_standard)


def vertex_oracle(c, A_ub, b_ub):
    """min c.x over {x >= 0, A_ub x <= b_ub} by enumerating basic points."""
    c = np.asarray(c, float)
    A = np.vstack([np.asarray(A_ub, float), -np.eye(c.size)])
    b = np.concatenate([np.asarray(b_ub, float), np.zeros(c.size)])
    n = c.size
    best = None
    for rows in combinations(range(A.shape[0]), n):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, b[list(rows)])
        if np.all(A @ x <= b + 1e-9):
            v = c @ x
            if best is None or v < best:
                best = v
    return best


def test_against_vertex_oracle_random():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n, m = 3, 5
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)     # origin feasible
        c = rng.normal(size=n)
        res = linprog(c, A_ub=A, b_ub=b)
        oracle = vertex_oracle(c, A, b)
        if oracle is None:
            assert res.status != "optimal" or res.objective < -1e8
        elif np.isfinite(oracle):
            # unbounded detection: oracle over vertices only matches when bounded
            if res.status == "optimal":
                assert res.objective <= oracle + 1e-7
                assert np.all(A @ res.x <= b + 1e-7) and np.all(res.x >= -1e-9)


def test_standard_form_small():
    # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x1 + 3 x2 + t = 6
    A = np.array([[1, 1, 1, 0], [1, 3, 0, 1]], float)
    b = np.array([4, 6], float)
    c = np.array([-1, -2, 0, 0], float)
    res = solve_standard(c, A, b)
    assert res.status == "optimal"
    assert np.isclose(res.objective, -5.0)   # x = (3, 1)


def test_infeasible():
    res = linprog([1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -3.0])
    assert res.status == "infeasible"
    # the certificate is on the standard form linprog builds: x and two slacks
    _assert_certificate(res, [[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]], [1.0, -3.0])


def test_unbounded():
    res = linprog([-1.0], A_ub=[[-1.0]], b_ub=[0.0])
    assert res.status == "unbounded"


def test_linprog_without_constraint_rows():
    res = linprog([1.0])
    assert res.status == "optimal" and res.x.tolist() == [0.0] and res.objective == 0.0
    assert linprog([-1.0]).status == "unbounded"
    res = solve_standard(np.array([2.0, 1.0]), np.zeros((0, 2)), np.zeros(0))
    assert res.status == "optimal" and res.x.tolist() == [0.0, 0.0]


def test_free_and_box_bounds():
    # min x + y with x free in [-2, 5], y in [1, 3], x + y >= 0
    res = linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[0.0],
                  bounds=[(-2.0, 5.0), (1.0, 3.0)])
    assert res.status == "optimal"
    assert np.isclose(res.objective, 0.0)
    assert np.isclose(res.x[0] + res.x[1], 0.0)


def test_equality_rows():
    # probability vector maximizing first coordinate
    res = linprog([-1.0, 0.0, 0.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
    assert res.status == "optimal"
    assert np.isclose(res.x[0], 1.0)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    c = np.array([-0.75, 150, -0.02, 6, 0, 0, 0], float)
    A = np.array([
        [0.25, -60, -0.04, 9, 1, 0, 0],
        [0.5, -90, -0.02, 3, 0, 1, 0],
        [0.0, 0, 1.0, 0, 0, 0, 1],
    ], float)
    b = np.array([0, 0, 1], float)
    res = solve_standard(c, A, b)
    assert res.status == "optimal"
    assert np.isclose(res.objective, -0.05)


# -- pivot, certificates and an outside oracle --------------------------------

def _pivot_row_loop(T, basis, row, col):
    """The per-row pivot that the vectorized _pivot replaced."""
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * piv
    basis[row] = col


def test_pivot_bitwise_equal_to_row_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = int(rng.integers(1, 9)), int(rng.integers(2, 14))
        T = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 7, size=(m, n))
        T[rng.random((m, n)) < 0.3] = 0.0          # skipped rows
        row, col = int(rng.integers(m)), int(rng.integers(n))
        if T[row, col] == 0.0:
            T[row, col] = rng.uniform(0.5, 2.0)
        want, got = T.copy(), T.copy()
        bw, bg = list(range(m)), list(range(m))
        _pivot_row_loop(want, bw, row, col)
        _pivot(got, bg, row, col)
        assert want.tobytes() == got.tobytes() and bw == bg


def _assert_certificate(res, A, b):
    """The Farkas inequalities of a certified "infeasible" on A, b."""
    y = res.certificate
    A, b = np.asarray(A, float), np.asarray(b, float)
    atol = max(1.0, np.abs(b).max())
    assert np.all(y @ A <= PIVOT_TOL * np.abs(y).max())
    assert y @ b > np.abs(y).sum() * 1e-7 * atol


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def test_standard_form_agrees_with_highs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    optimize = pytest.importorskip("scipy.optimize")

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 4), st.integers(1, 5), st.data())
    def check(m, n, data):
        ints = st.integers(-4, 4)
        A = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                        min_size=m, max_size=m)), float)
        b = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), float)
        c = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), float)
        res = solve_standard(c, A, b)
        ref = optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert res.status == HIGHS_STATUS[ref.status], (A, b, c, ref.message)
        if res.status == "optimal":
            assert np.isclose(res.objective, ref.fun, rtol=1e-7, atol=1e-7)
            assert np.all(res.x >= -1e-9) and np.allclose(A @ res.x, b, atol=1e-7)
        if res.status == "infeasible":
            _assert_certificate(res, A, b)

    check()


def test_inequality_form_agrees_with_highs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    optimize = pytest.importorskip("scipy.optimize")

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.data())
    def check(m, n, with_eq, data):
        ints = st.integers(-5, 5)
        A = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                        min_size=m, max_size=m)), float)
        b = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), float)
        c = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), float)
        bounds = data.draw(st.lists(st.sampled_from([(0.0, 3.0), (-2.0, 2.0), (None, 1.0)]),
                                    min_size=n, max_size=n))
        A_eq, b_eq = (np.ones((1, n)), [1.0]) if with_eq else (None, None)
        res = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
        ref = optimize.linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                               bounds=bounds, method="highs")
        assert res.status == HIGHS_STATUS[ref.status], (A, b, c, bounds, ref.message)
        if res.status == "optimal":
            assert np.isclose(res.objective, ref.fun, rtol=1e-7, atol=1e-7)
            assert np.all(A @ res.x <= b + 1e-7)

    check()


def test_duals_agree_with_highs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    optimize = pytest.importorskip("scipy.optimize")
    checked = []

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(0, 5), st.integers(1, 4), st.booleans(), st.data())
    def check(m, n, with_eq, data):
        ints = st.integers(-5, 5)
        A = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                        min_size=m, max_size=m)), float).reshape(m, n)
        b = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), float)
        c = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), float)
        bounds = data.draw(st.lists(st.sampled_from([(0.0, None), (None, None), (0.0, 3.0)]),
                                    min_size=n, max_size=n))
        free = np.array([lo is None for lo, _ in bounds])
        capped = np.array([hi is not None for _, hi in bounds])
        A_eq, b_eq = (np.ones((1, n)), np.array([1.0])) if with_eq else (np.zeros((0, n)), np.zeros(0))
        args = dict(A_ub=A if m else None, b_ub=b if m else None,
                    A_eq=A_eq if with_eq else None, b_eq=b_eq if with_eq else None, bounds=bounds)
        res = linprog(c, **args)
        if res.status != "optimal":
            return
        # the rows of A_ub then A_eq, not the bound rows; HiGHS's signs
        y, rows, rhs = res.duals, np.vstack([A, A_eq]), np.concatenate([b, b_eq])
        assert y.shape == (rows.shape[0],) and np.all(y[:m] <= 1e-9)
        # dual feasibility and strong duality, the caps' duals being the
        # negative parts of their reduced costs
        reduced = c - y @ rows
        assert np.all(reduced[~free & ~capped] >= -1e-9)
        assert np.allclose(reduced[free], 0.0, atol=1e-9)
        assert np.isclose(y @ rhs + 3.0 * np.minimum(reduced[capped], 0.0).sum(),
                          res.objective, rtol=1e-9, atol=1e-9)
        ref = optimize.linprog(c, method="highs", **args)
        assert ref.status == 0
        marginals = np.concatenate([ref.ineqlin.marginals if m else [],
                                    ref.eqlin.marginals if with_eq else []])
        # a nondegenerate optimum has one dual: HiGHS's marginals
        positive = ((np.abs(ref.x) > 1e-9).sum() + (b - A @ ref.x > 1e-9).sum()
                    + (3.0 - ref.x[capped] > 1e-9).sum())
        if positive == rows.shape[0] + capped.sum():
            assert np.allclose(y, marginals, atol=1e-7), (A, b, c, bounds, y, marginals)
            checked.append(1)

    check()
    assert len(checked) >= 50


def _saddle_lps():
    """Every standard-form LP of the bisections of the path P3 instance,
    with solve_standard's verdict and the equilibrated data of its first
    pass.  The bisection is the test-side reference: the engine solves
    optimization LPs, none of them infeasible."""
    from homext import simplex
    from homext.setfn import SetTupleFunction, popcount
    from homext.structures import WeightedGraph
    from reference_minimax import ReferenceMinimax

    f = WeightedGraph.path(3).ordered_edge_count()
    g = SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a & b)))
    fv = [[float(f(a, b)) for b in range(8)] for a in range(8)]
    gv = [[float(g(a, b)) for b in range(8)] for a in range(8)]
    once, solve = simplex._solve_standard_once, simplex.solve_standard
    passes, lps = [], []

    def record_once(c, A, b, bland):
        passes.append((c, A, b))
        return once(c, A, b, bland)

    def record_solve(c, A, b):
        passes.clear()
        res = solve(c, A, b)
        lps.append((np.array(A, float), np.array(b, float), res, len(passes), passes[0]))
        return res

    simplex._solve_standard_once = record_once
    simplex.solve_standard = record_solve
    try:
        ref = ReferenceMinimax(fv, gv, 3, 3)
        ref.infsup(), ref.supinf()
    finally:
        simplex._solve_standard_once = once
        simplex.solve_standard = solve
    return lps


def test_saddle_certified_infeasible_matches_bland_rerun():
    lps = _saddle_lps()
    certified = [lp for lp in lps if lp[2].status == "infeasible"]
    assert certified and len(certified) < len(lps)
    for A, b, res, n_passes, (c, As, bs) in certified:
        assert n_passes == 1                         # no Bland rerun
        _assert_certificate(res, A, b)
        assert _solve_standard_once(c, As, bs, bland=True).status == "infeasible"


def linprog_expand_row(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """The former linprog: the standard form built one row at a time."""
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if bounds is None:
        bounds = [(0.0, None)] * n
    cols = []
    std_cols = 0
    extra_ub_rows = []
    shift = np.zeros(n)
    for j, (lo, hi) in enumerate(bounds):
        if lo is None:
            cols.append(("free", std_cols, std_cols + 1))
            std_cols += 2
            if hi is not None:
                extra_ub_rows.append((j, hi))
        else:
            cols.append(("shift", lo, std_cols))
            std_cols += 1
            shift[j] = lo
            if hi is not None:
                extra_ub_rows.append((j, hi))

    def expand_row(row):
        out = np.zeros(std_cols)
        for j, spec in enumerate(cols):
            if spec[0] == "shift":
                out[spec[2]] = row[j]
            else:
                out[spec[1]] = row[j]
                out[spec[2]] = -row[j]
        return out

    rows, rhs, n_slack = [], [], 0
    for i in range(A_ub.shape[0]):
        rows.append(expand_row(A_ub[i]))
        rhs.append(b_ub[i] - A_ub[i] @ shift)
        n_slack += 1
    for (j, hi) in extra_ub_rows:
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(expand_row(e))
        rhs.append(hi - shift[j])
        n_slack += 1
    for i in range(A_eq.shape[0]):
        rows.append(expand_row(A_eq[i]))
        rhs.append(b_eq[i] - A_eq[i] @ shift)
    m = len(rows)
    A = np.zeros((m, std_cols + n_slack))
    for i, r in enumerate(rows):
        A[i, :std_cols] = r
    for i in range(n_slack):
        A[i, std_cols + i] = 1.0
    cc = np.zeros(std_cols + n_slack)
    cc[:std_cols] = expand_row(c)
    res = solve_standard(cc, A, np.asarray(rhs))
    if res.status != "optimal":
        return res
    x = np.zeros(n)
    for j, spec in enumerate(cols):
        if spec[0] == "shift":
            x[j] = spec[1] + res.x[spec[2]]
        else:
            x[j] = res.x[spec[1]] - res.x[spec[2]]
    return LPResult("optimal", x, float(c @ x))


def _lp_repr(res):
    return repr((res.status, None if res.x is None else res.x.tolist(), res.objective,
                 None if res.certificate is None else res.certificate.tolist()))


def test_linprog_bitwise_equal_to_expand_row_reference():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nums = st.sampled_from([-3.0, -1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 4.0])
    # free, free capped, boxed, capped only (lo = 0), shifted (lo only)
    bound = st.one_of(st.just((None, None)), st.tuples(st.none(), nums),
                      st.tuples(nums, nums).map(lambda p: (p[0], p[0] + abs(p[1]))),
                      st.tuples(st.just(0.0), nums.map(abs)), st.tuples(nums, st.none()))

    @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2), st.data())
    def check(n, m_ub, m_eq, data):
        def matrix(rows):
            return np.array(data.draw(st.lists(st.lists(nums, min_size=n, max_size=n),
                                               min_size=rows, max_size=rows)), float).reshape(rows, n)

        def vector(size):
            return np.array(data.draw(st.lists(nums, min_size=size, max_size=size)), float)

        c = vector(n)
        A_ub, b_ub, A_eq, b_eq = matrix(m_ub), vector(m_ub), matrix(m_eq), vector(m_eq)
        bounds = data.draw(st.lists(bound, min_size=n, max_size=n))
        args = (c, A_ub if m_ub else None, b_ub if m_ub else None,
                A_eq if m_eq else None, b_eq if m_eq else None, bounds)
        assert _lp_repr(linprog(*args)) == _lp_repr(linprog_expand_row(*args)), args

    check()


def l1_rows_per_residual(A, b, w, lin, radius):
    """The former l1 LPs: the two rows of each residual appended in turn."""
    m, n = A.shape
    c = np.concatenate([np.zeros(n) if lin is None else -np.asarray(lin, dtype=float),
                        np.asarray(w, dtype=float)])
    A_ub, b_ub = [], []
    for i in range(m):
        row = np.concatenate([A[i], np.zeros(m)])
        row[n + i] = -1.0
        A_ub.append(row)
        b_ub.append(-b[i])
        row2 = np.concatenate([-A[i], np.zeros(m)])
        row2[n + i] = -1.0
        A_ub.append(row2)
        b_ub.append(b[i])
    box = (None, None) if radius is None else (-radius, radius)
    return linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                   bounds=[box] * n + [(0.0, None)] * m)


def test_l1_residual_lp_agrees_with_highs():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    optimize = pytest.importorskip("scipy.optimize")

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.data())
    def check(m, n, boxed, data):
        ints = st.integers(-4, 4)
        A = np.array(data.draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                        min_size=m, max_size=m)), float)
        b = np.array(data.draw(st.lists(ints, min_size=m, max_size=m)), float)
        w = np.array(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), float)
        # a linear term needs the box: over free z it can be unbounded
        lin = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), float) \
            if boxed else None
        radius = data.draw(st.sampled_from([0.5, 1.0, 2.0])) if boxed else None
        res = l1_residual_lp(A, b, w, lin, radius)
        assert _lp_repr(res) == _lp_repr(l1_rows_per_residual(A, b, w, lin, radius))
        # HiGHS on the same problem with the residual rows stacked, not interleaved
        bnd = (None, None) if radius is None else (-radius, radius)
        eye = np.eye(m)
        ref = optimize.linprog(
            np.concatenate([np.zeros(n) if lin is None else -lin, w]),
            A_ub=np.block([[A, -eye], [-A, -eye]]), b_ub=np.concatenate([-b, b]),
            bounds=[bnd] * n + [(0, None)] * m, method="highs")
        assert ref.status == 0 and res.status == "optimal"
        assert np.isclose(res.objective, ref.fun, rtol=1e-7, atol=1e-7)
        z = res.x[:n]
        direct = w @ np.abs(A @ z + b) - (0.0 if lin is None else lin @ z)
        assert np.isclose(direct, ref.fun, rtol=1e-7, atol=1e-7)

    check()
