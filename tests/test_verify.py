"""Harness internals: the two-block minimax engine against brute force,
ratio conventions, report determinism, and suite smoke runs."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from homext import verify
from homext.setfn import CapExceeded, SetTupleFunction, mask_members, popcount
from homext.structures import WeightedGraph

from reference_minimax import ReferenceMinimax, assert_bracket_exact


def test_ratio_convention():
    assert verify.ratio_value(3, 2) == 1.5
    assert verify.ratio_value(1, 0) == np.inf
    assert verify.ratio_value(-1, 0) == -np.inf
    assert verify.ratio_value(0, 0) is None


def test_discrete_minimax_p3_instance():
    g = WeightedGraph.path(3)
    f = g.ordered_edge_count()
    gfun = SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a & b)))
    mm, mx = verify.discrete_minimax(f, gfun)
    assert mm == 2 and mx == 1


def test_engine_game_value_vs_lp():
    rng = np.random.default_rng(0)
    for _ in range(8):
        n, m = 3, 3
        C = rng.integers(-3, 4, size=(n, m)).astype(float)
        fv = [[sum(C[i, j] for i in mask_members(a) for j in mask_members(b))
               for b in range(1 << m)] for a in range(1 << n)]
        gv = [[popcount(a) * popcount(b) for b in range(1 << m)]
              for a in range(1 << n)]
        eng = verify.TwoBlockMinimax.from_tables(fv, gv, n, m)
        v = verify.game_lp_value(C)
        assert abs(eng.infsup() - v) < 1e-8
        assert abs(eng.supinf() - v) < 1e-8


def test_engine_infsup_dominates_supinf():
    rng = np.random.default_rng(1)
    for _ in range(6):
        n = 3
        fv = [[float(rng.integers(-4, 5)) if a and b else 0.0
               for b in range(1 << n)] for a in range(1 << n)]
        gv = [[float(rng.integers(1, 5)) if a and b else 0.0
               for b in range(1 << n)] for a in range(1 << n)]
        eng = verify.TwoBlockMinimax.from_tables(fv, gv, n, n)
        assert eng.infsup() >= eng.supinf() - 1e-8


def test_engine_sandwiched_by_discrete():
    # maximin <= continuous values <= minimax, from the transfer chain
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = 3
        vals_f = {}
        vals_g = {}
        for a in range(1 << n):
            for b in range(1 << n):
                vals_f[(a, b)] = Fraction(int(rng.integers(0, 7))) if a and b else Fraction(0)
                vals_g[(a, b)] = Fraction(int(rng.integers(1, 5))) if a and b else Fraction(0)
        f = SetTupleFunction(n, 2, vals_f)
        g = SetTupleFunction(n, 2, vals_g)
        rep = verify.check_saddle_transfer(f, g)
        assert rep.verdict == "pass", rep.to_dict()


def test_engine_brute_force_cross_check():
    # n = 2 blocks: the continuous minimax against a dense grid bound
    rng = np.random.default_rng(3)
    n = 2
    vals_f = {(a, b): Fraction(int(rng.integers(0, 5))) if a and b else Fraction(0)
              for a in range(4) for b in range(4)}
    vals_g = {(a, b): Fraction(int(rng.integers(1, 4))) if a and b else Fraction(0)
              for a in range(4) for b in range(4)}
    f = SetTupleFunction(n, 2, vals_f)
    g = SetTupleFunction(n, 2, vals_g)
    eng = verify.TwoBlockMinimax(f, g)
    cis = eng.infsup()
    from homext import extend
    inds = [[float((b >> i) & 1) for i in range(n)] for b in range(4)]
    # upper bound: min over grid x of max over indicator B
    best = np.inf
    for t in np.linspace(0, 1, 41):
        x = [t, 1 - t]
        worst = -np.inf
        for b in range(1, 4):
            gv = float(extend.multilinear(g, [x, inds[b]]))
            fv = float(extend.multilinear(f, [x, inds[b]]))
            r = verify.ratio_value(fv, gv)
            if r is not None:
                worst = max(worst, r)
        best = min(best, worst)
    assert cis <= best + 1e-8


def test_engine_rejects_distinct_ground_sets():
    f = SetTupleFunction(2, 2, lambda a, b: Fraction(popcount(a) * popcount(b)))
    for gn in (1, 3):
        g = SetTupleFunction(gn, 2, lambda a, b: Fraction(popcount(a | b)))
        with pytest.raises(ValueError):
            verify.TwoBlockMinimax(f, g)


def test_engine_agrees_with_bisection_reference():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def game(C, n, m):
        return [[float(sum(C[i][j] for i in mask_members(a) for j in mask_members(b)))
                 for b in range(1 << m)] for a in range(1 << n)]

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 3), st.integers(1, 3),
               st.sampled_from(["game", "free", "zero-g", "g-zero", "f-zero", "float"]),
               st.data())
    def check(n, m, kind, data):
        def table(elements):
            return data.draw(st.lists(st.lists(elements, min_size=1 << m, max_size=1 << m),
                                      min_size=1 << n, max_size=1 << n))

        if kind == "game":          # linear in both blocks: one LP per probe
            C = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                                   min_size=n, max_size=n))
            fv = game(C, n, m)
            gv = [[popcount(a) * popcount(b) for b in range(1 << m)] for a in range(1 << n)]
        elif kind == "free":        # f nonzero at empty sets, g > 0 off them
            fv = table(st.integers(-3, 3).map(float))
            gv = [[float(g) if a and b else 0.0 for b, g in enumerate(row)]
                  for a, row in enumerate(table(st.integers(1, 3)))]
        elif kind == "zero-g":      # g = 0 entries: +-inf ratios and 0/0
            fv = table(st.sampled_from([-1.0, 0.0, 1.0, 2.0]))
            gv = table(st.sampled_from([0, 0, 0, 1]))
        elif kind == "g-zero":      # no finite ratio: infinite values
            fv = table(st.sampled_from([-1.0, 0.0, 1.0, 2.0]))
            gv = [[0] * (1 << m) for _ in range(1 << n)]
        elif kind == "f-zero":      # both values exactly 0.0
            fv = [[0.0] * (1 << m) for _ in range(1 << n)]
            gv = table(st.sampled_from([1000, 2000]))
        else:
            fv = table(st.floats(-2, 2, allow_nan=False).map(lambda v: round(v, 3)))
            gv = table(st.floats(0.25, 2).map(lambda v: round(v, 3)))
        new = verify.TwoBlockMinimax.from_tables(fv, gv, n, m)
        ref = ReferenceMinimax(fv, gv, n, m)
        for direction in ("infsup", "supinf"):
            got, want = getattr(new, direction)(), getattr(ref, direction)()
            want = ref.limit.get(direction, want)
            if np.isinf(want):
                assert got == want, (kind, direction, fv, gv, got)
            else:
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), \
                    (kind, direction, fv, gv, got, want)
            assert_bracket_exact(new, direction, got)

    check()


def test_engine_brackets_exact_on_seed_suites(monkeypatch):
    solved = []
    for direction in ("infsup", "supinf"):
        def record(self, *args, _solve=getattr(verify.TwoBlockMinimax, direction),
                   _direction=direction, **kwargs):
            value = _solve(self, *args, **kwargs)
            solved.append((self, _direction, value))
            return value
        monkeypatch.setattr(verify.TwoBlockMinimax, direction, record)
    reps = verify.suite_saddle(seed=42) + verify.suite_sion(seed=42)
    assert all(r.verdict == "pass" for r in reps)
    assert len(solved) == 2 * len(reps)
    for engine, direction, value in solved:
        assert_bracket_exact(engine, direction, value)


def test_engine_zero_f_with_large_g():
    # the bisection read a feasible probe with a slack of 1e12 as certified
    # infeasible (the Farkas check's PIVOT_TOL margin) and gave (inf, -inf)
    for n in (1, 2):
        fv = [[0.0] * (1 << n) for _ in range(1 << n)]
        gv = [[1e12] * (1 << n) for _ in range(1 << n)]
        eng = verify.TwoBlockMinimax.from_tables(fv, gv, n, n)
        assert repr((eng.infsup(), eng.supinf())) == repr((0.0, 0.0))
        assert_bracket_exact(eng, "infsup", 0.0)
        assert_bracket_exact(eng, "supinf", 0.0)


def test_engine_infinite_values_with_zero_g():
    # the bisection ran out of bracket expansions and gave -+2147483646.875
    g = [[0, 0], [0, 0]]
    eng = verify.TwoBlockMinimax.from_tables([[-1.0, -1.0], [-1.0, -1.0]], g, 1, 1)
    assert eng.infsup() == -np.inf
    assert_bracket_exact(eng, "infsup", -np.inf)
    eng = verify.TwoBlockMinimax.from_tables([[1.0, 1.0], [1.0, 1.0]], g, 1, 1)
    assert eng.supinf() == np.inf
    assert_bracket_exact(eng, "supinf", np.inf)


def test_engine_finite_value_with_every_vertex_infinite():
    # every indicator vertex has a ratio 1/0, yet on the cone x_1 >= x_0
    # the value is 0 (at x_0 = x_1); the other cone is +inf
    fv = [[0, 0, 0, 0], [0, 1, -1, -1], [0, -1, 1, -1], [0, 1, -1, -1]]
    gv = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    fv = [[float(v) for v in row] for row in fv]
    eng = verify.TwoBlockMinimax.from_tables(fv, gv, 2, 2)
    ref = ReferenceMinimax(fv, gv, 2, 2)
    assert eng.infsup() == 0.0 and abs(ref.infsup()) <= 1e-8
    assert_bracket_exact(eng, "infsup", 0.0)


def test_engine_uncertified_infinity_raises():
    # every x has a ratio 1/0 (inner B = {1} when x_1 > 0, B = {0} when
    # x_1 = 0), but no dual on the G = 0 rows of a cone shows it: the least
    # max over those rows is 0.  No value is returned for it.
    fv = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 1, 0, 0]]
    gv = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 0, 1]]
    fv = [[float(v) for v in row] for row in fv]
    eng = verify.TwoBlockMinimax.from_tables(fv, gv, 2, 2)
    with pytest.raises(CapExceeded):
        eng.infsup()


def test_engine_iteration_cap_raises(monkeypatch):
    f = WeightedGraph.path(3).ordered_edge_count()
    g = SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a & b)))
    eng = verify.TwoBlockMinimax(f, g)
    with monkeypatch.context() as m:
        m.setattr(verify, "MINIMAX_ITERS", 1)
        with pytest.raises(CapExceeded):
            eng.infsup()
    assert eng.infsup() == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_check_sion_skips_bad_structure():
    n = 3
    f = SetTupleFunction(n, 2, lambda a, b: Fraction(popcount(a) ** 2 * popcount(b)) if a and b else Fraction(0))
    g = SetTupleFunction(n, 2, lambda a, b: Fraction(popcount(a) * popcount(b)))
    rep = verify.check_sion_case(f, g)
    assert rep.verdict == "skip"


def test_reports_deterministic_across_runs():
    a = [r.to_dict() for r in verify.suite_turan(seed=5, instances=2, samples=40)]
    b = [r.to_dict() for r in verify.suite_turan(seed=5, instances=2, samples=40)]
    assert a == b


def test_reports_change_with_seed():
    a = verify.suite_turan(seed=5, instances=1, samples=30)[0]
    b = verify.suite_turan(seed=6, instances=1, samples=30)[0]
    assert a.lhs != b.lhs or a.rhs != b.rhs


def test_report_to_dict_serializes():
    import json
    reps = verify.suite_k5()
    payload = json.dumps([r.to_dict() for r in reps])
    assert "k5-ternary-spectrum" in payload


def test_check_indicator_and_equalities_families():
    rng = np.random.default_rng(4)
    f = verify.rand_table(rng, 3, 2, lo=0, hi=9)
    g = verify.rand_table(rng, 3, 2, lo=1, hi=9)
    for fam in ("full", "chain", "diagonal"):
        rep = verify.check_indicator_and_equalities(f, g, family=fam,
                                                    samples=60, seed=4)
        assert rep.verdict == "pass", (fam, rep.to_dict())


def test_turan_fails_on_a_wrong_value_at_the_diagonal_witness(monkeypatch):
    # instance 0 at seed 42: diagonal witness (12, 12), chain witness
    # (11, 15); only identical 0/1 blocks read a wrong value
    from homext import extend
    true = extend.multilinear

    def wrong(f, xs):
        blocks = [list(x) for x in xs]
        if all(b == blocks[0] for b in blocks) and set(blocks[0]) <= {0, 1}:
            return true(f, xs) + 1
        return true(f, xs)

    assert all(r.verdict == "pass" for r in verify.suite_turan(seed=42, instances=1))
    monkeypatch.setattr(extend, "multilinear", wrong)
    reps = verify.suite_turan(seed=42, instances=1)
    assert [(r.check_id, r.verdict) for r in reps] == [
        ("turan-diagonal-0", "fail"), ("turan-chain-0", "pass")]


def test_perfect_pair_check_fails_on_a_level_set_outside_the_family(monkeypatch):
    from homext import extend
    rng = np.random.default_rng(4)
    f = verify.rand_table(rng, 3, 2, lo=0, hi=9)
    g = verify.rand_table(rng, 3, 2, lo=1, hi=9)
    true = extend.upper_level_tuples
    monkeypatch.setattr(extend, "upper_level_tuples",
                        lambda xs: true(xs) | {(1, 2)})   # {0} and {1}: no chain
    for fam, outside in (("full", 0), ("chain", 20), ("diagonal", 20)):
        rep = verify.check_indicator_and_equalities(f, g, family=fam,
                                                    samples=20, seed=4)
        assert rep.extra["outside_family"] == outside, fam
        assert rep.verdict == ("pass" if outside == 0 else "fail"), fam


def test_perfect_pair_check_fails_on_a_nan_extension(monkeypatch):
    # the builtin max dropped a NaN ratio and gave pass with gap 0.0
    from homext import extend
    rng = np.random.default_rng(4)
    f = verify.rand_table(rng, 3, 2, lo=0, hi=9)
    g = verify.rand_table(rng, 3, 2, lo=1, hi=9)
    monkeypatch.setattr(extend, "multilinear", lambda f, xs: float("nan"))
    rep = verify.check_indicator_and_equalities(f, g, "chain", samples=20, seed=4)
    assert rep.verdict == "fail" and np.isnan(rep.gap)


def test_quasiconcave_equal_arguments_quarter():
    f1 = verify.rand_table(np.random.default_rng(5), 3, 1, lo=1, hi=9)
    rep = verify.check_quasiconcave_composition([f1, f1], kind="product",
                                                samples=50, seed=5)
    assert rep.verdict == "pass"
    assert abs(float(rep.lhs) - 0.25) < 1e-12


def test_run_inequality_suites_selector():
    reps = verify.run_inequality_suites("k5")
    assert all(r.verdict == "pass" for r in reps)
    with pytest.raises(KeyError):
        verify.run_inequality_suites("not-a-suite")


def test_suite_registry_complete():
    expected = {"indicator", "tables", "turan", "saddle", "sion",
                "quasiconcave", "spectral-radius", "cheeger-graph",
                "cheeger-chemical", "nodal-inertia", "bipartite",
                "simplicial-identity", "huang", "k5", "collatz-wielandt",
                "duality", "dual-inner", "maxcut", "second-eigen"}
    assert expected == set(verify.SUITES)


def test_generators_deterministic():
    g1 = verify.rand_connected_graph(verify._rng(7, "x"))
    g2 = verify.rand_connected_graph(verify._rng(7, "x"))
    assert np.array_equal(g1.W, g2.W)
    k1 = verify.rand_two_complex(verify._rng(7, "y"))
    k2 = verify.rand_two_complex(verify._rng(7, "y"))
    assert k1.simplices == k2.simplices


def test_rand_table_draws_one_entry_per_nonempty_tuple_in_order():
    # reference: one draw per tuple with no empty component, in tuple order
    for n, k in [(1, 1), (3, 2), (2, 3)]:
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        f = verify.rand_table(rng, n, k, lo=-9, hi=9)
        for masks in product(range(1 << n), repeat=k):
            want = Fraction(int(ref_rng.integers(-9, 10))) if all(masks) else Fraction(0)
            got = f(*masks)
            assert type(got) is Fraction and got == want, masks
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_intersecting_pair_max_matches_subset_loop():
    # reference: the loop over every intersecting pair of vertex sets that
    # the indicator products replaced
    def loop(A):
        n = A.shape[0]
        return max(Fraction(int(sum(A[i, j] for i in mask_members(a)
                                    for j in mask_members(b))), popcount(a & b))
                   for a in range(1, 1 << n) for b in range(1, 1 << n) if a & b)

    rng = np.random.default_rng(3)
    graphs = [WeightedGraph(np.zeros((1, 1))), WeightedGraph.complete(6),
              WeightedGraph.path(5), WeightedGraph.cycle(7)]
    graphs += [verify.rand_connected_graph(rng, 2, 7) for _ in range(12)]
    for g in graphs:
        A = (g.W != 0).astype(float)
        got = verify._intersecting_pair_max(A)
        assert type(got) is Fraction and got == loop(A), g.W
