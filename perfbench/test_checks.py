"""Tests of the benchmark's own checks and tracer.

Every check passes on a value known by hand and fails when that value is
perturbed slightly, so no check can pass by comparing a value with
itself.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
K5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]


def laplacian_pair(n, edges):
    """(L, D) of the unit-weight graph."""
    W = np.zeros((n, n))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0
    D = np.diag(W.sum(axis=1))
    return D - W, D


# -- minimax-lp ---------------------------------------------------------------

def test_game_value_of_known_games():
    assert checks.game_value([[1, -1], [-1, 1]]) == pytest.approx(0, abs=1e-12)
    assert checks.game_value([[3, 1], [2, 4]]) == pytest.approx(2.5, abs=1e-12)


def test_check_game_rejects_a_value_off_by_1e4():
    C = [[3, 1], [2, 4]]
    assert checks.check_game(C, 2.5, 2.5, 2.5) == []
    assert len(checks.check_game(C, 2.5 + 1e-4, 2.5, 2.5)) == 1
    assert len(checks.check_game(C, 2.5, 2.5, 2.5 - 1e-4)) == 1


def test_check_convex_concave_on_the_fixed_instance():
    def value(a, b):
        return gen.convex_concave_value(gen.FIXED_CONVEX_CONCAVE, a, b)
    assert checks.discrete_minimax(value, 4) == (1, 1)
    assert checks.check_convex_concave(value, 4, 1.0, 1.0) == []
    assert checks.check_convex_concave(value, 4, 1.0, 1.0 + 1e-4)      # Sion gap
    assert checks.check_convex_concave(value, 4, 1.0 - 1e-4, 1.0 - 1e-4)  # sandwich


def test_check_p3():
    assert checks.check_p3(sqrt(2), sqrt(2)) == []
    assert len(checks.check_p3(sqrt(2) + 1e-7, sqrt(2))) == 1


# -- dinkelbach ---------------------------------------------------------------

ONE_EDGE = [(0b01, 0b10)]          # input {0}, output {1}


def test_chemical_h_of_one_edge():
    assert checks.chemical_h(2, ONE_EDGE) == 1


@pytest.mark.parametrize("p, lam", [(2.0, 2.0), (1.5, sqrt(2.0))])
def test_check_dinkelbach_on_a_known_ratio(p, lam):
    # x = (1, -1): F = 2^p, G_Pi = 2 at t = 0
    x = (1.0, -1.0)
    assert checks.g_pi(x, [1, 1], p) == pytest.approx(2.0, rel=1e-12)
    good = (3.0, 2.5, lam)
    assert checks.check_dinkelbach(2, ONE_EDGE, p, Fraction(1), lam, x, good) == []
    off = lam + 1e-6
    assert checks.check_dinkelbach(2, ONE_EDGE, p, Fraction(1), off, x, good[:2] + (off,))
    assert checks.check_dinkelbach(2, ONE_EDGE, p, Fraction(1), lam, x, (lam, 2.5, lam))


def test_check_dinkelbach_rejects_a_ratio_outside_the_sandwich():
    x = (1.0, -1.0)
    # with h = 1/2 at p = 2 the upper end is 2^(p-1) h = 1 < lambda = 2
    assert checks.check_dinkelbach(2, ONE_EDGE, 2.0, Fraction(1, 2), 2.0, x, (2.0,))


# -- extension-exact ----------------------------------------------------------

def test_check_indicator_values_rejects_an_entry_off_by_one():
    (n, k, table), = gen.integer_tables(7, 1)
    assert (n, k) == (1, 1)
    results = [Fraction(v) for v in table]
    assert checks.check_indicator_values(n, k, table, results) == []
    bad = list(results)
    bad[1] += 1
    assert checks.check_indicator_values(n, k, table, bad)
    assert checks.check_indicator_values(n, k, table, [float(v) for v in results])
    assert checks.check_indicator_values(n, k, table, results[:1])


def test_integer_tables_vanish_at_empty_components():
    for n, k, table in gen.integer_tables(3, 15):
        low = (1 << n) - 1
        for t, v in enumerate(table):
            if not all((t >> (n * b)) & low for b in range(k)):
                assert v == 0


# -- extension-float ----------------------------------------------------------

def test_level_set_extension_of_a_product_of_modular_functions():
    rng = np.random.default_rng(0)
    n = 4
    a, b = rng.normal(size=n), rng.normal(size=n)
    # f(A, B) = a(A) b(B): the extension is (a . x)(b . y), signed points too
    table = [sum(a[i] for i in gen.members(t >> n)) * sum(b[j] for j in gen.members(t & 15))
             for t in range(1 << (2 * n))]
    x, y = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    want = float(a @ x) * float(b @ y)
    got = checks.level_set_extension([x, y], table)
    assert checks.check_float_value(got, want) == []
    assert checks.check_float_value(got + 1e-9, want)


@pytest.mark.parametrize("name", sorted(checks.CLOSED_FORMS))
def test_closed_forms_reject_a_perturbed_value(name):
    rng = np.random.default_rng(1)
    W = np.zeros((5, 5))
    for i, j in gen.connected_graph(rng, 5, 5):
        W[i, j] = W[j, i] = 1.0
    xs = [rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)]
    want = checks.CLOSED_FORMS[name](W, *xs)
    assert checks.check_closed_form(name, W, xs, want) == []
    assert checks.check_closed_form(name, W, xs, want + 1e-9)


def test_check_homogeneous():
    assert checks.check_homogeneous(0.3, 0.6, 2.0) == []
    assert checks.check_homogeneous(0.3, 1.2, 2.0, degree=2) == []
    assert checks.check_homogeneous(0.3, 0.6 + 1e-9, 2.0)


# -- spectra-enum -------------------------------------------------------------

def test_check_pair_spectrum_rejects_an_eigenvalue_off_by_1e6():
    L, D = laplacian_pair(4, C4)
    assert checks.check_pair_spectrum(L, D, [0.0, 1.0, 1.0, 2.0]) == []
    assert checks.check_pair_spectrum(L, D, [0.0, 1.0, 1.0 + 1e-6, 2.0])
    assert checks.check_pair_spectrum(L, D, [0.0, 1.0, 2.0])


def test_graph_h_of_c4_and_k5():
    assert checks.graph_h(4, C4) == Fraction(1, 2)
    assert checks.graph_h(5, K5) == Fraction(3, 4)


def test_check_cheeger():
    assert checks.check_cheeger(Fraction(1, 2), Fraction(1, 2)) == []
    assert checks.check_cheeger(Fraction(1, 2) + Fraction(1, 1000), Fraction(1, 2))
    assert checks.check_cheeger(0.5, Fraction(1, 2))


def test_check_cheeger_sandwich():
    # C4: lambda_2 = 1 = 2h, the upper end of the sandwich
    assert checks.check_cheeger_sandwich(Fraction(1, 2), 1.0) == []
    assert checks.check_cheeger_sandwich(Fraction(1, 2), 1.0 + 1e-6)


def test_check_ternary_and_k5():
    assert checks.check_ternary([Fraction(0), Fraction(1, 2), Fraction(1)], Fraction(1, 2)) == []
    assert checks.check_ternary([Fraction(0), Fraction(3, 4)], Fraction(1, 2))
    k5 = [Fraction(0), Fraction(3, 4), Fraction(1)]
    assert checks.check_k5(k5) == []
    assert checks.check_k5(k5[:2] + [Fraction(101, 100)])


def test_check_boundary():
    tris = gen.up_complex(np.random.default_rng(2), 20)
    edges, B = gen.boundary_2(tris)
    assert len(edges) == 20
    assert checks.check_boundary(B.copy(), B) == []
    bad = B.copy()
    bad[0, np.flatnonzero(B[0])[0]] *= -1
    assert checks.check_boundary(bad, B)


def test_generators_are_deterministic_per_seed():
    assert gen.chemical_hypergraphs(5, (4, 6)) == gen.chemical_hypergraphs(5, (4, 6))
    assert gen.chemical_hypergraphs(5, (4, 6)) != gen.chemical_hypergraphs(6, (4, 6))
    assert [g.tolist() for g in gen.games(5)] == [g.tolist() for g in gen.games(5)]


# -- tracer -------------------------------------------------------------------

@pytest.fixture
def program():
    src = HERE.parent / "src"
    if not (src / "homext").is_dir():
        pytest.skip("homext sources not found")
    sys.path.insert(0, str(src))
    import layertrace
    return layertrace


def test_per_layer_metrics_match_benchmark_json(program):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        program.metric_specs()


def test_tracer_wraps_every_lookup_of_linprog_and_restores_it(program):
    from homext import constants, simplex, spectra, verify
    orig = simplex.linprog
    tracer = program.Tracer()
    tracer.install()
    try:
        assert all(m.linprog is not orig for m in (simplex, verify, spectra, constants))
        assert verify.game_lp_value([[3, 1], [2, 4]]) == pytest.approx(2.5)
    finally:
        tracer.uninstall()
    assert all(m.linprog is orig for m in (simplex, verify, spectra, constants))
    snap = tracer.snapshot()
    assert snap["simplex.linprog.calls"] == 1
    assert snap["simplex.linprog.optimal_ratio"] == 1.0
    assert snap["simplex.linprog.busy_s"] >= snap["simplex.linprog.self_s"] > 0


# -- round cost ---------------------------------------------------------------

@pytest.fixture
def runner(program):
    import run
    return run


def test_chunk_starts_close_each_chunk_once_it_reaches_the_target(runner):
    c = runner.CHUNK_S
    assert runner.chunk_starts([c / 2, c / 2, c, c / 4, c / 4]) == [0, 2, 3]
    assert runner.chunk_starts([5 * c]) == [0]


def test_round_cost_divides_each_chunk_by_the_references_around_it(runner):
    # one round, chunks of 2 s and 3 s, references 1, 3 and 1 s around them
    assert runner.round_cost([([(2.0, 1.0), (3.0, 3.0)], 1.0)]) == pytest.approx(2 / 2 + 3 / 2)
    # a machine twice as slow doubles every time and leaves the cost alone
    fast = ([(2.0, 1.0), (3.0, 1.0)], 1.0)
    slow = ([(4.0, 2.0), (6.0, 2.0)], 2.0)
    assert runner.round_cost([fast, slow, fast]) == pytest.approx(5.0)
    # the median per chunk drops one round slowed in one chunk only
    hit = ([(2.0, 1.0), (9.0, 1.0)], 1.0)
    assert runner.round_cost([fast, hit, fast]) == pytest.approx(5.0)


def test_reference_takes_measurable_time(runner):
    assert 0 < runner.reference_s() < 1
