"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured quantity and the pinned tolerance.

Run as  pytest tests/test_acceptance.py -v -s  to see every line.
"""

import time
from fractions import Fraction

import numpy as np

from homext import constants as cst
from homext import spectra, verify
from homext.structures import WeightedGraph

SEED = 42


def line(num, ok, text):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{tag}] {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_indicator_consistency():
    t0 = time.time()
    rep = verify.suite_indicator(seed=SEED, functions=200)[0]
    dt = time.time() - t0
    ok = rep.verdict == "pass" and dt < 10.0
    line(1, ok, f"indicator consistency on 200 random tables "
                f"({rep.extra['tuples_checked']} tuples, exact) in {dt:.1f}s < 10s")


def test_criterion_02_table_reproduction():
    reps = verify.suite_tables(seed=SEED, points=100)
    worst = max(r.gap for r in reps)
    ok = all(r.verdict == "pass" for r in reps) and worst <= 1e-12
    line(2, ok, f"six closed-form rows at 100 points each, "
                f"worst gap {worst:.2e} <= 1e-12")


def test_criterion_03_k5():
    t0 = time.time()
    reps = verify.suite_k5(seed=SEED)
    dt = time.time() - t0
    ok = all(r.verdict == "pass" for r in reps) and dt < 30.0
    spec = reps[0].lhs
    line(3, ok, f"K5 ternary spectrum {spec} with h2=3/4, h3=1 and the "
                f"strict instance 3/4 < 1, in {dt:.1f}s < 30s")


def test_criterion_04_saddle():
    reps = verify.suite_saddle(seed=SEED, games=20)
    p3 = reps[0]
    games = reps[1:]
    ok = p3.verdict == "pass" and p3.gap <= 1e-8
    worst = max(r.gap for r in games)
    ok = ok and all(r.verdict == "pass" for r in games) and worst <= 1e-6
    line(4, ok, f"P3 discrete (2,1) and continuous sqrt(2) +- 1e-8; "
                f"20 payoff games = LP value, worst gap {worst:.2e} <= 1e-6")


def test_criterion_05_motzkin_straus():
    rng = verify._rng(SEED, "acceptance-ms")
    worst_below = 0.0
    worst_above = 0.0
    count = 0
    while count < 20:
        n = int(rng.integers(3, 9))
        g = WeightedGraph.erdos_renyi(n, 0.5, rng)
        if not g.edges():
            continue
        count += 1
        rep = cst.motzkin_straus(g, seed=SEED + count)
        worst_below = max(worst_below, rep.discrete_value - rep.ascent_value)
        worst_above = max(worst_above, rep.ascent_value - rep.discrete_value)
    ok = worst_below <= 1e-6 and worst_above <= 1e-8
    line(5, ok, f"Motzkin-Straus on 20 graphs: ascent within {worst_below:.2e}"
                f" <= 1e-6 of 1 - 1/omega, never above by {worst_above:.2e}")


def test_criterion_06_collatz_wielandt():
    rng = verify._rng(SEED, "acceptance-cw")
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 7))
        M = rng.uniform(0.05, 1.0, size=(n, n))
        M = 0.5 * (M + M.T)
        rep = spectra.collatz_wielandt_max(M, tol=1e-12)
        w, _ = spectra.jacobi_eigh(M)
        worst = max(worst, abs(rep.lam - w[-1]))
    p3 = spectra.collatz_wielandt_max(WeightedGraph.path(3).W, tol=1e-13)
    gap3 = abs(p3.lam - np.sqrt(2.0))
    ok = worst <= 1e-6 and gap3 <= 1e-8
    line(6, ok, f"Collatz-Wielandt on 20 matrices, worst gap {worst:.2e} "
                f"<= 1e-6; P3 value sqrt(2) +- {gap3:.2e}")


def test_criterion_07_duality():
    rng = verify._rng(SEED, "acceptance-duality")
    worst = 0.0
    for _ in range(20):
        T = rng.normal(size=(3, 4))
        for (p, q) in [(2.0, 2.0), (2.0, np.inf), (1.0, 2.0)]:
            rep = spectra.duality_spectrum_check(T, p, q)
            worst = max(worst, rep.gap)
    worst_inc = 0.0
    for _ in range(5):
        g = verify.rand_connected_graph(rng, 4, 8)
        _, _, gap = spectra.incidence_vertex_edge_spectra(g.incidence())
        worst_inc = max(worst_inc, gap)
    ok = worst <= 1e-5 and worst_inc <= 1e-9
    line(7, ok, f"operator-norm duality on 20 matrices x 3 norm pairs, "
                f"worst {worst:.2e} <= 1e-5; incidence spectra {worst_inc:.2e} <= 1e-9")


def test_criterion_08_cheeger():
    rep = verify.suite_cheeger_graph(seed=SEED, instances=50)[0]
    ok = rep.verdict == "pass"
    chem = verify.suite_cheeger_chemical(seed=SEED, instances=6, ps=(1.5, 2.0))
    worst = max(r.gap for r in chem)
    ok = ok and all(r.verdict == "pass" for r in chem) and worst <= 1e-6
    line(8, ok, f"h^2/2 <= lambda_2 <= 2h on 50 graphs (worst violation "
                f"{rep.gap:.2e}); chemical p in (1.5, 2) sandwich worst "
                f"{worst:.2e} <= 1e-6")


def test_criterion_09_simplicial():
    reps = verify.suite_simplicial(seed=SEED, instances=30)
    ident, mult, zero = reps
    ok = (ident.verdict == "pass" and ident.gap <= 1e-9
          and mult.verdict == "pass" and zero.verdict == "pass")
    line(9, ok, f"30 random 2-complexes: up/anti-signed identity gap "
                f"{ident.gap:.2e} <= 1e-9; top-eigenvalue multiplicity = "
                f"balanced components; zero multiplicity >= d+1")


def test_criterion_10_huang():
    t0 = time.time()
    reps = verify.suite_huang(seed=SEED, ms=(2, 3, 4))
    dt = time.time() - t0
    ok = all(r.verdict == "pass" for r in reps) and dt < 60.0
    ok = ok and all(r.extra["square_exact"] for r in reps)
    line(10, ok, f"signed squares m*I exact and exhaustive degree bound "
                 f"sqrt(m) for m in 2,3,4 in {dt:.1f}s < 60s")


def test_criterion_11_inertia_nodal():
    reps = verify.suite_nodal_inertia(seed=SEED, instances=30)
    inertia, nodal = reps
    ok = inertia.verdict == "pass" and nodal.verdict == "pass"
    line(11, ok, "30 random graphs: alpha <= min(#{lam <= 1}, #{lam >= 1}) "
                 "and support components <= min(k + r - 1, n - k + r)")


def test_criterion_12_bipartite():
    reps = verify.suite_bipartite(seed=SEED, instances=20)
    ok = all(r.verdict == "pass" for r in reps)
    line(12, ok, "20 random graphs: Laplacian and signless spectra coincide "
                 "(pairwise <= 1e-9) iff bipartite")


def test_criterion_13_full_suite_runtime_and_determinism():
    t0 = time.time()
    reps = verify.run_inequality_suites("all", seed=SEED)
    dt = time.time() - t0
    ok = dt < 300.0 and all(r.verdict in ("pass", "skip") for r in reps)
    fails = [r.check_id for r in reps if r.verdict == "fail"]
    # determinism: rerun the randomized suites and compare reports verbatim
    again = []
    first = []
    for name in ("turan", "saddle", "sion", "simplicial-identity",
                 "collatz-wielandt", "maxcut"):
        first.extend(verify.SUITES[name](seed=SEED))
        again.extend(verify.SUITES[name](seed=SEED))
    da = [r.to_dict() for r in first]
    db = [r.to_dict() for r in again]
    ok = ok and da == db
    line(13, ok, f"full suite: {len(reps)} reports in {dt:.0f}s < 300s, "
                 f"failures {fails}, reruns bit-identical")
