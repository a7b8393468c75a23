"""Spectral engine: Jacobi against hand oracles, residual certification,
Dinkelbach against the exact quadratic solver, Collatz-Wielandt, ternary
enumeration, projections, and the duality reports."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from homext import spectra
from homext.spectra import (CWReport, HomogeneousPair, SubgradientSet,
                            chemical_plap_pair, collatz_wielandt_max,
                            dinkelbach_multistart, dinkelbach_ratiodca,
                            dual_inner_problem_check,
                            duality_spectrum_check, eigen_residual,
                            g_pi_projection, graph_plap_pair,
                            incidence_vertex_edge_spectra, jacobi_eigh,
                            one_laplacian_pair, projection_diag_power,
                            projection_quadratic, quadratic_form_pair,
                            quadratic_pair_spectrum,
                            second_eigen_characterizations,
                            ternary_eigen_enumerate)
from homext.structures import (ChemicalHypergraph, WeightedGraph,
                               adjacency_tensor)

from reference_spectra import (chemical_pair_with_edge_terms, compose_odd_linear,
                               dinkelbach_two_callbacks, inner_descent_two_callbacks)


# -- Jacobi eigensolver -------------------------------------------------------

def char_poly_roots_3x3(A):
    """Roots of det(A - t I) for 3x3 via the cubic formula (numpy roots
    on the explicit characteristic coefficients)."""
    a = -1.0
    b = np.trace(A)
    c = -0.5 * (np.trace(A) ** 2 - np.trace(A @ A))
    d = np.linalg.det(A)
    return np.sort(np.roots([a, b, c, d]).real)


def test_jacobi_vs_characteristic_polynomial():
    rng = np.random.default_rng(0)
    for _ in range(20):
        A = rng.normal(size=(3, 3))
        A = 0.5 * (A + A.T)
        w, V = jacobi_eigh(A)
        assert np.allclose(w, char_poly_roots_3x3(A), atol=1e-9)
        assert np.allclose(V.T @ V, np.eye(3), atol=1e-9)
        for i in range(3):
            assert np.linalg.norm(A @ V[:, i] - w[i] * V[:, i]) < 1e-9


def test_p3_normalized_laplacian_spectrum():
    g = WeightedGraph.path(3)
    w, _ = quadratic_pair_spectrum(g.laplacian(), np.diag(g.degrees))
    assert np.allclose(w, [0.0, 1.0, 2.0], atol=1e-9)


def test_identity_pair():
    w, _ = quadratic_pair_spectrum(np.eye(4), np.eye(4))
    assert np.allclose(w, 1.0)


def test_p3_adjacency_spectrum():
    g = WeightedGraph.path(3)
    w, _ = jacobi_eigh((g.W != 0).astype(float))
    assert np.allclose(w, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-9)


def test_not_positive_definite_rejected():
    with pytest.raises(ValueError):
        quadratic_pair_spectrum(np.eye(2), np.zeros((2, 2)))


# -- residual certification ---------------------------------------------------

def test_residual_zero_at_exact_eigenvector():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4))
    A = 0.5 * (A + A.T)
    B = np.eye(4) + np.diag(rng.uniform(0, 1, 4))
    w, V = quadratic_pair_spectrum(A, B)
    pair = quadratic_form_pair(A, B)
    for i in range(4):
        assert eigen_residual(pair, w[i], V[:, i]) <= 1e-10


def test_residual_positive_at_non_eigenvector():
    A = np.diag([1.0, 2.0, 5.0])
    pair = quadratic_form_pair(A, np.eye(3))
    x = np.array([1.0, 1.0, 1.0])
    lam = pair.ratio(x)
    assert eigen_residual(pair, lam, x) > 1e-3


def test_residual_k5_indicator_pair():
    k5 = WeightedGraph.complete(5)
    pair = one_laplacian_pair(k5)
    x = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    lam = pair.ratio(x)
    assert abs(lam - 0.75) < 1e-12
    assert eigen_residual(pair, lam, x) <= 1e-9


def test_euler_identity():
    rng = np.random.default_rng(2)
    g = WeightedGraph.cycle(5)
    pairs = [one_laplacian_pair(g), graph_plap_pair(g, 1.5),
             quadratic_form_pair(g.laplacian(), np.diag(g.degrees))]
    for pair in pairs:
        for _ in range(10):
            x = rng.normal(size=5)
            # <g, x> = p F(x) for an F-subgradient g
            val = pair.p * pair.F(x)
            g = pair.F_subgrad(x).any_point()
            assert abs(float(g @ x) - val) <= 1e-9 * max(1.0, abs(val))


def test_eigenvalue_ratio_law():
    # accepted pair with equal degrees: lambda = F(x)/G(x)
    g = WeightedGraph.cycle(4)
    pair = one_laplacian_pair(g)
    spec = ternary_eigen_enumerate(pair, 4)
    for lam, wit in spec.witnesses.items():
        x = np.array(wit, dtype=float)
        assert abs(pair.ratio(x) - float(lam)) <= 1e-12


# -- subspace projections -----------------------------------------------------

def test_gpi_p2_weighted_average():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5)
    w = rng.uniform(0.5, 2.0, 5)
    _, t = g_pi_projection(x, np.ones(5), w, 2.0)
    assert np.isclose(t, np.sum(w * x) / np.sum(w))


def test_gpi_p1_weighted_median():
    x = np.array([0.0, 1.0, 10.0])
    w = np.array([1.0, 1.0, 5.0])
    _, t = g_pi_projection(x, np.ones(3), w, 1.0)
    assert t == 10.0     # heaviest point wins the median


def test_gpi_orthogonal_point():
    x = np.array([1.0, -1.0])
    _, t = g_pi_projection(x, np.ones(2), np.ones(2), 2.0)
    assert abs(t) < 1e-12


def test_gpi_general_p_matches_grid():
    rng = np.random.default_rng(4)
    x = rng.normal(size=4)
    w = rng.uniform(0.5, 2.0, 4)
    val, t = g_pi_projection(x, np.ones(4), w, 1.5)
    ts = np.linspace(x.min(), x.max(), 4001)
    grid = min(np.sum(w * np.abs(x - t0) ** 1.5) for t0 in ts)
    assert val <= grid + 1e-6


def test_projection_quadratic_exact():
    rng = np.random.default_rng(5)
    B = rng.normal(size=(4, 4))
    B = B @ B.T + np.eye(4)
    proj = projection_quadratic(B, np.ones(4))
    x = rng.normal(size=4)
    val, z = proj.minimize(x)
    ts = np.linspace(-3, 3, 2001)
    grid = min((x + t * np.ones(4)) @ B @ (x + t * np.ones(4)) for t in ts)
    assert val <= grid + 1e-6


# -- Dinkelbach ---------------------------------------------------------------

def test_dinkelbach_matches_quadratic_oracle_p2():
    rng = np.random.default_rng(6)
    for name, g in [("C4", WeightedGraph.cycle(4)),
                    ("P3", WeightedGraph.path(3)),
                    ("rand", WeightedGraph.erdos_renyi(6, 0.7, rng))]:
        if not g.is_connected():
            continue
        L, D = g.laplacian(), np.diag(g.degrees)
        w, _ = quadratic_pair_spectrum(L, D)
        pair = quadratic_form_pair(L, D)
        proj = projection_quadratic(D, np.ones(g.n))
        ep = dinkelbach_multistart(pair, proj, g.n, seed=7, starts=12)
        assert abs(ep.lam - w[1]) < 1e-6, (name, ep.lam, w[1])
        # the value converges faster than the vector; residual is a sanity bound
        assert ep.residual <= 1e-4


def test_dinkelbach_c4_lambda2_is_one():
    g = WeightedGraph.cycle(4)
    pair = quadratic_form_pair(g.laplacian(), np.diag(g.degrees))
    proj = projection_quadratic(np.diag(g.degrees), np.ones(4))
    ep = dinkelbach_multistart(pair, proj, 4, seed=8, starts=8)
    assert abs(ep.lam - 1.0) < 1e-8


def test_dinkelbach_monotone_and_fixpoint():
    g = WeightedGraph.path(4)
    L, D = g.laplacian(), np.diag(g.degrees)
    w, V = quadratic_pair_spectrum(L, D)
    pair = quadratic_form_pair(L, D)
    proj = projection_quadratic(D, np.ones(4))
    # start at the exact second eigenvector: immediate fixpoint
    ep = dinkelbach_ratiodca(pair, proj, V[:, 1])
    assert abs(ep.history[0] - w[1]) < 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(ep.history, ep.history[1:]))
    assert len(ep.history) <= 3
    # random start: monotone non-increasing history
    ep = dinkelbach_ratiodca(pair, proj, np.array([0.3, -1.0, 2.0, 0.1]))
    assert all(a >= b - 1e-12 for a, b in zip(ep.history, ep.history[1:]))


def test_dinkelbach_start_inside_pi_returns_at_once():
    # the constant vector projects to 0: no finite ratio, so no iteration
    g = WeightedGraph.cycle(4)
    pair = graph_plap_pair(g, 1.5)
    proj = projection_diag_power(g.degrees, 1.5, np.ones(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ep = dinkelbach_ratiodca(pair, proj, np.ones(4))
    assert ep.lam == np.inf and not ep.converged
    assert ep.history == [np.inf] and ep.residual is None


def test_dinkelbach_chemical_p_sandwich():
    from homext import constants as cst
    from homext.setfn import mask_of
    H = ChemicalHypergraph(4, [(mask_of([0]), mask_of([1])),
                               (mask_of([1, 2]), mask_of([2, 3])),
                               (mask_of([0, 3]), mask_of([1, 2]))])
    h = float(cst.chemical_cheeger(H).value)
    wit = cst.chemical_cheeger(H).optimal_sets[0]
    ind = np.array([(wit >> i) & 1 for i in range(4)], dtype=float)
    for p in (1.5, 2.0):
        pair = chemical_plap_pair(H, p)
        proj = projection_diag_power(H.degrees, p, np.ones(4))
        ep = dinkelbach_multistart(pair, proj, 4, seed=9, starts=6,
                                   extra_starts=[ind], certify=False)
        assert h ** p / p ** p - 1e-9 <= ep.lam <= 2 ** (p - 1) * h + 1e-9


# -- odd homeomorphism and lattice optimality --------------------------------

def test_odd_linear_invariance_quadratic():
    rng = np.random.default_rng(10)
    g = WeightedGraph.cycle(5)
    L, D = g.laplacian(), np.diag(g.degrees)
    w, _ = quadratic_pair_spectrum(L, D)
    M = rng.normal(size=(5, 5)) + 5 * np.eye(5)
    wc, _ = quadratic_pair_spectrum(M.T @ L @ M, M.T @ D @ M)
    assert np.allclose(w, wc, atol=1e-8)


def test_odd_linear_invariance_one_laplacian():
    # sign flip on one bipartition side maps the 1-Laplacian pair to the
    # signless pair; certified ternary spectra must coincide (C4 bipartite)
    g = WeightedGraph.cycle(4)
    plain = ternary_eigen_enumerate(one_laplacian_pair(g), 4)
    signfl = ternary_eigen_enumerate(one_laplacian_pair(g, signless=True), 4)
    assert [float(v) for v in plain.eigenvalues] == \
        [float(v) for v in signfl.eigenvalues]


def test_odd_composition_residual_transport():
    g = WeightedGraph.path(3)
    pair = one_laplacian_pair(g)
    M = np.diag([1.0, -1.0, 1.0])
    comp = compose_odd_linear(pair, M)
    spec = ternary_eigen_enumerate(pair, 3)
    for lam, wit in spec.witnesses.items():
        y = M @ np.array(wit, dtype=float)    # M^{-1} = M here
        assert eigen_residual(comp, float(lam), y) <= 1e-9


def test_zero_homogeneous_lattice_optimum():
    # ratio with a known integer optimal ray: box lattice min equals the
    # continuous multi-start min exactly
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.integers(1, 7, size=3).astype(float)
        P = np.eye(3) - np.outer(v, v) / (v @ v)
        F = P.T @ P + 1e-12 * np.eye(3)

        def ratio(x):
            return float(x @ F @ x) / float(x @ x)

        lattice = min(ratio(np.array([a, b, c], dtype=float))
                      for a in range(1, 7) for b in range(1, 7)
                      for c in range(1, 7))
        best = np.inf
        for c in range(32):
            x = np.abs(np.random.default_rng([11, c]).normal(size=3)) + 1e-3
            for _ in range(200):
                grad = 2 * (F @ x) / (x @ x) - 2 * ratio(x) * x / (x @ x)
                x = np.maximum(x - 0.1 * grad, 1e-9)
            best = min(best, ratio(x))
        assert abs(lattice - best) <= 1e-5


# -- Collatz-Wielandt ---------------------------------------------------------

def test_cw_p3_sqrt2():
    rep = collatz_wielandt_max(WeightedGraph.path(3).W, tol=1e-13)
    assert abs(rep.lam - np.sqrt(2)) < 1e-10
    assert rep.hi - rep.lo < 1e-10


def test_cw_single_edge():
    rep = collatz_wielandt_max(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert abs(rep.lam - 1.0) < 1e-10


def test_cw_certificate_brackets_value():
    rng = np.random.default_rng(12)
    for _ in range(10):
        M = rng.uniform(0, 1, size=(4, 4))
        M = 0.5 * (M + M.T)
        rep = collatz_wielandt_max(M, tol=1e-12)
        w, _ = jacobi_eigh(M)
        assert rep.lo - 1e-9 <= w[-1] <= rep.hi + 1e-9
        assert abs(rep.lam - w[-1]) < 1e-8


def test_cw_tensor_single_hyperedge():
    T = adjacency_tensor(3, [(0, 1, 2)])
    rep = collatz_wielandt_max(T)
    assert abs(rep.lam - 2.0) < 1e-8
    assert np.allclose(rep.x, rep.x[0])      # uniform maximizer


# -- ternary enumeration ------------------------------------------------------

def test_ternary_single_edge():
    g = WeightedGraph.from_edges(2, [(0, 1)])
    spec = ternary_eigen_enumerate(one_laplacian_pair(g), 2)
    assert spec.eigenvalues == [Fraction(0), Fraction(1)]
    assert spec.exact_for_pair


def test_ternary_k5():
    spec = ternary_eigen_enumerate(one_laplacian_pair(WeightedGraph.complete(5)), 5)
    assert spec.eigenvalues == [Fraction(0), Fraction(3, 4), Fraction(1)]


def test_ternary_rejects_non_eigen_ratios():
    spec = ternary_eigen_enumerate(one_laplacian_pair(WeightedGraph.complete(5)), 5)
    # candidate ratios include 1/2, 1/4, 5/8 etc.; none survive the residual
    assert Fraction(1, 2) in spec.ratios_seen
    assert Fraction(1, 2) not in spec.eigenvalues


def test_ternary_cap():
    g = WeightedGraph.complete(9)
    with pytest.raises(ValueError):
        ternary_eigen_enumerate(one_laplacian_pair(g), 9)


# -- second eigenvalue characterizations -------------------------------------

def test_second_eigen_connected_graph():
    g = WeightedGraph.cycle(5)
    rep = second_eigen_characterizations(g.laplacian(), np.diag(g.degrees),
                                         np.ones(5))
    assert rep.gap <= 1e-9
    w, _ = quadratic_pair_spectrum(g.laplacian(), np.diag(g.degrees))
    assert abs(rep.projected_form - w[1]) <= 1e-9


def test_second_eigen_disconnected_hits_lambda3():
    ga, gb = WeightedGraph.path(3), WeightedGraph.path(3)
    n = 6
    W = np.zeros((n, n))
    W[:3, :3] = ga.W
    W[3:, 3:] = gb.W
    g = WeightedGraph(W)
    Pi = np.zeros((2, n))
    Pi[0, :3] = 1.0
    Pi[1, 3:] = 1.0
    rep = second_eigen_characterizations(g.laplacian(), np.diag(g.degrees), Pi)
    w, _ = quadratic_pair_spectrum(g.laplacian(), np.diag(g.degrees))
    assert abs(rep.projected_form - w[2]) <= 1e-9
    assert rep.gap <= 1e-9


def test_mountain_pass_form():
    g = WeightedGraph.path(4)
    L, D = g.laplacian(), np.diag(g.degrees)
    w, V = quadratic_pair_spectrum(L, D)
    # min over y perp x1 of F(y) / min_t G(y - t x1) equals lambda_2 at p = 2
    val = second_eigen_characterizations(L, D, V[:, 0]).projected_form
    assert abs(val - w[1]) <= 1e-9


# -- norm duality -------------------------------------------------------------

def test_duality_22_is_singular_value():
    rng = np.random.default_rng(13)
    T = rng.normal(size=(3, 4))
    rep = duality_spectrum_check(T, 2, 2)
    s = np.sqrt(np.max(np.linalg.eigvalsh(T.T @ T)))
    assert abs(rep.primal - s) < 1e-9 and rep.gap < 1e-9


def test_duality_2inf_and_12():
    rng = np.random.default_rng(14)
    for _ in range(5):
        T = rng.normal(size=(3, 3))
        for (p, q) in [(2.0, np.inf), (1.0, 2.0)]:
            rep = duality_spectrum_check(T, p, q)
            assert rep.gap < 1e-6


def test_duality_2inf_matches_sign_enumeration():
    rng = np.random.default_rng(15)
    T = rng.normal(size=(3, 3))
    rep = duality_spectrum_check(T, 2.0, np.inf)
    brute = max(np.linalg.norm(T @ np.array(s))
                for s in [(a, b, c) for a in (-1, 1) for b in (-1, 1)
                          for c in (-1, 1)])
    assert abs(rep.primal - brute) < 1e-9


def test_duality_without_an_exact_route_raises():
    T = np.random.default_rng(14).normal(size=(3, 3))
    with pytest.raises(ValueError):
        duality_spectrum_check(T, 3, 1.5)


def test_incidence_spectra_match():
    rng = np.random.default_rng(16)
    for _ in range(5):
        g = WeightedGraph.erdos_renyi(6, 0.5, rng)
        if not g.edges():
            continue
        nv, ne, gap = incidence_vertex_edge_spectra(g.incidence())
        assert gap <= 1e-9
        # vertex Laplacian nonzero spectrum equals squared singular values
        sv = np.linalg.svd(g.incidence(), compute_uv=False)
        sv2 = np.sort(sv[sv > 1e-9] ** 2)
        assert np.allclose(np.sort(nv), sv2, atol=1e-8)


# -- dual inner problem -------------------------------------------------------

def test_dual_inner_trivial_zero():
    rep = dual_inner_problem_check(np.eye(3), np.zeros(3), fnorm=1.0, ball="l2")
    assert abs(rep.min_primal) < 1e-9 and abs(rep.min_dual) < 1e-9


def test_dual_inner_random_gaps():
    rng = np.random.default_rng(17)
    for i in range(5):
        T = rng.normal(size=(3, 3))
        u = rng.normal(size=3)
        rep = dual_inner_problem_check(T, u, fnorm=2.0, ball="l2", seed=i)
        assert rep.min_gap < 1e-6 and rep.max_gap < 1e-6
        rep = dual_inner_problem_check(T, u, fnorm=1.0, ball="linf", seed=i)
        assert rep.min_gap < 1e-6 and rep.max_gap < 1e-6


def test_dual_inner_min_against_sphere_sampling():
    rng = np.random.default_rng(18)
    T = rng.normal(size=(3, 3))
    u = rng.normal(size=3)
    rep = dual_inner_problem_check(T, u, fnorm=2.0, ball="l2")
    best = np.inf
    for _ in range(20000):
        x = rng.normal(size=3)
        x /= max(np.linalg.norm(x), 1.0)
        best = min(best, np.linalg.norm(T @ x) - x @ u)
    assert rep.min_primal <= best + 1e-6


# -- projection object properties ---------------------------------------------

def test_projection_translation_invariance_and_domination():
    rng = np.random.default_rng(19)
    w = rng.uniform(0.5, 2.0, 5)
    for p in (1.0, 1.5, 2.0):
        proj = projection_diag_power(w, p, np.ones(5))
        for _ in range(10):
            x = rng.normal(size=5)
            gpi, z = proj.minimize(x)
            assert np.allclose(np.diff(z / 1.0) * 0, 0)  # z in span(1)
            # G_Pi <= G pointwise
            assert gpi <= np.sum(w * np.abs(x) ** p) + 1e-12
            # translation invariance along Pi
            gpi2, _ = proj.minimize(x + 3.7 * np.ones(5))
            assert abs(gpi - gpi2) < 1e-8
    # sampled midpoint convexity of G_Pi
    proj = projection_diag_power(w, 2.0, np.ones(5))
    for _ in range(10):
        x, y = rng.normal(size=5), rng.normal(size=5)
        gx, _ = proj.minimize(x)
        gy, _ = proj.minimize(y)
        gm, _ = proj.minimize(0.5 * (x + y))
        assert gm <= 0.5 * gx + 0.5 * gy + 1e-10


def test_k5_two_set_vector_certifies_lambda_one():
    # a two-set difference vector (scaled) is an eigenvector of K5 at 1;
    # the all-plus/all-minus split 1_{1,2} - t 1_{3,4,5} is not one for any
    # t > 0 (its ratio never meets 3/4), which the residual confirms
    pair = one_laplacian_pair(WeightedGraph.complete(5))
    x = 2.5 * np.array([0.0, 0.0, 0.0, 1.0, -1.0])
    assert abs(pair.ratio(x) - 1.0) < 1e-12
    assert eigen_residual(pair, 1.0, x) <= 1e-9
    for t in (0.5, 1.0, 2.0):
        y = np.array([1.0, 1.0, -t, -t, -t])
        assert eigen_residual(pair, pair.ratio(y), y) > 1e-3


# -- the Dinkelbach layer against its earlier implementations ----------------

def _gpi_200_steps(x, v, w, p):
    """The fixed 200-step ternary search that g_pi_projection replaced."""
    x, v, w = (np.asarray(a, dtype=float) for a in (x, v, w))

    def phi(t):
        return float(np.sum(w * np.abs(x - t * v) ** p))

    nz = v != 0
    if not np.any(nz):
        return phi(0.0), 0.0
    ratios = x[nz] / v[nz]
    lo, hi = float(ratios.min()), float(ratios.max())
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if phi(m1) <= phi(m2):
            hi = m2
        else:
            lo = m1
    t = 0.5 * (lo + hi)
    return phi(t), t


def test_gpi_within_200_step_search_and_scipy():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    optimize = pytest.importorskip("scipy.optimize")
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    dirs = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                     st.floats(-4.0, 4.0).map(lambda a: a if abs(a) > 1e-3 else 0.0))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 40), st.sampled_from([1.01, 1.5, 3.0]),
               st.booleans(), st.data())
    def check(n, p, projected, data):
        x = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        v = np.array(data.draw(st.lists(dirs, min_size=n, max_size=n)))
        w = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        if projected:                   # the minimizer is then at t = 0
            x = x - _gpi_200_steps(x, v, w, p)[1] * v
        val, t = g_pi_projection(x, v, w, p)
        assert val <= _gpi_200_steps(x, v, w, p)[0] * (1 + 1e-15), (x, v, w, p)
        nz = v != 0
        if not np.any(nz):
            assert t == 0.0
            return
        lo, hi = float(np.min(x[nz] / v[nz])), float(np.max(x[nz] / v[nz]))
        assert lo <= t <= hi
        if lo < hi:
            ref = optimize.minimize_scalar(
                lambda s: float(np.sum(w * np.abs(x - s * v) ** p)), bounds=(lo, hi),
                method="bounded", options={"xatol": 1e-13})
            assert val <= ref.fun * (1 + 1e-15), (x, v, w, p)

    check()


def test_gpi_safeguards_on_hard_cases():
    # p = 1.5: Newton alone oscillates between the bracket ends for all 200
    # evaluations; p = 1.01: a coordinate 7.5e-75 from its kink makes the
    # first Newton step 1e-71 long, while t* is near 0.5
    cases = [([-9.44437925, 16.2678504, 27.40963588, 9.18078415, 20.1708121,
               -30.30771147, -32.81829466], [-1.0, 1.0, 0.0, 0.5, 0.0, 2.0, 1.0],
              [1.21377148, 0.41399399, 1.11976556, 0.92875905, 9.30477864,
               9.45895742, 2.38664481], 1.5),
             ([-1.0, 0.0, 0.0, -7.542983347260793e-75], [-1.0, 0.0, 0.0, 1.0],
              [1.0, 1.0, 1.0, 1.0], 1.01)]
    for x, v, w, p in cases:
        x, v, w = np.array(x), np.array(v), np.array(w)
        val, _ = g_pi_projection(x, v, w, p)
        assert val <= _gpi_200_steps(x, v, w, p)[0] * (1 + 1e-15), p


def test_gpi_no_warning_at_zeros_and_kinks():
    # zero directions (0 * inf would appear in phi''), points sitting exactly
    # at a kink for p < 2 (|e|^(p-2) infinite) and n = 1, with every warning
    # an error
    cases = [([3.0], [1.0], [2.0]), ([0.0], [1.0], [1.0]), ([3.0], [0.0], [2.0]),
             ([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
             ([1.0, 1.0, 5.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]),
             ([0.0, 0.0, 4.0, -2.0], [1.0, -1.0, 2.0, 0.0], [1.0, 3.0, 0.5, 1.0]),
             ([2.0, -1.0, 0.5], [2.0, -1.0, 0.5], [1.0, 1.0, 1.0]),
             ([-0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, v, w in cases:
            x, v, w = np.array(x), np.array(v), np.array(w)
            for p in (1.01, 1.2, 1.5, 3.0):
                val, t = g_pi_projection(x, v, w, p)
                assert type(val) is float and type(t) is float
                assert np.isfinite(val) and val <= _gpi_200_steps(x, v, w, p)[0] * (1 + 1e-15)
            proj = projection_diag_power(w, 1.5, v)
            gv, z = proj.minimize(x)
            assert np.isfinite(gv) and np.all(np.isfinite(z))


def _chemical_F_by_key_tuples(H, p, x):
    """F and F_sub of chemical_plap_pair with the earlier edge terms: tie
    keys (x_i, -i) and (x_j, j), builtin sum, numpy sign."""
    from homext.setfn import mask_members
    terms = []
    for e_in, e_out in H.edges:
        imax = max(mask_members(e_in), key=lambda i: (x[i], -i))
        jmin = min(mask_members(e_out), key=lambda j: (x[j], j))
        terms.append((imax, jmin, x[imax] - x[jmin]))
    F = float(sum(abs(t) ** p for _, _, t in terms))
    g = np.zeros(H.n)
    for imax, jmin, t in terms:
        if p == 1.0 and t == 0:
            continue
        c = p * abs(t) ** (p - 1) * np.sign(t) if p > 1 else float(np.sign(t))
        g[imax] += c
        g[jmin] -= c
    return F, g


def test_chemical_edge_terms_match_key_tuples_on_ties():
    from homext.verify import rand_chemical
    rng = np.random.default_rng(23)
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 0.1 + 0.2])
    for _ in range(60):
        H = rand_chemical(rng, 4, 7)
        for p in (1.0, 1.5, 2.0, 3.0):
            pair = chemical_plap_pair(H, p)
            for _ in range(5):
                x = rng.choice(levels, size=H.n)     # many tied coordinates
                F, g = _chemical_F_by_key_tuples(H, p, x)
                assert np.float64(pair.F(x)).tobytes() == np.float64(F).tobytes()
                assert pair.F_subgrad(x).center.tobytes() == g.tobytes()


def test_chemical_edge_term_memo_keys_on_exact_bits():
    from homext.setfn import mask_of
    H = ChemicalHypergraph(4, [(mask_of([0, 1]), mask_of([2])),
                               (mask_of([2]), mask_of([1, 3])),
                               (mask_of([3]), mask_of([0, 1]))])
    pair = chemical_plap_pair(H, 1.5)
    x = np.array([0.25, 0.0, 0.0, -0.5])
    pair.F_subgrad(x)
    x[1] = -0.0                         # equal as numbers, not as bits
    got = pair.F_subgrad(x).center
    assert got.tobytes() == chemical_plap_pair(H, 1.5).F_subgrad(x).center.tobytes()
    x[2] = 1.0                          # changed in place: a new point
    assert pair.F(x) == chemical_plap_pair(H, 1.5).F(x)
    got = pair.F_subgrad(x).center
    assert got.tobytes() == chemical_plap_pair(H, 1.5).F_subgrad(x).center.tobytes()


def _tied_chemical_cases():
    """Chemical hypergraphs with one-member and several-member edge sides,
    and points with many tied coordinates, +0.0 and -0.0 among them."""
    from homext.setfn import mask_of
    from homext.verify import rand_chemical
    rng = np.random.default_rng(29)
    levels = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 0.1 + 0.2])
    fixed = ChemicalHypergraph(4, [(mask_of([0]), mask_of([1])),
                                   (mask_of([1, 2]), mask_of([3])),
                                   (mask_of([3]), mask_of([0, 2])),
                                   (mask_of([0, 1, 3]), mask_of([1, 2, 3]))])
    for H in [fixed] + [rand_chemical(rng, 4, 7) for _ in range(30)]:
        yield H, [rng.choice(levels, size=H.n) for _ in range(6)] + [np.zeros(H.n)]


def test_chemical_F_grad_matches_the_edge_term_callbacks_bitwise():
    for H, points in _tied_chemical_cases():
        for p in (1.0, 1.5, 2.0, 3.0):
            pair, ref = chemical_plap_pair(H, p), chemical_pair_with_edge_terms(H, p)
            for x in points:
                F, g = pair.F_grad(x)
                assert type(F) is float and type(g) is list and len(g) == H.n
                want = ref.F_subgrad(x).center.tobytes()
                assert np.float64(F).tobytes() == np.float64(ref.F(x)).tobytes()
                assert np.array(g).tobytes() == want
                assert np.float64(pair.F(x)).tobytes() == np.float64(F).tobytes()
                assert pair.F_subgrad(x).center.tobytes() == want


def test_inner_descent_matches_two_callbacks_bitwise():
    rng = np.random.default_rng(31)
    for H, points in _tied_chemical_cases():
        for p in (1.0, 1.5, 2.0, 3.0):
            pair, ref = chemical_plap_pair(H, p), chemical_pair_with_edge_terms(H, p)
            for x in points[:2]:
                w = rng.normal(size=H.n)
                got = spectra._inner_descent(pair.F_grad, w, x, iters=30)
                want = inner_descent_two_callbacks(
                    lambda y: ref.F(y) - w @ y,
                    lambda y: ref.F_subgrad(y).any_point() - w, x, iters=30)
                assert got.tobytes() == want.tobytes()


def test_dinkelbach_fused_descent_matches_two_callbacks():
    # chemical pairs through their F_grad, against the edge-term callbacks
    # and the two-callback descent; graph pairs through the default F_grad
    from homext.verify import rand_chemical
    rng = np.random.default_rng(37)
    runs = []
    for _ in range(4):
        H = rand_chemical(rng, 4, 7)
        for p in (1.0, 1.5, 2.0, 3.0):
            proj = projection_diag_power(H.degrees, p, np.ones(H.n))
            runs.append((chemical_plap_pair(H, p), chemical_pair_with_edge_terms(H, p),
                         proj, H.n))
    for g in (WeightedGraph.cycle(5), WeightedGraph.complete(4),
              WeightedGraph.erdos_renyi(6, 0.6, rng)):
        for p in (1.5, 3.0):
            pair = graph_plap_pair(g, p)
            assert pair.F_grad is None
            runs.append((pair, pair, projection_diag_power(g.degrees, p, np.ones(g.n)), g.n))
    for pair, ref, proj, n in runs:
        for _ in range(2):
            x0 = rng.normal(size=n)
            got = dinkelbach_ratiodca(pair, proj, x0, inner_iters=40, max_outer=12)
            want = dinkelbach_two_callbacks(ref, proj, x0, inner_iters=40, max_outer=12)
            assert repr(got.lam) == repr(want.lam) and type(got.lam) is type(want.lam)
            assert got.x.tobytes() == want.x.tobytes()
            assert repr(got.history) == repr(want.history)
            assert got.converged == want.converged


def test_dinkelbach_chemical_golden_p15():
    # recorded with the Newton projection and one projection per point; the
    # values recorded before (200-step ternary search, every point projected
    # twice) are kept as OLD_*, and the new ones lie close to them
    from homext.setfn import mask_of
    H = ChemicalHypergraph(5, [(mask_of([0]), mask_of([1, 2])),
                               (mask_of([1, 3]), mask_of([4])),
                               (mask_of([2, 4]), mask_of([0, 3])),
                               (mask_of([0, 1]), mask_of([3, 4])),
                               (mask_of([2]), mask_of([0, 4]))])
    pair = chemical_plap_pair(H, 1.5)
    proj = projection_diag_power(H.degrees, 1.5, np.ones(5))
    ep = dinkelbach_multistart(pair, proj, 5, seed=1, starts=2, inner_iters=40,
                               max_outer=8, certify=False)
    OLD_LAM = 0.16807393297119902
    OLD_X = [-0.5860919637771885, 0.32126973164182543, -0.6200021015829741,
             0.3217958100030847, 0.2555911192192374]
    assert ep.lam == 0.16807393301185872
    assert ep.x.tolist() == [-0.5860919649293711, 0.32126973279919696,
                             -0.6200021023579845, 0.32179580514266537,
                             0.2555911193618127]
    assert ep.history == [0.7112670920943293, 0.4489819862041192,
                          0.29907069636531813, 0.19831822059397655,
                          0.16807393301185872]
    assert ep.converged
    assert abs(ep.lam - OLD_LAM) <= 1e-9
    assert np.max(np.abs(ep.x - OLD_X)) <= 1e-8   # moved 4.9e-9
    assert type(ep.lam) is float and all(type(h) is float for h in ep.history)


def test_dinkelbach_values_are_python_floats():
    g = WeightedGraph.cycle(4)
    cases = [(quadratic_form_pair(g.laplacian(), np.diag(g.degrees)),
              projection_quadratic(np.diag(g.degrees), np.ones(4))),
             (graph_plap_pair(g, 1.5), projection_diag_power(g.degrees, 1.5, np.ones(4))),
             (graph_plap_pair(g, 3.0), projection_diag_power(g.degrees, 3.0, np.ones(4)))]
    for pair, proj in cases:
        for x0 in (np.array([0.3, -1.0, 2.0, 0.1]), np.array([1.0, 0.0, 0.0, 0.0])):
            ep = dinkelbach_ratiodca(pair, proj, x0, inner_iters=30)
            assert type(ep.lam) is float
            assert ep.history and all(type(h) is float for h in ep.history)


# -- the residual layer against its earlier implementations ------------------

def _jacobi_cases():
    rng = np.random.default_rng(11)
    for n in range(1, 25):
        M = rng.normal(size=(n, n))
        yield M + M.T
    yield np.array([[3.5]])                               # 1 x 1
    yield np.diag([2.0, -1.0, 2.0, 0.0])                  # zeros off the diagonal
    yield np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
    yield 3.0 * np.eye(5)                                 # one repeated eigenvalue
    yield np.ones((6, 6))                                 # 0 five times, then 6
    yield (WeightedGraph.complete(5).W != 0).astype(float)
    yield WeightedGraph.cycle(6).laplacian()              # repeated pairs
    tiny = np.diag([1.0, 2.0, 3.0])
    tiny[0, 1] = tiny[1, 0] = 1e-300                      # skipped: at the cutoff
    tiny[1, 2] = tiny[2, 1] = 3e-300                      # rotated: just above it
    yield tiny
    yield 1e-300 * np.array([[1.0, 2.0], [2.0, 5.0]])
    yield np.array([[1.0, 1e-200], [1e-200, 2.0]])        # theta * theta overflows
    # the same two inside a sweep: the first round of n = 3 is the pair (1, 2)
    yield np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1e-300], [0.0, 1e-300, 2.0]])   # skipped
    yield np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1e-200], [0.0, 1e-200, 2.0]])   # overflows


def test_jacobi_rounds_equal_one_rotation_at_a_time():
    # a round's rotations act on disjoint pairs, so its batched row, column
    # and eigenvector updates keep the bits of the same rotations applied
    # one by one; the 1e-300 skip and theta * theta -> inf raise no warning
    from reference_spectra import jacobi_eigh_one_rotation_at_a_time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for S in _jacobi_cases():
            w, V = jacobi_eigh(S)
            w_ref, V_ref = jacobi_eigh_one_rotation_at_a_time(S)
            assert w.tobytes() == w_ref.tobytes() and V.tobytes() == V_ref.tobytes(), S


def test_jacobi_agrees_with_cyclic_order_and_lapack():
    # the round-robin order changes only rounding: eigenvalues within
    # 64 n eps of the matrix scale of the cyclic loop's and LAPACK's, and V
    # orthonormal; each residual entry of S V - V diag(w) stays below what
    # the sweep test leaves off the diagonal, JACOBI_SWEEP_TOL of the scale
    from reference_spectra import jacobi_eigh_with_copies
    eps = np.finfo(float).eps
    for S in _jacobi_cases():
        n = S.shape[0]
        scale = max(1.0, np.abs(S).max())
        tol = 64 * n * eps * scale
        w, V = jacobi_eigh(S)
        with np.errstate(over="ignore"):    # its numpy scalars warn where theta * theta overflows
            w_cyc, _ = jacobi_eigh_with_copies(S)
        assert np.abs(w - w_cyc).max() <= tol, S
        assert np.abs(w - np.linalg.eigvalsh(S)).max() <= tol, S
        assert np.abs(V.T @ V - np.eye(n)).max() <= 64 * n * eps, S
        assert np.abs(S @ V - V * w).max() <= tol + spectra.JACOBI_SWEEP_TOL * scale, S


def _spectrum_fields(s):
    """Every TernarySpectrum field with the type of each value."""
    return ([(v, type(v)) for v in s.eigenvalues],
            [(k, type(k), w) for k, w in s.witnesses.items()],
            sorted(((v, type(v)) for v in s.ratios_seen), key=lambda kv: float(kv[0])),
            s.exact_for_pair, s.tested)


def test_ternary_matches_residual_first_reference():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from reference_spectra import ternary_residual_first

    @hyp.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(2, 5), st.booleans(), st.booleans(),
               st.sampled_from([1e-8, 0.2]), st.data())
    def check(n, signless, halves, tol, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        ws = data.draw(st.lists(st.integers(0, 3), min_size=len(pairs),
                                max_size=len(pairs)))
        W = np.zeros((n, n))
        for (i, j), w in zip(pairs, ws):
            W[i, j] = W[j, i] = 0.5 * w if halves else w
        g = WeightedGraph(W)
        hyp.assume(np.all(g.degrees > 0))
        pair = one_laplacian_pair(g, signless=signless)
        assert (pair.exact_F is None) == (halves and any(w % 2 for w in ws))
        got = ternary_eigen_enumerate(pair, n, tol=tol)
        want = ternary_residual_first(pair, n, tol=tol)
        assert _spectrum_fields(got) == _spectrum_fields(want)

    check()


def test_ternary_composite_path_matches_residual_first_reference():
    from reference_spectra import ternary_residual_first
    maps = [np.diag([1.0, -1.0, 1.0, -1.0]),
            np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 0.0, 2.0]])]
    for M in maps:
        comp = compose_odd_linear(one_laplacian_pair(WeightedGraph.path(4)), M)
        assert comp.exact_F is None
        for tol in (1e-8, 0.2):
            got = ternary_eigen_enumerate(comp, 4, tol=tol)
            want = ternary_residual_first(comp, 4, tol=tol)
            assert _spectrum_fields(got) == _spectrum_fields(want)
            assert got.eigenvalues and not got.exact_for_pair


def test_ternary_large_tol_keeps_distinct_exact_eigenvalues():
    from reference_spectra import ternary_residual_first
    pair = one_laplacian_pair(WeightedGraph.complete(5))
    # 1 is met first in the enumeration and 3/4 lies within 0.3 of it; an
    # exact eigenvalue is merged only with itself, so 3/4 stays
    for tol in (0.2, 0.3):
        got = ternary_eigen_enumerate(pair, 5, tol=tol)
        assert got.eigenvalues == [Fraction(0), Fraction(3, 4), Fraction(1)]
        assert _spectrum_fields(got) == _spectrum_fields(ternary_residual_first(pair, 5, tol=tol))


def test_ternary_spectrum_at_small_tol_within_large_tol():
    graphs = [WeightedGraph.complete(5), WeightedGraph.cycle(5), WeightedGraph.path(5),
              WeightedGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])]
    for g in graphs:
        for signless in (False, True):
            pair = one_laplacian_pair(g, signless=signless)
            small = set(ternary_eigen_enumerate(pair, g.n, tol=1e-8).eigenvalues)
            for tol in (0.2, 0.3):
                assert small <= set(ternary_eigen_enumerate(pair, g.n, tol=tol).eigenvalues)
    signless_k5 = ternary_eigen_enumerate(one_laplacian_pair(WeightedGraph.complete(5),
                                                             signless=True), 5, tol=0.2)
    assert signless_k5.eigenvalues == [Fraction(2, 5), Fraction(1, 2), Fraction(3, 5),
                                       Fraction(5, 8), Fraction(2, 3), Fraction(3, 4),
                                       Fraction(1)]


def _random_subgradient_set(rng, n, segments, points):
    return SubgradientSet(rng.integers(-3, 4, n) * rng.uniform(0.5, 1.5),
                          rng.normal(size=(segments, n)) if segments else None,
                          rng.normal(size=(points, n)) if points else None)


def test_interval_gap_lower_bounds_polytope_gap():
    rng = np.random.default_rng(5)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        U = _random_subgradient_set(rng, n, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        V = _random_subgradient_set(rng, n, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        lam = float(rng.choice([0.0, 0.5, 1.0, -0.75, 2.5]))
        bound = spectra._interval_gap(U, V, lam)
        assert 0.0 <= bound <= spectra.polytope_gap(U, V, lam) + 1e-9


def test_interval_gap_equals_polytope_gap_on_singletons():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        U, V = SubgradientSet(rng.normal(size=n)), SubgradientSet(rng.normal(size=n))
        lam = float(rng.normal())
        want = float(np.max(np.abs(U.center - lam * V.center)))
        assert spectra._interval_gap(U, V, lam) == spectra.polytope_gap(U, V, lam) == want


def test_interval_gap_is_exact_on_one_coordinate_boxes():
    # U = [1, 3] (center 2, one segment), V = {1}: u - 0.5 v lies in [0.5, 2.5]
    U = SubgradientSet([2.0], [[1.0]])
    V = SubgradientSet([1.0])
    assert spectra._interval_gap(U, V, 0.5) == 0.5
    assert spectra._interval_gap(U, V, 1.5) == 0.0          # [-0.5, 1.5] holds 0
    P = SubgradientSet([0.0], points=[[2.0], [4.0]])         # conv{2, 4}
    assert spectra._interval_gap(P, V, 1.0) == 1.0


def test_exact_pair_integer_sums_match_fractions():
    from reference_spectra import fraction_exact_pair
    g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    W = g.W.copy()
    W[0, 1] = W[1, 0] = 3.0
    g = WeightedGraph(W)
    inputs = [(1, -1, 0, 1), (0, 0, 0, 1), (True, False, True, True),
              (Fraction(1, 3), Fraction(-2, 5), 0, 1), (0.5, -1.25, 0.1, 2.0),
              np.array([1, -1, 0, 1], dtype=np.int64), np.array([0.5, -0.25, 1.0, 3.0])]
    for signless in (False, True):
        pair = one_laplacian_pair(g, signless=signless)
        refF, refG = fraction_exact_pair(g, signless=signless)
        for x in inputs:
            for got, want in ((pair.exact_F(x), refF(x)), (pair.exact_G(x), refG(x))):
                assert got == want and type(got) is type(want) is Fraction, (x, got, want)
