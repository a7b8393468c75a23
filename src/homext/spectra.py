"""Eigenvalue machinery for pairs (F, G) of p-homogeneous functions.

An eigenpair (lambda, x) satisfies 0 in dF(x) - lambda dG(x), with d the
Clarke subdifferential.  Subdifferentials are carried as finite data
(center + segment directions), which turns the membership test into a
small linear program.  Every function sum_r w_r |(M x)_r|^p of the graph
and chemical pairs is one ``PowerSum``: its value, its subgradient set and,
at p = 1 with integer weights, its exact values.

The module also holds the dense symmetric eigensolver (round-robin Jacobi),
the Dinkelbach/RatioDCA iteration, the Collatz-Wielandt power iteration
for nonnegative tensor pairs, ternary-vertex enumeration for piecewise
linear pairs, and the norm-duality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

import numpy as np

from .simplex import l1_residual_lp, linprog
from .structures import ChemicalHypergraph, SymmetricTensor, WeightedGraph

JACOBI_SWEEP_TOL = 1e-12
JACOBI_MAX_SWEEPS = 64
DEFAULT_STARTS = 64


def _rng_for(seed: int, counter: int):
    return np.random.default_rng([seed, counter])


# ---------------------------------------------------------------------------
# dense symmetric eigensolver (round-robin Jacobi)
# ---------------------------------------------------------------------------

def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep as rounds (P, Q) of disjoint pairs P < Q: the circle method,
    with index n sitting out each round when n is odd (Brent & Luk)."""
    m = n + n % 2
    ring, rounds = np.arange(m), []
    for _ in range(m - 1):
        P, Q = np.sort([ring[:m // 2], ring[::-1][:m // 2]], axis=0)
        rounds.append((P[Q < n], Q[Q < n]))
        ring = np.concatenate([ring[:1], ring[-1:], ring[1:-1]])
    return rounds


def jacobi_eigh(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric
    matrix by Jacobi rotations in round-robin order.  A round's rotations
    act on disjoint pairs, and A sits above V in one (2n x n) buffer, so a
    round is one fancy-indexed row rotation of A and one column rotation
    of A and V together."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.abs(A).max())):
        raise ValueError("matrix must be symmetric")
    AV = np.vstack([0.5 * (A + A.T), np.eye(n)])
    A = AV[:n]
    scale = max(1.0, np.abs(A).max())
    rounds = _round_robin(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2)
        if off <= JACOBI_SWEEP_TOL * scale:
            break
        for P, Q in rounds:
            apq = A[P, Q]
            keep = np.abs(apq) > 1e-300
            if not keep.all():
                P, Q, apq = P[keep], Q[keep], apq[keep]
            with np.errstate(over="ignore"):    # theta * theta -> inf gives t = 0
                theta = (A[Q, Q] - A[P, P]) / (2.0 * apq)
                t = np.where(theta != 0, np.sign(theta)
                             / (np.abs(theta) + np.sqrt(theta * theta + 1.0)), 1.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cr, sr = c[:, None], s[:, None]
            rp, rq = A[P], A[Q]
            A[P], A[Q] = cr * rp - sr * rq, sr * rp + cr * rq
            cp, cq = AV[:, P], AV[:, Q]
            AV[:, P], AV[:, Q] = c * cp - s * cq, s * cp + c * cq
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], AV[n:, order]


def quadratic_pair_spectrum(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Generalized symmetric spectrum of (A, B), B positive definite.

    Whitens with B^{-1/2} and runs Jacobi; every returned pair satisfies
    ||A v - lambda B v|| <= 1e-9 ||A|| ||v||, which is asserted.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    wb, Vb = jacobi_eigh(B)
    if wb.size and wb[0] <= 1e-12 * max(1.0, wb[-1]):
        raise ValueError("B must be positive definite")
    Bihalf = Vb @ np.diag(wb ** -0.5) @ Vb.T
    C = Bihalf @ A @ Bihalf
    w, U = jacobi_eigh(0.5 * (C + C.T))
    V = Bihalf @ U
    scale = max(1.0, np.abs(A).max())
    for i in range(w.size):
        res = np.linalg.norm(A @ V[:, i] - w[i] * (B @ V[:, i]))
        assert res <= 1e-9 * scale * max(1.0, np.linalg.norm(V[:, i])), \
            f"eigen residual {res} too large"
    return w, V


# ---------------------------------------------------------------------------
# subdifferentials and pairs
# ---------------------------------------------------------------------------

@dataclass
class SubgradientSet:
    """Polytope  center + sum_i [-1,1] seg_i.

    ``segments`` is an (m, n) array of segment directions (may be empty);
    a smooth gradient is a bare center.
    """

    center: np.ndarray
    segments: Optional[np.ndarray] = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        n = self.center.size
        if self.segments is None:
            self.segments = np.zeros((0, n))
        else:
            self.segments = np.asarray(self.segments, dtype=float).reshape(-1, n)

    @property
    def n(self) -> int:
        return self.center.size

    def is_singleton(self) -> bool:
        return self.segments.shape[0] == 0

    def any_point(self) -> np.ndarray:
        return self.center.copy()


class PowerSum:
    """x -> sum_r w_r |(M x)_r|^p for p >= 1, weights w_r >= 0 and an
    integer matrix M: the one evaluation and the one subgradient rule of
    every p-Laplacian-type function here.

    - The value sums w_r |t_r|^p (t = M x) over the rows in order, one
      scalar power per row.
    - ``subgradient(x)`` is M^T c with c_r = p w_r |t_r|^(p-1) sgn t_r: the
      gradient for p > 1, and for p = 1 the center, plus a segment w_r M_r
      for every row with t_r = 0.  M^T c adds the rows in order onto +0.0.
      The identity is the fast path: t is x, M^T c is c itself and the
      powers are one numpy power over x.
    - With p = 1 and every weight an integer, ``exact(X)`` gives the values
      at the integer points X (one per row) as Python ints, and
      ``box_subgradients(X)`` the subgradient sets there as two arrays, the
      centers and the |segment| sums, exact while ``exact_sums`` holds.
    """

    def __init__(self, p: float, weights, M):
        if not p >= 1:
            raise ValueError(f"a power sum needs p >= 1, got {p}")
        self.p = p
        self.w = np.asarray(weights, dtype=float)
        self.M = np.asarray(M, dtype=np.int64)
        self._identity = np.array_equal(self.M, np.eye(self.w.size))
        self._rows, self._cols = np.nonzero(self.M)         # row by row, in order
        self._vals = self.M[self._rows, self._cols].astype(float)
        self.int_weights = (np.array([int(v) for v in self.w.tolist()], dtype=object)
                   if p == 1 and np.array_equal(self.w, np.round(self.w)) else None)

    @property
    def ternary_cones(self) -> bool:
        """p = 1 and every row is e_i or e_i +- e_j: the function is linear
        on the chambers of {x_i = +-x_j, x_i = 0}, simplicial cones on
        ternary rays."""
        A = np.abs(self.M)
        return self.p == 1 and bool((A <= 1).all() and (A.sum(axis=1) <= 2).all())

    def _image(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._identity:
            return x
        return np.bincount(self._rows, self._vals * x[self._cols], minlength=self.w.size)

    def __call__(self, x) -> float:
        p, total = self.p, 0.0
        for w, a in zip(self.w.tolist(), np.abs(self._image(x)).tolist()):
            total += w * a ** p
        return total

    def subgradient(self, x) -> SubgradientSet:
        t = self._image(x)
        p = self.p
        a = np.abs(t)
        # |t|^(p-1) as one numpy power for the identity and as one scalar
        # power per row otherwise, as G's and F's gradients have always
        # taken it: the two differ in the last bit now and then
        aq = a ** (p - 1) if self._identity else np.array([v ** (p - 1) for v in a.tolist()])
        c = p * self.w * (aq * np.sign(t))
        if not self._identity:
            c = np.bincount(self._cols, c[self._rows] * self._vals, minlength=self.M.shape[1])
        if p != 1:
            return SubgradientSet(c)
        Z = t == 0
        return SubgradientSet(c, self.w[Z, None] * self.M[Z])

    def exact(self, X) -> list:
        """The values at the integer points X (rows) as Python ints; for
        p = 1 and integer weights, ``int_weights``."""
        return (np.abs(np.asarray(X) @ self.M.T) @ self.int_weights).tolist()

    @property
    def exact_sums(self) -> bool:
        """p = 1, integer weights and sum_r |w_r M_ri| < 2^53 for every
        column i: every float sum of a subgradient's terms is then a sum of
        integers below 2^53, exact in any order."""
        if self.int_weights is None:
            return False
        totals = np.abs(self.M).T @ np.abs(self.int_weights)
        return max(totals.tolist(), default=0) < 2 ** 53

    def box_subgradients(self, X) -> tuple[np.ndarray, np.ndarray]:
        """For p = 1, the subgradient sets at the integer points X (rows) as
        two arrays: row k of the first is ``subgradient(X[k]).center`` and of
        the second the sum of |segments| per coordinate, sum_r w_r |M_ri|
        over the rows with (M x)_r = 0.  With ``exact_sums`` both equal the
        per-point floats exactly."""
        T = np.asarray(X) @ self.M.T
        return (self.w * np.sign(T)) @ self.M, ((T == 0) * self.w) @ np.abs(self.M)


@dataclass
class EigenPair:
    lam: float
    x: np.ndarray
    residual: Optional[float] = None
    history: Optional[list] = None
    converged: bool = True


@dataclass
class HomogeneousPair:
    """Two p-homogeneous locally Lipschitz functions with subgradient
    oracles.  F and G are ``PowerSum``s for graph pairs, and the chemical
    pair's G is one; the ternary enumeration reads its exact route from
    them.  ``F_grad(x)`` gives (F(x), one subgradient of F at x) in one
    call, for the Dinkelbach inner descent; unset, the descent takes
    (F(x), F_subgrad(x).any_point()).  ``inner_argmin(w)``, when set,
    solves that descent's problem, argmin over the unit ball of
    F(z) - w.z, directly."""

    p: float
    F: Callable[[np.ndarray], float]
    G: Callable[[np.ndarray], float]
    F_subgrad: Callable[[np.ndarray], SubgradientSet]
    G_subgrad: Callable[[np.ndarray], SubgradientSet]
    F_grad: Optional[Callable] = None
    inner_argmin: Optional[Callable] = None

    def ratio(self, x) -> float:
        return self.F(x) / self.G(x)


def quadratic_form_pair(A, B) -> HomogeneousPair:
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return HomogeneousPair(
        2.0,
        lambda x: float(x @ A @ x),
        lambda x: float(x @ B @ x),
        lambda x: SubgradientSet(2.0 * (A @ x)),
        lambda x: SubgradientSet(2.0 * (B @ x)),
        inner_argmin=lambda w: _inner_quadratic(A, w),
    )


def _graph_pair(graph: WeightedGraph, p: float, sign: int) -> HomogeneousPair:
    """F(x) = sum_e w_e |x_i + sign x_j|^p, G(x) = sum_i deg_i |x_i|^p."""
    edges = graph.edges()
    M = np.zeros((len(edges), graph.n), dtype=np.int64)
    for r, (i, j, _) in enumerate(edges):
        M[r, i], M[r, j] = 1, sign
    F = PowerSum(p, [w for _, _, w in edges], M)
    G = PowerSum(p, graph.degrees, np.eye(graph.n))
    return HomogeneousPair(p, F, G, F.subgradient, G.subgradient)


def one_laplacian_pair(graph: WeightedGraph, signless: bool = False) -> HomogeneousPair:
    """F(x) = sum_e w_e |x_i -/+ x_j|, G(x) = sum_i deg_i |x_i|.

    Piecewise linear and 1-homogeneous; the linearity cells are simplicial
    cones on ternary rays, so ternary enumeration is exact for this pair.
    """
    return _graph_pair(graph, 1.0, 1 if signless else -1)


def graph_plap_pair(graph: WeightedGraph, p: float) -> HomogeneousPair:
    """Normalized graph p-Laplacian pair, p >= 1: sum w|x_i - x_j|^p over
    sum deg|x_i|^p."""
    return _graph_pair(graph, p, -1)


def chemical_plap_pair(H: ChemicalHypergraph, p: float) -> HomogeneousPair:
    """Extension-built p-Laplacian pair of a chemical hypergraph:
    F(x) = sum_e |max_{e_in} x - min_{e_out} x|^p, G(x) = sum deg_i |x_i|^p.

    F_grad makes one left-to-right pass over the edges (the sum never
    compensated, the lowest index winning a tie) and gives F and a
    subgradient as a list; F and F_sub are its two halves, and no point's
    terms are kept between calls.  G is a ``PowerSum``."""
    from .setfn import mask_members
    # a one-member side is a bare index: no max or min call for it
    sides = [tuple(I[0] if len(I) == 1 else I for I in map(mask_members, e))
             for e in H.edges]
    q = p - 1
    G = PowerSum(p, H.degrees, np.eye(H.n))

    def F_grad(x):
        xl = np.asarray(x, dtype=float).tolist()
        at = xl.__getitem__
        total, g = 0.0, [0.0] * H.n
        for I, O in sides:              # members ascend: a tie keeps the lowest
            i = I if I.__class__ is int else max(I, key=at)
            j = O if O.__class__ is int else min(O, key=at)
            t = xl[i] - xl[j]
            a = abs(t)
            total += a ** p
            if t == 0:
                continue                # c would be +-0.0 for every p
            sign = 1.0 if t > 0 else -1.0
            c = p * (a ** q * sign) if p > 1 else sign
            g[i] += c
            g[j] -= c
        return total, g

    return HomogeneousPair(p, lambda x: F_grad(x)[0], G,
                           lambda x: SubgradientSet(F_grad(x)[1]), G.subgradient,
                           F_grad=F_grad)


# ---------------------------------------------------------------------------
# residual certification
# ---------------------------------------------------------------------------

def _dual_gap(U: SubgradientSet, V: SubgradientSet, lam: float, Y) -> float:
    """Lower bound on ``polytope_gap`` without an LP, by weak duality:
    ||u - lam v||_inf is the max of y.(u - lam v) over ||y||_1 <= 1, so each
    row y of ``Y`` (||y||_1 = 1) bounds the gap by the min over U x V of
    y.(u - lam v): y.(c_U - lam c_V) - sum |y.s| over U's segments - |lam|
    sum |y.s| over V's."""
    L = Y @ (U.center - lam * V.center)
    L -= np.abs(Y @ U.segments.T).sum(axis=1) + abs(lam) * np.abs(Y @ V.segments.T).sum(axis=1)
    return max(float(L.max()), 0.0)


def polytope_gap(U: SubgradientSet, V: SubgradientSet, lam: float) -> float:
    """min over u in U, v in V of ||u - lam v||_inf, by LP: the variables
    are U's segment weights, V's (each in [-1, 1]) and the bound eps >= 0,
    with rows +-(u - lam v)_i <= eps for each coordinate i."""
    const = U.center - lam * V.center
    if U.is_singleton() and V.is_singleton():
        return float(np.max(np.abs(const)))
    B = np.hstack([U.segments.T, -lam * V.segments.T])
    nv = B.shape[1] + 1
    A_ub = np.empty((2 * U.n, nv))
    A_ub[0::2, :-1], A_ub[1::2, :-1], A_ub[:, -1] = B, -B, -1.0
    b_ub = np.empty(2 * U.n)
    b_ub[0::2], b_ub[1::2] = -const, const
    c = np.zeros(nv)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(-1.0, 1.0)] * (nv - 1) + [(0.0, None)])
    if res.status != "optimal":
        return np.inf
    return max(res.objective, 0.0)


def eigen_residual(pair: HomogeneousPair, lam: float, x) -> float:
    """Certified distance from 0 to dF(x) - lam dG(x) in the sup norm."""
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("x must be nonzero")
    return polytope_gap(pair.F_subgrad(x), pair.G_subgrad(x), lam)


# ---------------------------------------------------------------------------
# subspace projections G_Pi
# ---------------------------------------------------------------------------

def g_pi_projection(x, v, weights, p: float) -> tuple[float, float]:
    """Minimize phi(t) = sum_i w_i |x_i - t v_i|^p over t; returns (value, t*).

    Closed form for p = 2 (weighted mean), weighted median for p = 1.
    Otherwise Newton's method on the monotone phi'(t) = -p sum w_i v_i
    sgn(e_i) |e_i|^(p-1), e_i = x_i - t v_i (sums over v_i != 0), kept in
    the bracket [min, max] of x_i / v_i.  It starts at t = 0 clipped into
    the bracket, as most points are already projected, and moves a bracket
    end to each t by the sign of phi'.  A Newton step that leaves the
    bracket, exceeds half the step before last or meets an infinite phi''
    (p < 2, a coordinate at its kink) becomes a bisection; one shorter
    than tol = 2e-16 max(|lo|, |hi|) is lengthened to tol, so the next
    evaluation can close the bracket.  The search ends only when phi' = 0,
    the bracket is within tol, or after 200 evaluations.  For p < 2 the
    kink x_i / v_i nearest t* is also tried (t* may be within rounding).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(weights, dtype=float)

    def phi(t):
        return float(np.sum(w * np.abs(x - t * v) ** p))

    if p == 2:
        den = float(np.sum(w * v * v))
        t = float(np.sum(w * v * x)) / den if den > 0 else 0.0
        return phi(t), t
    nz = v != 0
    if not np.any(nz):
        return phi(0.0), 0.0
    ratios = x[nz] / v[nz]
    if p == 1:
        ww = w[nz] * np.abs(v[nz])
        order = np.argsort(ratios, kind="stable")
        cum = np.cumsum(ww[order])
        half = cum[-1] / 2.0
        t = float(ratios[order][min(np.searchsorted(cum, half), len(cum) - 1)])
        return phi(t), t
    lo, hi = float(ratios.min()), float(ratios.max())
    xs, vs, wv = x[nz], v[nz], w[nz] * v[nz]
    step_tol = 2e-16 * max(abs(lo), abs(hi))
    t = min(max(0.0, lo), hi)
    last = older = hi - lo              # the last two steps
    for _ in range(200):
        e = xs - t * vs
        a = np.abs(e)
        d = -float(np.sum(wv * np.sign(e) * a ** (p - 1)))     # phi'(t) / p
        if d == 0:
            break
        lo, hi = (lo, t) if d > 0 else (t, hi)
        kink = p < 2 and not a.all()    # phi'' infinite: no Newton step
        dd = 0.0 if kink else (p - 1) * float(np.sum(wv * vs * a ** (p - 2)))  # phi''/p
        step = -d / dd if dd > 0 else math.inf
        mid = 0.5 * (lo + hi)
        if hi - lo <= step_tol or not lo < mid < hi:
            t = t + step if lo <= t + step <= hi else mid
            break
        step = math.copysign(max(abs(step), step_tol), step)
        if lo < t + step < hi and 2.0 * abs(step) <= older:
            t, step = t + step, abs(step)
        else:
            t, step = mid, 0.5 * (hi - lo)
        older, last = last, step
    if p < 2:
        k = float(ratios[np.argmin(np.abs(ratios - t))])
        return min((phi(t), t), (phi(k), k))
    return phi(t), t


class SubspaceProjection:
    """G_Pi(x) = inf over z in Pi of G(x + z), with a minimizer oracle."""

    def __init__(self, basis, minimize: Callable[[np.ndarray], tuple]):
        B = np.asarray(basis, dtype=float)
        self.basis = B.reshape(1, -1) if B.ndim == 1 else B
        self._minimize = minimize

    def minimize(self, x) -> tuple[float, np.ndarray]:
        """(G_Pi(x), z in Pi with G(x + z) = G_Pi(x))."""
        return self._minimize(np.asarray(x, dtype=float))


def projection_diag_power(weights, p: float, direction) -> SubspaceProjection:
    """Projection oracle for G(x) = sum w_i |x_i|^p along the line spanned
    by ``direction``.

    One g_pi_projection call: closed forms for p = 1, 2, else its
    safeguarded Newton search, which starts at t = 0 and so stops after
    one or two evaluations on a point that is already projected.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(direction, dtype=float)

    def minimize(x):
        val, t = g_pi_projection(x, v, w, p)
        return val, 0.0 - t * v         # zero steps are +0.0: x + z maps -0.0 to +0.0

    return SubspaceProjection(v, minimize)


def projection_quadratic(Bmat, basis) -> SubspaceProjection:
    """Exact projection for G(x) = x^T B x along span(basis rows)."""
    Bq = np.asarray(Bmat, dtype=float)
    Z = np.asarray(basis, dtype=float).reshape(-1, Bq.shape[0])
    Zt = Z.T
    M = Z @ Bq @ Zt

    def minimize(x):
        t = np.linalg.solve(M, -(Z @ (Bq @ x)))
        z = Zt @ t
        return float((x + z) @ Bq @ (x + z)), z

    return SubspaceProjection(Z, minimize)


# ---------------------------------------------------------------------------
# Dinkelbach / RatioDCA iteration
# ---------------------------------------------------------------------------

def _inner_quadratic(M, w):
    """argmin over the unit ball of z^T M z - w.z (M symmetric PSD)."""
    n = M.shape[0]
    z = np.linalg.lstsq(2.0 * M, w, rcond=None)[0]
    if np.linalg.norm(z) <= 1.0:
        return z
    hi = 1.0
    while np.linalg.norm(np.linalg.solve(2.0 * M + hi * np.eye(n), w)) > 1.0:
        hi *= 2.0
        if hi > 1e12:
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = np.linalg.solve(2.0 * M + mid * np.eye(n), w)
        if np.linalg.norm(z) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.linalg.solve(2.0 * M + hi * np.eye(n), w)


def _inner_descent(fg, w, z0, iters=200):
    """Projected subgradient descent of F(z) - w.z on the unit ball, with
    (F(z), a subgradient of F) from one ``fg`` call per iterate; step
    eta_t = s0 / sqrt(t+1) with s0 from the first subgradient; keeps the
    best.  Iterates are new arrays, never changed in place."""
    f, g = fg(z0)
    best, bz, g = f - w @ z0, z0, g - w
    s0 = 1.0 / max(1.0, math.sqrt(g.dot(g)))   # np.linalg.norm's bits
    z = z0
    for t in range(iters):
        z = z - (s0 / math.sqrt(t + 1.0)) * g
        nz = math.sqrt(z.dot(z))
        if nz > 1.0:
            z = z / nz
        f, g = fg(z)
        v, g = f - w @ z, g - w
        if v < best:
            best, bz = v, z
    return bz


def dinkelbach_ratiodca(pair: HomogeneousPair, proj: SubspaceProjection, x0,
                        max_outer: int = 60, inner_iters: int = 200) -> EigenPair:
    """Minimize F(x) / G_Pi(x) by the Dinkelbach-type scheme.

    Each step linearizes G at the current point, solves the inner convex
    problem on the unit ball (by the pair's ``inner_argmin`` where it has
    one, as quadratic forms do, by projected subgradient descent otherwise) and re-projects along Pi.  A candidate
    is accepted only if the ratio decreases, so the ratio sequence is
    monotone non-increasing; for nonconvex F the result is a
    local estimate, never claimed global.  A start without a finite ratio
    (x0 in Pi, so G_Pi(x0) = 0) returns at once, not converged.

    Each point is projected once: for y = (x + z) / ||x + z||, with (G_Pi(x), z)
    from the oracle, p-homogeneity gives G_Pi(y) = G_Pi(x) / ||x + z||^p.
    """
    p = pair.p

    def project_out(x):                 # (y, F(y) / G_Pi(y))
        gv, z = proj.minimize(x)
        y = x + z
        nrm = float(np.linalg.norm(y))
        if nrm == 0:
            return y, np.inf
        y, g = y / nrm, gv / nrm ** p
        return y, (pair.F(y) / g if g > 1e-300 else np.inf)

    x, r = project_out(np.asarray(x0, dtype=float))
    history = [r]
    if not np.isfinite(r):
        return EigenPair(lam=r, x=x, history=history, converged=False)
    fg = pair.F_grad or (lambda y: (pair.F(y), pair.F_subgrad(y).any_point()))
    converged = False
    for _ in range(max_outer):
        v = pair.G_subgrad(x).center.copy()
        for b in proj.basis:            # drop the Pi component: v ~ dG_Pi(x)
            nb = b @ b
            if nb > 0:
                v -= (v @ b) / nb * b
        w = r * v
        if pair.inner_argmin:
            z = pair.inner_argmin(w)
        else:
            z = _inner_descent(fg, w, x, iters=inner_iters)
        cand, rc = project_out(z) if np.any(z) else (x, r)
        if not np.isfinite(rc) or rc > r - 1e-16:
            improved = False
            if np.any(cand):
                for t in np.linspace(0.05, 1.0, 20):
                    y, ry = project_out((1 - t) * x + t * cand)
                    if ry < r - 1e-14:
                        x, r = y, ry
                        improved = True
                        break
            if not improved:
                converged = True
                break
        else:
            x, r = cand, rc
        history.append(r)
        if abs(history[-2] - r) < 1e-10 * max(1.0, abs(r)):
            converged = True
            break
    return EigenPair(lam=r, x=x, history=history, converged=converged)


def dinkelbach_multistart(pair, proj, n, seed=42, starts=DEFAULT_STARTS,
                          extra_starts=(), certify=True, **kw) -> EigenPair:
    """Best Dinkelbach run over seeded random starts (order-independent min);
    with ``certify``, only that run gets an ``eigen_residual``."""
    best = None
    for c, x0 in enumerate(list(extra_starts) + [None] * starts):
        if x0 is None:
            x0 = _rng_for(seed, c).normal(size=n)
        ep = dinkelbach_ratiodca(pair, proj, x0, **kw)
        if np.isfinite(ep.lam) and (best is None or ep.lam < best.lam):
            best = ep
    if certify and best is not None:
        best.residual = eigen_residual(pair, best.lam, best.x)
    return best


# ---------------------------------------------------------------------------
# second-eigenvalue characterizations (exact for p = 2)
# ---------------------------------------------------------------------------

def _orth_basis_of_complement(Z, n):
    """Orthonormal basis of the orthogonal complement of the rows of Z."""
    Z = np.asarray(Z, dtype=float).reshape(-1, n)
    A = np.eye(n)
    for b in Z:
        nb = b @ b
        if nb > 0:
            A = A - np.outer(A @ b, b) / nb
    cols = []
    for j in range(n):
        c = A[:, j].copy()
        for q in cols:
            c -= (c @ q) * q
        nc = np.linalg.norm(c)
        if nc > 1e-10:
            cols.append(c / nc)
    return np.array(cols).T if cols else np.zeros((n, 0))


@dataclass
class SecondEigenReport:
    projected_form: float          # min over x perp Pi of F(x)/G_Pi(x)
    constrained_form: float        # min over {x : dG(x) meets Pi-perp} of F/G
    spectrum_value: float          # lambda_{dim Pi + 1} from the full solve
    gap: float
    spectrum: np.ndarray


def second_eigen_characterizations(A, B, Pi) -> SecondEigenReport:
    """Compare the projected, constrained and min-max forms of the first
    nontrivial eigenvalue for the quadratic pair (A, B); exact at p = 2."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Z = np.asarray(Pi, dtype=float)
    if Z.ndim == 1:
        Z = Z.reshape(1, -1)
    n = A.shape[0]
    d = Z.shape[0]
    w, _ = quadratic_pair_spectrum(A, B)
    lam_spec = w[d] if d < len(w) else np.inf

    # projected form: min over x perp Pi of x A x / G_Pi(x)
    Btilde = B - B @ Z.T @ np.linalg.solve(Z @ B @ Z.T, Z @ B)
    N = _orth_basis_of_complement(Z, n)
    wp, _ = quadratic_pair_spectrum(N.T @ A @ N, N.T @ Btilde @ N)
    lam_proj = wp[0]

    # constrained form: min over {x : B x perp Pi} of x A x / x B x
    K = _orth_basis_of_complement(Z @ B, n)
    wc, _ = quadratic_pair_spectrum(K.T @ A @ K, K.T @ B @ K)
    lam_con = wc[0]

    vals = [lam_proj, lam_con, lam_spec]
    return SecondEigenReport(lam_proj, lam_con, lam_spec,
                             float(max(vals) - min(vals)), w)


# ---------------------------------------------------------------------------
# Collatz-Wielandt power iteration for nonnegative pairs
# ---------------------------------------------------------------------------

@dataclass
class CWReport:
    lam: float
    x: np.ndarray
    lo: float
    hi: float
    converged: bool
    iterations: int


CW_MAX_ITERS = 20000


def collatz_wielandt_max(C, tol: float = 1e-10) -> CWReport:
    """Largest eigenvalue of a nonnegative pair by shifted power iteration.

    ``C`` is a nonnegative symmetric matrix or SymmetricTensor, paired with
    the identity (sum_i x_i^k).  The iteration starts at the uniform
    vector and runs at most ``CW_MAX_ITERS`` steps.  The certificate is
    the interval [min_i, max_i] of (C x^{k-1})_i / x_i^{k-1}, whose
    collapse proves optimality.  A zero row of a nonzero C raises
    ``ValueError``: there x_i decays to 0 and the ratio becomes 0 / 0.
    """
    if isinstance(C, SymmetricTensor):
        k = C.order
        n = C.dim
        apply_C = C.apply
        rows = {i for idx in C.entries for i in idx}
    else:
        Cm = np.asarray(C, dtype=float)
        if np.any(Cm < 0):
            raise ValueError("matrix must be entrywise nonnegative")
        k = 2
        n = Cm.shape[0]
        apply_C = lambda x: Cm @ x
        rows = set(np.flatnonzero(Cm.any(axis=1)).tolist())
    zero = [i for i in range(n) if i not in rows]
    if rows and zero:
        raise ValueError(f"row {zero[0]} of C is zero (vertex {zero[0] + 1} counting from 1), "
                         f"so the Collatz-Wielandt ratio there becomes 0 / 0")

    x = np.full(n, 1.0)
    x = x / np.linalg.norm(x)
    lo = hi = np.nan
    it = 0
    for it in range(1, CW_MAX_ITERS + 1):
        cx = apply_C(x)
        dx = x ** (k - 1)
        ratios = cx / dx
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
        y = (cx + dx) ** (1.0 / (k - 1))
        x = y / np.linalg.norm(y)
    lam = float((x @ apply_C(x)) / (x @ x ** (k - 1)))
    return CWReport(lam, x, lo, hi, hi - lo <= tol * max(1.0, abs(hi)), it)


# ---------------------------------------------------------------------------
# ternary enumeration for piecewise linear pairs
# ---------------------------------------------------------------------------

TERNARY_CAP = 8


def sign_canonical_box(n: int, N: int) -> np.ndarray:
    """The nonzero integer vectors with entries in [-N, N] whose first
    nonzero entry is positive, one per row in ``itertools.product`` order:
    one of each pair +-x."""
    X = np.indices((2 * N + 1,) * n).reshape(n, (2 * N + 1) ** n).T - N
    # the first nonzero entry's sign is the sign of sum_k sgn(x_k) 3^(n-1-k)
    return X[np.sign(X) @ 3 ** np.arange(n - 1, -1, -1) > 0]


@lru_cache(maxsize=TERNARY_CAP)
def _ternary_rows(n: int) -> np.ndarray:
    """The 3^n - 1 nonzero vectors of {-1, 0, 1}^n in product order, each
    over its l1 norm: the sign-canonical box is the half above 0, and its
    negation, reversed, the half below."""
    X = sign_canonical_box(n, 1)
    # column-major: BLAS's order of summing each row of Y @ v depends on
    # the layout, and the dual bound's last bits on that order
    Y = np.asfortranarray(np.vstack([-X[::-1], X]), dtype=float)
    Y /= np.abs(Y).sum(axis=1, keepdims=True)
    Y.flags.writeable = False                       # one array for every caller
    return Y


@dataclass
class TernarySpectrum:
    eigenvalues: list            # Fractions when the pair evaluates exactly
    witnesses: dict              # eigenvalue -> ternary vector (tuple)
    ratios_seen: set             # all candidate ratios, certified or not
    exact_for_pair: bool         # linearity cells generated by ternary rays
    tested: int


def _weight_scale(F) -> float:
    """2^-e, e the binary exponent of F's largest weight when F is a
    ``PowerSum`` with a positive weight, so that the largest weight times it
    lies in [1, 2); 1.0 otherwise.  Multiplying by it is exact, so deciding
    on the scaled subgradient sets makes the spectrum of a pair independent
    of a power-of-2 scale of its weights."""
    top = float(F.w.max(initial=0.0)) if isinstance(F, PowerSum) else 0.0
    return math.ldexp(1.0, 1 - math.frexp(top)[1]) if top > 0 else 1.0


def _box_rejections(F: PowerSum, G: PowerSum, X, lams, tol: float,
                    scale: float) -> np.ndarray:
    """``_dual_gap(U, V, lam, E) > tol`` at the rows E = +-e_i for every
    point x_k of X at once, with U and V the subgradient sets of F and G at
    x_k times ``scale`` and lam = lams[k].  For F and G with ``exact_sums``
    every center and segment sum is the integer that the per-point sets
    hold, and each later step is the same elementwise operation, in the
    same order, as ``_dual_gap``'s; so is every bound, and every decision."""
    CU, SU = (scale * A for A in F.box_subgradients(X))
    CV, SV = (scale * A for A in G.box_subgradients(X))
    lam = np.asarray(lams, dtype=float)[:, None]
    L = np.abs(CU - lam * CV) - (SU + np.abs(lam) * SV)
    return L.max(axis=1, initial=0.0) > tol


def ternary_eigen_enumerate(pair: HomogeneousPair, n: int,
                            tol: float = 1e-8) -> TernarySpectrum:
    """Certified eigenvalues with witnesses in {-1,0,1}^n.

    Every vector of the sign-canonical box (the pair is even) is scored by
    lambda = F(x)/G(x).  When F and G are ``PowerSum``s with exact values
    (p = 1, integer weights), lambda is a Fraction of the two Python ints
    that one product gives for every vector at once; otherwise it is the
    float ratio.  Residuals are decided on dF(x) and dG(x) times 2^-e, e the
    binary exponent of F's largest weight (``_weight_scale``), so that a
    power-of-2 scale of the weights moves no decision; the product is exact
    and does nothing for unit weights.  Each vector is then decided in this
    order:

    1. lambda already found (exactly for exact pairs, within ``tol`` for
       float pairs): skipped before any subgradient is built;
    2. rejected when the weak-duality bound ``_dual_gap`` on
       min ||u - lambda v||_inf over dF(x) x dG(x) exceeds ``tol``: first at
       the rows +-e_i (an interval bound per coordinate), then at every
       ternary row.  Each row gives a lower bound on the residual, so the
       rejection is certified.  When F and G have ``exact_sums`` (integer
       weights whose column sums stay below 2^53) the +-e_i bound of the
       whole box is one pass of array arithmetic (``_box_rejections``),
       equal to the per-vector bound vector by vector; only its survivors
       build subgradient sets (it is read before the skip of step 1, which
       then hashes fewer Fractions).  For 1-Laplacians (plain and signless)
       the bound at ternary rows equals the residual: the dual objective is
       linear on the chambers of the arrangement {y_i = +-y_j, y_i = 0},
       whose rays are ternary, so its maximum is at a ternary row and only
       eigenpairs reach the LP;
    3. otherwise kept when the residual LP ``polytope_gap`` certifies the
       eigenpair.

    When F and G are linear on simplicial cones on ternary rays (the
    ``ternary_cones`` of their ``PowerSum`` rows: graph 1-Laplacians and
    signless variants) this is the whole spectrum; otherwise a certified
    subset, which the ``exact_for_pair`` flag records.
    """
    if n > TERNARY_CAP:
        raise ValueError(f"ternary enumeration capped at n <= {TERNARY_CAP}")
    F, G = pair.F, pair.G
    sums = isinstance(F, PowerSum) and isinstance(G, PowerSum)
    X = sign_canonical_box(n, 1)
    box = list(map(tuple, X.tolist()))
    exact = (list(map(Fraction, F.exact(X), G.exact(X)))
             if sums and F.int_weights is not None and G.int_weights is not None else None)
    if exact is not None:
        keys = exact
        lams = list(map(float, exact))
        seen = set(exact)
    else:
        keys = lams = [pair.ratio(np.array(d, dtype=float)) for d in box]
        seen = {round(lam, 12) for lam in lams}
    scale = _weight_scale(F)
    rejected = (_box_rejections(F, G, X, lams, tol, scale).tolist()
                if exact is not None and F.exact_sums and G.exact_sums else None)
    found: dict = {}
    E, Y = np.vstack([np.eye(n), -np.eye(n)]), _ternary_rows(n)
    for k, digits in enumerate(box):
        if rejected is not None and rejected[k]:     # no Fraction lookup for these
            continue
        key, lam = keys[k], lams[k]
        if (key in found if exact is not None
                else any(abs(v - lam) <= tol for v in found)):
            continue
        x = np.array(digits, dtype=float)
        U, V = pair.F_subgrad(x), pair.G_subgrad(x)
        if scale != 1.0:
            U = SubgradientSet(U.center * scale, U.segments * scale)
            V = SubgradientSet(V.center * scale, V.segments * scale)
        if rejected is None and _dual_gap(U, V, lam, E) > tol or _dual_gap(U, V, lam, Y) > tol:
            continue
        if polytope_gap(U, V, lam) <= tol:
            found[key] = digits
    vals = sorted(found.keys(), key=float)
    return TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                           sums and F.ternary_cones and G.ternary_cones, len(X))


# ---------------------------------------------------------------------------
# norm duality
# ---------------------------------------------------------------------------

def _norm(x, p):
    x = np.asarray(x, dtype=float)
    if p == np.inf:
        return float(np.max(np.abs(x)))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def holder_conjugate(p):
    if p == 1:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def _dual_vector(g, q):
    """argmax of <g, x> over the unit q-norm ball."""
    g = np.asarray(g, dtype=float)
    if q == np.inf:
        s = np.sign(g)
        s[s == 0] = 1.0
        return s
    if q == 1:
        x = np.zeros_like(g)
        i = int(np.argmax(np.abs(g)))
        x[i] = np.sign(g[i]) if g[i] != 0 else 1.0
        return x
    qc = holder_conjugate(q)
    y = np.sign(g) * np.abs(g) ** (qc - 1)
    nrm = _norm(y, q)
    return y / nrm if nrm > 0 else y


def operator_norm_exact(T, p, q) -> Optional[float]:
    """Exact mixed operator norm where a finite route exists:
    (2, 2) via singular values; q = inf or p = 1 by sign enumeration."""
    T = np.asarray(T, dtype=float)
    m, n = T.shape
    if p == 2 and q == 2:
        w, _ = jacobi_eigh(T.T @ T)
        return float(np.sqrt(max(w[-1], 0.0)))
    if q == np.inf and n <= 20:
        best = 0.0
        for signs in product((-1.0, 1.0), repeat=n):
            best = max(best, _norm(T @ np.array(signs), p))
        return best
    if p == 1 and m <= 20:
        best = 0.0
        qc = holder_conjugate(q)
        for signs in product((-1.0, 1.0), repeat=m):
            best = max(best, _norm(T.T @ np.array(signs), qc))
        return best
    return None


@dataclass
class DualityReport:
    primal: float
    dual: float
    gap: float


def duality_spectrum_check(T, p, q) -> DualityReport:
    """max ||T x||_p / ||x||_q against max ||T^t y||_{q*} / ||y||_{p*},
    both by ``operator_norm_exact``; a norm pair without an exact route on
    either side raises ``ValueError``."""
    T = np.asarray(T, dtype=float)
    primal = operator_norm_exact(T, p, q)
    dual = operator_norm_exact(T.T, holder_conjugate(q), holder_conjugate(p))
    if primal is None or dual is None:
        raise ValueError(f"no exact operator norm route for (p, q) = ({p}, {q}) "
                         f"on a {T.shape[0]}x{T.shape[1]} matrix")
    return DualityReport(primal, dual, abs(primal - dual))


def incidence_vertex_edge_spectra(B) -> tuple[np.ndarray, np.ndarray, float]:
    """Nonzero spectra of B B^T and B^T B (eigenvalues above 1e-9); must
    agree at p = 2."""
    B = np.asarray(B, dtype=float)
    wv, _ = jacobi_eigh(B @ B.T)
    we, _ = jacobi_eigh(B.T @ B)
    nv = np.sort(wv[wv > 1e-9])
    ne = np.sort(we[we > 1e-9])
    if nv.size != ne.size:
        return nv, ne, np.inf
    gap = float(np.max(np.abs(nv - ne))) if nv.size else 0.0
    return nv, ne, gap




# ---------------------------------------------------------------------------
# support-function duality of the inner problem
# ---------------------------------------------------------------------------

def _quad_min_box(M, w):
    """argmin of z^T M z - w.z over the box [-1, 1]^n by exact coordinate
    minimization sweeps."""
    n = w.size
    z = np.zeros(n)
    for _ in range(300):
        delta = 0.0
        for i in range(n):
            rest = 2.0 * (M[i] @ z - M[i, i] * z[i])
            if M[i, i] > 1e-300:
                zi = (w[i] - rest) / (2.0 * M[i, i])
            else:
                zi = np.sign(w[i] - rest)
            zi = min(max(zi, -1.0), 1.0)
            delta = max(delta, abs(zi - z[i]))
            z[i] = zi
        if delta < 1e-14:
            break
    return z


def _sphere_norm2_max(A, b):
    """max of ||A y + b||_2 over ||y||_2 <= 1 (attained on the sphere).

    Stationarity (A^T A - mu I) y = -A^T b with mu above the top eigenvalue;
    ||y(mu)|| decreases in mu, so bisection finds the norm constraint.  The
    degenerate case (A^T b orthogonal to the top eigenspace) pads with a top
    eigenvector.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    M = A.T @ A
    n = M.shape[0]
    w, V = jacobi_eigh(M)
    lam_top = w[-1]
    c = A.T @ b

    def y_of(mu):
        return np.linalg.solve(M - mu * np.eye(n), -c)

    hi = lam_top + max(np.linalg.norm(c), 1e-6) + 1.0
    lo = lam_top + 1e-12
    try:
        ylo = y_of(lo)
        nlo = np.linalg.norm(ylo)
    except np.linalg.LinAlgError:
        nlo = np.inf
    if nlo < 1.0:                  # hard case: pad with a top eigenvector
        v = V[:, -1]
        t = np.sqrt(max(1.0 - nlo * nlo, 0.0))
        y = (ylo if np.isfinite(nlo) else np.zeros(n)) + t * v
        return float(np.linalg.norm(A @ y + b)), y
    while np.linalg.norm(y_of(hi)) > 1.0:
        hi = lam_top + 2 * (hi - lam_top)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.linalg.norm(y_of(mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    y = y_of(hi)
    ny = np.linalg.norm(y)
    if ny > 0:
        y = y / ny
    return float(np.linalg.norm(A @ y + b)), y


def _l1_min_box_lp(A, b, lin):
    """Exact min of ||A z + b||_1 - lin.z over the box [-1, 1]^n."""
    res = l1_residual_lp(A, b, np.ones(A.shape[0]), lin, 1.0)
    if res.status != "optimal":
        raise RuntimeError("box l1 LP failed")
    z = res.x[:A.shape[1]]
    return float(np.sum(np.abs(A @ z + b)) - lin @ z), z


def _mm_norm_min(A, b, lin, inner, fnorm):
    """min of ||A z + b||_fnorm - lin.z over a convex set, by majorizing the
    norm with a quadratic at the current point (at most 120 steps);
    ``inner`` solves the quadratic model argmin z^T M z - w.z over the set
    exactly."""
    m, n = A.shape
    AtA = A.T @ A
    z = inner(np.eye(n) * 1e-12, lin)
    # the origin is always feasible and is where the majorant degenerates
    best_val, best_z = _norm(b, fnorm), np.zeros(n)
    prev = np.inf
    for _ in range(120):
        r = A @ z + b
        if fnorm == 2:
            t = max(np.linalg.norm(r), 1e-12)
            M = AtA / (2.0 * t)
            w = lin - (A.T @ b) / t
        else:
            ws = np.maximum(np.abs(r), 1e-9)
            M = A.T @ (A / (2.0 * ws[:, None]))
            w = lin - A.T @ (b / ws)
        z = inner(M, w)
        val = _norm(A @ z + b, fnorm) - float(lin @ z)
        if val < best_val:
            best_val, best_z = val, z
        if val > prev - 1e-14:
            break
        prev = val
    return best_val, best_z


@dataclass
class DualInnerReport:
    min_primal: float
    min_dual: float
    max_primal: float
    max_dual: float

    @property
    def min_gap(self):
        return abs(self.min_primal - self.min_dual)

    @property
    def max_gap(self):
        return abs(self.max_primal - self.max_dual)


DUAL_INNER_STARTS = 16


def dual_inner_problem_check(T, u, fnorm: float = 2.0, ball: str = "l2",
                             seed: int = 42) -> DualInnerReport:
    """min/max over x in the unit ball B of F(T x) - x.u against the
    support-function dual over the unit ball of the dual norm F*.

    F is the l1 or l2 norm and B the l2 or sup-norm unit ball.  Minima run
    by majorize-minimize with exact quadratic steps; maxima of the convex
    objectives sit on extreme sets and use sign enumeration, the spherical
    quadratic maximizer, or monotone conditional-gradient ascent from the
    dual maximizer's direction and ``DUAL_INNER_STARTS`` seeded starts.
    """
    T = np.asarray(T, dtype=float)
    u = np.asarray(u, dtype=float)
    m, n = T.shape
    if fnorm not in (1, 2, 1.0, 2.0):
        raise ValueError("fnorm must be 1 or 2")
    if ball not in ("l2", "linf"):
        raise ValueError("ball must be 'l2' or 'linf'")
    fnorm = float(fnorm)

    def inner_primal(M, w):
        return _inner_quadratic(M, w) if ball == "l2" else _quad_min_box(M, w)

    if fnorm == 1.0 and ball == "linf":
        min_primal, _ = _l1_min_box_lp(T, np.zeros(m), u)
    else:
        min_primal, _ = _mm_norm_min(T, np.zeros(m), u, inner_primal, fnorm)

    # dual: - min over F*(y) <= 1 of h_B(u - T^t y)
    hnorm = 2.0 if ball == "l2" else 1.0    # h_B = ||.||_hnorm

    def inner_dual(M, w):
        return _inner_quadratic(M, w) if fnorm == 2.0 else _quad_min_box(M, w)

    if hnorm == 1.0 and fnorm == 1.0:
        dval, _ = _l1_min_box_lp(-T.T, u, np.zeros(m))
    else:
        dval, _ = _mm_norm_min(-T.T, u, np.zeros(m), inner_dual, hnorm)
    min_dual = -dval

    # max over F*(y) <= 1 of h_B(T^t y - u)
    if fnorm == 1.0:                        # F* ball is a box: vertices
        max_dual = -np.inf
        for s in product((-1.0, 1.0), repeat=m):
            y = np.array(s)
            val = _norm(T.T @ y - u, hnorm)
            if val > max_dual:
                max_dual, ywit = val, y
    elif ball == "l2":
        max_dual, ywit = _sphere_norm2_max(T.T, -u)
    else:                                   # h = l1 over the l2 ball
        max_dual = max(np.linalg.norm(T @ np.array(s)) - float(np.array(s) @ u)
                       for s in product((-1.0, 1.0), repeat=n))

    # max over x in B of F(Tx) - x.u
    if ball == "linf":                      # box vertices, exact
        max_primal = max(_norm(T @ np.array(s), fnorm) - float(np.array(s) @ u)
                         for s in product((-1.0, 1.0), repeat=n))
    else:
        def obj(x):
            return _norm(T @ x, fnorm) - float(x @ u)

        def grad(x):
            y = T @ x
            g = T.T @ _dual_vector(y, holder_conjugate(fnorm)) \
                if _norm(y, fnorm) > 0 else np.zeros(n)
            return g - u

        g0 = T.T @ ywit - u
        start_list = [g0 / np.linalg.norm(g0)] if np.linalg.norm(g0) > 0 else []
        for c in range(DUAL_INNER_STARTS):
            x = _rng_for(seed, 100 + c).normal(size=n)
            start_list.append(x / np.linalg.norm(x))
        best = -np.inf
        for x in start_list:
            for _ in range(300):
                g = grad(x)
                ng = np.linalg.norm(g)
                if ng == 0:
                    break
                xn = g / ng
                if np.allclose(xn, x, atol=1e-15):
                    break
                x = xn
            best = max(best, obj(x))
        max_primal = best
    return DualInnerReport(min_primal, min_dual, max_primal, max_dual)
