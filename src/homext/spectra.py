"""Eigenvalue machinery for pairs (F, G) of p-homogeneous functions.

An eigenpair (lambda, x) satisfies 0 in dF(x) - lambda dG(x), with d the
Clarke subdifferential.  Subdifferentials are carried as finite data
(center + segment directions + hull points), which turns the membership
test into a small linear program.

The module also holds the dense symmetric eigensolver (round-robin Jacobi),
the Dinkelbach/RatioDCA iteration, the Collatz-Wielandt power iteration
for nonnegative tensor pairs, ternary-vertex enumeration for piecewise
linear pairs, and the norm-duality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Polytope  center + sum_i [-1,1] seg_i + conv(points).

    ``segments`` is an (m, n) array of segment directions (may be empty);
    ``points`` an (r, n) array of hull generators (empty means {0}).
    A smooth gradient is a bare center.
    """

    center: np.ndarray
    segments: Optional[np.ndarray] = None
    points: Optional[np.ndarray] = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        n = self.center.size
        if self.segments is None:
            self.segments = np.zeros((0, n))
        else:
            self.segments = np.asarray(self.segments, dtype=float).reshape(-1, n)
        if self.points is None:
            self.points = np.zeros((0, n))
        else:
            self.points = np.asarray(self.points, dtype=float).reshape(-1, n)

    @property
    def n(self) -> int:
        return self.center.size

    def is_singleton(self) -> bool:
        return self.segments.shape[0] == 0 and self.points.shape[0] == 0

    def any_point(self) -> np.ndarray:
        g = self.center.copy()
        if self.points.shape[0]:
            g = g + self.points[0]
        return g


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
    oracles.  ``tag`` records the structure class so solvers can pick
    exact routes.  ``F_grad(x)`` gives (F(x), one subgradient of F at x)
    in one call, for the Dinkelbach inner descent; unset, the descent
    takes (F(x), F_subgrad(x).any_point())."""

    p: float
    F: Callable[[np.ndarray], float]
    G: Callable[[np.ndarray], float]
    F_subgrad: Callable[[np.ndarray], SubgradientSet]
    G_subgrad: Callable[[np.ndarray], SubgradientSet]
    tag: str = "composite"
    data: dict = field(default_factory=dict)
    exact_F: Optional[Callable] = None
    exact_G: Optional[Callable] = None
    F_grad: Optional[Callable] = None

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
        tag="quadratic-form",
        data={"A": A, "B": B},
    )


def _abs_subgrad_terms(x, weights):
    """center and segments of d sum_i w_i |x_i|."""
    n = len(x)
    center = np.zeros(n)
    segs = []
    for i in range(n):
        if x[i] > 0:
            center[i] = weights[i]
        elif x[i] < 0:
            center[i] = -weights[i]
        else:
            e = np.zeros(n)
            e[i] = weights[i]
            segs.append(e)
    return center, np.array(segs).reshape(-1, n)


def one_laplacian_pair(graph: WeightedGraph, signless: bool = False) -> HomogeneousPair:
    """F(x) = sum_e w_e |x_i -/+ x_j|, G(x) = sum_i deg_i |x_i|.

    Piecewise linear and 1-homogeneous; the linearity cells are simplicial
    cones on ternary rays, so ternary enumeration is exact for this pair.
    """
    deg = graph.degrees
    edges = graph.edges()
    sgn = 1.0 if signless else -1.0

    def F(x):
        return float(sum(w * abs(x[i] + sgn * x[j]) for i, j, w in edges))

    def G(x):
        return float(sum(deg[i] * abs(x[i]) for i in range(graph.n)))

    def F_sub(x):
        n = graph.n
        center = np.zeros(n)
        segs = []
        for i, j, w in edges:
            t = x[i] + sgn * x[j]
            d = np.zeros(n)
            d[i] = w
            d[j] = sgn * w
            if t > 0:
                center += d
            elif t < 0:
                center -= d
            else:
                segs.append(d)
        return SubgradientSet(center, np.array(segs).reshape(-1, n))

    def G_sub(x):
        center, segs = _abs_subgrad_terms(x, deg)
        return SubgradientSet(center, segs)

    exactF = None
    exactG = None
    if graph.integral:
        # integer weights, rounded once; int coordinates stay int and only
        # the total becomes a Fraction
        isgn = 1 if signless else -1
        iedges = [(i, j, int(round(w))) for i, j, w in edges]
        ideg = [int(round(d)) for d in deg]

        def _exact(v):
            return v if isinstance(v, int) else Fraction(v)

        def exactF(x):
            x = [_exact(v) for v in x]
            return Fraction(sum(w * abs(x[i] + isgn * x[j]) for i, j, w in iedges))

        def exactG(x):
            return Fraction(sum(d * abs(_exact(v)) for d, v in zip(ideg, x)))

    return HomogeneousPair(1.0, F, G, F_sub, G_sub,
                           tag="signless-one-laplacian" if signless else "one-laplacian",
                           data={"graph": graph},
                           exact_F=exactF, exact_G=exactG)


def graph_plap_pair(graph: WeightedGraph, p: float) -> HomogeneousPair:
    """Normalized graph p-Laplacian pair: sum w|x_i - x_j|^p over sum deg|x_i|^p."""
    if p <= 1:
        raise ValueError("use one_laplacian_pair for p = 1")
    edges = graph.edges()
    deg = graph.degrees

    def F(x):
        return float(sum(w * abs(x[i] - x[j]) ** p for i, j, w in edges))

    def G(x):
        return float(sum(deg[i] * abs(x[i]) ** p for i in range(graph.n)))

    def phi(t):
        return abs(t) ** (p - 1) * np.sign(t)

    def F_sub(x):
        g = np.zeros(graph.n)
        for i, j, w in edges:
            t = x[i] - x[j]
            g[i] += p * w * phi(t)
            g[j] -= p * w * phi(t)
        return SubgradientSet(g)

    def G_sub(x):
        return SubgradientSet(p * deg * phi(np.asarray(x, dtype=float)))

    return HomogeneousPair(p, F, G, F_sub, G_sub, tag="power-form",
                           data={"graph": graph})


def chemical_plap_pair(H: ChemicalHypergraph, p: float) -> HomogeneousPair:
    """Extension-built p-Laplacian pair of a chemical hypergraph:
    F(x) = sum_e |max_{e_in} x - min_{e_out} x|^p, G(x) = sum deg_i |x_i|^p.

    F_grad makes one left-to-right pass over the edges (the sum never
    compensated, the lowest index winning a tie) and gives F and a
    subgradient as a list; F and F_sub are its two halves, and no point's
    terms are kept between calls."""
    from .setfn import mask_members
    deg = H.degrees
    # a one-member side is a bare index: no max or min call for it
    sides = [tuple(I[0] if len(I) == 1 else I for I in map(mask_members, e))
             for e in H.edges]
    q = p - 1

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

    def G(x):
        return float(sum(deg[i] * abs(x[i]) ** p for i in range(H.n)))

    def phi(t):
        return abs(t) ** (p - 1) * np.sign(t)

    def G_sub(x):
        if p > 1:
            return SubgradientSet(p * deg * phi(np.asarray(x, dtype=float)))
        center, segs = _abs_subgrad_terms(x, deg)
        return SubgradientSet(center, segs)

    return HomogeneousPair(p, lambda x: F_grad(x)[0], G,
                           lambda x: SubgradientSet(F_grad(x)[1]), G_sub,
                           tag="power-form", data={"hypergraph": H}, F_grad=F_grad)


# ---------------------------------------------------------------------------
# residual certification
# ---------------------------------------------------------------------------

def _dual_gap(U: SubgradientSet, V: SubgradientSet, lam: float, Y) -> float:
    """Lower bound on ``polytope_gap`` without an LP, by weak duality:
    ||u - lam v||_inf is the max of y.(u - lam v) over ||y||_1 <= 1, so each
    row y of ``Y`` (||y||_1 = 1) bounds the gap by the min over U x V of
    y.(u - lam v): y.(c_U - lam c_V) - sum |y.s| over U's segments - |lam|
    sum |y.s| over V's, plus the least y.p over U's points and the least
    -lam y.q over V's."""
    L = Y @ (U.center - lam * V.center)
    L -= np.abs(Y @ U.segments.T).sum(axis=1) + abs(lam) * np.abs(Y @ V.segments.T).sum(axis=1)
    for P in (U.points, -lam * V.points):
        if P.shape[0]:
            L += (Y @ P.T).min(axis=1)
    return max(float(L.max()), 0.0)


def polytope_gap(U: SubgradientSet, V: SubgradientSet, lam: float) -> float:
    """min over u in U, v in V of ||u - lam v||_inf, by LP."""
    n = U.n
    mF, rF = U.segments.shape[0], U.points.shape[0]
    mG, rG = V.segments.shape[0], V.points.shape[0]
    if U.is_singleton() and V.is_singleton():
        return float(np.max(np.abs(U.center - lam * V.center)))
    nv = mF + rF + mG + rG + 1
    idx_eps = nv - 1
    const = U.center - lam * V.center

    def row(i, sign):
        r = np.zeros(nv)
        r[:mF] = sign * U.segments[:, i]
        r[mF:mF + rF] = sign * U.points[:, i]
        r[mF + rF:mF + rF + mG] = -sign * lam * V.segments[:, i]
        r[mF + rF + mG:mF + rF + mG + rG] = -sign * lam * V.points[:, i]
        r[idx_eps] = -1.0
        return r

    A_ub, b_ub = [], []
    for i in range(n):
        A_ub.append(row(i, 1.0))
        b_ub.append(-const[i])
        A_ub.append(row(i, -1.0))
        b_ub.append(const[i])
    A_eq, b_eq = [], []
    if rF:
        e = np.zeros(nv)
        e[mF:mF + rF] = 1.0
        A_eq.append(e)
        b_eq.append(1.0)
    if rG:
        e = np.zeros(nv)
        e[mF + rF + mG:mF + rF + mG + rG] = 1.0
        A_eq.append(e)
        b_eq.append(1.0)
    bounds = ([(-1.0, 1.0)] * mF + [(0.0, None)] * rF
              + [(-1.0, 1.0)] * mG + [(0.0, None)] * rG + [(0.0, None)])
    c = np.zeros(nv)
    c[idx_eps] = 1.0
    res = linprog(c, A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(A_eq) if A_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None, bounds=bounds)
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
    problem on the unit ball (exactly for quadratic forms, by projected
    subgradient descent otherwise) and re-projects along Pi.  A candidate
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
    quad = pair.tag == "quadratic-form"
    fg = pair.F_grad or (lambda y: (pair.F(y), pair.F_subgrad(y).any_point()))
    converged = False
    for _ in range(max_outer):
        v = pair.G_subgrad(x).center.copy()
        for b in proj.basis:            # drop the Pi component: v ~ dG_Pi(x)
            nb = b @ b
            if nb > 0:
                v -= (v @ b) / nb * b
        w = r * v
        if quad:
            z = _inner_quadratic(pair.data["A"], w)
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
    collapse proves optimality.
    """
    if isinstance(C, SymmetricTensor):
        k = C.order
        n = C.dim
        apply_C = C.apply
    else:
        Cm = np.asarray(C, dtype=float)
        if np.any(Cm < 0):
            raise ValueError("matrix must be entrywise nonnegative")
        k = 2
        n = Cm.shape[0]
        apply_C = lambda x: Cm @ x

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
EXACT_TERNARY_TAGS = {"one-laplacian", "signless-one-laplacian"}


@lru_cache(maxsize=TERNARY_CAP)
def _ternary_rows(n: int) -> np.ndarray:
    """The 3^n - 1 nonzero vectors of {-1, 0, 1}^n, each over its l1 norm."""
    Y = np.indices((3,) * n).reshape(n, 3 ** n).T - 1.0
    Y = np.delete(Y, Y.shape[0] // 2, axis=0)       # the zero vector
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


def ternary_eigen_enumerate(pair: HomogeneousPair, n: int,
                            tol: float = 1e-8) -> TernarySpectrum:
    """Certified eigenvalues with witnesses in {-1,0,1}^n.

    Every nonzero ternary vector (up to global sign; the pair is even) is
    scored by lambda = F(x)/G(x), exactly when the pair has ``exact_F``,
    and then decided in this order:

    1. lambda already found (exactly for exact pairs, within ``tol`` for
       float pairs): skipped before any subgradient is built;
    2. rejected when the weak-duality bound ``_dual_gap`` on
       min ||u - lambda v||_inf over dF(x) x dG(x) exceeds ``tol``: first at
       the rows +-e_i (an interval bound per coordinate), then at every
       ternary row.  Each row gives a lower bound on the residual, so the
       rejection is certified.  For 1-Laplacians (plain and signless) the
       bound at ternary rows equals the residual: the dual objective is
       linear on the chambers of the arrangement {y_i = +-y_j, y_i = 0},
       whose rays are ternary, so its maximum is at a ternary row and only
       eigenpairs reach the LP;
    3. otherwise kept when the residual LP ``polytope_gap`` certifies the
       eigenpair.

    For pairs whose linearity cells are simplicial cones on ternary rays
    (graph 1-Laplacians and signless variants) this is the whole spectrum;
    otherwise a certified subset, which the ``exact_for_pair`` flag records.
    """
    if n > TERNARY_CAP:
        raise ValueError(f"ternary enumeration capped at n <= {TERNARY_CAP}")
    found: dict = {}
    seen = set()
    tested = 0
    E, Y = np.vstack([np.eye(n), -np.eye(n)]), _ternary_rows(n)
    for digits in product((-1, 0, 1), repeat=n):
        if all(d == 0 for d in digits):
            continue
        first = next(d for d in digits if d != 0)
        if first < 0:
            continue
        x = np.array(digits, dtype=float)
        tested += 1
        if pair.exact_F is not None:
            lam_exact = pair.exact_F(digits) / pair.exact_G(digits)
            lam = float(lam_exact)
        else:
            lam_exact = None
            lam = pair.ratio(x)
        seen.add(lam_exact if lam_exact is not None else round(lam, 12))
        if lam_exact in found or lam_exact is None and any(abs(k - lam) <= tol for k in found):
            continue
        U, V = pair.F_subgrad(x), pair.G_subgrad(x)
        if _dual_gap(U, V, lam, E) > tol or _dual_gap(U, V, lam, Y) > tol:
            continue
        if polytope_gap(U, V, lam) <= tol:
            found[lam_exact if lam_exact is not None else lam] = digits
    vals = sorted(found.keys(), key=float)
    return TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                           pair.tag in EXACT_TERNARY_TAGS, tested)


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
