"""Test-side references for the spectral layer: the cyclic Jacobi loop that
copied its rows and columns, the round-robin Jacobi schedule applied one
rotation at a time, the ternary enumeration that ran the residual LP on
every vector and the one that rejected by coordinate intervals first, the one-Laplacian's exact F and G in Fraction arithmetic,
a pair composed with a linear map, and the Dinkelbach inner descent with
F and its subgradient as two callbacks (the chemical pair's over
memoized edge terms)."""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np

from homext import spectra


def jacobi_eigh_with_copies(S):
    """Cyclic Jacobi (pairs (p, q) in row order) with numpy scalars and six
    row/column copies per rotation."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    scale = max(1.0, np.abs(A).max())
    for _ in range(spectra.JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2)
        if off <= spectra.JACOBI_SWEEP_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) \
                    if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[p].copy(), A[q].copy()
                A[p] = c * rp - s * rq
                A[q] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def jacobi_eigh_one_rotation_at_a_time(S):
    """``spectra.jacobi_eigh``'s round-robin schedule with Python floats,
    one rotation at a time.  The rounds follow the circle method: index 0
    stays, the others move one place per round, ring[i] meets ring[m-1-i],
    and with n odd the extra index n marks the one that sits out.  Each
    round takes its angles from the matrix at the round's start, then
    rotates the row pairs one by one, then the column pairs, then the
    eigenvector columns."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    scale = max(1.0, np.abs(A).max())
    m = n + n % 2
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        rounds.append([(min(ring[i], ring[m - 1 - i]), max(ring[i], ring[m - 1 - i]))
                       for i in range(m // 2) if max(ring[i], ring[m - 1 - i]) < n])
        ring = [ring[0], ring[-1]] + ring[1:-1]
    for _ in range(spectra.JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2)
        if off <= spectra.JACOBI_SWEEP_TOL * scale:
            break
        for pairs in rounds:
            rotations = []
            for p, q in pairs:
                apq = float(A[p, q])
                if abs(apq) <= 1e-300:
                    continue
                theta = (float(A[q, q]) - float(A[p, p])) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0)) \
                    if theta != 0 else 1.0
                c = 1.0 / math.sqrt(t * t + 1.0)
                rotations.append((p, q, c, t * c))
            for p, q, c, s in rotations:
                rp, rq = A[p].copy(), A[q].copy()
                A[p] = c * rp - s * rq
                A[q] = s * rp + c * rq
            for p, q, c, s in rotations:
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
            for p, q, c, s in rotations:
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    w = np.diag(A).copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def ternary_residual_first(pair, n, tol=1e-8):
    """``spectra.ternary_eigen_enumerate`` as it was before the closeness
    skip and the interval bound: the residual LP on every vector, then an
    exact eigenvalue kept unless already found, and a float one unless
    within ``tol`` of one found."""
    found = {}
    seen = set()
    tested = 0
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
        if spectra.eigen_residual(pair, lam, x) <= tol:
            if lam_exact is not None:
                if lam_exact not in found:
                    found[lam_exact] = digits
            elif not [k for k in found if abs(k - lam) <= tol]:
                found[lam] = digits
    vals = sorted(found.keys(), key=float)
    return spectra.TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                                   pair.tag in spectra.EXACT_TERNARY_TAGS, tested)


def interval_gap(U, V, lam):
    """Lower bound on ``spectra.polytope_gap`` without an LP: the largest
    distance from 0 to a coordinate's range of u_i - lam v_i, which is
    center +- sum |segments| plus the points' coordinate-wise min and max."""
    c = U.center - lam * V.center
    r = np.abs(U.segments).sum(axis=0) + np.abs(lam * V.segments).sum(axis=0)
    for P in (U.points, -lam * V.points):
        if P.shape[0]:
            lo, hi = P.min(axis=0), P.max(axis=0)
            c = c + 0.5 * (lo + hi)
            r = r + 0.5 * (hi - lo)
    return max(float(np.max(np.abs(c) - r)), 0.0)


def ternary_interval_then_lp(pair, n, tol=1e-8):
    """``spectra.ternary_eigen_enumerate`` as it was before the dual bound:
    a lambda already found is skipped, a vector whose coordinate intervals
    stay more than ``tol`` away from 0 is rejected, and the residual LP
    decides the rest."""
    found = {}
    seen = set()
    tested = 0
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
        if interval_gap(U, V, lam) > tol:
            continue
        if spectra.polytope_gap(U, V, lam) <= tol:
            found[lam_exact if lam_exact is not None else lam] = digits
    vals = sorted(found.keys(), key=float)
    return spectra.TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                                   pair.tag in spectra.EXACT_TERNARY_TAGS, tested)


def fraction_exact_pair(graph, signless=False):
    """The one-Laplacian's exact F and G with every term a Fraction."""
    edges = graph.edges()
    deg = graph.degrees

    def exactF(x):
        s = Fraction(0)
        for i, j, w in edges:
            t = Fraction(x[i]) + (Fraction(x[j]) if signless else -Fraction(x[j]))
            s += Fraction(int(round(w))) * abs(t)
        return s

    def exactG(x):
        return sum(Fraction(int(round(deg[i]))) * abs(Fraction(x[i]))
                   for i in range(graph.n))

    return exactF, exactG


def compose_odd_linear(pair, M):
    """The pair (F o M, G o M) for an invertible linear map M; each
    subgradient set is mapped by M^T."""
    M = np.asarray(M, dtype=float)
    MT = M.T

    def image(S):
        return spectra.SubgradientSet(MT @ S.center, (MT @ S.segments.T).T,
                                      (MT @ S.points.T).T)

    return spectra.HomogeneousPair(
        pair.p, lambda x: pair.F(M @ x), lambda x: pair.G(M @ x),
        lambda x: image(pair.F_subgrad(M @ x)),
        lambda x: image(pair.G_subgrad(M @ x)), tag="composite")


def chemical_pair_with_edge_terms(H, p):
    """``spectra.chemical_plap_pair`` with F and F_sub as two callbacks
    over per-edge terms (argmax over e_in, argmin over e_out, difference),
    the last point's terms kept and keyed on its exact bytes; G and G_sub
    are the pair's own.  F_grad is unset, so the descent takes F and
    F_sub's ``any_point``."""
    from homext.setfn import mask_members
    ins = [mask_members(e_in) for e_in, _ in H.edges]
    outs = [mask_members(e_out) for _, e_out in H.edges]
    last = [None, None]

    def edge_terms(x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if last[0] == key:
            return last[1]
        xl = x.tolist()
        at = xl.__getitem__
        out = []
        for I, O in zip(ins, outs):
            imax = max(I, key=at)       # members ascend: first max is lowest
            jmin = min(O, key=at)
            out.append((imax, jmin, xl[imax] - xl[jmin]))
        last[:] = key, out
        return out

    def F(x):
        total = 0.0
        for _, _, t in edge_terms(x):
            total += abs(t) ** p
        return total

    def F_sub(x):
        g = [0.0] * H.n
        for imax, jmin, t in edge_terms(x):
            if t == 0:
                continue
            sign = 1.0 if t > 0 else -1.0
            c = p * (abs(t) ** (p - 1) * sign) if p > 1 else sign
            g[imax] += c
            g[jmin] -= c
        return spectra.SubgradientSet(g)

    pair = spectra.chemical_plap_pair(H, p)
    return dataclasses.replace(pair, F=F, F_subgrad=F_sub, F_grad=None)


def inner_descent_two_callbacks(obj, grad, z0, iters=200):
    """The projected subgradient descent with the objective and the
    subgradient as two callbacks, ``np.linalg.norm`` and a copy of every
    improving iterate."""
    z = z0.copy()
    best, bz = obj(z), z.copy()
    s0 = 1.0 / max(1.0, np.linalg.norm(grad(z)))
    for t in range(iters):
        g = grad(z)
        z = z - (s0 / np.sqrt(t + 1.0)) * g
        nz = np.linalg.norm(z)
        if nz > 1.0:
            z = z / nz
        v = obj(z)
        if v < best:
            best, bz = v, z.copy()
    return bz


def dinkelbach_two_callbacks(pair, proj, x0, **kw):
    """``spectra.dinkelbach_ratiodca`` whose inner descent asks pair.F
    and pair.F_subgrad(y).any_point() apart, through
    ``inner_descent_two_callbacks``."""
    def descent(fg, w, z0, iters):
        return inner_descent_two_callbacks(lambda y: pair.F(y) - w @ y,
                                           lambda y: pair.F_subgrad(y).any_point() - w,
                                           z0, iters)

    saved = spectra._inner_descent
    spectra._inner_descent = descent
    try:
        return spectra.dinkelbach_ratiodca(pair, proj, x0, **kw)
    finally:
        spectra._inner_descent = saved
