"""Test-side references for the spectral layer: the cyclic Jacobi loop that
copied its rows and columns, the round-robin Jacobi schedule applied one
rotation at a time, the ternary enumeration that ran the residual LP on
every vector, the one that rejected by coordinate intervals first and the
one that built every vector's subgradient sets for the +-e_i bound, the
graph pairs and the chemical pair's G as per-pair closures (with the
one-Laplacian's exact F and G), the one-Laplacian's exact F and G in
Fraction arithmetic, the residual LP as it was built with hull points, a
pair composed with a linear map, and the Dinkelbach inner descent with F
and its subgradient as two callbacks (the chemical pair's over memoized
edge terms)."""

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


def scaled_subgradients(pair, x, scale):
    """dF(x) and dG(x), each center and segment times ``scale``."""
    U, V = pair.F_subgrad(x), pair.G_subgrad(x)
    return (spectra.SubgradientSet(U.center * scale, U.segments * scale),
            spectra.SubgradientSet(V.center * scale, V.segments * scale))


def ternary_residual_first(pair, n, tol=1e-8, scale=1.0):
    """``spectra.ternary_eigen_enumerate`` as it was before the closeness
    skip and the interval bound: the residual LP on every vector, then an
    exact eigenvalue kept unless already found, and a float one unless
    within ``tol`` of one found.  Residuals are taken on dF(x) and dG(x)
    times ``scale``."""
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
        if getattr(pair, "exact_F", None) is not None:
            lam_exact = pair.exact_F(digits) / pair.exact_G(digits)
            lam = float(lam_exact)
        else:
            lam_exact = None
            lam = pair.ratio(x)
        seen.add(lam_exact if lam_exact is not None else round(lam, 12))
        if spectra.polytope_gap(*scaled_subgradients(pair, x, scale), lam) <= tol:
            if lam_exact is not None:
                if lam_exact not in found:
                    found[lam_exact] = digits
            elif not [k for k in found if abs(k - lam) <= tol]:
                found[lam] = digits
    vals = sorted(found.keys(), key=float)
    return spectra.TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                                   getattr(pair, "exact_for_pair", False), tested)


def interval_gap(U, V, lam):
    """Lower bound on ``spectra.polytope_gap`` without an LP: the largest
    distance from 0 to a coordinate's range of u_i - lam v_i, which is
    center +- sum |segments|."""
    c = U.center - lam * V.center
    r = np.abs(U.segments).sum(axis=0) + np.abs(lam * V.segments).sum(axis=0)
    return max(float(np.max(np.abs(c) - r)), 0.0)


def ternary_interval_then_lp(pair, n, tol=1e-8, scale=1.0):
    """``spectra.ternary_eigen_enumerate`` as it was before the dual bound:
    a lambda already found is skipped, a vector whose coordinate intervals
    stay more than ``tol`` away from 0 is rejected, and the residual LP
    decides the rest, on dF(x) and dG(x) times ``scale``."""
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
        if getattr(pair, "exact_F", None) is not None:
            lam_exact = pair.exact_F(digits) / pair.exact_G(digits)
            lam = float(lam_exact)
        else:
            lam_exact = None
            lam = pair.ratio(x)
        seen.add(lam_exact if lam_exact is not None else round(lam, 12))
        if lam_exact in found or lam_exact is None and any(abs(k - lam) <= tol for k in found):
            continue
        U, V = scaled_subgradients(pair, x, scale)
        if interval_gap(U, V, lam) > tol:
            continue
        if spectra.polytope_gap(U, V, lam) <= tol:
            found[lam_exact if lam_exact is not None else lam] = digits
    vals = sorted(found.keys(), key=float)
    return spectra.TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                                   getattr(pair, "exact_for_pair", False), tested)


def ternary_per_vector(pair, n, tol=1e-8, scale=1.0):
    """``spectra.ternary_eigen_enumerate`` as it was before the box-wide
    +-e_i pass: every vector not skipped builds dF(x) and dG(x) (times
    ``scale``) and is tested by ``_dual_gap`` at the rows +-e_i, then at
    every ternary row, and the residual LP decides the rest."""
    F, G = pair.F, pair.G
    sums = isinstance(F, spectra.PowerSum) and isinstance(G, spectra.PowerSum)
    X = spectra.sign_canonical_box(n, 1)
    exact = (list(map(Fraction, F.exact(X), G.exact(X)))
             if sums and F.int_weights is not None and G.int_weights is not None else None)
    found = {}
    seen = set()
    E, Y = np.vstack([np.eye(n), -np.eye(n)]), spectra._ternary_rows(n)
    for k, digits in enumerate(map(tuple, X.tolist())):
        x = np.array(digits, dtype=float)
        if exact is not None:
            key = exact[k]
            lam = float(key)
            seen.add(key)
            if key in found:
                continue
        else:
            key = lam = pair.ratio(x)
            seen.add(round(lam, 12))
            if any(abs(v - lam) <= tol for v in found):
                continue
        U, V = scaled_subgradients(pair, x, scale)
        if spectra._dual_gap(U, V, lam, E) > tol or spectra._dual_gap(U, V, lam, Y) > tol:
            continue
        if spectra.polytope_gap(U, V, lam) <= tol:
            found[key] = digits
    vals = sorted(found.keys(), key=float)
    return spectra.TernarySpectrum(vals, {v: found[v] for v in vals}, seen,
                                   sums and F.ternary_cones and G.ternary_cones, len(X))


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
        return spectra.SubgradientSet(MT @ S.center, (MT @ S.segments.T).T)

    return spectra.HomogeneousPair(
        pair.p, lambda x: pair.F(M @ x), lambda x: pair.G(M @ x),
        lambda x: image(pair.F_subgrad(M @ x)),
        lambda x: image(pair.G_subgrad(M @ x)))


@dataclasses.dataclass
class ClosurePair:
    """A pair as closures, with the one-Laplacian's exact F and G (None
    elsewhere) and the flag for pairs whose linearity cells are cones on
    ternary rays, which the ternary references read."""
    p: float
    F: object
    G: object
    F_subgrad: object
    G_subgrad: object
    exact_F: object = None
    exact_G: object = None
    exact_for_pair: bool = False

    def ratio(self, x):
        return self.F(x) / self.G(x)


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


def closure_graph_pair(graph, p, signless=False):
    """F(x) = sum_e w_e |x_i -/+ x_j|^p and G(x) = sum_i deg_i |x_i|^p with
    their subgradient sets, as ``one_laplacian_pair`` (p = 1) and
    ``graph_plap_pair`` (p > 1, plain) built them: F's value and gradient
    edge by edge with a scalar power, G's gradient as one numpy power over
    x, and at p = 1 a segment per zero edge and per zero coordinate.
    Integral weights give p = 1 the exact F and G in ints and Fractions."""
    deg = graph.degrees
    edges = graph.edges()
    sgn = 1.0 if signless else -1.0

    def phi(t):
        return abs(t) ** (p - 1) * np.sign(t)

    def F(x):
        return float(sum(w * abs(x[i] + sgn * x[j]) ** p for i, j, w in edges))

    def G(x):
        return float(sum(deg[i] * abs(x[i]) ** p for i in range(graph.n)))

    def F_sub(x):
        n = graph.n
        if p > 1:
            g = np.zeros(n)
            for i, j, w in edges:
                t = x[i] + sgn * x[j]
                g[i] += p * w * phi(t)
                g[j] += sgn * (p * w * phi(t))
            return spectra.SubgradientSet(g)
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
        return spectra.SubgradientSet(center, np.array(segs).reshape(-1, n))

    def G_sub(x):
        if p > 1:
            return spectra.SubgradientSet(p * deg * phi(np.asarray(x, dtype=float)))
        return spectra.SubgradientSet(*_abs_subgrad_terms(x, deg))

    pair = ClosurePair(p, F, G, F_sub, G_sub, exact_for_pair=p == 1)
    if p == 1 and graph.integral:
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

        pair.exact_F, pair.exact_G = exactF, exactG
    return pair


def closure_chemical_G(H, p):
    """G(x) = sum deg_i |x_i|^p of ``spectra.chemical_plap_pair`` and its
    subgradient set, as closures."""
    deg = H.degrees

    def G(x):
        return float(sum(deg[i] * abs(x[i]) ** p for i in range(H.n)))

    def G_sub(x):
        if p > 1:
            phi = np.abs(np.asarray(x, dtype=float)) ** (p - 1) * np.sign(np.asarray(x, dtype=float))
            return spectra.SubgradientSet(p * deg * phi)
        return spectra.SubgradientSet(*_abs_subgrad_terms(x, deg))

    return G, G_sub


def polytope_gap_lp_by_rows(U, V, lam):
    """The residual LP's inputs (c, A_ub, b_ub, bounds) as
    ``spectra.polytope_gap`` built them, at sets without hull points: a
    column per U segment, per V segment and for eps, and the rows
    +-(u - lam v)_i <= eps built one by one."""
    n = U.n
    mF, mG = U.segments.shape[0], V.segments.shape[0]
    nv = mF + mG + 1
    const = U.center - lam * V.center

    def row(i, sign):
        r = np.zeros(nv)
        r[:mF] = sign * U.segments[:, i]
        r[mF:mF + mG] = -sign * lam * V.segments[:, i]
        r[nv - 1] = -1.0
        return r

    A_ub, b_ub = [], []
    for i in range(n):
        A_ub.append(row(i, 1.0))
        b_ub.append(-const[i])
        A_ub.append(row(i, -1.0))
        b_ub.append(const[i])
    c = np.zeros(nv)
    c[nv - 1] = 1.0
    return c, np.array(A_ub), np.array(b_ub), [(-1.0, 1.0)] * (mF + mG) + [(0.0, None)]


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
