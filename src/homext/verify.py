"""Theorem-check harness: discrete brute force against the continuous
computation, with a structured pass/fail report per check.

Every check is reproducible from (check id, seed); random instances are
drawn from generators seeded per check.  Continuous minimax values of
two-block extensions are computed to a certified bracket by reducing the
inner player to indicator vertices and the outer player to a
fractional program per ordering cone, solved by linear programs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, Optional

import numpy as np

from . import constants as cst
from . import extend, setfn, spectra
from .setfn import SetTupleFunction, full_mask, mask_members, mask_of, popcount
from .simplex import LPResult, linprog
from .structures import (ChemicalHypergraph, SignedGraph, SimplicialComplex,
                         WeightedGraph, adjacency_tensor, huang_signing,
                         hypercube)

TOL_EXACT = 1e-9        # exact-linear-algebra checks
TOL_ITER = 1e-6         # iterative solvers
TOL_SLACK = 1e-8        # inequality slack, absolute
TOL_SION = 1e-5         # infsup against supinf in the Sion checks
MINIMAX_CONE_CAP = 6
MINIMAX_TOL = 1e-10     # relative width of a certified minimax bracket
MINIMAX_ITERS = 60      # Dinkelbach steps per ordering cone


def _rng(seed, tag):
    h = zlib.crc32(repr(tag).encode())
    return np.random.default_rng([seed, h])


def _worst(*terms):
    """The largest gap term, or NaN when a term is NaN: the builtin max
    keeps whichever of a NaN and a number comes first, so a NaN could
    pass a check.  Every gap in this module goes through here."""
    for t in terms:
        if t != t:
            return float("nan")
    return max(terms)


@dataclass
class VerificationReport:
    """One check on one instance: the two sides compared (or None), the
    gap and the tolerance it is held to, the verdict and extra data.  No
    field depends on the clock, so reruns at one seed give equal reports."""
    check_id: str
    anchor: str
    instance: str
    lhs: object
    rhs: object
    gap: float
    tolerance: float
    verdict: str              # "pass" | "fail" | "skip"
    extra: dict = field(default_factory=dict)

    @staticmethod
    def make(check_id, anchor, instance, lhs, rhs, gap, tol, extra=None):
        verdict = "pass" if gap <= tol else "fail"
        return VerificationReport(check_id, anchor, instance, lhs, rhs,
                                  float(gap), float(tol), verdict, extra or {})

    def to_dict(self):
        """The report as JSON-ready data, the structured stream of ``homext
        verify``: byte-identical under reruns with the same seed."""
        def conv(v):
            if isinstance(v, Fraction):
                return f"{v.numerator}/{v.denominator}"
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, np.ndarray):
                return [float(t) for t in v]
            if isinstance(v, (list, tuple)):
                items = [conv(t) for t in v]
                return items if isinstance(v, list) else tuple(items)
            return v
        return {
            "check_id": self.check_id, "anchor": self.anchor,
            "instance": self.instance, "lhs": conv(self.lhs),
            "rhs": conv(self.rhs), "gap": self.gap,
            "tolerance": self.tolerance, "verdict": self.verdict,
            "extra": {k: conv(v) for k, v in self.extra.items()},
        }


# ---------------------------------------------------------------------------
# ratio conventions and the discrete side
# ---------------------------------------------------------------------------

def ratio_value(fv, gv):
    """f/g with g >= 0: +-inf when g = 0 and f != 0, None (excluded) at 0/0."""
    if gv > 0:
        return fv / gv
    if fv > 0:
        return np.inf
    if fv < 0:
        return -np.inf
    return None


def discrete_minimax(f: SetTupleFunction, g: SetTupleFunction):
    """(min over A of max over B, max over B of min over A) over nonempty
    subsets, under the ratio convention above."""
    n = f.n
    tops = 1 << n
    inner_sup = {}
    inner_inf = {}
    for a in range(1, tops):
        vals = [ratio_value(f(a, b), g(a, b)) for b in range(1, tops)]
        vals = [v for v in vals if v is not None]
        if vals:
            inner_sup[a] = max(vals)
    minimax = min(inner_sup.values()) if inner_sup else None
    for b in range(1, tops):
        vals = [ratio_value(f(a, b), g(a, b)) for a in range(1, tops)]
        vals = [v for v in vals if v is not None]
        if vals:
            inner_inf[b] = min(vals)
    maximin = max(inner_inf.values()) if inner_inf else None
    return minimax, maximin


# ---------------------------------------------------------------------------
# continuous two-block minimax (exact via indicator reduction + cone LPs)
# ---------------------------------------------------------------------------

def _chain_sets(n: int, sigma) -> list[int]:
    """Upper sets of the ordering sigma: U_i = {sigma(i), ..., sigma(n-1)}."""
    out = []
    for i in range(n):
        out.append(mask_of(sigma[i:]))
    return out


def _is_modular_zero_side(fvals, n: int, m: int) -> bool:
    """First component modular with f(empty, B) = 0 for all B: then the
    extension is globally linear in the first block."""
    for b in range(1 << m):
        if fvals[0][b] != 0:
            return False
        for a in range(1 << n):
            expect = sum(fvals[1 << i][b] for i in mask_members(a))
            if fvals[a][b] != expect:
                return False
    return True


def _is_linear(F, G, n: int, m: int) -> bool:
    """The extensions of both tables are globally linear in the first block."""
    return _is_modular_zero_side(F, n, m) and _is_modular_zero_side(G, n, m)


def _ratios(num, den):
    """Elementwise ratio_value(num, den) with 0/0 read as -inf.  Over the
    inner sets B the max is the sup (-inf over no B); over the columns of
    a dual combination the min is a lower bound, which a 0/0 voids."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / den, np.where(num > 0, np.inf, -np.inf))


def _dyadic(x):
    """Integers N and a shift s with x == N / 2**s exactly, for floats x."""
    pairs = [v.as_integer_ratio() for v in np.ravel(x).tolist()]
    s = max(d.bit_length() for _, d in pairs) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in pairs], s


def _exact_ratios(N, D, v):
    """_ratios(N @ v, D @ v) in exact arithmetic: one Fraction, or +-inf
    where D @ v is 0, per row of N and D."""
    cols = N.shape[1]
    Ni, sN = _dyadic(N)
    Di, sD = _dyadic(D)
    vi, _ = _dyadic(v)
    out = []
    for j in range(0, len(Ni), cols):
        a = sum(x * y for x, y in zip(Ni[j:j + cols], vi))
        b = sum(x * y for x, y in zip(Di[j:j + cols], vi))
        out.append(Fraction(a << sD, b << sN) if b > 0 else (np.inf if a > 0 else -np.inf))
    return out


def _rounded(x, direction=0):
    """The float nearest the exact x (a Fraction or +-inf), or the next
    float up (direction > 0) or down (< 0) when that one is not exact."""
    if not isinstance(x, Fraction):
        return float(x)
    f = float(x)
    if direction and (Fraction(f) - x) * direction < 0:
        f = float(np.nextafter(f, direction * np.inf))
    return f


@dataclass(frozen=True)
class MinimaxBracket:
    """lo <= value <= hi for one direction of ``TwoBlockMinimax``, both
    ends exact bounds rounded outward.

    The certificates are in the frame of the side solved, whose least
    ratio s is the infsup value itself or minus the supinf value: ``point``
    is the outer point (chain, w), x = sum_i w_i 1_{chain[i]}, whose max
    ratio over B is s's upper bound (None when s is +inf); ``duals`` holds
    per cone (chain, q), q >= 0 on the nonempty inner sets, whose least
    column ratio (q.F'_u)/(q.G_u) bounds that cone's value below."""
    lo: float
    hi: float
    point: object
    duals: tuple


class TwoBlockMinimax:
    """inf_x sup_y and sup_y inf_x of f^Q(x,y)/g^Q(x,y) over the closed
    nonnegative cones, for f, g on P(V1) x P(V2).

    The inner player is reduced to indicator vertices (the extension is
    linear on ordering cells), so on the ordering cone with chain
    U_1 > ... > U_n the outer player solves the generalized linear-fractional
    program min over w in the simplex of max_B (F'_B.w)/(G_B.w), with
    F'_B.w = sign * f^Q(sum_i w_i 1_{U_i}, 1_B) and G_B.w likewise
    (one cone of singletons when the outer block is globally linear).

    Per side, one best value t is kept across cones, starting from the
    best indicator vertex.  On a cone, the LP min z s.t.
    (F'_B - t G_B).w <= z for every nonempty B (the matrix-game LP of
    ``game_lp_value``) either prunes it or gives a w whose max ratio is the
    next t (Dinkelbach; Crouzeix, Ferland & Schaible, JOTA 47, 1985).  The
    LP's dual q bounds the cone below by min_u (q.F'_u)/(q.G_u); a cone is
    done when that bound is within tol/2 of t (tol = ``MINIMAX_TOL``),
    probing just below t when the LP at t makes no progress.  Running out
    of ``MINIMAX_ITERS`` steps on a cone raises ``CapExceeded``, and so
    does a final bracket that exact arithmetic does not confirm within tol.

    The value is the max ratio at the best w, computed exactly and rounded
    to nearest; ``infsup_bracket``/``supinf_bracket`` keep the exact
    bracket rounded outward with its certificates (``MinimaxBracket``).
    Values that are +-inf come back as +-inf: -inf from a point whose every
    ratio is -inf or 0/0, +inf from duals on the G = 0 rows of every cone.
    When every indicator vertex is +inf and some cone has neither such a
    dual nor a point found with a finite ratio, no bracket can be
    certified and the solve raises ``CapExceeded``.

    One routine serves both directions.  sup_y inf_x f/g is minus
    inf_y sup_x (-f)/g: the mirror swaps the blocks (transposed tables)
    and negates f, so its rows are sign * F - s * G with sign = -1.
    """

    infsup_bracket: Optional[MinimaxBracket] = None
    supinf_bracket: Optional[MinimaxBracket] = None

    def __init__(self, f: SetTupleFunction, g: SetTupleFunction):
        if f.k != 2 or g.k != 2:
            raise ValueError("two-block minimax expects k = 2 functions")
        if f.n != g.n:
            raise ValueError(f"f and g need the same ground set, got n = {f.n} and {g.n}")
        # both blocks are on V; from_tables takes rectangular tables
        n = f.n
        self._set_tables(
            [[float(f(a, b)) for b in range(1 << n)] for a in range(1 << n)],
            [[float(g(a, b)) for b in range(1 << n)] for a in range(1 << n)],
            n, n)

    @classmethod
    def from_tables(cls, fvals, gvals, n, m):
        obj = cls.__new__(cls)
        obj._set_tables(fvals, gvals, n, m)
        return obj

    def _set_tables(self, fv, gv, n, m):
        """Store the two orientations a solve reads: the tables indexed
        [outer set][inner set], the outer and inner block sizes, whether
        the outer block is globally linear, and the sign of f."""
        fT = [[fv[a][b] for a in range(1 << n)] for b in range(1 << m)]
        gT = [[gv[a][b] for a in range(1 << n)] for b in range(1 << m)]
        self._infsup_side = (fv, gv, n, m, _is_linear(fv, gv, n, m), 1.0)
        self._supinf_side = (fT, gT, m, n, _is_linear(fT, gT, m, n), -1.0)

    @staticmethod
    def _least_ratio(side):
        """(s, lo, hi, point, duals): the side's least max ratio s, rounded
        to nearest, and its bracket and certificates (``MinimaxBracket``)."""
        F, G, n, m, linear, sign = side
        tol, iters = MINIMAX_TOL, MINIMAX_ITERS
        if linear:
            cones = [[1 << i for i in range(n)]]
        elif n > MINIMAX_CONE_CAP:
            block = "n" if sign > 0 else "m"
            raise setfn.CapExceeded(f"cone enumeration capped at {block} <= {MINIMAX_CONE_CAP}")
        else:
            cones = [_chain_sets(n, sigma) for sigma in permutations(range(n))]
        Fa = sign * np.array(F, dtype=float)[:, 1:]      # [outer set][nonempty B]
        Ga = np.array(G, dtype=float)[:, 1:]
        vertex = _ratios(Fa[1:], Ga[1:]).max(axis=1)
        a = int(np.argmin(vertex)) + 1
        t, point = vertex[a - 1], ([a], np.ones(1))
        duals = {}                                       # cone index -> q

        if t == np.inf:
            # every vertex ratio is +inf.  A cone whose G = 0 rows have a
            # combination positive on every column is +inf; otherwise the
            # LP over those rows gives a point, moved inside the cone when
            # its value is negative, that may have a finite max ratio.
            for k, chain in enumerate(cones):
                Fo, Go = Fa[chain], Ga[chain]
                zero = ~Go.any(axis=0)
                w = np.full(n, 1.0 / n)
                if zero.any():
                    res = _game_lp(Fo[:, zero])
                    q = np.zeros(Fo.shape[1])
                    q[zero] = np.maximum(-res.duals[:zero.sum()], 0.0)
                    if _ratios(Fo @ q, Go @ q).min() == np.inf:
                        duals[k] = q
                        continue
                    z = res.objective
                    w = np.maximum(res.x[:n], 0.0)
                    if z < 0:
                        w += 0.5 * z / (z - np.abs(Fo).max()) * (1.0 / n - w)
                r = _ratios(w @ Fo, w @ Go).max()
                if r < np.inf:
                    t, point = r, (chain, w)
                    break
            else:
                if len(duals) < len(cones):
                    raise setfn.CapExceeded("minimax: no point with a finite ratio found "
                                            "on a cone that is not certified +inf")
                point = None

        for k, chain in enumerate(cones):
            if k in duals or t == -np.inf:
                continue
            Fo, Go = Fa[chain], Ga[chain]
            probe = t
            for _ in range(iters):
                res = _game_lp(Fo - probe * Go)
                w = np.maximum(res.x[:n], 0.0)
                q = np.maximum(-res.duals[:Fo.shape[1]], 0.0)
                r = _ratios(w @ Fo, w @ Go).max()
                if r < t:
                    t, point = r, (chain, w)
                width = 0.5 * tol * max(1.0, abs(t))
                if t == -np.inf or _ratios(Fo @ q, Go @ q).min() >= t - width:
                    break
                probe = t if t < probe else t - width
            else:
                raise setfn.CapExceeded(f"minimax cone not certified in {iters} Dinkelbach steps")
            duals[k] = q

        hi = np.inf
        if point is not None:
            chain, w = point
            hi = max(_exact_ratios(Fa[chain].T, Ga[chain].T, w))
        lo = hi if hi == -np.inf else min(
            (min(_exact_ratios(Fa[cones[k]][:, q > 0], Ga[cones[k]][:, q > 0], q[q > 0]))
             for k, q in duals.items()), default=-np.inf)
        s, lo, hi = _rounded(hi), _rounded(lo, -1), _rounded(hi, 1)
        # the float steps above can disagree with exact arithmetic only
        # where rounding decides a sign; the exact bracket has the last word
        if not (lo == hi or hi - lo <= tol * max(1.0, abs(s))):
            raise setfn.CapExceeded(f"minimax bracket [{lo!r}, {hi!r}] not certified to {tol}")
        return s, lo, hi, point, tuple((cones[k], q) for k, q in sorted(duals.items()))

    def infsup(self) -> float:
        s, lo, hi, point, duals = self._least_ratio(self._infsup_side)
        self.infsup_bracket = MinimaxBracket(lo, hi, point, duals)
        return s

    def supinf(self) -> float:
        s, lo, hi, point, duals = self._least_ratio(self._supinf_side)
        self.supinf_bracket = MinimaxBracket(0.0 - hi, 0.0 - lo, point, duals)
        return 0.0 - s


def _game_lp(C) -> LPResult:
    """The matrix-game LP min v over p in the simplex with C^T p <= v:
    x = (p, v), objective v, and duals[:m] minus the column player's
    optimal mixed strategy.  A result that is not optimal raises."""
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    # vars: p (n), v free; C^T p - v <= 0; sum p = 1
    cvec = np.concatenate([np.zeros(n), [1.0]])
    A_ub = np.hstack([C.T, -np.ones((m, 1))])
    b_ub = np.zeros(m)
    A_eq = np.concatenate([np.ones(n), [0.0]]).reshape(1, -1)
    res = linprog(cvec, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(None, None)])
    if res.status != "optimal":
        raise RuntimeError("game LP failed")
    return res


def game_lp_value(C) -> float:
    """Value of the matrix game: min over p in the simplex of
    max_j (C^T p)_j, by one linear program."""
    return float(_game_lp(C).objective)


# ---------------------------------------------------------------------------
# core checks
# ---------------------------------------------------------------------------

def check_saddle_transfer(f: SetTupleFunction, g: SetTupleFunction,
                          check_id="saddle", tol=TOL_ITER) -> VerificationReport:
    """Discrete minimax against the continuous extension minimax.

    Always the continuous sup inf must not exceed the continuous inf sup
    or the discrete minimax, and the discrete maximin must not exceed the
    continuous inf sup.  When the discrete saddle exists (minimax =
    maximin), both continuous values must also equal it.
    """
    dmm, dmx = discrete_minimax(f, g)
    dmm = float(dmm) if dmm is not None else None
    dmx = float(dmx) if dmx is not None else None
    engine = TwoBlockMinimax(f, g)
    cis = engine.infsup()
    csi = engine.supinf()
    extra = {"discrete_minimax": dmm, "discrete_maximin": dmx,
             "cont_infsup": cis, "cont_supinf": csi}
    gap = csi - cis                            # inf sup >= sup inf
    if dmm is not None and np.isfinite(dmm):
        gap = _worst(gap, csi - dmm)
    if dmx is not None and np.isfinite(dmx):
        gap = _worst(gap, dmx - cis)
    if dmm is not None and dmx is not None and np.isfinite(dmm) and dmm == dmx:
        gap = _worst(gap, abs(cis - dmm), abs(csi - dmm))
        extra["saddle_transferred"] = True
    anchor = "saddle transfer: discrete minimax = maximin implies the " \
             "extension minimax agrees; always maximin <= cont <= minimax"
    return VerificationReport.make(check_id, anchor, f"n={f.n}", cis, csi, gap, tol, extra)


def check_sion_case(f: SetTupleFunction, g: SetTupleFunction,
                    check_id="sion") -> VerificationReport:
    """Submodular-in-first / supermodular-in-second f with modular positive
    g: the continuous minimax closes even when the discrete one does not.

    The extension never reads entries at tuples with an empty component,
    so the structure is checked on the effective function that vanishes
    there; a table violating that convention is skipped, not failed."""
    feff = SetTupleFunction(f.n, 2, lambda a, b: f(a, b) if a and b else 0)
    geff = SetTupleFunction(g.n, 2, lambda a, b: g(a, b) if a and b else 0)
    ok = (setfn.submodularity_check(feff, 0)
          and setfn.supermodularity_check(feff, 1)
          and setfn.modularity_check(geff, 0)
          and setfn.modularity_check(geff, 1))
    full2 = full_mask(g.n)
    ok = ok and all(g(1 << i, full2) > 0 for i in range(g.n)) \
        and all(g(full_mask(g.n), 1 << j) > 0 for j in range(g.n))
    anchor = "convex-concave extension minimax equals maximin (Sion)"
    if not ok:
        return VerificationReport(check_id, anchor, f"n={f.n}", None, None,
                                  np.inf, TOL_SION, "skip")
    engine = TwoBlockMinimax(f, g)
    cis, csi = engine.infsup(), engine.supinf()
    dmm, dmx = discrete_minimax(f, g)
    return VerificationReport.make(
        check_id, anchor, f"n={f.n}", cis, csi, abs(cis - csi), TOL_SION,
        {"discrete_minimax": dmm, "discrete_maximin": dmx})


def _ascent_samples(rng, n, count):
    for _ in range(count):
        kind = rng.integers(0, 3)
        if kind == 0:
            yield rng.uniform(0.0, 1.0, n)
        elif kind == 1:
            x = np.zeros(n)
            support = rng.integers(1, 1 << n)
            for i in mask_members(support):
                x[i] = rng.uniform(0.2, 1.0)
            yield x
        else:
            yield rng.exponential(1.0, n)


def check_indicator_and_equalities(f: SetTupleFunction, g: SetTupleFunction,
                                   family="full", check_id="identity",
                                   samples=300, seed=42) -> VerificationReport:
    """The perfect-pair ratio check: the exact range of f/g over a set
    family against sampled extension ratios on its continuous side.

    ``full`` pairs every tuple of nonempty sets with the nonnegative points
    and ``chain`` the inclusion chains with the comonotone nonnegative
    points.  Both are perfect pairs: every sampled ratio stays in the
    discrete range, and the maximizing indicator attains the max.
    ``diagonal`` samples x^1 = ... = x^k, whose level sets form chains but
    not diagonal tuples: its ratios stay in the chain range, and the
    indicator of the best diagonal tuple attains the diagonal max, which
    is the sandwich diagonal max <= diagonal-extension sup <= chain max.
    Every sample's nonempty multiple upper level sets must lie in the
    range family; ``outside_family`` counts the samples where one does not.
    """
    n, k = f.n, f.k
    if family == "full":
        tuples = list(product(range(1, 1 << n), repeat=k))
    elif family in ("chain", "diagonal"):
        tuples = [t for t in setfn.enumerate_chains(n, k) if all(t)]
    else:
        raise ValueError("family must be full, chain or diagonal")
    witnesses = [(a,) * k for a in range(1, 1 << n)] if family == "diagonal" else tuples

    def ratios(tups):
        return [(Fraction(f(*t)) / Fraction(g(*t)), t) for t in tups if g(*t) != 0]

    values = [r for r, _ in ratios(tuples)]
    dmax, dmin = max(values), min(values)
    target, witness = max(ratios(witnesses), key=lambda p: p[0])
    in_family = set(tuples)
    rng = _rng(seed, check_id)
    worst = 0.0
    outside = 0
    for x in _ascent_samples(rng, n, samples):
        if family == "chain":
            scales = [1.0] + [rng.uniform(0.5, 2.0) for _ in range(k - 1)]
            xs = [s * x for s in scales]        # common order: comonotone
        elif family == "diagonal":
            xs = [x] * k
        else:
            xs = [x] + [np.abs(rng.normal(size=n)) for _ in range(k - 1)]
        xs = [list(v) for v in xs]
        outside += any(all(t) and t not in in_family
                       for t in extend.upper_level_tuples(xs))
        gx = extend.multilinear(g, xs)
        if gx == 0:
            continue
        r = extend.multilinear(f, xs) / gx
        worst = _worst(worst, r - float(dmax), float(dmin) - r)
    ind = [[(witness[l] >> i) & 1 for i in range(n)] for l in range(k)]
    attained = extend.multilinear(f, ind) / extend.multilinear(g, ind)
    gap = _worst(worst, abs(float(attained - target)), float(outside))
    anchor = "the extension's ratio range on the continuous side of a domain " \
             "pair is the discrete one; the witness indicator attains the max"
    return VerificationReport.make(
        check_id, anchor, f"n={n},k={k},{family}", float(attained),
        float(dmax), gap, TOL_SLACK,
        {"discrete_min": float(dmin), "witness": witness, "outside_family": outside})


def check_quasiconcave_composition(fs: list[SetTupleFunction], kind="product",
                                   check_id="quasiconcave", samples=300,
                                   seed=42) -> VerificationReport:
    """H(f_1(A), ..., f_m(A)) with H = P/(sum)^d for a log-concave P:
    the discrete minimum over sets equals the continuous infimum over the
    positive orthant; sampled values never drop below the discrete min."""
    n = fs[0].n
    m = len(fs)

    def H(z):
        s = sum(z)
        if s <= 0:
            return None
        if kind == "product":         # P = z_1 z_2, degree 2
            return (z[0] * z[1]) / (s * s)
        if kind == "esym2":           # P = e_2, degree 2
            e2 = sum(z[i] * z[j] for i in range(m) for j in range(i + 1, m))
            return e2 / (s * s)
        raise ValueError("kind must be product or esym2")

    disc = []
    for a in range(1, 1 << n):
        z = [float(fi(a)) for fi in fs]
        h = H(z)
        if h is not None:
            disc.append((h, a))
    dmin, wit = min(disc, key=lambda p: p[0])
    rng = _rng(seed, check_id)
    worst = 0.0
    attained = np.inf
    for x in _ascent_samples(rng, n, samples):
        z = [float(extend.lovasz(fi, list(x))) for fi in fs]
        h = H(z)
        if h is None:
            continue
        attained = min(attained, h)
        worst = _worst(worst, dmin - h)
    indw = [1.0 if (wit >> i) & 1 else 0.0 for i in range(n)]
    z = [float(extend.lovasz(fi, indw)) for fi in fs]
    worst = _worst(worst, abs(H(z) - dmin))
    # zero-homogeneity spot check of H
    zt = [v * 3.7 for v in z]
    worst = _worst(worst, abs(H(zt) - H(z)))
    anchor = "zero-homogeneous quasi-concave composition of extensions " \
             "attains its infimum at a set indicator"
    return VerificationReport.make(check_id, anchor, f"n={n},m={m},{kind}",
                                   dmin, attained, worst, TOL_SLACK,
                                   {"witness": wit})


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def rand_connected_graph(rng, n_lo=4, n_hi=10) -> WeightedGraph:
    """Erdos-Renyi graph with edge probability 1/2 on n_lo..n_hi vertices,
    resampled until connected."""
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        g = WeightedGraph.erdos_renyi(n, 0.5, rng)
        if g.is_connected():
            return g


def rand_two_complex(rng) -> SimplicialComplex:
    """Random connected graph on 5 or 6 vertices plus each of its triangles
    kept with probability 1/2; resampled until at least one triangle
    survives."""
    while True:
        g = rand_connected_graph(rng, 5, 6)
        tris = [c for c in combinations(range(g.n), 3)
                if g.W[c[0], c[1]] and g.W[c[0], c[2]] and g.W[c[1], c[2]]
                and rng.random() < 0.5]
        if tris:
            edges = [(i, j) for i, j, _ in g.edges()]
            return SimplicialComplex(tris + edges)


def rand_chemical(rng, n_lo=4, n_hi=8) -> ChemicalHypergraph:
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        ecount = int(rng.integers(n, 2 * n))
        es = []
        for _ in range(ecount):
            size = int(rng.integers(2, 5))
            verts = rng.choice(n, size=size, replace=False)
            cut = int(rng.integers(1, size))
            e_in = mask_of(verts[:cut])
            e_out = mask_of(verts[cut:])
            if rng.random() < 0.5:
                e_out |= 1 << int(verts[0])     # allow overlapping edges
            es.append((e_in, e_out))
        H = ChemicalHypergraph(n, es)
        if H.underlying_graph().is_connected():
            return H


def rand_table(rng, n, k, lo=0, hi=9) -> SetTupleFunction:
    """Dense random integer table, zero at tuples with an empty component.

    Entries are drawn one rng call each in tuple order, which is also the
    dense index order; equal values share one (immutable) Fraction.
    """
    values = [Fraction(v) for v in range(lo, hi + 1)]
    zero = Fraction(0)
    table = []
    for masks in product(range(1 << n), repeat=k):
        table.append(values[int(rng.integers(lo, hi + 1)) - lo] if all(masks) else zero)
    return SetTupleFunction(n, k, table)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_indicator(seed=42, functions=60) -> list[VerificationReport]:
    """Extensions at indicator tuples reproduce the table exactly
    (rational arithmetic; empty components carry the zero convention)."""
    rng = _rng(seed, "indicator")
    worst_fail = 0
    total = 0
    for _ in range(functions):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        f = rand_table(rng, n, k, lo=-9, hi=9)
        # integer indicators keep the arithmetic exact and fast
        ind = [[0] * n] + [r for _, rows, _, _ in cst.subset_tables(
            np.zeros((n, n)), np.zeros(n), 1 << n) for r in rows.T.astype(int).tolist()]
        for masks in product(range(1 << n), repeat=k):
            got = extend.multilinear(f, [ind[m] for m in masks])
            want = f(*masks) if all(masks) else Fraction(0)
            total += 1
            if got != want:
                worst_fail += 1
    rep = VerificationReport.make(
        "indicator-consistency",
        "extension at indicators equals the table exactly",
        f"{functions} random tables, n<=5, k<=3", total, total - worst_fail,
        float(worst_fail), 0.0, {"tuples_checked": total})
    return [rep]


def suite_tables(seed=42, points=100) -> list[VerificationReport]:
    """Closed forms of the bilinear and multiple-integral extensions."""
    rng = _rng(seed, "tables")
    out = []
    g5 = rand_connected_graph(rng, 5, 5)
    W = g5.W
    fE = g5.ordered_edge_count()
    n = 5

    rows = []

    def sample():
        return rng.uniform(-1.0, 1.0, n)

    # ordered adjacent pairs -> sum over edges of x_i y_j + x_j y_i
    def row_edges():
        x, y = sample(), sample()
        got = extend.multilinear(fE, [list(x), list(y)])
        want = sum(W[i, j] * (x[i] * y[j] + x[j] * y[i])
                   for i, j in combinations(range(n), 2))
        return abs(float(got) - want)
    rows.append(("edge-count", row_edges))

    fconst = SetTupleFunction(n, 2, lambda a, b: 1.5)
    def row_const():
        x, y = sample(), sample()
        got = extend.multilinear(fconst, [list(x), list(y)])
        return abs(float(got) - 1.5 * x.max() * y.max())
    rows.append(("constant", row_const))

    fcard = SetTupleFunction(n, 2, lambda a, b: popcount(a) * popcount(b))
    def row_card():
        x, y = sample(), sample()
        got = extend.multilinear(fcard, [list(x), list(y)])
        return abs(float(got) - x.sum() * y.sum())
    rows.append(("cardinality-product", row_card))

    fint = SetTupleFunction(n, 2, lambda a, b: popcount(a & b))
    def row_int():
        x, y = sample(), sample()
        got = extend.multilinear(fint, [list(x), list(y)])
        return abs(float(got) - float(x @ y))
    rows.append(("intersection", row_int))

    fl1 = setfn.DisjointPairFunction(
        n, 2, lambda a, b: popcount(a[0] | a[1]) * popcount(b[0] | b[1]))
    def row_l1():
        x, y = sample(), sample()
        got = extend.multiple_integral(fl1, [list(x), list(y)])
        return abs(float(got) - np.abs(x).sum() * np.abs(y).sum())
    rows.append(("l1-product", row_l1))

    flinf = setfn.DisjointPairFunction(
        n, 2, lambda a, b: 1 if (a[0] | a[1]) and (b[0] | b[1]) else 0)
    def row_linf():
        x, y = sample(), sample()
        got = extend.multiple_integral(flinf, [list(x), list(y)])
        return abs(float(got) - np.abs(x).max() * np.abs(y).max())
    rows.append(("linf-product", row_linf))

    for name, fn in rows:
        worst = _worst(*(fn() for _ in range(points)))
        out.append(VerificationReport.make(
            f"closed-form-{name}",
            "extension matches its closed form", f"{points} random points",
            None, None, worst, 1e-12))
    return out


def suite_turan(seed=42, instances=6, samples=120) -> list[VerificationReport]:
    """Diagonal max <= diagonal-extension sup <= chain max = comonotone sup
    for nonnegative two-block functions: the perfect-pair ratio check on
    the diagonal and on the chain family of each random instance."""
    rng = _rng(seed, "turan")
    out = []
    for idx in range(instances):
        f = rand_table(rng, 4, 2, lo=0, hi=9)
        g = rand_table(rng, 4, 2, lo=1, hi=9)
        for family in ("diagonal", "chain"):
            out.append(check_indicator_and_equalities(
                f, g, family, check_id=f"turan-{family}-{idx}",
                samples=samples, seed=seed))
    return out


def suite_saddle(seed=42, games=20) -> list[VerificationReport]:
    """The path-graph counterexample plus random payoff games against the
    game LP value."""
    out = []
    g3 = WeightedGraph.path(3)
    f = g3.ordered_edge_count()
    gfun = SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a & b)))
    rep = check_saddle_transfer(f, gfun, check_id="saddle-path3", tol=1e-8)
    dmm, dmx = rep.extra["discrete_minimax"], rep.extra["discrete_maximin"]
    gap = _worst(rep.gap, abs(dmm - 2.0), abs(dmx - 1.0),
                 abs(rep.extra["cont_infsup"] - np.sqrt(2.0)),
                 abs(rep.extra["cont_supinf"] - np.sqrt(2.0)))
    rep = VerificationReport.make(
        "saddle-path3", "path on three vertices: discrete (2, 1), "
        "continuous minimax sqrt(2) both ways", "P3",
        rep.extra["cont_infsup"], float(np.sqrt(2.0)), gap, 1e-8,
        rep.extra)
    out.append(rep)

    rng = _rng(seed, "saddle-games")
    for idx in range(games):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        C = rng.integers(-4, 5, size=(n, m)).astype(float)
        fv = [[sum(C[i, j] for i in mask_members(a) for j in mask_members(b))
               for b in range(1 << m)] for a in range(1 << n)]
        gv = [[popcount(a) * popcount(b) for b in range(1 << m)]
              for a in range(1 << n)]
        engine = TwoBlockMinimax.from_tables(fv, gv, n, m)
        cis, csi = engine.infsup(), engine.supinf()
        v = game_lp_value(C)
        gap = _worst(abs(cis - v), abs(csi - v))
        out.append(VerificationReport.make(
            "saddle-game", "payoff-game extension minimax equals the game "
            "LP value both ways", f"game #{idx} {n}x{m}", cis, v, gap,
            TOL_ITER, {"supinf": csi}))
    return out


def suite_sion(seed=42, instances=5) -> list[VerificationReport]:
    out = []
    rng = _rng(seed, "sion")
    n = 4
    # bilinear game: modular f, equals the LP value
    C = rng.integers(-3, 4, size=(n, n)).astype(float)
    f = SetTupleFunction(n, 2, lambda a, b: sum(
        C[i, j] for i in mask_members(a) for j in mask_members(b)))
    g = SetTupleFunction(n, 2, lambda a, b: popcount(a) * popcount(b))
    rep = check_sion_case(f, g, check_id="sion-bilinear")
    v = game_lp_value(C)
    gap = _worst(rep.gap, abs(float(rep.lhs) - v))
    out.append(VerificationReport.make(
        "sion-bilinear", "modular payoff case equals the game LP value",
        "4x4 game", rep.lhs, v, gap, TOL_SION, rep.extra))
    for idx in range(instances):
        gG = rand_connected_graph(rng, n, n)
        gH = rand_connected_graph(rng, n, n)
        Cc = rng.integers(0, 4, size=(n, n)).astype(float)
        cutG, cutH = gG.cut_function(), gH.cut_function()

        # cut terms scaled by the other block's cardinality keep the
        # zero-at-empty convention the extensions rely on
        def ffun(a, b, cutG=cutG, cutH=cutH, Cc=Cc):
            coup = sum(Cc[i, j] for i in mask_members(a) for j in mask_members(b))
            return (Fraction(int(coup)) + cutG(a) * popcount(b)
                    - popcount(a) * cutH(b))
        f = SetTupleFunction(n, 2, ffun)
        rep = check_sion_case(f, g, check_id=f"sion-cut-{idx}")
        out.append(rep)
    return out


def suite_quasiconcave(seed=42, samples=200) -> list[VerificationReport]:
    out = []
    rng = _rng(seed, "quasiconcave")
    n = 4
    # equal arguments: the ratio is identically 1/4
    f1 = rand_table(rng, n, 1, lo=1, hi=9)
    rep = check_quasiconcave_composition([f1, f1], kind="product",
                                         check_id="quasiconcave-equal",
                                         samples=samples, seed=seed)
    out.append(VerificationReport.make(
        rep.check_id, rep.anchor, rep.instance, rep.lhs, rep.rhs,
        _worst(rep.gap, abs(float(rep.lhs) - 0.25)), rep.tolerance, rep.extra))
    # random monotone tables
    for idx in range(3):
        fs = []
        for _ in range(2):
            increments = [int(rng.integers(1, 5)) for _ in range(n)]
            base = int(rng.integers(1, 4))
            fs.append(SetTupleFunction(
                n, 1, lambda a, inc=tuple(increments), b=base:
                Fraction(b + sum(inc[i] for i in mask_members(a)))))
        out.append(check_quasiconcave_composition(
            fs, kind="product", check_id=f"quasiconcave-monotone-{idx}",
            samples=samples, seed=seed + idx))
    return out


def _intersecting_pair_max(A) -> Fraction:
    """max over intersecting vertex sets a, b of 1_a^T A 1_b / |a & b| for
    a 0/1 matrix A, from the int64 products E = I A I^T and K = I I^T of
    the (2^n - 1) x n indicator matrix I of the nonempty sets; the float
    ratios only preselect the candidates that are compared exactly."""
    ind = np.concatenate([rows for _, rows, _, _ in cst.subset_tables(
        A, A.sum(axis=1), 1 << A.shape[0])], axis=1).T.astype(np.int64)
    E = ind @ A.astype(np.int64) @ ind.T
    K = ind @ ind.T
    ratio = np.where(K > 0, E / np.maximum(K, 1), -np.inf)
    near = np.argwhere(ratio >= ratio.max() - 1e-9)
    return max(Fraction(int(E[a, b]), int(K[a, b])) for a, b in near)


def suite_spectral_radius(seed=42, instances=8) -> list[VerificationReport]:
    """Max induced average degree <= adjacency lambda_max <= max degree."""
    out = []
    rng = _rng(seed, "spectral-radius")
    for idx in range(instances):
        g = rand_connected_graph(rng, 4, 8)
        A = (g.W != 0).astype(float)
        w, _ = spectra.jacobi_eigh(A)
        lam = w[-1]
        avg_deg = max(np.max((vol - cut) / rows.sum(axis=0))
                      for _, rows, cut, vol in cst.subset_tables(A, A.sum(axis=1), 1 << g.n))
        max_deg = float(A.sum(axis=1).max())
        gap = _worst(avg_deg - lam, lam - max_deg)
        # comaximal side: sampled comaximal pairs never beat the discrete
        # max of #E(A, B) / #(A & B) over intersecting pairs
        disc = _intersecting_pair_max(A)
        for _ in range(40):
            x = rng.uniform(0.0, 1.0, g.n)
            y = rng.uniform(0.0, 1.0, g.n)
            top = int(rng.integers(0, g.n))
            x[top] = y[top] = 1.5          # shared maximum: comaximal
            assert extend.comaximal_check(list(x), list(y))
            val = float(x @ A @ y) / float(x @ y)
            gap = _worst(gap, val - float(disc))
        out.append(VerificationReport.make(
            "spectral-radius-sandwich",
            "max induced average degree <= lambda_max <= max degree; "
            "comaximal samples stay below the intersecting-pair max",
            f"graph #{idx} n={g.n}", avg_deg, max_deg, gap, TOL_SLACK,
            {"lambda_max": lam, "comaximal_discrete_max": float(disc)}))
    return out


def suite_cheeger_graph(seed=42, instances=50) -> list[VerificationReport]:
    """h^2/2 <= lambda_2 <= 2h for the normalized Laplacian, exact solver."""
    out = []
    rng = _rng(seed, "cheeger-graph")
    worst = -np.inf
    checked = 0
    for _ in range(instances):
        g = rand_connected_graph(rng, 4, 10)
        h = float(cst.cheeger(g).value)
        L, D = g.laplacian(), np.diag(g.degrees)
        w, _ = spectra.quadratic_pair_spectrum(L, D)
        lam2 = w[1]
        worst = _worst(worst, h * h / 2.0 - lam2, lam2 - 2.0 * h)
        checked += 1
    out.append(VerificationReport.make(
        "cheeger-graph", "h^2/2 <= lambda_2 <= 2h (normalized Laplacian)",
        f"{checked} random connected graphs, n<=10", None, None, worst, TOL_SLACK))
    return out


def suite_cheeger_chemical(seed=42, instances=6, ps=(1.5, 2.0),
                           starts=4) -> list[VerificationReport]:
    """h^p/p^p <= dinkelbach estimate <= 2^{p-1} h on chemical hypergraphs.

    The Dinkelbach run starts from the optimal Cheeger indicator (among
    random starts), whose centered ratio is at most 2^{p-1} h, and the
    ratio sequence only decreases, so the upper inequality is inherited;
    the lower one holds because the estimate is a genuine ratio value."""
    out = []
    rng = _rng(seed, "cheeger-chemical")
    for idx in range(instances):
        H = rand_chemical(rng, 4, 8)
        crep = cst.chemical_cheeger(H)
        h = float(crep.value)
        wit = crep.optimal_sets[0]
        ind = np.array([(wit >> i) & 1 for i in range(H.n)], dtype=float)
        for p in ps:
            pair = spectra.chemical_plap_pair(H, p)
            proj = spectra.projection_diag_power(H.degrees, p, np.ones(H.n))
            ep = spectra.dinkelbach_multistart(
                pair, proj, H.n, seed=seed + idx, starts=starts,
                extra_starts=[ind], inner_iters=150, max_outer=25,
                certify=False)
            lam = ep.lam
            gap = _worst(h ** p / p ** p - lam, lam - 2.0 ** (p - 1) * h)
            mono = all(a >= b - 1e-12 for a, b in zip(ep.history, ep.history[1:]))
            out.append(VerificationReport.make(
                "cheeger-chemical",
                "h^p/p^p <= lambda_2 estimate <= 2^{p-1} h",
                f"hypergraph #{idx} n={H.n} p={p}", h, lam, gap, TOL_ITER, {"monotone": mono}))
    return out


def suite_nodal_inertia(seed=42, instances=30) -> list[VerificationReport]:
    """Inertia bound at level 1 for the normalized Laplacian, level 0 for
    the adjacency matrix, and the support-component nodal bound."""
    out = []
    rng = _rng(seed, "nodal-inertia")
    worst_inertia = -np.inf
    worst_nodal = -np.inf
    for _ in range(instances):
        g = rand_connected_graph(rng, 4, 9)
        n = g.n
        alpha, _ = cst.independence_number(g)
        L, D = g.laplacian(), np.diag(g.degrees)
        w, V = spectra.quadratic_pair_spectrum(L, D)
        le = sum(1 for v in w if v <= 1.0 + 1e-9)
        ge = sum(1 for v in w if v >= 1.0 - 1e-9)
        worst_inertia = _worst(worst_inertia, alpha - min(le, ge))
        A = (g.W != 0).astype(float)
        wa, _ = spectra.jacobi_eigh(A)
        le0 = sum(1 for v in wa if v <= 1e-9)
        ge0 = sum(1 for v in wa if v >= -1e-9)
        worst_inertia = _worst(worst_inertia, alpha - min(le0, ge0))
        for i in range(n):
            lam = w[i]
            cluster = [j for j in range(n) if abs(w[j] - lam) <= 1e-8]
            b = max(cluster) + 1          # 1-based last index of the cluster
            r = len(cluster)
            bound = min(b, n - b + r)
            nd = cst.nodal_domains(V[:, i], g,
                                   tol=1e-8 * np.abs(V[:, i]).max())
            worst_nodal = _worst(worst_nodal, nd - bound)
    rep1 = VerificationReport.make(
        "inertia-bound", "alpha <= min(#{lam <= c}, #{lam >= c}) at the "
        "flat level of the pair", f"{instances} graphs", None, None,
        float(worst_inertia), 0.0)
    rep2 = VerificationReport.make(
        "nodal-count-bound", "support components of an eigenvector of "
        "lambda_k with multiplicity r <= min(k + r - 1, n - k + r)",
        f"{instances} graphs", None, None, float(worst_nodal), 0.0)
    return [rep1, rep2]


def suite_bipartite(seed=42, instances=20) -> list[VerificationReport]:
    """Normalized p=2 Laplacian and signless spectra coincide iff bipartite,
    plus the 1-Laplacian ternary check on an even cycle."""
    out = []
    rng = _rng(seed, "bipartite")
    fails = 0
    for idx in range(instances):
        if idx % 3 == 0:
            n = int(rng.integers(4, 9))
            g = rand_bipartite_graph(rng, n)
        else:
            g = rand_connected_graph(rng, 4, 9)
        L, Q = g.laplacian(), g.signless_laplacian()
        D = np.diag(g.degrees)
        wl, _ = spectra.quadratic_pair_spectrum(L, D)
        wq, _ = spectra.quadratic_pair_spectrum(Q, D)
        same = float(np.max(np.abs(wl - wq))) <= TOL_EXACT
        bip, _ = g.is_bipartite()
        if same != bip:
            fails += 1
    rep = VerificationReport.make(
        "bipartite-signless", "Laplacian and signless spectra coincide "
        "iff the graph is bipartite", f"{instances} graphs", None, None,
        float(fails), 0.0)
    out.append(rep)

    c4 = WeightedGraph.cycle(4)
    s1 = spectra.ternary_eigen_enumerate(spectra.one_laplacian_pair(c4), 4)
    s2 = spectra.ternary_eigen_enumerate(
        spectra.one_laplacian_pair(c4, signless=True), 4)
    gap = 0.0 if [float(v) for v in s1.eigenvalues] == \
        [float(v) for v in s2.eigenvalues] else 1.0
    out.append(VerificationReport.make(
        "bipartite-one-laplacian", "signless and plain 1-Laplacian spectra "
        "coincide on an even cycle", "C4", s1.eigenvalues, s2.eigenvalues,
        gap, 0.0))
    return out


def rand_bipartite_graph(rng, n) -> WeightedGraph:
    while True:
        side = rng.integers(0, 2, size=n)
        if side.sum() in (0, n):
            continue
        edges = [(i, j) for i, j in combinations(range(n), 2)
                 if side[i] != side[j] and rng.random() < 0.6]
        g = WeightedGraph.from_edges(n, edges)
        if g.is_connected():
            return g


def suite_simplicial(seed=42, instances=30) -> list[VerificationReport]:
    """Per-index identity between the up-Laplacian spectrum on d-simplices
    and the normalized spectrum of the anti-signed graph; multiplicity of
    the top value counts balanced components; zero multiplicity >= d + 1."""
    out = []
    rng = _rng(seed, "simplicial")
    worst_id = 0.0
    worst_mult = 0
    worst_zero = 0
    for _ in range(instances):
        K = rand_two_complex(rng)
        for d in (0, 1):
            up = K.restricted_up_pair(d)
            if up is None:
                continue
            _, B, degr, Wr = up
            wup, _ = spectra.quadratic_pair_spectrum(B @ B.T, np.diag(degr))
            dt = (d + 1) * degr
            Lsg = np.diag(dt) - Wr
            wsg, _ = spectra.quadratic_pair_spectrum(Lsg, np.diag(dt))
            ident = np.abs((d + 2 - wup[::-1]) - (d + 1) * wsg)
            worst_id = _worst(worst_id, float(ident.max()))
            bal, _ = SignedGraph(Wr).balanced_components()
            mult_top = int(np.sum(np.abs(wup - (d + 2)) <= 1e-8))
            worst_mult = _worst(worst_mult, abs(mult_top - bal))
            mult_zero = int(np.sum(np.abs(wup) <= 1e-8))
            worst_zero = _worst(worst_zero, (d + 1) - mult_zero)
    out.append(VerificationReport.make(
        "simplicial-up-identity", "d+2 - lambda_{n-i+1}(up) = (d+1) * "
        "lambda_i(anti-signed normalized Laplacian)",
        f"{instances} random 2-complexes", None, None, worst_id, TOL_EXACT))
    out.append(VerificationReport.make(
        "balance-multiplicity", "multiplicity of the eigenvalue d+2 equals "
        "the number of balanced anti-signed components",
        f"{instances} random 2-complexes", None, None, float(worst_mult), 0.0))
    out.append(VerificationReport.make(
        "zero-multiplicity", "eigenvalue zero of the up Laplacian has "
        "multiplicity at least d+1", f"{instances} random 2-complexes",
        None, None, float(worst_zero), 0.0))
    return out


def suite_huang(seed=42, ms=(2, 3, 4)) -> list[VerificationReport]:
    """Signed hypercube squares and the induced-subgraph degree bound."""
    out = []
    for m in ms:
        Wp = huang_signing(m)
        sq_ok = np.array_equal(Wp @ Wp, m * np.eye(2 ** m, dtype=np.int64))
        cube = hypercube(m)
        adj = [mask_of([j for j in range(cube.n) if cube.W[i, j]])
               for i in range(cube.n)]
        size = 2 ** (m - 1) + 1
        worst_deg = np.inf
        for verts in combinations(range(cube.n), size):
            mask = mask_of(verts)
            mx = max(popcount(adj[v] & mask) for v in verts)
            worst_deg = min(worst_deg, mx)
        gap = _worst(0.0 if sq_ok else 1.0, np.sqrt(m) - worst_deg)
        out.append(VerificationReport.make(
            "huang-degree", "signed square is m*I; any induced subgraph on "
            "2^{m-1}+1 cube vertices has max degree >= sqrt(m)",
            f"m={m}", float(np.sqrt(m)), float(worst_deg), gap, TOL_SLACK,
            {"square_exact": sq_ok}))
    return out


def suite_k5(seed=42) -> list[VerificationReport]:
    """K5 1-Laplacian: ternary spectrum {0, 3/4, 1}; k-way Cheeger values
    h2 = 3/4, h3 = 1; the strict third-eigenvalue instance 3/4 < 1."""
    out = []
    k5 = WeightedGraph.complete(5)
    pair = spectra.one_laplacian_pair(k5)
    spec = spectra.ternary_eigen_enumerate(pair, 5)
    want = [Fraction(0), Fraction(3, 4), Fraction(1)]
    gap = 0.0 if spec.eigenvalues == want else 1.0
    out.append(VerificationReport.make(
        "k5-ternary-spectrum", "1-Laplacian eigenvalues of K5 are 0, 3/4, 1",
        "K5", [str(v) for v in spec.eigenvalues], [str(v) for v in want],
        gap, 0.0, {"exact_domain": spec.exact_for_pair}))
    h2 = cst.k_way_cheeger(k5, 2).value
    h3 = cst.k_way_cheeger(k5, 3).value
    gap = 0.0 if (h2 == Fraction(3, 4) and h3 == Fraction(1)) else 1.0
    strict = Fraction(3, 4) < h3
    out.append(VerificationReport.make(
        "k5-kway-cheeger", "h_2 = 3/4 and h_3 = 1 on K5; the third "
        "eigenvalue 3/4 is strictly below h_3",
        "K5", str(h2), str(h3), gap + (0.0 if strict else 1.0), 0.0,
        {"lambda_3": "3/4", "strict": strict}))
    return out


def suite_cw(seed=42, instances=20) -> list[VerificationReport]:
    """Collatz-Wielandt power value against the exact symmetric top
    eigenvalue, the path-graph value sqrt(2), and a tensor case."""
    out = []
    rng = _rng(seed, "cw")
    worst = 0.0
    cert = 0.0
    for _ in range(instances):
        n = int(rng.integers(3, 7))
        M = rng.uniform(0.05, 1.0, size=(n, n))
        M = 0.5 * (M + M.T)
        rep = spectra.collatz_wielandt_max(M, tol=1e-12)
        w, _ = spectra.jacobi_eigh(M)
        worst = _worst(worst, abs(rep.lam - w[-1]))
        cert = max(cert, rep.hi - rep.lo)
    out.append(VerificationReport.make(
        "collatz-wielandt", "certified power value equals the top "
        "eigenvalue of the nonnegative symmetric matrix",
        f"{instances} random matrices", None, None, worst, TOL_ITER,
        {"max_certificate_width": cert}))
    W3 = WeightedGraph.path(3).W
    rep = spectra.collatz_wielandt_max(W3, tol=1e-13)
    out.append(VerificationReport.make(
        "cw-path3", "top adjacency eigenvalue of the 3-path is sqrt(2)",
        "P3", rep.lam, float(np.sqrt(2)), abs(rep.lam - np.sqrt(2.0)), 1e-8))
    T = adjacency_tensor(3, [(0, 1, 2)])
    rep = spectra.collatz_wielandt_max(T)
    out.append(VerificationReport.make(
        "cw-tensor", "single 3-edge adjacency tensor has top H-eigenvalue 2 "
        "at the uniform vector", "one hyperedge", rep.lam, 2.0,
        abs(rep.lam - 2.0), TOL_ITER,
        {"certificate": (rep.lo, rep.hi)}))
    return out


def suite_duality(seed=42, instances=20) -> list[VerificationReport]:
    """Mixed operator norms agree with their duals; incidence vertex and
    edge spectra coincide at p = 2."""
    out = []
    rng = _rng(seed, "duality")
    pairs = [(2.0, 2.0), (2.0, np.inf), (1.0, 2.0)]
    worst = 0.0
    for _ in range(instances):
        T = rng.normal(size=(3, 4))
        for (p, q) in pairs:
            rep = spectra.duality_spectrum_check(T, p, q)
            worst = _worst(worst, rep.gap)
    out.append(VerificationReport.make(
        "duality-transpose", "max ||Tx||_p/||x||_q = max ||T'y||_{q*}/||y||_{p*}",
        f"{instances} random 3x4 matrices", None, None, worst, 1e-5))
    worst = 0.0
    for _ in range(5):
        g = rand_connected_graph(rng, 4, 8)
        _, _, gap = spectra.incidence_vertex_edge_spectra(g.incidence())
        worst = _worst(worst, gap)
    out.append(VerificationReport.make(
        "p-dual-incidence", "nonzero vertex and edge Laplacian spectra "
        "coincide (p = 2)", "5 random graphs", None, None, worst, TOL_EXACT))
    return out


def suite_dual_inner(seed=42, instances=4) -> list[VerificationReport]:
    """Support-function duality of the Dinkelbach inner problem."""
    out = []
    rep = spectra.dual_inner_problem_check(np.eye(3), np.zeros(3),
                                           fnorm=1.0, ball="l2", seed=seed)
    gap = _worst(abs(rep.min_primal), abs(rep.min_dual))
    out.append(VerificationReport.make(
        "dual-inner-zero", "identity map with zero offset: both sides "
        "vanish at the origin", "T=I, u=0, l1 over l2 ball",
        rep.min_primal, rep.min_dual, gap, TOL_ITER))
    rng = _rng(seed, "dual-inner")
    for idx in range(instances):
        T = rng.normal(size=(3, 3))
        u = rng.normal(size=3)
        combo = [(2.0, "l2"), (1.0, "linf")][idx % 2]
        rep = spectra.dual_inner_problem_check(T, u, fnorm=combo[0],
                                               ball=combo[1], seed=seed + idx)
        gap = _worst(rep.min_gap, rep.max_gap)
        out.append(VerificationReport.make(
            "dual-inner-random", "min/max of F(Tx) - x.u over the ball "
            "equal their support-function duals",
            f"random 3x3 #{idx} F=l{int(combo[0])} B={combo[1]}",
            rep.min_primal, rep.min_dual, gap, TOL_ITER,
            {"max_primal": rep.max_primal, "max_dual": rep.max_dual}))
    return out


def suite_maxcut(seed=42) -> list[VerificationReport]:
    """Exact maxcut against its continuous representation, and the dual
    Cheeger representation on sampled pairs."""
    out = []
    rng = _rng(seed, "maxcut")
    cases = [("K3", WeightedGraph.complete(3), 2.0),
             ("C4", WeightedGraph.cycle(4), 4.0),
             ("C5", WeightedGraph.cycle(5), 4.0),
             ("edge", WeightedGraph.from_edges(2, [(0, 1)]), 1.0)]
    for name, g, want in cases:
        rep = cst.maxcut(g, seed=seed)
        gap = _worst(abs(rep.value - want), abs(rep.indicator_value - rep.value),
                     0.0 if rep.continuous_samples_ok else 1.0)
        out.append(VerificationReport.make(
            "maxcut-representation", "maxcut equals the sign-constrained "
            "bilinear representation; samples never exceed it",
            name, rep.value, want, gap, TOL_SLACK))
    # dual Cheeger representation h+ = max 2 E(S,T) / vol(S u T)
    g = rand_connected_graph(rng, 5, 7)
    hplus = float(cst.dual_cheeger_k(g, 1).value)
    worst = 0.0
    deg = g.degrees
    best_seen = 0.0
    for _ in range(300):
        support = rng.integers(0, 2, size=g.n).astype(bool)
        x = np.where(support, rng.uniform(0.1, 1.0, g.n), 0.0)
        y = np.where(~support, rng.uniform(0.1, 1.0, g.n), 0.0)
        den = x.max() * float(deg @ y) + y.max() * float(deg @ x)
        if den == 0:
            continue
        val = 2.0 * float(x @ g.W @ y) / den
        best_seen = max(best_seen, val)
        worst = _worst(worst, val - hplus)
    out.append(VerificationReport.make(
        "dual-cheeger-representation", "2 sum w x y / (||x||inf vol(y) + "
        "||y||inf vol(x)) never exceeds the dual Cheeger constant",
        f"graph n={g.n}", best_seen, hplus, worst, TOL_SLACK))
    return out


def suite_second_eigen(seed=42) -> list[VerificationReport]:
    """Projected, constrained and min-max forms of the first nontrivial
    eigenvalue agree, and the Dinkelbach iteration on the quadratic pair
    (its exact inner route) reaches it; the disconnected case lands on
    lambda_3."""
    out = []
    rng = _rng(seed, "second-eigen")
    g = rand_connected_graph(rng, 5, 8)
    L, D = g.laplacian(), np.diag(g.degrees)
    rep = spectra.second_eigen_characterizations(L, D, np.ones(g.n))
    out.append(VerificationReport.make(
        "second-eigen-connected", "three characterizations of lambda_2 "
        "agree on a connected graph", f"n={g.n}", rep.projected_form,
        rep.spectrum_value, rep.gap, TOL_EXACT))
    ep = spectra.dinkelbach_multistart(
        spectra.quadratic_form_pair(L, D),
        spectra.projection_quadratic(D, np.ones(g.n)), g.n, seed=seed, starts=8)
    out.append(VerificationReport.make(
        "second-eigen-dinkelbach", "Dinkelbach on the quadratic pair along "
        "span(1) reaches lambda_2", f"n={g.n}", ep.lam, rep.spectrum_value,
        abs(ep.lam - rep.spectrum_value), TOL_ITER,
        {"outer_steps": len(ep.history) - 1, "converged": ep.converged}))
    g1 = rand_connected_graph(rng, 3, 4)
    g2 = rand_connected_graph(rng, 3, 4)
    n = g1.n + g2.n
    W = np.zeros((n, n))
    W[:g1.n, :g1.n] = g1.W
    W[g1.n:, g1.n:] = g2.W
    g12 = WeightedGraph(W)
    L, D = g12.laplacian(), np.diag(g12.degrees)
    Pi = np.zeros((2, n))
    Pi[0, :g1.n] = 1.0
    Pi[1, g1.n:] = 1.0
    rep = spectra.second_eigen_characterizations(L, D, Pi)
    w, _ = spectra.quadratic_pair_spectrum(L, D)
    gap = _worst(rep.gap, abs(rep.projected_form - w[2]))
    out.append(VerificationReport.make(
        "second-eigen-disconnected", "with two components the projected "
        "form equals lambda_3", f"n={n}", rep.projected_form, w[2], gap,
        TOL_EXACT))
    return out


SUITES: dict[str, Callable] = {
    "indicator": suite_indicator,
    "tables": suite_tables,
    "turan": suite_turan,
    "saddle": suite_saddle,
    "sion": suite_sion,
    "quasiconcave": suite_quasiconcave,
    "spectral-radius": suite_spectral_radius,
    "cheeger-graph": suite_cheeger_graph,
    "cheeger-chemical": suite_cheeger_chemical,
    "nodal-inertia": suite_nodal_inertia,
    "bipartite": suite_bipartite,
    "simplicial-identity": suite_simplicial,
    "huang": suite_huang,
    "k5": suite_k5,
    "collatz-wielandt": suite_cw,
    "duality": suite_duality,
    "dual-inner": suite_dual_inner,
    "maxcut": suite_maxcut,
    "second-eigen": suite_second_eigen,
}


def run_inequality_suites(selector="all", seed=42) -> list[VerificationReport]:
    """Run the named suite (or all of them) and merge reports by suite
    order; deterministic for a fixed seed."""
    names = list(SUITES) if selector == "all" else [selector]
    out = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        out.extend(SUITES[name](seed=seed))
    return out
