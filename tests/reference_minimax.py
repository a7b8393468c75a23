"""Test-side references for the two-block minimax engine: the former
bisection engine, and an exact check of the engine's certified brackets."""

from fractions import Fraction
from itertools import permutations

import numpy as np

from homext import simplex, verify


class ReferenceMinimax:
    """The bisection engine that per-cone fractional programming replaced:
    one feasibility probe per ordering cone and one bisection per
    direction, the sup inf side on the transposed tables.

    ``limit[direction]`` is +-inf when that direction's bracket expansion
    ran out of its 30 steps: the bisection then returns inf (infsup) or
    -inf (supinf) at the first limit and a finite value near -+2**31 at
    the second, where the value is -inf (infsup) or +inf (supinf)."""

    def __init__(self, fv, gv, n, m):
        self.limit = {}
        self.n, self.m = n, m
        self.fv, self.gv = fv, gv
        self.fT = [[fv[a][b] for a in range(1 << n)] for b in range(1 << m)]
        self.gT = [[gv[a][b] for a in range(1 << n)] for b in range(1 << m)]
        self.linear_first = (verify._is_modular_zero_side(fv, n, m)
                             and verify._is_modular_zero_side(gv, n, m))
        self.linear_second = (verify._is_modular_zero_side(self.fT, m, n)
                              and verify._is_modular_zero_side(self.gT, m, n))

    @staticmethod
    def _simplex_feasible(rows):
        rows = np.asarray(rows, dtype=float)
        k = rows.shape[1]
        res = simplex.linprog(np.zeros(k), A_ub=rows, b_ub=np.zeros(rows.shape[0]),
                              A_eq=np.ones((1, k)), b_eq=[1.0])
        return res.status == "optimal"

    def _feasible_infsup(self, t):
        n, m = self.n, self.m
        bs = range(1, 1 << m)
        if self.linear_first:
            return self._simplex_feasible(
                [[self.fv[1 << i][b] - t * self.gv[1 << i][b] for i in range(n)] for b in bs])
        for sigma in permutations(range(n)):
            chain = verify._chain_sets(n, sigma)
            rows = [[self.fv[u][b] - t * self.gv[u][b] for u in chain] for b in bs]
            if self._simplex_feasible(rows):
                return True
        return False

    def _feasible_supinf(self, t):
        n, m = self.n, self.m
        fT, gT = self.fT, self.gT
        a_range = range(1, 1 << n)
        if self.linear_second:
            return self._simplex_feasible(
                [[-(fT[1 << j][a] - t * gT[1 << j][a]) for j in range(m)] for a in a_range])
        for tau in permutations(range(m)):
            chain = verify._chain_sets(m, tau)
            rows = [[-(fT[u][a] - t * gT[u][a]) for u in chain] for a in a_range]
            if self._simplex_feasible(rows):
                return True
        return False

    def _bracket(self):
        finite = []
        for a in range(1, 1 << self.n):
            for b in range(1, 1 << self.m):
                r = verify.ratio_value(self.fv[a][b], self.gv[a][b])
                if r is not None and np.isfinite(r):
                    finite.append(r)
        if not finite:
            return -1.0, 1.0
        return min(finite) - 1.0, max(finite) + 1.0

    def infsup(self, tol=1e-10, iters=60):
        lo, hi = self._bracket()
        for _ in range(30):
            if self._feasible_infsup(hi):
                break
            hi = 2 * hi - lo
        else:
            self.limit["infsup"] = np.inf
            return np.inf
        for _ in range(30):
            if not self._feasible_infsup(lo):
                break
            lo = 2 * lo - hi
        else:
            self.limit["infsup"] = -np.inf
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if self._feasible_infsup(mid):
                hi = mid
            else:
                lo = mid
            if hi - lo <= tol * max(1.0, abs(hi)):
                break
        return hi

    def supinf(self, tol=1e-10, iters=60):
        lo, hi = self._bracket()
        for _ in range(30):
            if self._feasible_supinf(lo):
                break
            lo = 2 * lo - hi
        else:
            self.limit["supinf"] = -np.inf
            return -np.inf
        for _ in range(30):
            if not self._feasible_supinf(hi):
                break
            hi = 2 * hi - lo
        else:
            self.limit["supinf"] = np.inf
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if self._feasible_supinf(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, abs(lo)):
                break
        return lo


def _exact(x):
    return x if np.isinf(x) else Fraction(x)


def _ratio(num, den):
    """num/den, with den = 0 read as +inf when num > 0 and -inf otherwise."""
    if den > 0:
        return num / den
    return np.inf if num > 0 else -np.inf


def assert_bracket_exact(engine, direction, value, tol=1e-10):
    """Check one direction's ``MinimaxBracket`` in exact arithmetic.

    In the frame of the side solved (F' = sign * F; the side's value s is
    the infsup value or minus the supinf value), every entry turned into a
    Fraction: the point's max ratio over the inner sets is an upper bound
    hi*, each cone's dual gives the lower bound min_u (q.F'_u)/(q.G_u) and
    lo* is the least over all cones.  Asserts lo <= lo* <= hi* <= hi for
    the engine's float bracket [lo, hi], lo <= value <= hi, and a width
    within tol * max(1, |value|)."""
    F, G, n, m, linear, sign = getattr(engine, f"_{direction}_side")
    br = getattr(engine, f"{direction}_bracket")
    lo, hi, s = (br.lo, br.hi, value) if direction == "infsup" else \
        (-br.hi, -br.lo, -value)
    Fx = [[Fraction(sign * v) for v in row] for row in F]
    Gx = [[Fraction(v) for v in row] for row in G]
    bs = range(1, 1 << m)

    hi_x = np.inf
    if br.point is not None:
        chain, w = br.point
        assert len(chain) == len(w) and np.all(w >= 0) and np.any(w > 0)
        wx = [Fraction(v) for v in w]
        hi_x = max(_ratio(sum(c * Fx[u][b] for c, u in zip(wx, chain)),
                          sum(c * Gx[u][b] for c, u in zip(wx, chain))) for b in bs)
    lo_x = -np.inf
    if s > -np.inf:
        cones = [[1 << i for i in range(n)]] if linear else \
            [verify._chain_sets(n, sigma) for sigma in permutations(range(n))]
        assert sorted(chain for chain, _ in br.duals) == sorted(cones)
        lows = []
        for chain, q in br.duals:
            assert len(q) == len(bs) and np.all(q >= 0) and np.any(q > 0)
            qx = [Fraction(v) for v in q]
            lows.append(min(_ratio(sum(c * Fx[u][b] for c, b in zip(qx, bs)),
                                   sum(c * Gx[u][b] for c, b in zip(qx, bs))) for u in chain))
        lo_x = min(lows)
    assert _exact(lo) <= lo_x <= hi_x <= _exact(hi), (direction, lo, lo_x, hi_x, hi)
    assert lo <= s <= hi
    if np.isinf(s):
        assert lo == hi == s
    else:
        assert _exact(hi) - _exact(lo) <= Fraction(tol) * max(1, abs(_exact(s)))
