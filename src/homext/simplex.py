"""Dense two-phase simplex.

Small, deterministic LP kernel for the residual programs, the saddle-point
cone LPs and quotient-norm evaluations.  Problems here have at most a
few hundred nonzeros, so a dense tableau is the simplest reliable choice.

Pricing is Dantzig's rule with ties broken by column index and the ratio
test prefers the largest pivot element; after a long stall the iteration
switches to Bland's rule, which cannot cycle.  A pivot updates every row
with a nonzero pivot-column entry in one outer-product step.

``solve_standard`` checks its "optimal" and "infeasible" verdicts
against the original (unscaled) data; "unbounded" is taken as found:

* an optimum is accepted when x >= -1e-9 and |A x - b| <= 1e-7 * atol
  with atol = max(1, |b|_inf);
* "infeasible" is accepted with a Farkas certificate: when phase 1 ends
  optimal with a positive artificial sum, its duals y_i = 1 - T[m, n+i],
  divided by the row scale, must satisfy y.A <= PIVOT_TOL * |y|_inf
  entrywise and y.b > |y|_1 * 1e-7 * atol.  The second margin exceeds
  what a residual the optimum check accepts can contribute to y.b, so
  y.b = y.A x - y.(A x - b) rules out every accepted x >= 0 with
  y.A x <= 0; with y.A <= 0 that is every x >= 0, and the PIVOT_TOL
  slack admits only points with |x|_1 at least
  (y.b - |y|_1 * 1e-7 * atol) / (PIVOT_TOL * |y|_inf).

A verdict that fails its check, a stalled phase and a phase 1 that does
not end optimal are solved again with Bland's rule throughout; a
certified "infeasible" is not.  When neither pass gives a checked
verdict the status is "numerical", which callers read as "no optimum"
just as they read "infeasible".

An "optimal" result carries optimal duals y, the sensitivities
d objective / d b_i of the caller's rows (the sign convention of HiGHS's
marginals): y.b is the objective and c - y.A >= 0 on the nonnegative
columns, so from ``linprog`` y_i <= 0 on an inequality row
a_i.x <= b_i.  Phase 2 keeps the artificial columns of phase 1 as
columns that never enter; they hold B^-1, and y = c_B B^-1 is minus
their final reduced costs, read as a slice of the last tableau row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
STALL_LIMIT = 200


@dataclass
class LPResult:
    status: str          # "optimal" | "infeasible" | "unbounded" | "numerical"
    x: Optional[np.ndarray]
    objective: Optional[float]
    # phase-1 duals of an "infeasible" verdict; from solve_standard, the
    # checked Farkas certificate on the caller's rows A, b (from linprog,
    # on the standard form it builds)
    certificate: Optional[np.ndarray] = None
    # optimal duals of an "optimal" verdict, d objective / d b per row:
    # from solve_standard on the rows of A, from linprog on the rows of
    # A_ub and then A_eq (see the module docstring)
    duals: Optional[np.ndarray] = None


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colv = T[:, col].copy()
    colv[row] = 0.0
    rows = colv.nonzero()[0]
    T[rows] -= np.multiply.outer(colv[rows], T[row])
    basis[row] = col


def _iterate(T, basis, ncols, bland: bool):
    """Minimize the last tableau row over columns < ncols."""
    m = T.shape[0] - 1
    steps = 0
    use_bland = bland
    while True:
        steps += 1
        if steps > STALL_LIMIT:
            use_bland = True
        if steps > 100000:
            return "stalled"
        col = -1
        if use_bland:
            neg = (T[m, :ncols] < -PIVOT_TOL).nonzero()[0]
            if neg.size:
                col = int(neg[0])
        else:
            j = int(np.argmin(T[m, :ncols]))
            if T[m, j] < -PIVOT_TOL:
                col = j
        if col < 0:
            return "optimal"
        row = -1
        best = np.inf
        best_piv = 0.0
        colv = T[:m, col].tolist()
        rhs = T[:m, -1].tolist()
        for i in range(m):
            a = colv[i]
            if a > PIVOT_TOL:
                ratio = rhs[i] / a
                better = ratio < best - 1e-12
                tie = abs(ratio - best) <= 1e-12
                if better or (tie and not use_bland and a > best_piv) \
                        or (tie and use_bland and (row < 0 or basis[i] < basis[row])):
                    best, row, best_piv = ratio, i, a
        if row < 0:
            return "unbounded"
        _pivot(T, basis, row, col)


def _solve_standard_once(c, A, b, bland: bool) -> LPResult:
    """One two-phase solve, unchecked.  "infeasible" means phase 1 ended
    optimal with a positive artificial sum and carries its duals;
    "numerical" means a phase stalled or phase 1 did not end optimal."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    status = _iterate(T, basis, n + m, bland)
    if status != "optimal":
        return LPResult("numerical", None, None)
    if -T[m, -1] > FEAS_TOL:
        return LPResult("infeasible", None, None, 1.0 - T[m, n:n + m])

    for i in range(m):          # drive artificials out of the basis
        if basis[i] >= n:
            for j in range(n):
                if abs(T[i, j]) > 1e-7:
                    _pivot(T, basis, i, j)
                    break

    # the artificial columns stay, never priced, so that they hold B^-1
    keep = [i for i in range(m) if basis[i] < n]
    T2 = np.zeros((len(keep) + 1, n + m + 1))
    T2[:len(keep), :n + m] = T[keep][:, :n + m]
    T2[:len(keep), -1] = T[keep][:, -1]
    basis2 = [basis[i] for i in keep]
    T2[-1, :n] = c
    for i, bi in enumerate(basis2):
        T2[-1] -= T2[-1, bi] * T2[i]
    status = _iterate(T2, basis2, n, bland)
    if status == "stalled":
        return LPResult("numerical", None, None)
    if status != "optimal":
        return LPResult(status, None, None)
    x = np.zeros(n)
    for i, bi in enumerate(basis2):
        x[bi] = T2[i, -1]
    return LPResult("optimal", x, float(c @ x), duals=-T2[-1, n:n + m])


def solve_standard(c, A, b) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0.

    Rows are equilibrated, "optimal" and "infeasible" are checked
    against the original data (see the module docstring), and a verdict
    that fails its check is solved again with Bland's rule throughout.
    """
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1
    scale = np.maximum(np.abs(A).max(axis=1), np.abs(b))
    scale[scale == 0] = 1.0
    As = A / scale[:, None]
    bs = b / scale

    atol = max(1.0, np.abs(b).max(initial=0.0))
    for bland in (False, True):
        res = _solve_standard_once(c, As, bs, bland)
        if res.status == "unbounded":
            return res
        if res.status == "optimal":
            if np.all(res.x >= -1e-9) and \
                    np.abs(A @ res.x - b).max(initial=0.0) <= 1e-7 * atol:
                y = res.duals / scale
                res.duals = np.where(neg, -y, y)
                return res
        elif res.status == "infeasible":
            y = res.certificate / scale
            if np.all(y @ A <= PIVOT_TOL * np.abs(y).max(initial=0.0)) and \
                    y @ b > np.abs(y).sum() * 1e-7 * atol:
                return LPResult("infeasible", None, None, np.where(neg, -y, y))
    return LPResult("numerical", None, None)


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None,
            bounds: Optional[Sequence[tuple]] = None) -> LPResult:
    """min c.x with optional inequality rows, equality rows and box bounds.

    ``bounds`` entries are (lo, hi); None means unbounded on that side.
    Default bound is (0, None).  Converted to standard form internally.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, n)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if bounds is None:
        bounds = [(0.0, None)] * n

    # x_j = lo_j + u_j (lo finite) or u_j - v_j (free); finite hi adds a row.
    # Standard-form column k holds sgn[k] * x_var[k]: u_j, then v_j if free.
    var, sgn, u, free, v, shift, capped = [], [], [], [], [], [], []
    for j, (lo, hi) in enumerate(bounds):
        u.append(len(var))
        var.append(j)
        sgn.append(1.0)
        if lo is None:
            free.append(j)
            v.append(len(var))
            var.append(j)
            sgn.append(-1.0)
        shift.append(0.0 if lo is None else lo)
        if hi is not None:
            capped.append(j)
    shift = np.array(shift, dtype=float)

    # rows in x: A_ub, the unit rows of capped x_j, A_eq; slacks on the first two
    rows = np.concatenate((A_ub, np.eye(n)[capped], A_eq) if capped else (A_ub, A_eq))
    rhs = np.concatenate(([b - a @ shift for a, b in zip(A_ub, b_ub)],
                          [bounds[j][1] - shift[j] for j in capped],
                          [b - a @ shift for a, b in zip(A_eq, b_eq)]))
    n_slack = A_ub.shape[0] + len(capped)
    A = np.concatenate((rows[:, var] * sgn, np.eye(len(rows), n_slack)), axis=1)
    cc = np.concatenate((c[var] * sgn, np.zeros(n_slack)))

    res = solve_standard(cc, A, rhs)
    if res.status != "optimal":
        return res
    y = res.x
    x = shift + y[u]
    if free:
        x[free] = y[u][free] - y[v]
    duals = np.delete(res.duals, np.s_[A_ub.shape[0]:n_slack])   # not the bound rows
    return LPResult("optimal", x, float(c @ x), duals=duals)


def l1_residual_lp(A, b, w, lin=None, radius=None) -> LPResult:
    """min sum_i w_i |(A z + b)_i| - lin.z over z in [-radius, radius]^n
    (z free when radius is None; no lin term when lin is None).

    One LP in (z, s) with s_i >= |(A z + b)_i|, as the two rows
    (A z)_i - s_i <= -b_i and -(A z)_i - s_i <= b_i, in that order per i.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k, n = A.shape
    c = np.concatenate([np.zeros(n) if lin is None else -np.asarray(lin, dtype=float),
                        np.asarray(w, dtype=float)])
    A_ub = np.zeros((2 * k, n + k))
    A_ub[0::2, :n] = A
    A_ub[1::2, :n] = -A
    i = np.arange(k)
    A_ub[2 * i, n + i] = -1.0
    A_ub[2 * i + 1, n + i] = -1.0
    b_ub = np.empty(2 * k)
    b_ub[0::2] = -b
    b_ub[1::2] = b
    box = (None, None) if radius is None else (-radius, radius)
    return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[box] * n + [(0.0, None)] * k)
