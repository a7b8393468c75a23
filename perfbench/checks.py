"""Reference values computed apart from homext.

Each ``check_*`` function takes the benchmark's own plain input data and
the program's output and returns a list of failure messages, empty when
the output is correct.  The references are scipy's HiGHS LP and
``eigh``, exact enumeration in Fractions, ``minimize_scalar`` and a numpy
level-set evaluation; none of them imports homext.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from gen import members


# -- minimax-lp ---------------------------------------------------------------

def game_value(C) -> float:
    """min over p in the simplex of max_j (C^T p)_j, by HiGHS."""
    from scipy.optimize import linprog
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    res = linprog(np.r_[np.zeros(n), 1.0],
                  A_ub=np.hstack([C.T, -np.ones((m, 1))]), b_ub=np.zeros(m),
                  A_eq=np.r_[np.ones(n), 0.0].reshape(1, -1), b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the game: {res.message}")
    return float(res.fun)


def check_game(C, infsup, supinf, lp_value, tol=1e-6) -> list[str]:
    v = game_value(C)
    return [f"game {np.shape(C)}: {name} {got!r} != HiGHS {v!r}"
            for name, got in (("infsup", infsup), ("supinf", supinf),
                              ("game_lp_value", lp_value))
            if not abs(got - v) <= tol]


def discrete_minimax(value, n: int) -> tuple[Fraction, Fraction]:
    """(min_A max_B, max_B min_A) of value(A, B) / (|A| |B|) over nonempty
    subsets of {0..n-1}, exactly."""
    full = range(1, 1 << n)
    r = {(a, b): Fraction(value(a, b)) / (a.bit_count() * b.bit_count())
         for a in full for b in full}
    minimax = min(max(r[a, b] for b in full) for a in full)
    maximin = max(min(r[a, b] for a in full) for b in full)
    return minimax, maximin


def check_convex_concave(value, n, infsup, supinf, tol=1e-5,
                         slack=1e-6) -> list[str]:
    out = []
    if not abs(infsup - supinf) <= tol:
        out.append(f"Sion: infsup {infsup!r} != supinf {supinf!r}")
    minimax, maximin = discrete_minimax(value, n)
    for name, got in (("infsup", infsup), ("supinf", supinf)):
        if not float(maximin) - slack <= got <= float(minimax) + slack:
            out.append(f"{name} {got!r} outside discrete [{maximin}, {minimax}]")
    return out


def check_p3(infsup, supinf, tol=1e-8) -> list[str]:
    return [f"P3 {name} {got!r} != sqrt(2)"
            for name, got in (("infsup", infsup), ("supinf", supinf))
            if not abs(got - np.sqrt(2.0)) <= tol]


# -- dinkelbach ---------------------------------------------------------------

def chemical_degrees(n: int, edges) -> list[int]:
    return [sum(1 for e_in, e_out in edges if ((e_in | e_out) >> i) & 1)
            for i in range(n)]


def chemical_h(n: int, edges) -> Fraction:
    """min over proper nonempty A of #boundary(A) / min(vol A, vol A^c).

    Edge e is on the boundary of A when an input lies in A and an output
    outside it, or when every output lies in A and no input does."""
    deg = chemical_degrees(n, edges)
    full = (1 << n) - 1
    best = None
    for a in range(1, full):
        comp = full & ~a
        num = sum(1 for e_in, e_out in edges
                  if (e_in & a and e_out & comp) or (not e_out & comp and not e_in & a))
        den = min(sum(deg[i] for i in members(a)), sum(deg[i] for i in members(comp)))
        if den and (best is None or Fraction(num, den) < best):
            best = Fraction(num, den)
    return best


def chemical_F(edges, x, p) -> float:
    return float(sum(abs(max(x[i] for i in members(e_in))
                         - min(x[j] for j in members(e_out))) ** p
                     for e_in, e_out in edges))


def g_pi(x, deg, p) -> float:
    """min over t of sum_i deg_i |x_i - t|^p, by bounded scalar minimization."""
    from scipy.optimize import minimize_scalar
    x = np.asarray(x, dtype=float)
    w = np.asarray(deg, dtype=float)
    res = minimize_scalar(lambda t: float(np.sum(w * np.abs(x - t) ** p)),
                          bounds=(float(x.min()), float(x.max())),
                          method="bounded", options={"xatol": 1e-13})
    return float(res.fun)


def check_dinkelbach(n, edges, p, h_program, lam, x, history,
                     tol=1e-6, rtol=1e-9) -> list[str]:
    out = []
    h = float(h_program)
    if not h ** p / p ** p - tol <= lam <= 2.0 ** (p - 1) * h + tol:
        out.append(f"p={p}: lambda {lam!r} outside [h^p/p^p, 2^(p-1) h], h={h_program}")
    ratio = chemical_F(edges, x, p) / g_pi(x, chemical_degrees(n, edges), p)
    if not abs(ratio - lam) <= rtol * max(1.0, abs(ratio)):
        out.append(f"p={p}: lambda {lam!r} != F(x)/G_Pi(x) = {ratio!r}")
    if any(b > a for a, b in zip(history, history[1:])):
        out.append(f"p={p}: ratio history rises: {history}")
    if history[-1] != lam:
        out.append(f"p={p}: lambda {lam!r} is not the last ratio {history[-1]!r}")
    return out


# -- extension-exact ----------------------------------------------------------

def check_indicator_values(n, k, table, results) -> list[str]:
    """results[t] is the extension at the indicator tuple with dense index
    t: it must equal table[t] when every component is nonempty and 0
    otherwise, as an int or a Fraction."""
    if len(results) != 1 << (n * k):
        return [f"n={n} k={k}: {len(results)} tuples, want {1 << (n * k)}"]
    low = (1 << n) - 1
    out = []
    for t, got in enumerate(results):
        nonempty = all((t >> (n * b)) & low for b in range(k))
        want = table[t] if nonempty else 0
        if got != want or type(got) not in (int, Fraction):
            out.append(f"n={n} k={k} tuple {t}: got {got!r}, want {want}")
            if len(out) >= 5:
                break
    return out


# -- extension-float ----------------------------------------------------------

def level_terms(x):
    """Weights and upper-level-set masks of one block: the i-th smallest
    coordinate minus the previous one (0 before the first) and the mask
    of the coordinates from the i-th smallest on."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, kind="stable")
    vals = x[order]
    weights = np.diff(np.r_[0.0, vals])
    bits = (1 << order).astype(np.int64)
    masks = np.cumsum(bits[::-1])[::-1]
    return weights, masks


def level_set_extension(xs, table) -> float:
    """Piecewise multilinear extension by the level-set sum, for a dense
    table indexed by the concatenated masks (block 0 most significant)."""
    n = len(xs[0])
    W = np.ones(())
    idx = np.zeros((), dtype=np.int64)
    for x in xs:
        w, m = level_terms(x)
        W = np.multiply.outer(W, w)
        idx = np.add.outer(idx << n, m)
    return float(np.sum(W * np.asarray(table, dtype=float)[idx]))


CLOSED_FORMS = {
    "edge-count": lambda W, x, y: float(x @ W @ y),
    "constant": lambda W, x, y: 1.5 * x.max() * y.max(),
    "cardinality-product": lambda W, x, y: x.sum() * y.sum(),
    "intersection": lambda W, x, y: float(x @ y),
    "l1-product": lambda W, x, y: np.abs(x).sum() * np.abs(y).sum(),
    "linf-product": lambda W, x, y: np.abs(x).max() * np.abs(y).max(),
}


def check_closed_form(name, W, xs, got, tol=1e-12) -> list[str]:
    x, y = (np.asarray(v, dtype=float) for v in xs)
    want = CLOSED_FORMS[name](W, x, y)
    if not abs(float(got) - want) <= tol:
        return [f"closed form {name}: got {got!r}, want {want!r}"]
    return []


def check_float_value(got, want, rtol=1e-12) -> list[str]:
    if type(got) is not float or not abs(got - want) <= rtol * max(1.0, abs(want)):
        return [f"level-set value: got {got!r}, want {want!r}"]
    return []


def check_homogeneous(value, scaled, c, degree=1, rtol=1e-12) -> list[str]:
    want = c ** degree * value
    if not abs(scaled - want) <= rtol * max(1.0, abs(want)):
        return [f"not positively homogeneous: f(c x) = {scaled!r}, c^{degree} f(x) = {want!r}"]
    return []


# -- spectra-enum -------------------------------------------------------------

def check_pair_spectrum(A, B, w, rtol=1e-9) -> list[str]:
    from scipy.linalg import eigh
    ref = eigh(np.asarray(A, dtype=float), np.asarray(B, dtype=float), eigvals_only=True)
    scale = max(1.0, float(np.abs(A).max()))
    w = np.asarray(w, dtype=float)
    if w.shape != ref.shape:
        return [f"spectrum has {w.size} values, scipy {ref.size}"]
    err = float(np.max(np.abs(np.sort(w) - ref)))
    return [] if err <= rtol * scale else [f"eigenvalues off scipy by {err!r}"]


def graph_h(n, edges) -> Fraction:
    """min over proper nonempty A of cut(A) / min(vol A, vol A^c), unit weights."""
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    total = sum(deg)
    best = None
    for a in range(1, (1 << n) - 1):
        cut = sum(1 for i, j in edges if ((a >> i) ^ (a >> j)) & 1)
        vol = sum(deg[i] for i in members(a))
        val = Fraction(cut, min(vol, total - vol))
        if best is None or val < best:
            best = val
    return best


def check_cheeger(h_program, h_ref) -> list[str]:
    if h_program != h_ref or type(h_program) is not Fraction:
        return [f"Cheeger constant {h_program!r} != enumerated {h_ref}"]
    return []


def check_cheeger_sandwich(h, lam2, slack=1e-8) -> list[str]:
    h = float(h)
    if not h * h / 2.0 - slack <= lam2 <= 2.0 * h + slack:
        return [f"lambda_2 {lam2!r} outside [h^2/2, 2h], h={h!r}"]
    return []


def check_ternary(eigenvalues, h_ref) -> list[str]:
    nonzero = [v for v in eigenvalues if v != 0]
    if not nonzero or min(nonzero) != h_ref:
        return [f"smallest nonzero 1-Laplacian eigenvalue {min(nonzero, default=None)!r} != h {h_ref}"]
    return []


def check_k5(eigenvalues) -> list[str]:
    want = [Fraction(0), Fraction(3, 4), Fraction(1)]
    return [] if list(eigenvalues) == want else [f"K5 spectrum {eigenvalues!r} != {want}"]


def check_boundary(B_program, B_ref) -> list[str]:
    B_program = np.asarray(B_program, dtype=float)
    if B_program.shape != B_ref.shape or not np.array_equal(B_program, B_ref):
        return ["boundary matrix differs from the triangle orientation"]
    return []
