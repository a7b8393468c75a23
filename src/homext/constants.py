"""Brute-force combinatorial quantities at desk scale.

Cheeger constants (plain, k-way, dual, chemical, simplicial), maxcut,
independence and clique numbers, Motzkin-Straus and clique-hypergraph
Lagrangians and nodal-domain counts.  Every reported optimum is exact for
the enumerated instance and re-evaluates to the reported value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .setfn import CapExceeded, full_mask, mask_members, mask_of, popcount, submasks
from .simplex import l1_residual_lp, linprog  # noqa: F401  linprog: looked up here by tracers
from .structures import ChemicalHypergraph, SimplicialComplex, WeightedGraph

CHEEGER_CAP = 20
KWAY_CAP = 12
MAXCUT_CAP = 24
SIMPLICIAL_CAP = 14
QUOTIENT_CAP = 200000
SUBSET_CHUNK = 1 << 16
MAXCUT_SAMPLES = 200
ASCENT_STARTS = 16


@dataclass
class CheegerReport:
    value: Fraction | float
    optimal_sets: list
    enumerated: int
    variant: str
    extra: dict = field(default_factory=dict)


def _as_ratio(num: int, den: int):
    """num / den as a Fraction; 0 / 0 is 0 and a positive num / 0 is inf."""
    if den == 0:
        return Fraction(0) if num == 0 else np.inf
    return Fraction(num, den)


def _ratio(num, den, integral: bool):
    """num / den: ``_as_ratio`` of the rounded sums for integral weights,
    else a float by the same rule (0 / 0 is 0, a positive num / 0 is inf)."""
    if integral:
        return _as_ratio(int(round(num)), int(round(den)))
    if den == 0:
        return 0.0 if num == 0 else np.inf
    return num / den


def subset_tables(W: np.ndarray, d: np.ndarray, hi: int):
    """(masks, rows, cut, vol) for the masks S = 1 .. hi - 1, one chunk of at
    most ``SUBSET_CHUNK`` masks at a time: rows[i] is vertex i's boolean
    indicator over the chunk, cut(S) = sum of W_ij over i in S, j not in S
    and vol(S) = sum of d_i over i in S.  Each sum adds its nonzero W_ij (or
    its d_i) one at a time, i ascending and then j ascending, so every entry
    has the bits of the left-to-right loop over mask_members."""
    n, terms = len(d), [(i, j, W[i, j]) for i, j in np.argwhere(W)]
    for lo in range(1, hi, SUBSET_CHUNK):
        masks = np.arange(lo, min(lo + SUBSET_CHUNK, hi), dtype=np.int64)
        rows = ((masks >> np.arange(n)[:, None]) & 1).astype(bool)
        cut = np.zeros(masks.size)
        for i, j, w in terms:
            np.add(cut, w, out=cut, where=rows[i] & ~rows[j])
        yield masks, rows, cut, _member_sum(rows, d)


def _member_sum(rows: np.ndarray, d) -> np.ndarray:
    """Per column of rows, the sum of d_i over the rows i set there, i ascending."""
    total = np.zeros(rows.shape[1])
    for i, di in enumerate(d):
        np.add(total, di, out=total, where=rows[i])
    return total


def _tables(W: np.ndarray, d: np.ndarray) -> tuple[list, list]:
    """cut and vol of ``subset_tables`` at every mask 0 .. 2^n - 1, typed as
    the loops over mask_members type them: cut np.float64 but the empty sum
    0.0 at the empty set and V, vol Python floats."""
    cut, vol = [0.0], [0.0]
    for _, _, c, v in subset_tables(W, d, 1 << len(d)):
        cut += list(c)
        vol += v.tolist()
    cut[-1] = 0.0
    return cut, vol


def _check_blocks(k: int, blocks: int, size: int, what: str) -> None:
    if k < 1 or blocks > size:
        raise ValueError(f"k = {k} needs 1 <= {blocks} blocks <= {size} {what}")


def _near_least(chunks) -> list[tuple[int, object, object]]:
    """(mask, num, den), in mask order, of every mask whose ratio num / den
    is within 1e-9 (relative) of the least, from chunks (masks, num, den)
    of nonnegative tables with den > 0."""
    parts, least = [], np.inf
    for masks, num, den in chunks:
        r = num / den
        least = min(least, r.min(initial=np.inf))
        near = r <= least * (1 + 1e-9)
        parts += zip(masks[near].tolist(), num[near], den[near], r[near])
    return [(a, num, den) for a, num, den, r in parts if r <= least * (1 + 1e-9)]


def cheeger(g: WeightedGraph) -> CheegerReport:
    """h = min over proper nonempty A of cut(A) / min(vol A, vol A^c); the
    tables' float ratios preselect and ``_ratio`` of their entries decides."""
    if g.n > CHEEGER_CAP:
        raise CapExceeded(f"cheeger enumeration capped at n <= {CHEEGER_CAP}")
    if not g.is_connected():
        comp = g.components()[0]
        return CheegerReport(Fraction(0), [comp], 0, "cheeger")
    integral = np.array_equal(g.W, np.round(g.W))
    d, total = g.degrees, full_mask(g.n)
    tables = ((masks, cut, np.minimum(vol, _member_sum(~rows, d)))
              for masks, rows, cut, vol in subset_tables(g.W, d, total))
    best, arg = None, []
    for a, cut, den in _near_least(tables):
        val = _ratio(cut, den, integral)
        if best is None or val < best:
            best, arg = val, [a]
        elif val == best and len(arg) < 8:
            arg.append(a)
    return CheegerReport(best, arg, len(range(1, total)), "cheeger")


def _disjoint_tuples(n: int, k: int):
    """Canonically ordered families of k disjoint nonempty subsets (each
    family once, blocks sorted by smallest element)."""
    total = full_mask(n)
    def rec(used, k_left, min_elt):
        if k_left == 0:
            yield ()
            return
        avail = total & ~used
        elems = [i for i in mask_members(avail) if i >= min_elt]
        for anchor in elems:
            rest = mask_of([i for i in mask_members(avail) if i > anchor])
            for sub in submasks(rest):
                block = sub | (1 << anchor)
                for tail in rec(used | block, k_left - 1, anchor + 1):
                    yield (block,) + tail
    yield from rec(0, k, 0)


def k_way_cheeger(g: WeightedGraph, k: int) -> CheegerReport:
    """h_k = min over disjoint nonempty S_1..S_k of max_i cut(S_i)/vol(S_i)."""
    if g.n > KWAY_CAP:
        raise CapExceeded(f"k-way enumeration capped at n <= {KWAY_CAP}")
    _check_blocks(k, k, g.n, "vertices")
    integral = np.array_equal(g.W, np.round(g.W))
    ratio = [_ratio(c, v, integral) for c, v in zip(*_tables(g.W, g.degrees))]
    best, arg, count = None, [], 0
    for blocks in _disjoint_tuples(g.n, k):
        count += 1
        worst = max(ratio[b] for b in blocks)
        if best is None or worst < best:
            best, arg = worst, [blocks]
    return CheegerReport(best, arg, count, f"{k}-way")


def dual_cheeger_k(g: WeightedGraph, k: int) -> CheegerReport:
    """h_k^+ = max over disjoint pairs (V_1,V_2),...,(V_{2k-1},V_{2k}) of
    min_i 2 E(V_{2i-1}, V_{2i}) / vol(V_{2i-1} | V_{2i})."""
    if g.n > KWAY_CAP:
        raise CapExceeded(f"k-way enumeration capped at n <= {KWAY_CAP}")
    _check_blocks(k, 2 * k, g.n, "vertices")
    integral = np.array_equal(g.W, np.round(g.W))
    E, vol = g.ordered_edge_count().callback, _tables(g.W, g.degrees)[1]
    best, arg, count = None, [], 0
    for blocks in _disjoint_tuples(g.n, 2 * k):
        # blocks are canonically ordered; pair them in every way is costly,
        # but pairing consecutive blocks after choosing the family misses
        # pairings, so enumerate pairings of the 2k blocks.
        count += 1
        for pairing in _pairings(list(blocks)):
            worst = min(_ratio(2 * E(a, b), vol[a | b], integral) for a, b in pairing)
            if best is None or worst > best:
                best, arg = worst, [pairing]
    return CheegerReport(best, arg, count, f"{k}-way-dual")


def _pairings(items: list):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1:]
        for tail in _pairings(rest):
            yield [(a, b)] + tail


@dataclass
class MaxcutReport:
    value: float
    witness: int
    continuous_samples_ok: bool
    indicator_value: float


def maxcut(g: WeightedGraph, seed: int = 42) -> MaxcutReport:
    """Exact maxcut over bipartitions, plus the continuous form
    max over x, y >= 0 with x.y = 0 of sum w_ij x_i y_j / (||x||inf ||y||inf):
    ``MAXCUT_SAMPLES`` sampled values never exceed the cut and the
    indicator pair attains it."""
    if g.n > MAXCUT_CAP:
        raise CapExceeded(f"maxcut capped at n <= {MAXCUT_CAP}")
    best, arg = 0.0, 0                    # the empty side, an empty sum
    for masks, _, cut, _ in subset_tables(g.W, g.degrees, 1 << (g.n - 1)):
        i = int(cut.argmax())             # vertex n-1 stays outside
        if cut[i] > best:
            best, arg = cut[i], int(masks[i])
    rng = np.random.default_rng(seed)
    ok = True
    comp = full_mask(g.n) & ~arg
    for _ in range(MAXCUT_SAMPLES):
        support = rng.integers(0, 2, size=g.n).astype(bool)
        x = np.where(support, rng.uniform(0.1, 1.0, g.n), 0.0)
        y = np.where(~support, rng.uniform(0.1, 1.0, g.n), 0.0)
        if x.max() == 0 or y.max() == 0:
            continue
        val = float(x @ g.W @ y) / (x.max() * y.max())
        if val > best + 1e-8:
            ok = False
    xw = np.array([(arg >> i) & 1 for i in range(g.n)], dtype=float)
    yw = np.array([(comp >> i) & 1 for i in range(g.n)], dtype=float)
    ind = float(xw @ g.W @ yw)
    return MaxcutReport(best, arg, ok, ind)


# -- independence, cliques, Motzkin-Straus ------------------------------------

def independence_number(g: WeightedGraph) -> tuple[int, int]:
    """(alpha, witness mask) by branch and bound on the adjacency masks."""
    adj = [0] * g.n
    for i, j, _ in g.edges():
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = [0, 0]

    def bb(cand: int, chosen: int):
        if popcount(chosen) + popcount(cand) <= best[0]:
            return
        if cand == 0:
            if popcount(chosen) > best[0]:
                best[0] = popcount(chosen)
                best[1] = chosen
            return
        v = cand.bit_length() - 1
        bb(cand & ~(1 << v) & ~adj[v], chosen | (1 << v))   # take v
        bb(cand & ~(1 << v), chosen)                        # skip v
    bb(full_mask(g.n), 0)
    return best[0], best[1]


def clique_number(g: WeightedGraph) -> tuple[int, int]:
    return independence_number(g.complement())


@dataclass
class MotzkinStrausReport:
    omega: int
    clique_witness: int
    discrete_value: float          # 1 - 1/omega
    ascent_value: float
    ascent_witness: np.ndarray
    max_subset_density: Fraction   # max over A of ordered-pair density


def _replicator_ascent(grad_fn, value_fn, starts):
    """Multiplicative (Baum-Eagon) updates on the simplex, at most 400 per
    start; monotone for polynomials with nonnegative coefficients."""
    best, bx = -np.inf, None
    for x0 in starts:
        x = np.asarray(x0, dtype=float)
        x = x / x.sum()
        for _ in range(400):
            g = grad_fn(x)
            tot = float(x @ g)
            if tot <= 0:
                break
            xn = x * g / tot
            s = xn.sum()
            if s <= 0:
                break
            xn /= s
            if np.max(np.abs(xn - x)) < 1e-14:
                x = xn
                break
            x = xn
        v = value_fn(x)
        if v > best:
            best, bx = v, x
    return best, bx


def motzkin_straus(g: WeightedGraph, seed: int = 42) -> MotzkinStrausReport:
    """max 2 sum_{ij in E} x_i x_j on the simplex vs 1 - 1/omega.

    The ascent start list always contains the uniform point and the
    uniform-on-maximum-clique point, so the best ascent value is pinched
    between the clique value and the global optimum 1 - 1/omega; then
    ``ASCENT_STARTS`` seeded random points.
    """
    omega, wit = clique_number(g)
    A = (g.W != 0).astype(float)
    rng = np.random.default_rng(seed)
    start_list = [np.ones(g.n)]
    xw = np.array([(wit >> i) & 1 for i in range(g.n)], dtype=float)
    if xw.sum() > 0:
        start_list.append(xw)
    for _ in range(ASCENT_STARTS):
        start_list.append(rng.uniform(0.05, 1.0, g.n))
    val, bx = _replicator_ascent(lambda x: A @ x, lambda x: float(x @ A @ x),
                                 start_list)
    dens = set()                          # (2 #edges inside A, |A|)
    for _, rows, cut, vol in subset_tables(A, A.sum(axis=1), 1 << g.n):
        dens.update(zip((vol - cut).tolist(), rows.sum(axis=0).tolist()))
    best_density = max((Fraction(int(e2), s * s) for e2, s in dens), default=Fraction(0))
    return MotzkinStrausReport(omega, wit, 1.0 - 1.0 / omega, val, bx, best_density)


@dataclass
class LagrangianReport:
    k: int
    discrete_value: Fraction       # max over U of #{edges inside U} / #U^k
    discrete_witness: int
    ascent_value: float
    clique_hypergraph: bool


def hypergraph_lagrangian(n: int, hyperedges: Sequence[Sequence[int]],
                          seed: int = 42,
                          clique_hypergraph: bool = False) -> LagrangianReport:
    """Lagrangian sup of sum_{e} prod_{i in e} x_i over the simplex against
    the best subset density; equality is a theorem when the hyperedges are
    all k-cliques of a graph, in general ascent >= subset density.  The
    ascent starts at the uniform point, the densest subset's indicator and
    ``ASCENT_STARTS`` seeded random points."""
    if n > 16:
        raise CapExceeded("lagrangian enumeration capped at n <= 16")
    k = len(hyperedges[0]) if hyperedges else 2
    best, wit = Fraction(0), 0
    for masks, _, _, size in subset_tables(np.zeros((n, n)), np.ones(n), 1 << n):
        cnt = np.zeros(masks.size, dtype=np.int64)    # hyperedges inside the set
        for m in map(mask_of, hyperedges):
            cnt += (masks & m) == m
        r = cnt / size ** k
        for i in np.flatnonzero((r > 0) & (r >= r.max() * (1 - 1e-9))):
            val = Fraction(int(cnt[i]), int(size[i]) ** k)
            if val > best:
                best, wit = val, int(masks[i])

    edge_lists = [list(e) for e in hyperedges]

    def value(x):
        return float(sum(np.prod(x[e]) for e in edge_lists)) if edge_lists else 0.0

    def grad(x):
        g = np.zeros(n)
        for e in edge_lists:
            pe = np.prod(x[e])
            for i in e:
                g[i] += pe / x[i] if x[i] > 0 else 0.0
        return g

    rng = np.random.default_rng(seed)
    start_list = [np.ones(n)]
    if wit:                               # no hyperedge: no densest subset
        start_list.append(np.array([(wit >> i) & 1 for i in range(n)], dtype=float))
    for _ in range(ASCENT_STARTS):
        start_list.append(rng.uniform(0.05, 1.0, n))
    val, _ = _replicator_ascent(grad, value, start_list)
    return LagrangianReport(k, best, wit, val, clique_hypergraph)


def clique_hypergraph(g: WeightedGraph, k: int) -> list[tuple[int, ...]]:
    """All k-cliques of a graph as hyperedges."""
    out = []
    for c in combinations(range(g.n), k):
        if all(g.W[i, j] != 0 for i, j in combinations(c, 2)):
            out.append(c)
    return out


# -- chemical hypergraph Cheeger ----------------------------------------------

def chemical_cheeger(H: ChemicalHypergraph) -> CheegerReport:
    """min over proper nonempty A of #boundary(A) / min(vol A, vol A^c)."""
    if H.n > CHEEGER_CAP:
        raise CapExceeded(f"chemical cheeger capped at n <= {CHEEGER_CAP}")
    total, d = full_mask(H.n), H.degrees

    def chunks():
        for masks, rows, _, vol in subset_tables(np.zeros((H.n, H.n)), d, total):
            # boundary: e_in meets A and e_out leaves it, or e_out is inside and e_in outside
            num = np.zeros(masks.size, dtype=np.int64)
            for e_in, e_out in H.edges:
                num += (((masks & e_in) != 0) & ((~masks & e_out) != 0)) \
                    | (((masks & e_out) == e_out) & ((masks & e_in) == 0))
            den = np.minimum(vol, _member_sum(~rows, d))
            yield masks[den != 0], num[den != 0], den[den != 0]

    best, arg = None, []
    for a, num, den in _near_least(chunks()):
        val = Fraction(int(num), int(den))
        if best is None or val < best:
            best, arg = val, [a]
    return CheegerReport(best, arg, len(range(1, total)), "chemical")


# -- simplicial Cheeger constants ----------------------------------------------

def simplicial_cheeger(K: SimplicialComplex, d: int, k: int = 1) -> CheegerReport:
    """k-th Cheeger constant on the d-simplices through the anti-signed
    graph: min over 2k disjoint sets of the max beta of consecutive pairs,
    beta(A, A') = (2 E_-(A) + 2 E_-(A') + 2 E_+(A, A') + #boundary(A | A'))
    / vol(A | A') from the subset tables of the negative and positive edges."""
    G = K.anti_signed_graph(d)
    nd = K.count(d)
    if nd > SIMPLICIAL_CAP:
        raise CapExceeded(f"simplicial enumeration capped at {SIMPLICIAL_CAP} simplices")
    _check_blocks(k, k, nd, f"{d}-simplices")
    # 2 E_-(S) = vol_-(S) - cut_-(S), 2 E_+(A, A') = cut_+(A) + cut_+(A') -
    # cut_+(A | A') and #boundary(S) = cut_-(S) + cut_+(S): beta's numerator
    # is u(A) + u(A') + cut_-(A | A') with u = vol_- - cut_- + cut_+
    N, P = (G.W < 0).astype(float), (G.W > 0).astype(float)
    cut_n, vol_n = _tables(N, N.sum(axis=1))
    cut_p, vol = _tables(P, K.up_degrees(d))
    u = [int(v - c + cp) for v, c, cp in zip(vol_n, cut_n, cut_p)]
    cut_n, vol = [int(c) for c in cut_n], [int(v) for v in vol]
    best, arg, count = None, [], 0
    # sub-partitions: the second part of a pair may be empty; families are
    # canonical with pair minima strictly increasing and the top element of
    # each pair's support placed in the first part (beta is symmetric).
    total = full_mask(nd)

    def pairs_within(avail, lo):
        for s_anchor in [i for i in mask_members(avail) if i >= lo]:
            rest = mask_of([i for i in mask_members(avail) if i > s_anchor])
            for s_extra in submasks(rest):
                s = s_extra | (1 << s_anchor)
                for a in submasks(s):
                    if a.bit_length() == s.bit_length():
                        yield a, s & ~a, s, s_anchor

    def rec(avail, k_left, lo):
        if k_left == 0:
            yield []
            return
        for a, b, s, anchor in pairs_within(avail, lo):
            for tail in rec(avail & ~s, k_left - 1, anchor + 1):
                yield [(a, b)] + tail

    for fam in rec(total, k, 0):
        count += 1
        if any(vol[a | b] == 0 for a, b in fam):
            continue
        worst = max(Fraction(u[a] + u[b] + cut_n[a | b], vol[a | b]) for a, b in fam)
        if best is None or worst < best:
            best, arg = worst, [fam]
    return CheegerReport(best, arg, count, f"simplicial-{k}-way-S{d}",
                         extra={"dimension": d})


def quotient_l1_norm(x, image_basis, degrees) -> float:
    """min over z in span(image columns) of sum_i deg_i |x_i + z_i| (LP)."""
    x = np.asarray(x, dtype=float)
    Z = np.asarray(image_basis, dtype=float)
    n = x.size
    if Z.size == 0:
        return float(np.sum(degrees * np.abs(x)))
    res = l1_residual_lp(Z.reshape(n, -1), x, degrees)
    if res.status != "optimal":
        return np.inf
    return max(res.objective, 0.0)


@dataclass
class SimplicialHReport:
    per_n: dict                    # N -> best upper bound found
    value: float                   # min over the N family
    witness: Optional[tuple]


def simplicial_h(K: SimplicialComplex, d: int, n_list=(1, 2)) -> SimplicialHReport:
    """Upper-bound family for the 1-Laplacian Cheeger constant on S_d:
    minimum over integer multisets with multiplicities in [-N, N] of
    ||B_{d+1}^T x||_1 over the deg-weighted quotient l1 norm.

    Exactness for a finite N is not claimed; the report carries the
    per-N minima so convergence across N can be inspected.
    """
    nd = K.count(d)
    img = K.boundary_matrix(d).T if d >= 1 else np.zeros((nd, 0))
    return _quotient_enumeration(K.boundary_matrix(d + 1).T,    # S_{d+1} x S_d
                                 K.up_degrees(d), img, n_list)


def down_cheeger(K: SimplicialComplex, d: int, n_list=(1, 2)) -> SimplicialHReport:
    """Analogous enumeration on B_d: min ||B_d x||_1 over the quotient norm
    modulo the image of B_{d+1}."""
    nd = K.count(d)
    deg = np.full(nd, float(d + 1))    # each d-simplex has d+1 facets
    img = K.boundary_matrix(d + 1) if d + 1 <= K.dim else np.zeros((nd, 0))
    return _quotient_enumeration(K.boundary_matrix(d), deg, img, n_list)


def _quotient_enumeration(M, deg, img, n_list) -> SimplicialHReport:
    """min over integer x != 0 with entries in [-N, N], first nonzero entry
    positive, of ||M x||_1 over the deg-weighted l1 norm of x modulo the
    column span of img, per N in n_list; an N-box of more than
    ``QUOTIENT_CAP`` vectors raises ``CapExceeded``."""
    nd = len(deg)
    per_n = {}
    wit = None
    best_all = np.inf
    for N in n_list:
        if (2 * N + 1) ** nd > QUOTIENT_CAP:
            raise CapExceeded("multiset enumeration over the N-box too large")
        best = np.inf
        for digits in product(range(-N, N + 1), repeat=nd):
            if all(v == 0 for v in digits):
                continue
            first = next(v for v in digits if v != 0)
            if first < 0:
                continue
            x = np.array(digits, dtype=float)
            num = float(np.sum(np.abs(M @ x)))
            if num == 0:
                continue
            cheap = float(np.sum(deg * np.abs(x)))
            if cheap > 0 and num / cheap >= best:
                continue            # quotient norm <= plain norm: prune
            den = quotient_l1_norm(x, img, deg)
            if den <= 1e-12:
                continue            # x is a coboundary: excluded
            val = num / den
            if val < best:
                best = val
                if val < best_all:
                    best_all, wit = val, digits
        per_n[N] = best
    return SimplicialHReport(per_n, best_all, wit)


# -- nodal domains -------------------------------------------------------------

def nodal_domains(x, g: WeightedGraph, tol: float = 1e-9) -> int:
    """Connected components of the support of x in the carrier graph."""
    support = [i for i in range(g.n) if abs(x[i]) > tol]
    if not support:
        return 0
    sset = set(support)
    seen = set()
    count = 0
    for s in support:
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            v = stack.pop()
            for u in range(g.n):
                if u in sset and u not in seen and g.W[v, u] != 0:
                    seen.add(u)
                    stack.append(u)
    return count
