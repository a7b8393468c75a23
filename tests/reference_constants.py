"""Test-side references for the subset enumerations in ``constants``: the
per-set loops that summed each subset's cut, volume, edge weights and
signed edge counts one member at a time, and the enumerations built on
them (plain, k-way, dual, chemical and simplicial Cheeger constants,
maxcut and the Motzkin-Straus and Lagrangian subset densities)."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from homext.constants import (CheegerReport, MAXCUT_SAMPLES, MaxcutReport,
                              _as_ratio, _pairings, _ratio)
from homext.setfn import full_mask, mask_members, mask_of, popcount, submasks

from reference_structures import boundary_edges


def cut_weight(g, mask: int) -> float:
    total = 0.0
    inside = mask_members(mask)
    for i in inside:
        for j in range(g.n):
            if not (mask >> j) & 1:
                total += g.W[i, j]
    return total


def edge_weight_between(g, a: int, b: int) -> float:
    """Total weight of edges with one end in mask a, the other in mask b;
    unordered edges counted once."""
    total = 0.0
    seen = set()
    for i in mask_members(a):
        for j in mask_members(b):
            if i == j:
                continue
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            total += g.W[i, j]
    return total


def _vol_of(degrees: np.ndarray):
    """mask |-> vol(mask), the left-to-right sum of the degrees over
    mask_members, with the degrees read once."""
    d = degrees.tolist()

    def vol(mask: int) -> float:
        total = 0.0
        for i in mask_members(mask):
            total += d[i]
        return total

    return vol


def cheeger_loop(g) -> CheegerReport:
    """h = min over proper nonempty A of cut(A) / min(vol A, vol A^c)."""
    if not g.is_connected():
        comp = g.components()[0]
        return CheegerReport(Fraction(0), [comp], 0, "cheeger")
    integral = np.array_equal(g.W, np.round(g.W))
    vol = _vol_of(g.degrees)
    best, arg = None, []
    total = full_mask(g.n)
    count = 0
    for a in range(1, total):
        count += 1
        cut = cut_weight(g, a)
        den = min(vol(a), vol(total & ~a))
        if integral:
            val = _as_ratio(int(round(cut)), int(round(den)))
        else:
            val = cut / den
        if best is None or val < best:
            best, arg = val, [a]
        elif val == best and len(arg) < 8:
            arg.append(a)
    return CheegerReport(best, arg, count, "cheeger")


def chemical_cheeger_loop(H) -> CheegerReport:
    """min over proper nonempty A of #boundary(A) / min(vol A, vol A^c)."""
    total = full_mask(H.n)
    vol = _vol_of(H.degrees)
    best, arg, count = None, [], 0
    for a in range(1, total):
        count += 1
        num = boundary_edges(H, a)
        den = min(vol(a), vol(total & ~a))
        if den == 0:
            continue
        val = Fraction(num, int(round(den)))
        if best is None or val < best:
            best, arg = val, [a]
    return CheegerReport(best, arg, count, "chemical")


def _disjoint_tuples(n: int, k: int):
    """Canonically ordered families of k disjoint nonempty subsets (each
    family once, blocks sorted by smallest element): the order reference
    for ``constants._disjoint_families``."""
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


def k_way_cheeger_loop(g, k: int) -> CheegerReport:
    """h_k = min over disjoint nonempty S_1..S_k of max_i cut(S_i)/vol(S_i)."""
    integral = np.array_equal(g.W, np.round(g.W))
    vol = _vol_of(g.degrees)
    best, arg, count = None, [], 0
    for blocks in _disjoint_tuples(g.n, k):
        count += 1
        worst = None
        for b in blocks:
            val = _ratio(cut_weight(g, b), vol(b), integral)
            if worst is None or val > worst:
                worst = val
        if best is None or worst < best:
            best, arg = worst, [blocks]
    return CheegerReport(best, arg, count, f"{k}-way")


def dual_cheeger_loop(g, k: int) -> CheegerReport:
    """h_k^+ = max over disjoint pairs of min_i 2 E(V_{2i-1}, V_{2i}) /
    vol(V_{2i-1} | V_{2i}), every pairing of every family of 2k blocks."""
    integral = np.array_equal(g.W, np.round(g.W))
    vol = _vol_of(g.degrees)
    best, arg, count = None, [], 0
    for blocks in _disjoint_tuples(g.n, 2 * k):
        count += 1
        for pairing in _pairings(list(blocks)):
            worst = None
            for (a, b) in pairing:
                val = _ratio(2 * edge_weight_between(g, a, b), vol(a | b), integral)
                if worst is None or val < worst:
                    worst = val
            if best is None or worst > best:
                best, arg = worst, [pairing]
    return CheegerReport(best, arg, count, f"{k}-way-dual")


def maxcut_loop(g, seed: int = 42) -> MaxcutReport:
    """maxcut over the bipartitions with vertex n-1 outside, one
    ``cut_weight`` per mask, and the sampled continuous form."""
    best, arg = -1.0, 0
    for a in range(1 << (g.n - 1)):
        cut = cut_weight(g, a)
        if cut > best:
            best, arg = cut, a
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
    return MaxcutReport(best, arg, ok, float(xw @ g.W @ yw))


def subset_density_loop(g) -> Fraction:
    """max over nonempty A of 2 #edges inside A / |A|^2."""
    A = (g.W != 0).astype(float)
    best_density = Fraction(0)
    for a in range(1, 1 << g.n):
        e2 = 0
        for i, j in combinations(mask_members(a), 2):
            if A[i, j]:
                e2 += 2
        best_density = max(best_density, Fraction(e2, popcount(a) ** 2))
    return best_density


def lagrangian_density_loop(n: int, hyperedges) -> tuple[Fraction, int]:
    """(max over U of #{hyperedges inside U} / |U|^k, the first U attaining it)."""
    k = len(hyperedges[0]) if hyperedges else 2
    masks = [mask_of(e) for e in hyperedges]
    best, wit = Fraction(0), 0
    for u in range(1, 1 << n):
        cnt = sum(1 for m in masks if (m & u) == m)
        val = Fraction(cnt, popcount(u) ** k)
        if val > best:
            best, wit = val, u
    return best, wit


def _signed_counts(G, a: int, b: int) -> tuple[int, int, int]:
    """(E_-(a), E_-(b), E_+(a, b)) edge counts in the signed graph."""
    em_a = em_b = ep_ab = 0
    n = G.n
    for i in range(n):
        for j in range(i + 1, n):
            w = G.W[i, j]
            if w == 0:
                continue
            ina, inb = (a >> i) & 1, (b >> i) & 1
            jna, jnb = (a >> j) & 1, (b >> j) & 1
            if w < 0 and ina and jna:
                em_a += 1
            if w < 0 and inb and jnb:
                em_b += 1
            if w > 0 and ((ina and jnb) or (inb and jna)):
                ep_ab += 1
    return em_a, em_b, ep_ab


def _boundary_count(G, s: int) -> int:
    cnt = 0
    for i in range(G.n):
        for j in range(i + 1, G.n):
            if G.W[i, j] != 0 and ((s >> i) & 1) != ((s >> j) & 1):
                cnt += 1
    return cnt


def signed_beta(G, degrees, a: int, b: int) -> Fraction:
    """beta(A, A') of a signed graph with the given volume degrees."""
    em_a, em_b, ep = _signed_counts(G, a, b)
    s = a | b
    num = 2 * (em_a + em_b + ep) + _boundary_count(G, s)
    den = int(round(sum(degrees[i] for i in mask_members(s))))
    return _as_ratio(num, den)


def simplicial_cheeger_loop(K, d: int, k: int = 1) -> CheegerReport:
    """k-th Cheeger constant on the d-simplices: min over canonical
    families of k pairs of the max ``signed_beta``."""
    G = K.anti_signed_graph(d)
    deg = K.up_degrees(d)
    nd = K.count(d)
    best, arg, count = None, [], 0
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
        worst = None
        for a, b in fam:
            if sum(deg[i] for i in mask_members(a | b)) == 0:
                worst = np.inf
                break
            val = signed_beta(G, deg, a, b)
            if worst is None or val > worst:
                worst = val
        if worst is None or worst is np.inf:
            continue
        if best is None or worst < best:
            best, arg = worst, [fam]
    return CheegerReport(best, arg, count, f"simplicial-{k}-way-S{d}",
                         extra={"dimension": d})
