"""Extension operators taking set functions to homogeneous functions on R^n.

All operators are exact on int/Fraction input: weights are differences of
coordinates and every value is a weight-combination of table entries.
Weights that are exactly zero skip the table lookup, so entries at tuples
with an empty component never contribute.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .setfn import (CapExceeded, DisjointPairFunction, SetTupleFunction,
                    full_mask, mask_of)

MULTILINEAR_PROBE_CAP = 10 ** 6
BLOCK_TERMS_CACHE = 4096
# value types v for which 1 * v is v itself, in value and type
_UNIT_INVARIANT = (int, Fraction, float)


def _block_terms(x: Sequence) -> list[tuple[object, int]]:
    """(weight, upper-level-set mask) pairs with zero weights dropped.

    The one place a block is sorted into level sets: weight
    x_(i) - x_(i-1) (x_(-1) = 0) goes with the mask {j: x_j > x_(i-1)},
    all of V for i = 0.  Masks are built incrementally along the sorted
    order (suffix masks of the permutation), which keeps the call cheap.
    """
    n = len(x)
    # stable sort: equal coordinates keep index order, the fixed tie-break
    order = sorted(range(n), key=x.__getitem__)
    suffix = [0] * (n + 1)
    for t in range(n - 1, -1, -1):
        suffix[t] = suffix[t + 1] | (1 << order[t])
    terms = []
    prev = 0
    ptr = 0
    for i in range(n):
        v = x[order[i]]
        w = v - prev
        prev = v
        if w == 0:
            continue
        if i == 0:
            mask = suffix[0]
        else:
            thr = x[order[i - 1]]
            while ptr < n and x[order[ptr]] <= thr:
                ptr += 1
            mask = suffix[ptr]
        terms.append((w, mask))
    return terms


def _zero_of(x: Sequence):
    """The value of an extension at a zero block x: 0.0 for float
    coordinates, the exact 0 for int and Fraction ones (the type of the
    first coordinate decides)."""
    return 0.0 if isinstance(x[0], float) else 0


def lovasz(f: SetTupleFunction, x: Sequence):
    """Original Lovasz extension of a one-argument set function."""
    if f.k != 1:
        raise ValueError("lovasz expects a one-argument set function")
    if len(x) != f.n:
        raise ValueError(f"expected {f.n} coordinates, got {len(x)}")
    terms = _block_terms(x)
    if not terms:                    # x = 0
        return _zero_of(x)
    total = 0
    for w, mask in terms:
        total += w * f(mask)
    return total


@lru_cache(maxsize=BLOCK_TERMS_CACHE, typed=True)
def _memo_block_terms(*values):
    """_block_terms as a tuple, memoized per coordinate.

    ``typed`` keys each coordinate by its type too: 1, 1.0 and Fraction(1)
    are equal and hash alike, but give weights of different types.
    """
    return tuple(_block_terms(values))


def multilinear(f: SetTupleFunction, xs: Sequence[Sequence]):
    """Piecewise multilinear extension at one coordinate tuple per block.

    Block terms are memoized by coordinates and their types.  A dense
    table is read directly at the concatenated mask index; callbacks are
    called per tuple.
    """
    if len(xs) != f.k:
        raise ValueError(f"expected {f.k} blocks, got {len(xs)}")
    n = f.n
    blocks = []
    probes = 1
    for x in xs:
        if len(x) != n:
            raise ValueError(f"block length {len(x)} != n={n}")
        terms = _memo_block_terms(*x)
        probes *= len(terms) or 1
        blocks.append(terms)
    if probes > MULTILINEAR_PROBE_CAP:
        raise CapExceeded(f"multilinear would probe {probes} > {MULTILINEAR_PROBE_CAP} tuples")
    table = f.table
    if probes == 1:                  # at most one ordering cell per block
        w = 1
        idx = 0
        for terms in blocks:
            if not terms:            # a zero block: the extension vanishes
                return _zero_of(xs[blocks.index(())])
            (wi, mask), = terms
            w = w * wi
            idx = (idx << n) | mask
        if w == 0:                   # float weights that underflowed
            return 0.0
        if table is not None:
            val = table[idx]
        else:
            val = f(*(terms[0][1] for terms in blocks))
        # an exact unit weight changes neither the value nor its type
        if type(w) is int and w == 1 and type(val) in _UNIT_INVARIANT:
            return val
        return w * val
    if not all(blocks):
        return _zero_of(xs[blocks.index(())])
    total = 0
    for combo in product(*blocks):
        w = 1
        idx = 0
        for wi, mask in combo:
            w = w * wi
            idx = (idx << n) | mask
        if w == 0:
            continue
        if table is not None:
            total += w * table[idx]
        else:
            total += w * f(*(m for _, m in combo))
    return total


def diagonal(f: SetTupleFunction, x: Sequence):
    """Diagonal (piecewise polynomial) extension f^M(x, ..., x)."""
    return multilinear(f, [x] * f.k)


def _signed_block_terms(x: Sequence) -> list[tuple[object, int, int]]:
    """(weight, plus mask, minus mask) of the signed level sets
    ({j: x_j > t}, {j: x_j < -t}) over t >= 0, zero weights dropped.

    For t >= 0, x_j > t iff |x_j| > t and x_j > 0, so these are the terms
    of |x| with each mask split by the sign of x.
    """
    pos = mask_of(j for j, v in enumerate(x) if v > 0)
    neg = mask_of(j for j, v in enumerate(x) if v < 0)
    return [(w, m & pos, m & neg) for w, m in _block_terms([abs(v) for v in x])]


def disjoint_pair_lovasz(f: DisjointPairFunction, x: Sequence):
    """Disjoint-pair Lovasz extension (multiple integral with k = 1)."""
    if f.k != 1:
        raise ValueError("disjoint_pair_lovasz expects k = 1")
    return multiple_integral(f, [x])


def multiple_integral(f: DisjointPairFunction, xs: Sequence[Sequence]):
    """Multiple integral extension over signed level sets.

    The integrand is piecewise constant on the grid of sorted absolute
    breakpoints per block; cells use half-open intervals [b_i, b_{i+1}).
    """
    if len(xs) != f.k:
        raise ValueError(f"expected {f.k} blocks, got {len(xs)}")
    blocks = []
    probes = 1
    for x in xs:
        if len(x) != f.n:
            raise ValueError(f"block length {len(x)} != n={f.n}")
        terms = _signed_block_terms(x)
        probes *= max(len(terms), 1)
        blocks.append(terms)
    if probes > MULTILINEAR_PROBE_CAP:
        raise CapExceeded(f"multiple_integral would probe {probes} cells")
    total = 0
    for combo in product(*blocks):
        w = 1
        for wi, _, _ in combo:
            w = w * wi
        if w == 0:
            continue
        total += w * f(*((p, m) for _, p, m in combo))
    return total


def comonotone_check(xs: Sequence[Sequence]) -> bool:
    """Pairwise comonotonicity: (x_i - x_j)(y_i - y_j) >= 0 for all i, j."""
    n = {len(x) for x in xs}
    if len(n) != 1:
        raise ValueError("blocks must have equal length")
    n = n.pop()
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            x, y = xs[a], xs[b]
            for i in range(n):
                for j in range(i + 1, n):
                    if (x[i] - x[j]) * (y[i] - y[j]) < 0:
                        return False
    return True


def _abs_comonotone_pair(x: Sequence, y: Sequence) -> bool:
    if any(x[i] * y[i] < 0 for i in range(len(x))):
        return False
    ax = [abs(v) for v in x]
    ay = [abs(v) for v in y]
    return comonotone_check([ax, ay])


def absolutely_comonotone_check(xs: Sequence[Sequence]) -> bool:
    """Pairwise: no opposite signs coordinate-wise, and comonotone in
    absolute value.  Equivalent to all signed upper level sets of the
    blocks forming one chain of disjoint pairs."""
    n = {len(x) for x in xs}
    if len(n) != 1:
        raise ValueError("blocks must have equal length")
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            if not _abs_comonotone_pair(xs[a], xs[b]):
                return False
    return True


def comaximal_check(x: Sequence, y: Sequence) -> bool:
    """Some index attains the maximum of both vectors."""
    mx, my = max(x), max(y)
    return any(x[i] == mx and y[i] == my for i in range(len(x)))


def upper_level_tuples(xs: Sequence[Sequence]) -> set[tuple[int, ...]]:
    """All multiple upper level sets (V^{t_1}(x^1), ..., V^{t_k}(x^k))."""
    per_block = []
    for x in xs:
        masks = {full_mask(len(x)), 0} | {m for _, m in _block_terms(x)}
        per_block.append(sorted(masks))
    return set(product(*per_block))


def signed_level_tuples(xs: Sequence[Sequence]) -> set[tuple[tuple[int, int], ...]]:
    """All tuples of signed level-set pairs over thresholds t >= 0."""
    per_block = []
    for x in xs:
        # the first term holds the level sets at t = 0; (0, 0) is t = max |x_j|
        pairs = {(0, 0)} | {(p, m) for _, p, m in _signed_block_terms(x)}
        per_block.append(sorted(pairs))
    return set(product(*per_block))


def perfect_pair_membership(xs: Sequence[Sequence], family="chain-comonotone",
                            custom=None) -> bool:
    """Membership of xs in the continuous side D of a domain pair.

    ``chain-comonotone``: nonnegative blocks, pairwise comonotone (the D of
    the inclusion-chain family).  ``diagonal``: all blocks equal and
    nonnegative.  ``custom``: every multiple upper level set must lie in
    the given collection, empty-component tuples excepted.
    """
    if family == "chain-comonotone":
        if any(min(x) < 0 for x in xs):
            return False
        return comonotone_check(xs)
    if family == "diagonal":
        if any(min(x) < 0 for x in xs):
            return False
        first = list(xs[0])
        return all(list(x) == first for x in xs)
    if family == "custom":
        if custom is None:
            raise ValueError("custom family requires the set collection")
        allowed = set(custom)
        for tup in upper_level_tuples(xs):
            if any(m == 0 for m in tup):
                continue
            if tup not in allowed:
                return False
        return True
    raise ValueError(f"unknown family {family!r}")


def induced_set_family(samples: Sequence[Sequence[Sequence]]) -> set[tuple[int, ...]]:
    """A(D) for a sampled D: all nonempty multiple upper level sets."""
    fam = set()
    for xs in samples:
        for tup in upper_level_tuples(xs):
            if all(m != 0 for m in tup):
                fam.add(tup)
    return fam
