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
                    full_mask, is_chain_tuple, mask_of)

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
    read = f.table.__getitem__ if f.table is not None else f.callback
    if f.table is None:
        f.check_masks(m for _, m in terms)
    total = 0
    for w, mask in terms:
        total += w * read(mask)
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

    Block terms are memoized by coordinates and their types.  Tables are
    read at the concatenated index, callbacks with masks checked once per
    block term; the last block is streamed against each cell of the others."""
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
    if table is None:
        f.check_masks(m for terms in blocks for _, m in terms)
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
        val = table[idx] if table is not None else f.callback(*(t[0][1] for t in blocks))
        # an exact unit weight changes neither the value nor its type
        if type(w) is int and w == 1 and type(val) in _UNIT_INVARIANT:
            return val
        return w * val
    if not all(blocks):
        return _zero_of(xs[blocks.index(())])
    *head, last = blocks
    total = 0
    if table is not None:
        for combo in product(*head):     # the cells of the first k - 1 blocks
            w0 = 1
            idx = 0
            for wi, mask in combo:
                w0 = w0 * wi
                idx = (idx | mask) << n
            for wi, mask in last:
                w = w0 * wi
                if w != 0:
                    total += w * table[idx | mask]
        return total
    fn = f.callback
    for combo in product(*head):
        w0 = 1
        for wi, _ in combo:
            w0 = w0 * wi
        masks = [m for _, m in combo]
        for wi, mask in last:
            w = w0 * wi
            if w != 0:
                total += w * fn(*masks, mask)
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
    f.check_pairs((p, m) for terms in blocks for _, p, m in terms)
    fn = f.callback
    *head, last = blocks
    total = 0
    for combo in product(*head):         # the cells of the first k - 1 blocks
        w0 = 1
        for wi, _, _ in combo:
            w0 = w0 * wi
        pairs = [(p, m) for _, p, m in combo]
        for wi, p, m in last:
            w = w0 * wi
            if w != 0:
                total += w * fn(*pairs, (p, m))
    return total


def _equal_length(xs: Sequence[Sequence]) -> int:
    n = {len(x) for x in xs}
    if len(n) != 1:
        raise ValueError("blocks must have equal length")
    return n.pop()


def comonotone_check(xs: Sequence[Sequence]) -> bool:
    """(x_i - x_j)(y_i - y_j) >= 0 for all i, j and blocks x, y: the upper
    level sets of all blocks form one inclusion chain."""
    _equal_length(xs)
    return is_chain_tuple([m for x in xs for _, m in _block_terms(x)])


def absolutely_comonotone_check(xs: Sequence[Sequence]) -> bool:
    """No opposite signs coordinate-wise and comonotone in absolute value:
    the signed upper level sets of all blocks form one chain of disjoint
    pairs, i.e. the masks p | m << n form one inclusion chain."""
    n = _equal_length(xs)
    return is_chain_tuple([p | m << n for x in xs for _, p, m in _signed_block_terms(x)])


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
