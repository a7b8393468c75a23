"""Discrete set functions on small ground sets, bitmask-indexed.

A subset A of V = {0, ..., n-1} is stored as an integer mask (bit i set
iff i in A).  Functions f: P(V)^k -> R are held either as one dense table
indexed by the concatenation of the k masks (k*n <= 24 bits), when given
as a list or dict of values, or as a callback, when given as a callable.  Values may be exact (int / Fraction) or float; constructors
from integer combinatorial data should use exact values so that the
extension operators in :mod:`homext.extend` stay exact.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

DENSE_BIT_CAP = 24
CHAIN_BIT_CAP = 24


class CapExceeded(ValueError):
    """An enumeration or table would exceed the documented desk-scale cap."""


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def mask_members(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def popcount(mask: int) -> int:
    return int(mask).bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class SetTupleFunction:
    """f: P(V)^k -> R, total on all k-tuples of subsets.

    Tables are stored as supplied; in particular values at tuples with an
    empty component are kept verbatim (the extension operators guarantee
    such entries only ever meet zero weight).
    """

    def __init__(self, n: int, k: int, values: Callable[..., object] | Sequence | dict):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self.n = n
        self.k = k
        self._table = None
        self._fn = None
        if callable(values):
            self._fn = values
            return
        bits = n * k
        if bits > DENSE_BIT_CAP:
            raise CapExceeded(f"dense table needs {bits} > {DENSE_BIT_CAP} index bits")
        size = 1 << bits
        if isinstance(values, dict):
            table = [0] * size
            for masks, v in values.items():
                table[self._index(masks)] = v
        else:
            if len(values) != size:
                raise ValueError(f"dense table must have {size} entries")
            table = list(values)
        self._table = table

    @property
    def table(self) -> Optional[list]:
        """The dense value list indexed by the concatenated masks (block
        0 in the most significant n bits), or None for a callback.  Read
        only: it is the function's own storage."""
        return self._table

    @property
    def callback(self) -> Optional[Callable[..., object]]:
        """The callable f(A_1, ..., A_k), or None; unlike __call__, unchecked."""
        return self._fn

    def check_masks(self, masks: Iterable[int]) -> None:
        """Raise ValueError unless every mask is a subset of V."""
        top = 1 << self.n
        for m in masks:
            if not 0 <= m < top:
                raise ValueError(f"mask {m} out of range for n={self.n}")

    def _index(self, masks: Sequence[int]) -> int:
        idx = 0
        for m in masks:
            idx = (idx << self.n) | m
        return idx

    def __call__(self, *masks: int) -> object:
        if len(masks) != self.k:
            raise ValueError(f"expected {self.k} masks, got {len(masks)}")
        self.check_masks(masks)
        if self._table is not None:
            return self._table[self._index(masks)]
        return self._fn(*masks)


class DisjointPairFunction:
    """f: P_2(V)^k -> R on k-tuples of disjoint set pairs."""

    def __init__(self, n: int, k: int, fn: Callable[..., object]):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self.n = n
        self.k = k
        self._fn = fn

    @property
    def callback(self) -> Callable[..., object]:
        """The callable f((P_1, N_1), ...); unlike __call__, unchecked."""
        return self._fn

    def check_pairs(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Raise ValueError unless every pair is two disjoint subsets of V."""
        top = 1 << self.n
        for p, m in pairs:
            if not (0 <= p < top and 0 <= m < top):
                raise ValueError("pair mask out of range")
            if p & m:
                raise ValueError("pair parts must be disjoint")

    def __call__(self, *pairs) -> object:
        if len(pairs) != self.k:
            raise ValueError(f"expected {self.k} disjoint pairs, got {len(pairs)}")
        flat = [(p, m) for p, m in pairs]
        self.check_pairs(flat)
        return self._fn(*flat)


def _lattice_violation(f: SetTupleFunction, component: int, bad) -> bool:
    """True iff some sets A, B in ``component``, for some fixing of the
    other components, have bad(f(A|B) + f(A&B), f(A) + f(B))."""
    if not 0 <= component < f.k:
        raise ValueError("component out of range")
    top = 1 << f.n
    for others in product(range(top), repeat=f.k - 1):
        head, tail = others[:component], others[component:]
        vals = [f(*head, m, *tail) for m in range(top)]
        for a in range(top):
            for b in range(a + 1, top):
                if bad(vals[a | b] + vals[a & b], vals[a] + vals[b]):
                    return True
    return False


def modularity_check(f: SetTupleFunction, component: int) -> bool:
    """True iff A |-> f(..., A, ...) satisfies f(A|B) + f(A&B) = f(A) + f(B)
    for every fixing of the other components."""
    return not _lattice_violation(f, component, operator.ne)


def submodularity_check(f: SetTupleFunction, component: int) -> bool:
    """True iff f(A|B) + f(A&B) <= f(A) + f(B) on the given component."""
    return not _lattice_violation(f, component, operator.gt)


def supermodularity_check(f: SetTupleFunction, component: int) -> bool:
    """True iff f(A|B) + f(A&B) >= f(A) + f(B) on the given component."""
    return not _lattice_violation(f, component, operator.lt)


def is_chain_tuple(masks: Sequence[int]) -> bool:
    """Chain under inclusion after some reordering, i.e. pairwise comparable."""
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            a, b = masks[i], masks[j]
            if (a & b) != a and (a & b) != b:
                return False
    return True


def enumerate_chains(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples (A_1, ..., A_k) that can be permuted into an inclusion
    chain, each tuple yielded exactly once."""
    if n * k > CHAIN_BIT_CAP:
        raise CapExceeded(f"chain enumeration capped at n*k <= {CHAIN_BIT_CAP}")
    for masks in product(range(1 << n), repeat=k):
        if is_chain_tuple(masks):
            yield masks
