"""Test-side references for the extension kernel: the Lovasz sum and the
per-cell ``itertools.product`` loops of ``multilinear`` and
``multiple_integral``, which recompute every cell's weight product and
index from scratch and read the set function through ``__call__``.  The
kernel must agree with them in value, type and repr."""

from itertools import product

from homext.extend import (_UNIT_INVARIANT, _block_terms, _signed_block_terms,
                           _zero_of)


def lovasz(f, x):
    terms = _block_terms(x)
    if not terms:
        return _zero_of(x)
    total = 0
    for w, mask in terms:
        total += w * f(mask)
    return total


def multilinear(f, xs):
    n = f.n
    blocks = [_block_terms(x) for x in xs]
    table = f.table
    if all(len(terms) <= 1 for terms in blocks):      # at most one cell
        w = 1
        idx = 0
        for terms in blocks:
            if not terms:
                return _zero_of(xs[blocks.index([])])
            (wi, mask), = terms
            w = w * wi
            idx = (idx << n) | mask
        if w == 0:
            return 0.0
        val = table[idx] if table is not None else f(*(terms[0][1] for terms in blocks))
        if type(w) is int and w == 1 and type(val) in _UNIT_INVARIANT:
            return val
        return w * val
    if not all(blocks):
        return _zero_of(xs[blocks.index([])])
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


def multiple_integral(f, xs):
    blocks = [_signed_block_terms(x) for x in xs]
    total = 0
    for combo in product(*blocks):
        w = 1
        for wi, _, _ in combo:
            w = w * wi
        if w == 0:
            continue
        total += w * f(*((p, m) for _, p, m in combo))
    return total
