"""Test-side references for the subset enumerations in ``constants``: the
per-mask loops of ``cheeger`` and ``chemical_cheeger`` that summed each
subset's cut (or counted its boundary hyperedges) and volume one member
at a time."""

from fractions import Fraction

import numpy as np

from homext.constants import CheegerReport, _as_ratio, _vol_of
from homext.setfn import full_mask

from reference_structures import boundary_edges


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
        cut = g.cut_weight(a)
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
