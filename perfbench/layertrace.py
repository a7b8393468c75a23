"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces each layer's public entry points with
wrappers, at every place callers look them up: the defining module, every
homext module that imported the name (``linprog`` is imported by name
into ``verify``, ``spectra`` and ``constants``), or the class for a
method.  A wrapper counts calls and measures busy time (wall time inside
the call); self time is busy time minus the busy time of wrapped callees.
The benchmark is single-threaded, so no layer waits on another and busy
time is also the time the caller was blocked.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

from homext import constants, extend, setfn, simplex, spectra, verify

# name -> (owner, attribute names, timed, extra metrics (name, unit, better))
LAYERS = {
    "simplex.linprog": (simplex, ("linprog",), True,
                        [("optimal_ratio", "ratio", "higher")]),
    "verify.TwoBlockMinimax": (verify.TwoBlockMinimax, ("infsup", "supinf"), True,
                               [("lp_per_solve", "lp/solve", "lower")]),
    "spectra.dinkelbach_ratiodca": (spectra, ("dinkelbach_ratiodca",), True,
                                    [("outer_steps", "count", "lower")]),
    "spectra.g_pi_projection": (spectra, ("g_pi_projection",), True, []),
    "spectra.jacobi_eigh": (spectra, ("jacobi_eigh",), True, []),
    "spectra.quadratic_pair_spectrum": (spectra, ("quadratic_pair_spectrum",), True, []),
    "spectra.eigen_residual": (spectra, ("eigen_residual",), True, []),
    "constants.cheeger": (constants, ("cheeger",), True,
                          [("enumerated", "count", "lower")]),
    "constants.chemical_cheeger": (constants, ("chemical_cheeger",), True,
                                   [("enumerated", "count", "lower")]),
    "extend.multilinear": (extend, ("multilinear",), True, []),
    "extend.multiple_integral": (extend, ("multiple_integral",), True, []),
    # table reads and callbacks are too small to time without distorting them
    "setfn.SetTupleFunction": (setfn.SetTupleFunction, ("__call__",), False, []),
    "setfn.lattice_checks": (setfn, ("modularity_check", "submodularity_check",
                                     "supermodularity_check"), True, []),
}

OVERHEAD = ("trace.overhead_s", "s", "lower")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, (_, _, timed, extras) in LAYERS.items():
        out.append((f"{layer}.calls", "count", "lower"))
        if timed:
            out += [(f"{layer}.busy_s", "s", "lower"), (f"{layer}.self_s", "s", "lower")]
        out += [(f"{layer}.{name}", unit, better) for name, unit, better in extras]
    return out + [OVERHEAD]


class _Stats:
    __slots__ = ("calls", "busy", "self", "extra")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.stats = {name: _Stats() for name in LAYERS}
        self._children: list[float] = []      # busy time of wrapped callees, per open call
        self._active = dict.fromkeys(LAYERS, 0)
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        for st in self.stats.values():
            st.__init__()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, after=None):
        st, children, active = self.stats[name], self._children, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            active[name] += 1
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[name] -= 1
                inner = children.pop()
                if children:
                    children[-1] += dt
                st.calls += 1
                st.busy += dt
                st.self += dt - inner
            if after is not None:
                after(st, res)
            return res
        return wrapper

    def _counted(self, name, fn):
        st = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name):
        """What a layer's extra metric accumulates from each result."""
        if name == "simplex.linprog":
            tbm = self.stats["verify.TwoBlockMinimax"]
            active = self._active

            def after(st, res):
                st.extra += res.status == "optimal"
                if active["verify.TwoBlockMinimax"]:
                    tbm.extra += 1
            return after
        if name == "spectra.dinkelbach_ratiodca":
            return lambda st, res: setattr(st, "extra", st.extra + len(res.history) - 1)
        if name in ("constants.cheeger", "constants.chemical_cheeger"):
            return lambda st, res: setattr(st, "extra", st.extra + res.enumerated)
        return None

    # -- install -----------------------------------------------------------

    def install(self):
        homext_modules = [m for n, m in list(sys.modules.items())
                          if n == "homext" or n.startswith("homext.")]
        for name, (owner, attrs, timed, _) in LAYERS.items():
            for attr in attrs:
                orig = getattr(owner, attr)
                wrapped = (self._timed(name, orig, self._after(name)) if timed
                           else self._counted(name, orig))
                if isinstance(owner, type):
                    places = [owner]
                else:
                    places = [m for m in homext_modules if getattr(m, attr, None) is orig]
                for place in places:
                    self._patches.append((place, attr, orig))
                    setattr(place, attr, wrapped)

    def uninstall(self):
        while self._patches:
            place, attr, orig = self._patches.pop()
            setattr(place, attr, orig)

    # -- report ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every per-layer metric of the round just traced, except overhead."""
        out = {}
        for name, (_, _, timed, extras) in LAYERS.items():
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            if timed:
                out[f"{name}.busy_s"] = st.busy
                out[f"{name}.self_s"] = st.self
            for extra, _, _ in extras:
                if extra in ("optimal_ratio", "lp_per_solve"):   # per call
                    out[f"{name}.{extra}"] = st.extra / st.calls if st.calls else 0.0
                else:
                    out[f"{name}.{extra}"] = st.extra
        return out


# metrics that count work, not time: equal in every traced round
COUNT_SUFFIXES = (".calls", ".optimal_ratio", ".lp_per_solve", ".outer_steps", ".enumerated")
