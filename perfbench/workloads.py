"""The five workloads: inputs built from a seed, the timed calls into
homext, and the checks of their outputs.

Each workload class has

* ``__init__(seed)``: generate plain data and build homext's input
  objects from it (part of set-up);
* ``run()``: one round over every instance, the timed phase; returns one
  output per instance, ``None`` where the instance raised;
* ``check(outputs)``: failure messages from :mod:`checks`;
* ``expected_calls``: traced ``calls`` per round of the layers the
  workload reaches directly, which a traced round must reproduce;
* ``uses_lp``: whether the round solves linear programs at all.

Program entry points are looked up on their modules at call time, so a
traced round sees the wrappers :mod:`layertrace` installs there.
"""

from __future__ import annotations

import sys
import traceback
from fractions import Fraction
from itertools import product
from time import process_time

import numpy as np

from homext import constants, extend, setfn, spectra, structures, verify

import checks
import gen


class Workload:
    name = ""
    uses_lp = False
    expected_calls: dict

    def __init__(self, seed: int):
        self.errors: list[str] = []
        self.times: list[float] = []     # CPU seconds per instance, this round
        # called with the instance's index before each instance is timed
        self.before_instance = None

    def run(self) -> list:
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        raise NotImplementedError

    def _attempt(self, fn, *args):
        """One instance, timed in CPU seconds; an exception marks it
        failed and is reported once."""
        if self.before_instance is not None:
            self.before_instance(len(self.times))
        t0 = process_time()
        try:
            return fn(*args)
        except Exception:               # an operation that fails is counted, not fatal
            if not self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors.append(traceback.format_exc(limit=1))
            return None
        finally:
            self.times.append(process_time() - t0)


# -- minimax-lp ---------------------------------------------------------------

CONVEX_CONCAVE = 1


def _cc_function(G: structures.WeightedGraph, H: structures.WeightedGraph, C):
    """f(A, B) = coupling + cut_G(A) |B| - |A| cut_H(B), as suite sion builds it."""
    cutG, cutH = G.cut_function(), H.cut_function()
    popcount = setfn.popcount
    masks = setfn.mask_members

    def f(a, b):
        coup = sum(C[i, j] for i in masks(a) for j in masks(b))
        return coup + cutG(a) * popcount(b) - popcount(a) * cutH(b)
    return setfn.SetTupleFunction(4, 2, f)


class MinimaxLP(Workload):
    """Suites saddle and sion: payoff games 2..4 x 2..4, convex-concave
    two-block functions on n = 4 (one drawn from the seed, one fixed) and
    the path P3, through TwoBlockMinimax.infsup/supinf and game_lp_value.

    The drawn instance has a coupling on a 1/64 grid, so its value is
    almost never a bisection midpoint.  The fixed integer instance's value
    is one, and after a probe lands on it every later probe is infeasible
    and tries all 24 cones (about 1.6 times the LPs): on integer data that
    happens to about one instance in four, and drawing it from the seed
    made the round time bimodal across seeds."""

    name = "minimax-lp"
    uses_lp = True

    def __init__(self, seed):
        super().__init__(seed)
        popcount = setfn.popcount
        self.games = []
        for C in gen.games(seed):
            n, m = C.shape
            fv = [[float(sum(C[i, j] for i in gen.members(a) for j in gen.members(b)))
                   for b in range(1 << m)] for a in range(1 << n)]
            gv = [[popcount(a) * popcount(b) for b in range(1 << m)] for a in range(1 << n)]
            self.games.append((C, verify.TwoBlockMinimax.from_tables(fv, gv, n, m)))
        self.cc_data = gen.convex_concave(seed, CONVEX_CONCAVE) + [gen.FIXED_CONVEX_CONCAVE]
        g = setfn.SetTupleFunction(4, 2, lambda a, b: popcount(a) * popcount(b))
        self.cc = [(_cc_function(structures.WeightedGraph.from_edges(4, d["G"]),
                                 structures.WeightedGraph.from_edges(4, d["H"]), d["C"]), g)
                   for d in self.cc_data]
        self.p3 = (structures.WeightedGraph.path(3).ordered_edge_count(),
                   setfn.SetTupleFunction(3, 2, lambda a, b: Fraction(popcount(a & b))))
        engines = len(self.games) + len(self.cc) + 1
        self.expected_calls = {"verify.TwoBlockMinimax": 2 * engines,
                               "setfn.lattice_checks": 4 * len(self.cc)}
        self.instances = 3 * len(self.games) + 3 * len(self.cc) + 2

    def _steps(self, *steps):
        """Each step its own operation, so that no operation is long; the
        tuple of their results, or None if one failed."""
        res = [self._attempt(step) for step in steps]
        return None if None in res else tuple(res)

    def _minimax(self, f, g, *first):
        """Steps that build TwoBlockMinimax(f, g) and solve infsup, then
        supinf, after the steps in ``first``."""
        engine = []

        def infsup():
            engine.append(verify.TwoBlockMinimax(f, g))
            return engine[0].infsup()
        return self._steps(*first, infsup, lambda: engine[0].supinf())

    def run(self):
        out = [self._steps(lambda e=e: e.infsup(), lambda e=e: e.supinf(),
                           lambda C=C: verify.game_lp_value(C))
               for C, e in self.games]
        out += [self._minimax(f, g, lambda f=f, g=g: (
                    setfn.submodularity_check(f, 0) and setfn.supermodularity_check(f, 1)
                    and setfn.modularity_check(g, 0) and setfn.modularity_check(g, 1)))
                for f, g in self.cc]
        out.append(self._minimax(*self.p3))
        return out

    def check(self, outputs):
        fails = []
        games = outputs[:len(self.games)]
        ccs = outputs[len(self.games):-1]
        for (C, _), res in zip(self.games, games):
            if res is not None:
                fails += checks.check_game(C, *res)
        for d, res in zip(self.cc_data, ccs):
            if res is None:
                continue
            lattice, infsup, supinf = res
            if not lattice:
                fails.append("convex-concave instance failed its lattice checks")
            fails += checks.check_convex_concave(
                lambda a, b, d=d: gen.convex_concave_value(d, a, b), 4, infsup, supinf)
        if outputs[-1] is not None:
            fails += checks.check_p3(*outputs[-1])
        return fails


# -- dinkelbach ---------------------------------------------------------------

CHEMICAL_SIZES = (4, 5, 6, 7, 8, 5, 6, 7)
PS = (1.5, 2.0)
# The suite runs 4 random starts and up to 25 outer steps.  How many outer
# steps a run takes depends on the instance, and uncapped that made a
# round's work differ by about 10% from seed to seed; eight hypergraphs with
# one random start and at most 6 outer steps keep it near 4%, and the round
# still spends its time in the inner descent and g_pi_projection.
STARTS = 1
MAX_OUTER = 6


class Dinkelbach(Workload):
    """Suite cheeger-chemical: chemical hypergraphs n = 4..8 through
    chemical_cheeger and dinkelbach_multistart (projection_diag_power,
    certify=False) at p = 1.5 and 2, with the Cheeger indicator as an
    extra start."""

    name = "dinkelbach"

    def __init__(self, seed):
        super().__init__(seed)
        self.seed = seed
        self.data = gen.chemical_hypergraphs(seed, CHEMICAL_SIZES)
        self.hypergraphs = []
        for n, edges in zip(CHEMICAL_SIZES, self.data):
            H = structures.ChemicalHypergraph(n, edges)
            ones = np.ones(n)
            self.hypergraphs.append(
                (H, [(p, spectra.chemical_plap_pair(H, p),
                      spectra.projection_diag_power(H.degrees, p, ones)) for p in PS]))
        self.expected_calls = {
            "constants.chemical_cheeger": len(self.data),
            "spectra.dinkelbach_ratiodca": len(self.data) * len(PS) * (STARTS + 1)}
        self.instances = len(self.data) * (1 + len(PS))

    @staticmethod
    def _cheeger(H):
        crep = constants.chemical_cheeger(H)
        wit = crep.optimal_sets[0]
        ind = np.array([(wit >> i) & 1 for i in range(H.n)], dtype=float)
        return crep.value, crep.enumerated, ind

    def _dinkelbach(self, idx, H, pair, proj, ind):
        ep = spectra.dinkelbach_multistart(
            pair, proj, H.n, seed=self.seed * 1000 + idx, starts=STARTS,
            extra_starts=[ind], inner_iters=150, max_outer=MAX_OUTER, certify=False)
        return ep.lam, tuple(ep.x.tolist()), tuple(ep.history)

    def run(self):
        """Per hypergraph, chemical_cheeger and then one Dinkelbach run per
        p, each its own operation, so that no operation is long."""
        out = []
        for idx, (H, runs) in enumerate(self.hypergraphs):
            crep = self._attempt(self._cheeger, H)
            if crep is None:
                out.append(None)
                continue
            h, enumerated, ind = crep
            eps = [self._attempt(self._dinkelbach, idx, H, pair, proj, ind)
                   for _, pair, proj in runs]
            out.append(None if None in eps else (h, enumerated, eps))
        return out

    def check(self, outputs):
        fails = []
        for n, edges, res in zip(CHEMICAL_SIZES, self.data, outputs):
            if res is None:
                continue
            h, enumerated, eps = res
            h_ref = checks.chemical_h(n, edges)
            if h != h_ref or type(h) is not Fraction:
                fails.append(f"n={n}: chemical_cheeger {h!r} != enumerated {h_ref}")
            if enumerated != (1 << n) - 2:
                fails.append(f"n={n}: {enumerated} subsets enumerated, want {(1 << n) - 2}")
            for p, (lam, x, history) in zip(PS, eps):
                fails += checks.check_dinkelbach(n, edges, p, h_ref, lam, x, history)
        return fails


# -- extension-exact ----------------------------------------------------------

EXACT_TABLES = 195


class ExtensionExact(Workload):
    """Suite indicator and acceptance criterion 01: dense integer tables
    n <= 5, k <= 3, extension at every indicator tuple, in Fractions."""

    name = "extension-exact"

    def __init__(self, seed):
        super().__init__(seed)
        self.data = gen.integer_tables(seed, EXACT_TABLES)
        values = {v: Fraction(v) for v in range(-9, 10)}
        self.tables = [(setfn.SetTupleFunction(n, k, [values[v] for v in table]), n, k)
                       for n, k, table in self.data]
        self.indicators = {n: [[(m >> i) & 1 for i in range(n)] for m in range(1 << n)]
                           for n in {n for n, _, _ in self.data}}
        tuples = sum(1 << (n * k) for n, k, _ in self.data)
        self.expected_calls = {"extend.multilinear": tuples}
        self.instances = len(self.data)

    def _one(self, f, n, k):
        multilinear = extend.multilinear
        ind = self.indicators[n]
        return [multilinear(f, [ind[m] for m in masks])
                for masks in product(range(1 << n), repeat=k)]

    def run(self):
        return [self._attempt(self._one, *t) for t in self.tables]

    def check(self, outputs):
        fails = []
        for (n, k, table), res in zip(self.data, outputs):
            if res is not None:
                fails += checks.check_indicator_values(n, k, table, res)
        return fails


# -- extension-float ----------------------------------------------------------

FLOAT_POINTS = 150
CLOSED_POINTS = 250


def _closed_form_functions(W):
    """The callback functions suite tables checks, on a 5-vertex graph."""
    popcount = setfn.popcount
    g5 = structures.WeightedGraph(W)
    return [
        ("edge-count", "multilinear", g5.ordered_edge_count()),
        ("constant", "multilinear", setfn.SetTupleFunction(5, 2, lambda a, b: 1.5)),
        ("cardinality-product", "multilinear",
         setfn.SetTupleFunction(5, 2, lambda a, b: popcount(a) * popcount(b))),
        ("intersection", "multilinear",
         setfn.SetTupleFunction(5, 2, lambda a, b: popcount(a & b))),
        ("l1-product", "multiple_integral", setfn.DisjointPairFunction(
            5, 2, lambda a, b: popcount(a[0] | a[1]) * popcount(b[0] | b[1]))),
        ("linf-product", "multiple_integral", setfn.DisjointPairFunction(
            5, 2, lambda a, b: 1 if (a[0] | a[1]) and (b[0] | b[1]) else 0)),
    ]


class ExtensionFloat(Workload):
    """Suites tables, turan and identity: fresh float points, signed and
    nonnegative, comonotone and free, on dense and callback tables with
    k = 1..3, n <= 5, through multilinear, diagonal, multiple_integral
    and lovasz.  Every operation also evaluates the point with one block
    scaled, for the homogeneity check."""

    name = "extension-float"

    def __init__(self, seed):
        super().__init__(seed)
        rng = gen.rng_for(seed, "float-points")
        # op: (method, function, blocks, scaled blocks, scale, degree, reference)
        self.ops = []
        for n, k, table in gen.float_tables(seed):
            f = setfn.SetTupleFunction(n, k, table.tolist())
            if k == 1:
                plan = [("lovasz", "signed"), ("lovasz", "nonneg"), ("multilinear", "signed")]
            else:
                plan = [("multilinear", "signed"), ("multilinear", "nonneg"),
                        ("multilinear", "comonotone"), ("diagonal", "nonneg")]
            for method, kind in plan:
                for _ in range(FLOAT_POINTS):
                    xs = gen.points(rng, n, 1 if method in ("lovasz", "diagonal") else k, kind)
                    self._add(rng, method, f, xs, k if method == "diagonal" else 1,
                              ("table", table, k))
        W = np.zeros((5, 5))
        for i, j in gen.connected_graph(rng, 5, 5):
            W[i, j] = W[j, i] = 1.0
        for name, method, f in _closed_form_functions(W):
            for _ in range(CLOSED_POINTS):
                self._add(rng, method, f, gen.points(rng, 5, 2, "signed"), 1,
                          ("closed", name, W))
        direct = sum(1 for op in self.ops if op[0] in ("multilinear", "diagonal"))
        self.expected_calls = {
            "extend.multilinear": 2 * direct,
            "extend.multiple_integral": 2 * sum(1 for op in self.ops
                                                if op[0] == "multiple_integral")}
        self.instances = len(self.ops)

    def _add(self, rng, method, f, xs, degree, ref):
        c = float(rng.uniform(0.5, 2.0))
        b = len(self.ops) % len(xs)
        scaled = [x * c if i == b else x for i, x in enumerate(xs)]
        blocks = [x.tolist() for x in xs]
        sblocks = [x.tolist() for x in scaled]
        self.ops.append((method, f, blocks, sblocks, c, degree, ref))

    @staticmethod
    def _one(method, f, blocks, sblocks):
        call = getattr(extend, method)
        if method in ("lovasz", "diagonal"):        # one coordinate vector
            return call(f, blocks[0]), call(f, sblocks[0])
        return call(f, blocks), call(f, sblocks)

    def run(self):
        return [self._attempt(self._one, *op[:4]) for op in self.ops]

    def check(self, outputs):
        fails = []
        for (method, _, blocks, _, c, degree, ref), res in zip(self.ops, outputs):
            if res is None:
                continue
            value, scaled = res
            fails += checks.check_homogeneous(value, scaled, c, degree)
            if ref[0] == "closed":
                fails += checks.check_closed_form(ref[1], ref[2], blocks, value)
            else:
                _, table, k = ref
                xs = blocks * k if method == "diagonal" else blocks
                fails += checks.check_float_value(value, checks.level_set_extension(xs, table))
        return fails


# -- spectra-enum -------------------------------------------------------------

GRAPH_SIZES = (20, 30, 40)
COMPLEX_ROWS = (20, 30, 40)
CHEEGER_SIZES = (8, 9, 10, 11, 12)
# One n = 7 enumeration (1093 residual LPs) took over half of a round and
# set the round's seed-to-seed spread by itself; four n = 6 graphs (364
# each) spread the same kind of work over independent instances.
TERNARY_SIZES = (5, 6, 6, 6, 6)


class SpectraEnum(Workload):
    """Suites cheeger-graph, nodal-inertia, simplicial-identity and k5:
    quadratic_pair_spectrum on graph Laplacians and 2-complex up
    Laplacians with 20..40 rows, brute-force cheeger on graphs n = 8..12,
    ternary_eigen_enumerate on 1-Laplacians n = 5..6, and K5."""

    name = "spectra-enum"
    uses_lp = True

    def __init__(self, seed):
        super().__init__(seed)
        rng = gen.rng_for(seed, "spectra")
        self.pairs = []                     # (A, B) for quadratic_pair_spectrum
        for n in GRAPH_SIZES:
            g = structures.WeightedGraph.from_edges(n, gen.connected_graph(rng, n, 2 * n))
            self.pairs.append((g.laplacian(), np.diag(g.degrees)))
        self.complexes = []
        for rows in COMPLEX_ROWS:
            tris = gen.up_complex(rng, rows)
            K = structures.SimplicialComplex(tris)
            B = K.boundary_matrix(2).astype(float)
            self.complexes.append((tris, B))
            self.pairs.append((B @ B.T, np.diag(K.up_degrees(1))))
        self.cheeger_data = [(n, gen.connected_graph(rng, n, n * (n - 1) // 4))
                             for n in CHEEGER_SIZES]
        self.cheeger_graphs = []
        for n, edges in self.cheeger_data:
            g = structures.WeightedGraph.from_edges(n, edges)
            self.cheeger_graphs.append((g, g.laplacian(), np.diag(g.degrees)))
        self.ternary_data = [(n, gen.connected_graph(rng, n, n * (n - 1) // 4))
                             for n in TERNARY_SIZES]
        self.ternary = [(spectra.one_laplacian_pair(structures.WeightedGraph.from_edges(n, e)), n)
                        for n, e in self.ternary_data]
        self.k5 = spectra.one_laplacian_pair(structures.WeightedGraph.complete(5))
        spectra_calls = len(self.pairs) + len(self.cheeger_graphs)
        self.expected_calls = {"spectra.quadratic_pair_spectrum": spectra_calls,
                               "spectra.jacobi_eigh": 2 * spectra_calls,
                               "constants.cheeger": len(self.cheeger_graphs)}
        self.instances = len(self.pairs) + len(self.cheeger_graphs) + len(self.ternary) + 1

    @staticmethod
    def _spectrum(A, B):
        return tuple(spectra.quadratic_pair_spectrum(A, B)[0].tolist())

    @staticmethod
    def _cheeger(g, L, D):
        rep = constants.cheeger(g)
        return rep.value, tuple(spectra.quadratic_pair_spectrum(L, D)[0].tolist())

    @staticmethod
    def _ternary(pair, n):
        return tuple(spectra.ternary_eigen_enumerate(pair, n).eigenvalues)

    def run(self):
        out = [self._attempt(self._spectrum, A, B) for A, B in self.pairs]
        out += [self._attempt(self._cheeger, *c) for c in self.cheeger_graphs]
        out += [self._attempt(self._ternary, pair, n) for pair, n in self.ternary]
        out.append(self._attempt(self._ternary, self.k5, 5))
        return out

    def check(self, outputs):
        fails = []
        it = iter(outputs)
        for (A, B), w in zip(self.pairs, it):
            if w is not None:
                fails += checks.check_pair_spectrum(A, B, w)
        for tris, B in self.complexes:
            fails += checks.check_boundary(B, gen.boundary_2(tris)[1])
        for (n, edges), (_, L, D), res in zip(self.cheeger_data, self.cheeger_graphs, it):
            if res is None:
                continue
            h, w = res
            h_ref = checks.graph_h(n, edges)
            fails += checks.check_cheeger(h, h_ref)
            fails += checks.check_pair_spectrum(L, D, w)
            fails += checks.check_cheeger_sandwich(h_ref, w[1])
        for (n, edges), eig in zip(self.ternary_data, it):
            if eig is not None:
                fails += checks.check_ternary(eig, checks.graph_h(n, edges))
        k5 = next(it)
        if k5 is not None:
            fails += checks.check_k5(k5)
        return fails


WORKLOADS = {w.name: w for w in (MinimaxLP, Dinkelbach, ExtensionExact,
                                 ExtensionFloat, SpectraEnum)}
