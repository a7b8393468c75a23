"""Command-line interface: read input files, dispatch commands, and print
text or structured (JSON) reports.

Every input file goes through one line reader: '#' starts a comment and
each line with content is a list of tokens.  Headers are positive
integers, vertex ids run 1..n (0-based inside, converted only here), and
every number is an integer or p/q (a Fraction) or a decimal (a float),
finite either way; graph weights and tensor entries are stored as floats.
A file, --x value or report JSON that cannot be used as written is
refused with 'path:line: reason': so is an entry listed twice (a graph
edge in either orientation, a uniform hyperedge as a set, a tensor index
multiset or a set-function mask tuple; chemical multi-edges are allowed),
and, with 'path: reason', a graph with a vertex of degree 0 under
`spectrum --mode quadratic` or `--mode ternary`.  Every report, of
`verify` or read back by `report`, is printed by one formatter.
Each command takes only the options it reads.
Exit codes: 0 all verdicts pass, 1 some check failed, 2 cap exceeded, an
unusable input file, --x value or report JSON, an unsupported option
combination, or an option or value the command does not take (argparse's
usage error), 3 solver did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from . import constants as cst
from . import extend, spectra, verify
from .setfn import CapExceeded, SetTupleFunction, mask_of
from .structures import (ChemicalHypergraph, SignedGraph, SimplicialComplex,
                         SymmetricTensor, WeightedGraph, adjacency_tensor)

KINDS = ("graph", "chemical-hypergraph", "uniform-hypergraph", "tensor",
         "complex", "setfn-table")


class ParseError(ValueError):
    """Input that cannot be used as written: 'path:line: reason', or
    'path: reason' when no one line is at fault."""

    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}:{lineno}: {msg}" if lineno else f"{path}: {msg}")


def fmt(v) -> str:
    """Rationals as p/q, floats with 12 significant digits."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(fmt(t) for t in v) + "]"
    return str(v)


@contextmanager
def _at(path, lineno):
    """Report a ValueError raised inside as a ParseError at this line."""
    try:
        yield
    except ValueError as e:
        raise ParseError(path, lineno, e) from None


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeError) as e:
        raise ParseError(path, None, getattr(e, "strerror", None) or e) from None


def _lines(path) -> list:
    """(line number, tokens) of every line with content; '#' starts a comment."""
    lines = [(lineno, tokens) for lineno, raw in enumerate(_read(path).split("\n"), 1)
             if (tokens := raw.split("#", 1)[0].split())]
    if not lines:
        raise ParseError(path, 1, "empty input")
    return lines


def _ints(tokens, lo, hi=math.inf, what="vertex") -> list:
    """The tokens as integers in lo..hi."""
    out = []
    for t in tokens:
        try:
            v = int(t)
        except ValueError:
            raise ValueError(f"{what} {t!r} is not an integer") from None
        if not lo <= v <= hi:
            raise ValueError(f"{what} {v} is below {lo}" if v < lo else
                             f"{what} {v} is above {hi}")
        out.append(v)
    return out


def _ids(tokens, n=math.inf, distinct=True) -> list:
    """1-based vertex ids, at most n, as 0-based ints."""
    ids = [v - 1 for v in _ints(tokens, 1, n)]
    if distinct and len(set(ids)) < len(ids):
        raise ValueError("vertex ids must be distinct")
    return ids


def _once(seen: dict, key, lineno, what) -> None:
    """Record the line of ``key``; a key listed on an earlier line is refused."""
    if key in seen:
        raise ValueError(f"repeats the {what} of line {seen[key]}")
    seen[key] = lineno


def _header(path, lineno, tokens, names) -> list:
    """The header line as one positive integer per name in ``names``."""
    with _at(path, lineno):
        if len(tokens) != len(names.split()):
            raise ValueError(f"expected the header '{names}'")
        return _ints(tokens, 1, what="header entry")


def _number(token):
    """The one number rule: an integer or p/q token is a Fraction, any other
    a float, and either must be finite."""
    try:
        v = Fraction(token) if "/" in token or "." not in token else float(token)
        if math.isfinite(v):
            return v
    except (ArithmeticError, ValueError):      # p/0, or too large for a float
        pass
    raise ValueError(f"{token!r} is not a finite number")


def parse_input(path: str, kind: str):
    """The structure in the file at ``path``: a WeightedGraph, a
    ChemicalHypergraph, (k, n, hyperedges) for a uniform hypergraph, a
    SymmetricTensor (header 'k n'; a file with the header 'k' is a uniform
    hypergraph and gives its adjacency tensor), a SimplicialComplex or a
    SetTupleFunction.  Raises ParseError at the first line that cannot be
    used as written."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    lines = _lines(path)
    if kind == "complex":
        maximal = []
        for lineno, tokens in lines:
            with _at(path, lineno):
                maximal.append(_ids(tokens))
        return SimplicialComplex(maximal)
    (lineno, head), body = lines[0], lines[1:]

    if kind == "uniform-hypergraph" or kind == "tensor" and len(head) == 1:
        k, = _header(path, lineno, head, "k")
        hyperedges, seen = [], {}
        for lineno, tokens in body:
            with _at(path, lineno):
                if len(tokens) != k:
                    raise ValueError(f"edge must have {k} distinct vertices")
                hyperedges.append(tuple(_ids(tokens)))
                _once(seen, frozenset(hyperedges[-1]), lineno, "hyperedge")
        n = max((max(e) + 1 for e in hyperedges), default=0)
        if kind == "uniform-hypergraph":
            return k, n, hyperedges
        with _at(path, lineno):
            return adjacency_tensor(n, hyperedges, k=k)

    if kind == "graph":
        n, = _header(path, lineno, head, "n")
        W, seen = np.zeros((n, n)), {}
        for lineno, tokens in body:
            with _at(path, lineno):
                if len(tokens) not in (2, 3):
                    raise ValueError("expected 'i j [w]'")
                i, j = _ids(tokens[:2], n)
                _once(seen, frozenset((i, j)), lineno, "edge")
                w = float(_number(tokens[2])) if len(tokens) == 3 else 1.0
                if w < 0:
                    raise ValueError("graph weights must be >= 0")
            W[i, j] = W[j, i] = w
        return WeightedGraph(W)

    if kind == "chemical-hypergraph":
        n, = _header(path, lineno, head, "n")
        edges = []
        for lineno, tokens in body:
            left, _, right = " ".join(tokens).partition("|")
            right = right.strip()
            with _at(path, lineno):
                if not (left.startswith("in:") and right.startswith("out:")):
                    raise ValueError("expected 'in: i j | out: k l'")
                edge = mask_of(_ids(left[3:].split(), n)), mask_of(_ids(right[4:].split(), n))
                edges += ChemicalHypergraph(n, [edge]).edges
        return ChemicalHypergraph(n, edges)

    k, n = _header(path, lineno, head, "k n")
    if kind == "tensor":
        T, seen = SymmetricTensor(k, n), {}
        for lineno, tokens in body:
            with _at(path, lineno):
                if len(tokens) != k + 1:
                    raise ValueError(f"expected {k} indices and a value")
                idx = _ids(tokens[:k], n, distinct=False)
                _once(seen, tuple(sorted(idx)), lineno, "index multiset")
                T[idx] = float(_number(tokens[k]))
        return T

    vals, seen, top = {}, {}, (1 << n) - 1
    for lineno, tokens in body:
        with _at(path, lineno):
            if len(tokens) != k + 1:
                raise ValueError(f"expected {k} masks and a value")
            masks = tuple(_ints(tokens[:k], 0, top, "mask"))
            _once(seen, masks, lineno, "mask tuple")
            vals[masks] = _number(tokens[k])
    return SetTupleFunction(n, k, vals)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _print_reports(reports, form) -> int:
    """Print report dicts (``VerificationReport.to_dict()``, or read back
    from JSON) as one JSON list or one line each; 0 if every verdict is
    pass, else 1."""
    if form == "structured":
        print(json.dumps(reports, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(f"[{str(r['verdict']).upper():4s}] {r['check_id']!s:28} "
                  f"gap={fmt(r['gap'])} tol={fmt(r['tolerance'])}  ({r['instance']})")
    return 0 if all(r["verdict"] == "pass" for r in reports) else 1


def cmd_extend_eval(args) -> int:
    f = parse_input(args.input, "setfn-table")
    want = 1 if args.diagonal else f.k
    try:
        xs = [[_number(t) for t in b.split(",")] for b in args.x.split(";") if b.strip()]
    except ValueError as e:
        raise ParseError(args.input, None, f"--x: {e}") from None
    if len(xs) != want or any(len(x) != f.n for x in xs):
        raise ParseError(args.input, None, f"--x needs {want} block(s) of {f.n} coordinates")
    if f.k == 1:
        val = extend.lovasz(f, xs[0])
    elif args.diagonal:
        val = extend.diagonal(f, xs[0])
    else:
        val = extend.multilinear(f, xs)
    print(fmt(val))
    return 0


def cmd_spectrum(args) -> int:
    if args.mode == "tensor-cw":
        C = parse_input(args.input, "tensor")
        try:
            rep = spectra.collatz_wielandt_max(C)
        except ValueError as e:         # a zero row
            raise ParseError(args.input, None, str(e)) from None
        print(f"lambda_max = {fmt(rep.lam)}  certificate=[{fmt(rep.lo)}, {fmt(rep.hi)}]"
              f"  converged={rep.converged}")
        return 0 if rep.converged else 3

    g = parse_input(args.input, "graph")
    if args.mode in ("quadratic", "ternary") and not g.degrees.all():
        v = int(np.argmin(g.degrees)) + 1
        raise ParseError(args.input, None,
                         f"vertex {v} has degree 0; --mode {args.mode} needs every degree positive")
    if args.mode == "quadratic":
        L = g.laplacian() if args.pair != "signless" else g.signless_laplacian()
        w, _ = spectra.quadratic_pair_spectrum(L, np.diag(g.degrees))
        print("eigenvalues:", fmt(list(w)))
        return 0
    if args.mode == "ternary":
        pair = spectra.one_laplacian_pair(g, signless=args.pair == "signless")
        spec = spectra.ternary_eigen_enumerate(pair, g.n, tol=args.tol)
        vals = ", ".join(fmt(v) for v in spec.eigenvalues)
        print(f"eigenvalues: {{{vals}}}  (exact for this pair: {spec.exact_for_pair})")
        return 0
    if args.mode == "dinkelbach":
        if args.pair == "signless":
            print("spectrum --mode dinkelbach has no signless pair; use "
                  "--mode quadratic or --mode ternary", file=sys.stderr)
            return 2
        p = args.p
        if not p >= 1:               # no p-Laplacian pair below 1 (or at nan)
            print(f"spectrum --mode dinkelbach needs --p >= 1, got {fmt(p)}", file=sys.stderr)
            return 2
        pair = spectra.graph_plap_pair(g, p)
        proj = spectra.projection_diag_power(g.degrees, p, np.ones(g.n))
        ep = spectra.dinkelbach_multistart(pair, proj, g.n, seed=args.seed,
                                           starts=min(16, args.iters),
                                           max_outer=args.iters)
        print(f"lambda_2 estimate = {fmt(ep.lam)}  residual={fmt(ep.residual)}"
              f"  steps={len(ep.history)}")
        return 0 if ep.converged else 3
    raise ValueError(f"unknown spectrum mode {args.mode}")


def cmd_cheeger(args) -> int:
    if args.variant == "chemical":
        H = parse_input(args.input, "chemical-hypergraph")
        rep = cst.chemical_cheeger(H)
    else:
        if args.variant == "simplicial":
            K = parse_input(args.input, "complex")
            if not 0 <= args.d < K.dim:
                print(f"cheeger --variant simplicial needs 0 <= --d < {K.dim}, the top "
                      f"dimension, got --d {args.d}", file=sys.stderr)
                return 2
            k, blocks, size = args.k, args.k, K.count(args.d)
        else:
            g = parse_input(args.input, "graph")
            k = max(args.k, 2) if args.variant == "kway" else args.k
            blocks, size = (2 * k if args.variant == "dual" else k), g.n
        if (args.variant != "plain" or k > 1) and (k < 1 or blocks > size):
            print(f"cheeger --variant {args.variant} needs --k >= 1 and at most "
                  f"{size} sets, got --k {args.k} ({blocks} sets)", file=sys.stderr)
            return 2
        if args.variant == "simplicial":
            rep = cst.simplicial_cheeger(K, args.d, k)
        elif args.variant == "dual":
            rep = cst.dual_cheeger_k(g, k)
        elif k > 1:
            rep = cst.k_way_cheeger(g, k)
        else:
            rep = cst.cheeger(g)
    print(f"{rep.variant}: {fmt(rep.value)}  (enumerated {rep.enumerated}, "
          f"witness {rep.optimal_sets[:1]})")
    return 0


def cmd_maxcut(args) -> int:
    g = parse_input(args.input, "graph")
    rep = cst.maxcut(g, seed=args.seed)
    print(f"maxcut = {fmt(rep.value)}  witness mask={rep.witness}  "
          f"continuous samples bounded: {rep.continuous_samples_ok}")
    return 0


def cmd_lagrangian(args) -> int:
    k, n, he = parse_input(args.input, "uniform-hypergraph")
    rep = cst.hypergraph_lagrangian(n, he)
    print(f"lagrangian: subset max = {fmt(rep.discrete_value)}  "
          f"ascent = {fmt(rep.ascent_value)}  witness mask={rep.discrete_witness}")
    return 0


def cmd_complex_spec(args) -> int:
    K = parse_input(args.input, "complex")
    d = args.d
    up = K.restricted_up_pair(d)
    if up is None:
        print(f"no d={d} simplices with cofaces")
        return 0
    keep, B, deg, Wr = up
    w, _ = spectra.quadratic_pair_spectrum(B @ B.T, np.diag(deg))
    print(f"S_{d}: {K.count(d)} simplices ({len(keep)} with cofaces)")
    print("up-Laplacian eigenvalues:", fmt(list(w)))
    bal, _ = SignedGraph(Wr).balanced_components()
    print(f"balanced anti-signed components: {bal} "
          f"(multiplicity of eigenvalue {d + 2}: "
          f"{int(np.sum(np.abs(w - (d + 2)) <= 1e-8))})")
    if K.count(d) <= 10:
        rep = cst.simplicial_h(K, d, n_list=(1,))
        print(f"h(S_{d}) upper bound family: {fmt(rep.per_n)}")
    return 0


def cmd_verify(args) -> int:
    reports = verify.run_inequality_suites(args.suite, seed=args.seed)
    return _print_reports([r.to_dict() for r in reports], args.format)


def cmd_report(args) -> int:
    try:
        reports = json.loads(_read(args.input))
    except json.JSONDecodeError as e:
        raise ParseError(args.input, e.lineno, e.msg) from None
    if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
        raise ParseError(args.input, None, "expected a list of report objects")
    for i, r in enumerate(reports, 1):
        for key in ("check_id", "gap", "instance", "tolerance", "verdict"):
            if key not in r:
                raise ParseError(args.input, None, f"report {i} lacks {key!r}")
    return _print_reports(reports, "text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="homext",
        description="extensions of set functions, spectra of function "
                    "pairs, and the theorem-check suites")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("extend-eval", help="evaluate an extension at a point")
    s.add_argument("--input", required=True)
    s.add_argument("--x", required=True,
                   help="coordinates, blocks joined by ';', entries by ','")
    s.add_argument("--diagonal", action="store_true")
    s.set_defaults(fn=cmd_extend_eval)

    s = sub.add_parser("spectrum", help="eigenvalues of a function pair")
    s.add_argument("--input", required=True)
    s.add_argument("--mode", choices=("quadratic", "dinkelbach", "ternary",
                                      "tensor-cw"), default="quadratic")
    s.add_argument("--pair", choices=("onelap", "signless"), default="onelap")
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--p", type=float, default=2.0)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--iters", type=int, default=60)
    s.set_defaults(fn=cmd_spectrum)

    s = sub.add_parser("cheeger", help="Cheeger constants by enumeration")
    s.add_argument("--input", required=True)
    s.add_argument("--variant", choices=("plain", "kway", "dual", "chemical",
                                         "simplicial"), default="plain")
    s.add_argument("--d", type=int, default=0)
    s.add_argument("--k", type=int, default=1,
                   help="number of sets; kway takes at least 2")
    s.set_defaults(fn=cmd_cheeger)

    s = sub.add_parser("maxcut", help="exact maxcut and its continuous form")
    s.add_argument("--input", required=True)
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(fn=cmd_maxcut)

    s = sub.add_parser("lagrangian", help="uniform-hypergraph Lagrangian")
    s.add_argument("--input", required=True)
    s.set_defaults(fn=cmd_lagrangian)

    s = sub.add_parser("complex-spec", help="spectra of a simplicial complex")
    s.add_argument("--input", required=True)
    s.add_argument("--d", type=int, default=1)
    s.set_defaults(fn=cmd_complex_spec)

    s = sub.add_parser("verify", help="run a theorem-check suite")
    s.add_argument("--suite", default="all",
                   help="suite name or 'all'; see homext.verify.SUITES")
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--format", choices=("text", "structured"), default="text")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("report", help="pretty-print a structured report")
    s.add_argument("--input", required=True)
    s.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
