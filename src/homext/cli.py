"""Command-line interface: parse input files, dispatch commands, and emit
text or structured (JSON) reports.

File formats are line-oriented with '#' comments and 1-based vertex ids;
internally everything is 0-based, converted only at this boundary.
Each command takes only the options it reads.
Exit codes: 0 all verdicts pass, 1 some check failed, 2 cap exceeded,
unreadable input, an unsupported option combination, or an option or
value the command does not take (argparse's usage error), 3 solver did
not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import constants as cst
from . import extend, spectra, verify
from .setfn import CapExceeded, SetTupleFunction, mask_of
from .structures import (ChemicalHypergraph, SimplicialComplex,
                         SymmetricTensor, WeightedGraph, adjacency_tensor)

KINDS = ("graph", "signed-graph", "chemical-hypergraph", "uniform-hypergraph",
         "tensor", "complex", "setfn-table")


class ParseError(ValueError):
    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}:{lineno}: {msg}")


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


def _content_lines(path):
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def parse_input(path: str, kind: str):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    lines = list(_content_lines(path))
    if not lines:
        raise ParseError(path, 1, "empty input")

    if kind in ("graph", "signed-graph"):
        lineno, head = lines[0]
        try:
            n = int(head)
        except ValueError:
            raise ParseError(path, lineno, "expected the vertex count") from None
        W = np.zeros((n, n))
        for lineno, line in lines[1:]:
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(path, lineno, "expected 'i j [w]'")
            try:
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(path, lineno, "bad numbers") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError(path, lineno, f"vertex out of range 1..{n}")
            if kind == "graph" and w < 0:
                raise ParseError(path, lineno, "graph weights must be >= 0")
            W[i, j] = W[j, i] = w
        from .structures import SignedGraph
        return WeightedGraph(W) if kind == "graph" else SignedGraph(W)

    if kind == "chemical-hypergraph":
        lineno, head = lines[0]
        try:
            n = int(head)
        except ValueError:
            raise ParseError(path, lineno, "expected the vertex count") from None
        edges = []
        for lineno, line in lines[1:]:
            if "|" not in line or not line.startswith("in:"):
                raise ParseError(path, lineno, "expected 'in: i j | out: k l'")
            left, right = line.split("|", 1)
            right = right.strip()
            if not right.startswith("out:"):
                raise ParseError(path, lineno, "missing 'out:' part")
            try:
                ins = [int(t) - 1 for t in left[3:].split()]
                outs = [int(t) - 1 for t in right[4:].split()]
            except ValueError:
                raise ParseError(path, lineno, "bad vertex id") from None
            if any(not 0 <= v < n for v in ins + outs):
                raise ParseError(path, lineno, f"vertex out of range 1..{n}")
            edges.append((mask_of(ins), mask_of(outs)))
        return ChemicalHypergraph(n, edges)

    if kind == "uniform-hypergraph":
        lineno, head = lines[0]
        try:
            k = int(head)
        except ValueError:
            raise ParseError(path, lineno, "expected the edge size k") from None
        hyperedges = []
        n = 0
        for lineno, line in lines[1:]:
            try:
                verts = [int(t) - 1 for t in line.split()]
            except ValueError:
                raise ParseError(path, lineno, "bad vertex id") from None
            if len(set(verts)) != k:
                raise ParseError(path, lineno, f"edge must have {k} distinct vertices")
            n = max(n, max(verts) + 1)
            hyperedges.append(tuple(verts))
        return k, n, hyperedges

    if kind == "tensor":
        lineno, head = lines[0]
        parts = head.split()
        if len(parts) != 2:
            raise ParseError(path, lineno, "expected 'k n'")
        k, n = int(parts[0]), int(parts[1])
        T = SymmetricTensor(k, n)
        for lineno, line in lines[1:]:
            parts = line.split()
            if len(parts) != k + 1:
                raise ParseError(path, lineno, f"expected {k} indices and a value")
            try:
                idx = tuple(int(t) - 1 for t in parts[:k])
                val = float(parts[k])
            except ValueError:
                raise ParseError(path, lineno, "bad entry") from None
            if any(not 0 <= i < n for i in idx):
                raise ParseError(path, lineno, f"index out of range 1..{n}")
            T[idx] = val
        return T

    if kind == "complex":
        maximal = []
        for lineno, line in lines:
            try:
                verts = [int(t) - 1 for t in line.split()]
            except ValueError:
                raise ParseError(path, lineno, "bad vertex id") from None
            if len(set(verts)) != len(verts) or not verts:
                raise ParseError(path, lineno, "simplex needs distinct vertices")
            maximal.append(verts)
        return SimplicialComplex(maximal)

    # setfn-table
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError(path, lineno, "expected 'k n'")
    k, n = int(parts[0]), int(parts[1])
    vals = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != k + 1:
            raise ParseError(path, lineno, f"expected {k} masks and a value")
        try:
            masks = tuple(int(t) for t in parts[:k])
            raw = parts[k]
            val = Fraction(raw) if "/" in raw or "." not in raw else float(raw)
        except ValueError:
            raise ParseError(path, lineno, "bad entry") from None
        if any(not 0 <= m < (1 << n) for m in masks):
            raise ParseError(path, lineno, "mask out of range")
        vals[masks] = val
    return SetTupleFunction(n, k, vals)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _print_reports(reports, form) -> int:
    if form == "structured":
        print(json.dumps([r.to_dict(include_runtime=False) for r in reports],
                         indent=2, sort_keys=True))
    else:
        for r in reports:
            print(f"[{r.verdict.upper():4s}] {r.check_id:28s} gap={fmt(r.gap)} "
                  f"tol={fmt(r.tolerance)}  ({r.instance})")
    return 0 if all(r.verdict == "pass" for r in reports) else 1


def cmd_extend_eval(args) -> int:
    f = parse_input(args.input, "setfn-table")
    blocks = [b for b in args.x.split(";") if b.strip()]
    xs = [[Fraction(t) if "/" in t or "." not in t else float(t)
           for t in b.split(",")] for b in blocks]
    if len(xs) == 1 and f.k == 1:
        val = extend.lovasz(f, xs[0])
    elif args.diagonal:
        val = extend.diagonal(f, xs[0])
    else:
        val = extend.multilinear(f, xs)
    print(fmt(val))
    return 0


def cmd_spectrum(args) -> int:
    if args.mode == "tensor-cw":
        # a tensor file's header is 'k n', a uniform hypergraph's is 'k'
        lines = list(_content_lines(args.input))
        if lines and len(lines[0][1].split()) == 2:
            T = parse_input(args.input, "tensor")
        else:
            k, n, he = parse_input(args.input, "uniform-hypergraph")
            T = adjacency_tensor(n, he, k=k)
        rep = spectra.collatz_wielandt_max(T)
        print(f"lambda_max = {fmt(rep.lam)}  certificate=[{fmt(rep.lo)}, {fmt(rep.hi)}]"
              f"  converged={rep.converged}")
        return 0 if rep.converged else 3

    g = parse_input(args.input, "graph")
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
        pair = spectra.graph_plap_pair(g, p) if p > 1 else spectra.one_laplacian_pair(g)
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
    deg = K.up_degrees(d)
    keep = [i for i in range(K.count(d)) if deg[i] > 0]
    if not keep:
        print(f"no d={d} simplices with cofaces")
        return 0
    B = K.boundary_matrix(d + 1)[keep, :]
    D = np.diag(deg[keep])
    w, _ = spectra.quadratic_pair_spectrum(B @ B.T, D)
    print(f"S_{d}: {K.count(d)} simplices ({len(keep)} with cofaces)")
    print("up-Laplacian eigenvalues:", fmt(list(w)))
    G = K.anti_signed_graph(d)
    Wr = G.W[np.ix_(keep, keep)]
    from .structures import SignedGraph
    bal, _ = SignedGraph(Wr).balanced_components()
    print(f"balanced anti-signed components: {bal} "
          f"(multiplicity of eigenvalue {d + 2}: "
          f"{int(np.sum(np.abs(w - (d + 2)) <= 1e-8))})")
    if K.count(d) <= 10:
        rep = cst.simplicial_h(K, d, n_list=(1,))
        print(f"h(S_{d}) upper bound family: {fmt(rep.per_n)}")
    return 0


def cmd_verify(args) -> int:
    try:
        reports = verify.run_inequality_suites(args.suite, seed=args.seed)
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 2
    return _print_reports(reports, args.format)


def cmd_report(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    for r in data:
        print(f"[{r['verdict'].upper():4s}] {r['check_id']:28s} "
              f"gap={fmt(r['gap'])} tol={fmt(r['tolerance'])}  ({r['instance']})")
    return 0 if all(r["verdict"] == "pass" for r in data) else 1


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
