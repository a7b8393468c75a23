"""Input parsing, round trips, command dispatch and exit codes."""

import json

import numpy as np
import pytest

from homext import cli, spectra, verify
from homext.cli import ParseError, fmt, main, parse_input
from homext.setfn import mask_members
from homext.structures import SimplicialComplex, WeightedGraph

from reference_structures import full_form


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def emit(structure, kind: str) -> str:
    """File text that parse_input reads back as the same structure."""
    out = []
    if kind == "graph":
        out.append(str(structure.n))
        for i in range(structure.n):
            for j in range(i + 1, structure.n):
                w = structure.W[i, j]
                if w != 0:
                    out.append(f"{i + 1} {j + 1} {fmt(float(w))}")
    elif kind == "chemical-hypergraph":
        out.append(str(structure.n))
        for e_in, e_out in structure.edges:
            ins = " ".join(str(i + 1) for i in mask_members(e_in))
            outs = " ".join(str(i + 1) for i in mask_members(e_out))
            out.append(f"in: {ins} | out: {outs}")
    elif kind == "tensor":
        out.append(f"{structure.order} {structure.dim}")
        for idx, v in sorted(structure.entries.items()):
            out.append(" ".join(str(i + 1) for i in idx) + f" {fmt(float(v))}")
    elif kind == "complex":
        # maximal simplices: those without a coface
        maximal = []
        for d in range(structure.dim, -1, -1):
            for s in structure.simplices[d]:
                if not any(set(s) < set(t) for t in maximal):
                    maximal.append(s)
        for s in sorted(maximal):
            out.append(" ".join(str(v + 1) for v in s))
    else:
        raise ValueError(f"unknown kind {kind}")
    return "\n".join(out) + "\n"


def test_parse_graph_p3(tmp_path):
    path = write(tmp_path, "p3.graph", "3\n1 2 1\n2 3 1\n")
    g = parse_input(path, "graph")
    assert g.n == 3 and g.W[0, 1] == 1.0 and g.W[1, 2] == 1.0 and g.W[0, 2] == 0


def test_parse_graph_comments_and_default_weight(tmp_path):
    path = write(tmp_path, "g.graph", "# a path\n2\n1 2   # unit edge\n")
    g = parse_input(path, "graph")
    assert g.W[0, 1] == 1.0


def test_parse_complex_triangle(tmp_path):
    path = write(tmp_path, "t.complex", "1 2 3\n")
    K = parse_input(path, "complex")
    assert K.count(0) == 3 and K.count(1) == 3 and K.count(2) == 1


def test_parse_tensor_symmetrization(tmp_path):
    path = write(tmp_path, "t.tensor", "3 3\n1 2 3 1.0\n")
    T = parse_input(path, "tensor")
    assert T[(2, 1, 0)] == 1.0
    # 6 implicit entries via permutations
    assert full_form(T, np.ones(3)) == 6.0


def test_parse_chemical(tmp_path):
    path = write(tmp_path, "h.chem", "4\nin: 1 2 | out: 3\nin: 3 | out: 4\n")
    H = parse_input(path, "chemical-hypergraph")
    assert H.n == 4 and len(H.edges) == 2


def test_parse_setfn_table(tmp_path):
    path = write(tmp_path, "f.setfn", "1 2\n0 0\n1 1\n2 1\n3 5/2\n")
    f = parse_input(path, "setfn-table")
    from fractions import Fraction
    assert f(3) == Fraction(5, 2)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "bad.graph", "3\n1 5 1\n")
    with pytest.raises(ParseError) as e:
        parse_input(path, "graph")
    assert ":2:" in str(e.value)
    path = write(tmp_path, "bad2.graph", "x\n")
    with pytest.raises(ParseError):
        parse_input(path, "graph")


def test_roundtrip_graph(tmp_path):
    rng = np.random.default_rng(0)
    g = WeightedGraph.erdos_renyi(6, 0.5, rng)
    path = write(tmp_path, "r.graph", emit(g, "graph"))
    g2 = parse_input(path, "graph")
    assert np.allclose(g.W, g2.W)


def test_roundtrip_complex(tmp_path):
    K = SimplicialComplex([[0, 1, 2], [2, 3]])
    path = write(tmp_path, "r.complex", emit(K, "complex"))
    K2 = parse_input(path, "complex")
    assert K.simplices == K2.simplices


def test_roundtrip_chemical(tmp_path):
    path = write(tmp_path, "h.chem", "4\nin: 1 2 | out: 3\nin: 3 | out: 1 4\n")
    H = parse_input(path, "chemical-hypergraph")
    path2 = write(tmp_path, "h2.chem", emit(H, "chemical-hypergraph"))
    H2 = parse_input(path2, "chemical-hypergraph")
    assert H.edges == H2.edges


def test_roundtrip_tensor(tmp_path):
    path = write(tmp_path, "t.tensor", "2 3\n1 2 1.5\n2 3 2\n")
    T = parse_input(path, "tensor")
    path2 = write(tmp_path, "t2.tensor", emit(T, "tensor"))
    T2 = parse_input(path2, "tensor")
    assert T.entries == T2.entries


def test_fmt_rational_and_float():
    from fractions import Fraction
    assert fmt(Fraction(3, 4)) == "3/4"
    assert fmt(Fraction(2, 1)) == "2"
    assert fmt(0.75) == "0.75"
    assert len(fmt(np.pi).replace(".", "").replace("-", "")) <= 13


def k5_file(tmp_path):
    lines = ["5"]
    for i in range(1, 6):
        for j in range(i + 1, 6):
            lines.append(f"{i} {j} 1")
    return write(tmp_path, "k5.graph", "\n".join(lines) + "\n")


def test_cmd_cheeger_k5(tmp_path, capsys):
    rc = main(["cheeger", "--input", k5_file(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "3/4" in out


def test_cmd_spectrum_ternary_k5(tmp_path, capsys):
    rc = main(["spectrum", "--mode", "ternary", "--input", k5_file(tmp_path),
               "--pair", "onelap"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0," in out and "3/4" in out and "1" in out


def test_cmd_spectrum_quadratic(tmp_path, capsys):
    path = write(tmp_path, "p3.graph", "3\n1 2 1\n2 3 1\n")
    rc = main(["spectrum", "--mode", "quadratic", "--input", path])
    out = capsys.readouterr().out
    assert rc == 0 and "2" in out


def test_cmd_maxcut(tmp_path, capsys):
    path = write(tmp_path, "c4.graph", "4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
    rc = main(["maxcut", "--input", path])
    out = capsys.readouterr().out
    assert rc == 0 and "maxcut = 4" in out


def test_cmd_extend_eval(tmp_path, capsys):
    # cut function of the path 1-2-3 as a table; Lovasz at (1/2, 1, 0)
    vals = {0: "0", 1: "1", 2: "2", 3: "1", 4: "1", 5: "2", 6: "1", 7: "0"}
    body = "1 3\n" + "\n".join(f"{m} {v}" for m, v in vals.items()) + "\n"
    path = write(tmp_path, "cut.setfn", body)
    rc = main(["extend-eval", "--input", path, "--x", "1/2,1,0"])
    out = capsys.readouterr().out.strip()
    assert rc == 0 and out == "3/2"


def test_cmd_verify_structured(tmp_path, capsys):
    rc = main(["verify", "--suite", "k5", "--format", "structured"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert all(r["verdict"] == "pass" for r in data)


def test_cmd_verify_structured_serializes_fraction_lists(capsys):
    # bipartite-one-laplacian reports its spectra as lists of Fractions
    rc = main(["verify", "--suite", "bipartite", "--format", "structured"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    rep, = [r for r in data if r["check_id"] == "bipartite-one-laplacian"]
    assert rep["lhs"] == rep["rhs"] == ["0/1", "1/2", "1/1"]


def test_cmd_verify_unknown_suite(capsys):
    with pytest.raises(KeyError):
        main(["verify", "--suite", "bogus"])


def test_cmd_report_roundtrip(tmp_path, capsys):
    rc = main(["verify", "--suite", "huang", "--format", "structured"])
    out = capsys.readouterr().out
    path = write(tmp_path, "rep.json", out)
    rc = main(["report", "--input", path])
    out2 = capsys.readouterr().out
    assert rc == 0 and "huang-degree" in out2


def test_cmd_complex_spec(tmp_path, capsys):
    path = write(tmp_path, "tri.complex", "1 2 3\n1 2 4\n")
    rc = main(["complex-spec", "--input", path, "--d", "1"])
    out = capsys.readouterr().out
    assert rc == 0 and "up-Laplacian" in out


def test_cmd_lagrangian(tmp_path, capsys):
    path = write(tmp_path, "h.uh", "3\n1 2 3\n")
    rc = main(["lagrangian", "--input", path])
    out = capsys.readouterr().out
    assert rc == 0 and "1/27" in out


def test_structured_report_stable_across_runs(tmp_path, capsys):
    main(["verify", "--suite", "turan", "--format", "structured", "--seed", "9"])
    out1 = capsys.readouterr().out
    main(["verify", "--suite", "turan", "--format", "structured", "--seed", "9"])
    out2 = capsys.readouterr().out
    assert out1 == out2          # byte-identical under a fixed seed


def test_exit_code_cap_exceeded(tmp_path, capsys):
    lines = ["24"] + [f"{i} {i + 1} 1" for i in range(1, 24)]
    path = write(tmp_path, "big.graph", "\n".join(lines) + "\n")
    rc = main(["cheeger", "--input", path])
    assert rc == 2


def test_cmd_spectrum_dinkelbach(tmp_path, capsys):
    path = write(tmp_path, "c4.graph", "4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
    rc = main(["spectrum", "--mode", "dinkelbach", "--input", path, "--p", "2"])
    out = capsys.readouterr().out
    assert rc == 0 and "lambda_2 estimate = 1" in out


def test_dinkelbach_certifies_only_the_winning_start(tmp_path, capsys, monkeypatch):
    # every start runs uncertified and the best one gets the one residual:
    # second-eigen-dinkelbach's 8 starts ran 8 residuals, the CLI's 16
    # starts 16 residual LPs at p = 1; the printed residual is the same
    calls = {"eigen_residual": 0, "linprog": 0}

    def count(name, fn):
        def wrapped(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        monkeypatch.setattr(spectra, name, wrapped)

    count("eigen_residual", spectra.eigen_residual)
    count("linprog", spectra.linprog)
    reps = verify.suite_second_eigen(seed=42)
    assert [r.verdict for r in reps] == ["pass"] * 3
    assert calls == {"eigen_residual": 1, "linprog": 0}
    calls.update(eigen_residual=0, linprog=0)
    path = write(tmp_path, "w5.graph", "5\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 1 1\n1 3 1\n")
    rc = main(["spectrum", "--mode", "dinkelbach", "--input", path, "--p", "1"])
    assert rc == 0 and calls == {"eigen_residual": 1, "linprog": 1}
    assert capsys.readouterr().out == ("lambda_2 estimate = 0.501398969258  "
                                       "residual=1.49580309222  steps=21\n")


def test_cmd_spectrum_tensor_cw(tmp_path, capsys):
    path = write(tmp_path, "h.uh", "3\n1 2 3\n")
    rc = main(["spectrum", "--mode", "tensor-cw", "--input", path])
    out = capsys.readouterr().out
    assert rc == 0 and "lambda_max = 2" in out


def test_cmd_spectrum_tensor_cw_tells_the_file_by_its_header(tmp_path, capsys):
    # a tensor file's header is 'k n', a uniform hypergraph's is 'k'
    for name, text in (("edge.txt", "3 3\n1 2 3 1\n"), ("edge.uh", "3\n1 2 3\n")):
        rc = main(["spectrum", "--mode", "tensor-cw", "--input", write(tmp_path, name, text)])
        assert rc == 0 and "lambda_max = 2" in capsys.readouterr().out, name


@pytest.mark.parametrize("argv", [["spectrum", "--pair", "plap"], ["cheeger", "--tol", "1"]])
def test_options_a_command_does_not_take_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as e:
        main(argv + ["--input", k5_file(tmp_path)])
    assert e.value.code == 2


def test_cmd_cheeger_kway_takes_at_least_two_sets(tmp_path, capsys):
    rc = main(["cheeger", "--variant", "kway", "--input", k5_file(tmp_path)])
    assert rc == 0 and capsys.readouterr().out.startswith("2-way: 3/4")


def test_cmd_spectrum_dinkelbach_rejects_signless(tmp_path, capsys):
    path = write(tmp_path, "c4.graph", "4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
    rc = main(["spectrum", "--mode", "dinkelbach", "--pair", "signless",
               "--input", path, "--p", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "signless" in captured.err


def test_cmd_spectrum_dinkelbach_rejects_p_below_one(tmp_path, capsys):
    # the 1-Laplacian pair with a p-power G_Pi printed a meaningless value
    path = write(tmp_path, "c4.graph", "4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
    for p in ("0.5", "0", "-1", "nan"):
        rc = main(["spectrum", "--mode", "dinkelbach", "--input", path, "--p", p])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", p
        assert "--p >= 1" in captured.err, p


def test_cmd_cheeger_rejects_a_k_the_input_cannot_take(tmp_path, capsys):
    # on the 3-vertex path, dual --k 2 and --k 0 printed None and kway --k 4
    # ended in a traceback; on one edge, simplicial --k 3 printed None
    p3 = write(tmp_path, "p3.graph", "3\n1 2 1\n2 3 1\n")
    edge = write(tmp_path, "edge.complex", "1 2\n")
    for argv in (["--variant", "dual", "--k", "2"], ["--variant", "dual", "--k", "0"],
                 ["--variant", "kway", "--k", "4"], ["--variant", "plain", "--k", "4"]):
        rc = main(["cheeger", "--input", p3] + argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", argv
        assert "--k >= 1 and at most 3 sets" in captured.err, argv
    for k in ("0", "3"):
        rc = main(["cheeger", "--input", edge, "--variant", "simplicial", "--k", k])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and "at most 2 sets" in captured.err, k
    rc = main(["cheeger", "--input", p3, "--variant", "dual", "--k", "1"])
    assert rc == 0 and capsys.readouterr().out.startswith("1-way-dual: 1 ")


# every unusable input file, --x value or report JSON: (command and options,
# file name, file text or None for a missing file); the file is --input
MALFORMED = [
    (["complex-spec", "--d", "0"], "zero.complex", "0 1\n"),
    (["spectrum", "--mode", "tensor-cw"], "letters.tensor", "a b\n1 2 1\n"),
    (["cheeger"], "negative.graph", "-1\n"),
    (["lagrangian"], "zero.uh", "3\n0 1 2\n"),
    (["cheeger"], "loop.graph", "3\n1 1 2\n"),
    (["cheeger"], "nan.graph", "3\n1 2 nan\n"),
    (["spectrum", "--mode", "tensor-cw"], "nan.tensor", "3 3\n1 2 3 nan\n"),
    (["extend-eval", "--x", "1,0"], "overflow.setfn", "1 2\n3 1.5e400\n"),
    (["extend-eval", "--x", "1,0"], "zero-denominator.setfn", "1 2\n3 1/0\n"),
    (["cheeger", "--variant", "chemical"], "empty-edge.chem", "3\nin: | out: 1\n"),
    (["cheeger", "--variant", "chemical"], "one-vertex.chem", "3\nin: 1 | out: 1\n"),
    (["cheeger"], "missing.graph", None),
    (["report"], "corrupt.json", '[{"check_id": '),
    (["report"], "incomplete.json", '[{"check_id": "x", "verdict": "pass"}]\n'),
    (["extend-eval", "--x", "a,b"], "letters-x.setfn", "1 2\n3 1\n"),
    (["extend-eval", "--x", "1,0;0,1"], "two-blocks.setfn", "1 2\n3 1\n"),
    (["extend-eval", "--x", "1,0"], "short-block.setfn", "1 3\n7 1\n"),
    (["spectrum", "--mode", "quadratic"], "isolated.graph", "4\n1 2 1.5\n2 3 0.5\n"),
    (["spectrum", "--mode", "quadratic", "--pair", "signless"], "isolated-signless.graph",
     "4\n1 2 1.5\n2 3 0.5\n"),
    (["spectrum", "--mode", "ternary"], "isolated-float.graph", "4\n1 2 1.5\n2 3 0.5\n"),
    (["spectrum", "--mode", "ternary"], "isolated-integral.graph", "4\n1 2 1\n2 3 1\n"),
    (["cheeger"], "repeated-edge.graph", "3\n1 2 1\n1 2 3\n2 3 1\n"),
    (["cheeger"], "reversed-edge.graph", "3\n1 2 1\n2 1 3\n2 3 1\n"),
    (["extend-eval", "--x", "1,0"], "repeated-mask.setfn", "1 2\n1 5\n1 7\n3 1\n"),
    (["spectrum", "--mode", "tensor-cw"], "repeated-index.tensor", "3 3\n1 2 3 1\n3 2 1 2\n"),
    (["spectrum", "--mode", "tensor-cw"], "repeated-edge.tensor", "3\n1 2 3\n2 3 1\n"),
    (["lagrangian"], "repeated-hyperedge.uh", "3\n1 2 3\n3 1 2\n"),
]


@pytest.mark.parametrize("argv, name, text", MALFORMED, ids=[c[1] for c in MALFORMED])
def test_unusable_input_exits_2_with_one_line_naming_the_file(tmp_path, capsys, argv,
                                                              name, text):
    # each of these was silently changed, or ended in a traceback with exit 1
    path = write(tmp_path, name, text) if text is not None else str(tmp_path / name)
    rc = main(argv + ["--input", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(path + ":")
    assert "Traceback" not in captured.err


def test_refusals_name_the_degree_0_vertex_and_the_repeated_line(tmp_path, capsys):
    # a repeat is refused at its second line; chemical multi-edges stay allowed
    path = write(tmp_path, "isolated.graph", "4\n1 2 1.5\n2 3 0.5\n")
    assert main(["spectrum", "--mode", "ternary", "--input", path]) == 2
    assert capsys.readouterr().err == f"{path}: vertex 4 has degree 0; " \
        "--mode ternary needs every degree positive\n"
    path = write(tmp_path, "repeated.graph", "3\n1 2 1\n2 3 1\n2 1 3\n")
    assert main(["maxcut", "--input", path]) == 2
    assert capsys.readouterr().err == f"{path}:4: repeats the edge of line 2\n"
    path = write(tmp_path, "multi.chem", "3\nin: 1 | out: 2\nin: 1 | out: 2\nin: 2 | out: 3\n")
    H = parse_input(path, "chemical-hypergraph")
    assert len(H.edges) == 3 and list(H.degrees) == [2, 3, 1]


def test_cmd_report_prints_what_verify_prints(tmp_path, capsys):
    # one formatter and one exit rule for verify's text and report
    rc_text = main(["verify", "--suite", "k5"])
    text = capsys.readouterr().out
    rc = main(["verify", "--suite", "k5", "--format", "structured"])
    path = write(tmp_path, "k5.json", capsys.readouterr().out)
    assert main(["report", "--input", path]) == rc_text == rc == 0
    assert capsys.readouterr().out == text


def test_cmd_cheeger_rejects_a_d_without_cofaces(tmp_path, capsys):
    # --d at the top dimension ended in a 'no cofaces' traceback with exit 1
    for name, text in (("edge.complex", "1 2\n"), ("hollow.complex", "1 2\n2 3\n1 3\n")):
        path = write(tmp_path, name, text)
        for d in ("1", "-1"):
            rc = main(["cheeger", "--variant", "simplicial", "--input", path, "--d", d])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == "", (name, d)
            assert "--d < 1" in captured.err, (name, d)
        rc = main(["cheeger", "--variant", "simplicial", "--input", path, "--d", "0"])
        assert rc == 0 and capsys.readouterr().out.startswith("simplicial-1-way-S0"), name
