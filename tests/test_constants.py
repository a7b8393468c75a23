"""Brute-force quantities: Cheeger variants, maxcut, independence,
Motzkin-Straus, Lagrangians, simplicial constants and nodal domains."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from homext import constants as cst
from homext.setfn import CapExceeded, full_mask, mask_of
from homext.structures import (ChemicalHypergraph, SimplicialComplex,
                               WeightedGraph)

from reference_structures import chemical_from_graph, vol


def test_cheeger_k5():
    rep = cst.cheeger(WeightedGraph.complete(5))
    assert rep.value == Fraction(3, 4)
    # attained at a 2-subset
    assert any(bin(a).count("1") == 2 for a in rep.optimal_sets)


def test_cheeger_c4():
    rep = cst.cheeger(WeightedGraph.cycle(4))
    assert rep.value == Fraction(1, 2)


def test_cheeger_disconnected_zero():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    rep = cst.cheeger(WeightedGraph(W))
    assert rep.value == 0


def test_cheeger_reported_value_reevaluates():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = WeightedGraph.erdos_renyi(6, 0.6, rng)
        if not g.is_connected():
            continue
        rep = cst.cheeger(g)
        a = rep.optimal_sets[0]
        total = (1 << g.n) - 1
        again = Fraction(int(cst._tables(g.W, g.degrees)[0][a])) / Fraction(
            int(min(vol(g, a), vol(g, total & ~a))))
        assert again == rep.value



def test_vol_over_degrees_read_once_equals_vol():
    # the Cheeger enumerations read the degrees once; every mask's volume
    # must keep the bits of the per-call vol (same terms, same order)
    rng = np.random.default_rng(6)
    W = np.triu(rng.uniform(0.0, 3.0, (7, 7)) * (rng.random((7, 7)) < 0.6), 1)
    g = WeightedGraph(W + W.T)
    H = ChemicalHypergraph(5, [(mask_of([0]), mask_of([1, 2])),
                               (mask_of([2, 3]), mask_of([4])),
                               (mask_of([1, 4]), mask_of([0, 3]))])
    for obj, W in ((g, g.W), (H, np.zeros((H.n, H.n)))):
        read_once = cst._tables(W, obj.degrees)[1]
        for m in range(1 << obj.n):
            assert np.float64(read_once[m]).tobytes() == np.float64(vol(obj, m)).tobytes()

def test_kway_cheeger_k5():
    k5 = WeightedGraph.complete(5)
    assert cst.k_way_cheeger(k5, 2).value == Fraction(3, 4)
    assert cst.k_way_cheeger(k5, 3).value == Fraction(1)
    assert cst.k_way_cheeger(k5, 4).value == Fraction(1)


def test_kway_k1_matches_min_single_ratio():
    rng = np.random.default_rng(1)
    g = WeightedGraph.erdos_renyi(6, 0.6, rng)
    rep1 = cst.k_way_cheeger(g, 1)
    cut = cst._tables(g.W, g.degrees)[0]
    best = min(Fraction(int(cut[a])) / Fraction(int(vol(g, a)))
               for a in range(1, 1 << g.n) if vol(g, a) > 0)
    assert rep1.value == best


def test_kway_monotone_in_k():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = WeightedGraph.erdos_renyi(6, 0.7, rng)
        if not g.is_connected():
            continue
        vals = [cst.k_way_cheeger(g, k).value for k in (1, 2, 3)]
        assert vals[0] <= vals[1] <= vals[2]


def test_dual_cheeger_bipartite_is_one():
    g = WeightedGraph.cycle(6)      # bipartite
    rep = cst.dual_cheeger_k(g, 1)
    assert rep.value == Fraction(1)


def test_dual_cheeger_triangle_below_one():
    rep = cst.dual_cheeger_k(WeightedGraph.complete(3), 1)
    assert rep.value < 1


def test_maxcut_small_graphs():
    assert cst.maxcut(WeightedGraph.complete(3)).value == 2.0
    assert cst.maxcut(WeightedGraph.cycle(4)).value == 4.0
    assert cst.maxcut(WeightedGraph.cycle(5)).value == 4.0
    rep = cst.maxcut(WeightedGraph.from_edges(2, [(0, 1)]))
    assert rep.value == 1.0 and rep.indicator_value == 1.0
    assert rep.continuous_samples_ok


def test_independence_clique():
    p3 = WeightedGraph.path(3)
    assert cst.independence_number(p3)[0] == 2
    assert cst.clique_number(p3)[0] == 2
    k5 = WeightedGraph.complete(5)
    assert cst.independence_number(k5)[0] == 1
    assert cst.clique_number(k5)[0] == 5


def is_independent(g, mask):
    return not any((mask >> i) & 1 and (mask >> j) & 1 for i, j, _ in g.edges())


def test_independence_witness_is_independent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = WeightedGraph.erdos_renyi(8, 0.5, rng)
        alpha, wit = cst.independence_number(g)
        assert bin(wit).count("1") == alpha
        assert is_independent(g, wit)


def test_motzkin_straus_k3():
    rep = cst.motzkin_straus(WeightedGraph.complete(3))
    assert abs(rep.discrete_value - 2.0 / 3.0) < 1e-12
    assert abs(rep.ascent_value - 2.0 / 3.0) < 1e-6


def test_motzkin_straus_triangle_free():
    rep = cst.motzkin_straus(WeightedGraph.cycle(5))
    assert rep.omega == 2 and abs(rep.ascent_value - 0.5) < 1e-6


def test_motzkin_straus_never_exceeds():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = WeightedGraph.erdos_renyi(7, 0.5, rng)
        if not g.edges():
            continue
        rep = cst.motzkin_straus(g)
        assert rep.ascent_value <= rep.discrete_value + 1e-8
        assert rep.ascent_value >= rep.discrete_value - 1e-6
        # subset ordered-pair density max equals 1 - 1/omega
        assert rep.max_subset_density == Fraction(rep.omega - 1, rep.omega)


def test_independence_via_ms_p3():
    # alpha = 1 / (1 - ms) with ms the Motzkin-Straus value of the complement
    g = WeightedGraph.path(3)
    rep = cst.motzkin_straus(g.complement())
    assert cst.independence_number(g)[0] == 2
    assert abs(1.0 / (1.0 - rep.ascent_value) - 2.0) < 1e-5


def test_lagrangian_clique_hypergraph_equality():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = WeightedGraph.erdos_renyi(6, 0.7, rng)
        he = cst.clique_hypergraph(g, 3)
        if not he:
            continue
        rep = cst.hypergraph_lagrangian(g.n, he)
        assert abs(rep.ascent_value - float(rep.discrete_value)) < 1e-6


def test_lagrangian_single_edge():
    rep = cst.hypergraph_lagrangian(3, [(0, 1, 2)])
    assert rep.discrete_value == Fraction(1, 27)
    assert abs(rep.ascent_value - 1.0 / 27.0) < 1e-8


@pytest.mark.filterwarnings("error")
def test_lagrangian_without_hyperedges_starts_no_zero_point():
    # the witness is the empty set; its indicator once started the ascent
    # at 0 / 0
    rep = cst.hypergraph_lagrangian(3, [])
    assert (rep.discrete_value, rep.discrete_witness, rep.ascent_value) == (0, 0, 0.0)


def test_lagrangian_ascent_at_least_subset_density():
    rng = np.random.default_rng(6)
    verts = list(range(6))
    for _ in range(5):
        he = [tuple(sorted(rng.choice(6, size=3, replace=False)))
              for _ in range(6)]
        he = sorted(set(he))
        rep = cst.hypergraph_lagrangian(6, he)
        assert rep.ascent_value >= float(rep.discrete_value) - 1e-9


def test_chemical_cheeger_graph_case_matches():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = WeightedGraph.erdos_renyi(6, 0.6, rng)
        if not g.is_connected():
            continue
        H = chemical_from_graph(g)
        assert cst.chemical_cheeger(H).value == cst.cheeger(g).value


def test_chemical_cheeger_single_directed_edge():
    H = ChemicalHypergraph(2, [(mask_of([0]), mask_of([1]))])
    rep = cst.chemical_cheeger(H)
    assert rep.value == Fraction(1)


def test_chemical_cheeger_disconnected_zero():
    H = ChemicalHypergraph(4, [(mask_of([0]), mask_of([1])),
                               (mask_of([2]), mask_of([3]))])
    assert cst.chemical_cheeger(H).value == 0


def _graphs(st, max_n):
    """Graphs on 1..max_n vertices with every edge weight drawn from one
    pool: near-integral weights are allclose to integers but not integral;
    huge ones are integral, and sums past 2^53 are no longer exact."""
    pools = {"integral": st.integers(0, 3).map(float),
             "half-integral": st.integers(0, 6).map(lambda k: k / 2),
             "float": st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
             "spread": st.sampled_from([0.0, 1e-3, 0.7, 1e3]),
             "tiny": st.sampled_from([0.0, 1e-9, 3e-9, 1.0]),
             "near-integral": st.sampled_from([0.0, 1.0, 9999.91, 10000.09, 10000.1]),
             "huge": st.sampled_from([0.0, 1.0, 3.0, 2.0 ** 53])}

    @st.composite
    def graph(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        pool = pools[draw(st.sampled_from(sorted(pools)))]
        W = np.zeros((n, n))
        for (i, j), w in zip(pairs, draw(st.lists(pool, min_size=len(pairs),
                                                  max_size=len(pairs)))):
            W[i, j] = W[j, i] = w
        return WeightedGraph(W)

    return graph()


def _typed(v):
    return type(v), repr(v)


def _fields(rep):
    """Every CheegerReport field, the value by type and repr."""
    return _typed(rep.value), rep.optimal_sets, rep.enumerated, rep.variant, rep.extra


@pytest.mark.parametrize("chunk", [7, cst.SUBSET_CHUNK])
def test_cheeger_tables_match_the_per_mask_loops(monkeypatch, chunk):
    # the subset tables only preselect; every value (type and repr), the
    # first eight tied sets in mask order and the count must be the loops'.
    # Chunks of 7 masks put chunk boundaries inside every enumeration.
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from reference_constants import cheeger_loop, chemical_cheeger_loop
    monkeypatch.setattr(cst, "SUBSET_CHUNK", chunk)
    for n in range(1, 13):
        graphs = [WeightedGraph.complete(n), WeightedGraph.path(n)]
        if n >= 3:
            graphs.append(WeightedGraph.cycle(n))
        if n >= 2:
            W = np.zeros((n, n))
            W[0, 1:] = W[1:, 0] = 1.0
            W[0, n - 1] = W[n - 1, 0] = 0.0      # vertex n-1 isolated
            graphs.append(WeightedGraph(W))
        for g in graphs:
            assert _fields(cst.cheeger(g)) == _fields(cheeger_loop(g))
    # tiny weights (1e-9) and multiples of 10000.1 are not integral: the
    # tables preselect and the left-to-right float sums decide
    K = np.array([[0, 1, 7, 3, 0, 4], [1, 0, 4, 7, 1, 2], [7, 4, 0, 2, 7, 0],
                  [3, 7, 2, 0, 3, 3], [0, 1, 7, 3, 0, 7], [4, 2, 0, 3, 7, 0]])
    for W in ([[0, 1, 0], [1, 0, 1e-9], [0, 1e-9, 0]], 1e-9 * (1 - np.eye(3)),
              [[0, 1e-9, 0, 0], [1e-9, 0, 0.6, 0], [0, 0.6, 0, 1e-9], [0, 0, 1e-9, 0]],
              10000.1 * K):
        g = WeightedGraph(W)
        assert _fields(cst.cheeger(g)) == _fields(cheeger_loop(g))

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(_graphs(st, 10))
    def check_graph(g):
        assert _fields(cst.cheeger(g)) == _fields(cheeger_loop(g))

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(2, 9), st.data())
    def check_chemical(n, data):
        mask = st.integers(1, (1 << n) - 1)
        edges = [e for e in data.draw(st.lists(st.tuples(mask, mask), max_size=2 * n))
                 if bin(e[0] | e[1]).count("1") >= 2]
        H = ChemicalHypergraph(n, edges)        # vertices in no edge have degree 0
        assert _fields(cst.chemical_cheeger(H)) == _fields(chemical_cheeger_loop(H))

    check_graph()
    check_chemical()


@pytest.mark.parametrize("chunk", [7, cst.SUBSET_CHUNK])
def test_enumerations_match_the_per_set_loops(monkeypatch, chunk):
    # every constant read from the subset tables against the loops that
    # summed each set's cut, volume, edge weights and signed edge counts
    # one member at a time: values by type and repr, the optimal sets and
    # the count, over every weight pool; chunks of 7 masks put chunk
    # boundaries inside every enumeration
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    import reference_constants as ref
    monkeypatch.setattr(cst, "SUBSET_CHUNK", chunk)

    @hyp.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hyp.given(_graphs(st, 7))
    def check_graph(g):
        exact = np.array_equal(g.W, np.round(g.W))
        cut = g.cut_function()
        for a in range(1 << g.n):
            want = ref.cut_weight(g, a)
            assert _typed(cut(a)) == _typed(Fraction(int(round(want))) if exact else want)
        n6 = g.n <= 6
        for k in range(1, min(g.n, 3 if n6 else 2) + 1):
            assert _fields(cst.k_way_cheeger(g, k)) == _fields(ref.k_way_cheeger_loop(g, k))
        for k in range(1, g.n // 2 + 1 if n6 else 2):
            assert _fields(cst.dual_cheeger_k(g, k)) == _fields(ref.dual_cheeger_loop(g, k))
        got, want = cst.maxcut(g), ref.maxcut_loop(g)
        assert [_typed(v) for v in vars(got).values()] == [_typed(v) for v in vars(want).values()]
        assert _typed(cst.motzkin_straus(g).max_subset_density) == \
            _typed(ref.subset_density_loop(g))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(2, 5), st.data())
    def check_complex(nv, data):
        faces = [list(c) for r in (2, 3) for c in combinations(range(nv), r)]
        K = SimplicialComplex(data.draw(st.lists(st.sampled_from(faces), min_size=1,
                                                 max_size=4)))
        for d in range(K.dim):
            nd = K.count(d)
            for k in range(1, min(nd, 2 if nd <= 6 else 1) + 1):
                assert _fields(cst.simplicial_cheeger(K, d, k)) == \
                    _fields(ref.simplicial_cheeger_loop(K, d, k))

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 8), st.integers(2, 4), st.data())
    def check_hypergraph(n, k, data):
        edges = data.draw(st.lists(st.sampled_from(list(combinations(range(n), k)) or [()]),
                                   max_size=8, unique=True))
        edges = [e for e in edges if e]
        rep = cst.hypergraph_lagrangian(n, edges)
        best, wit = ref.lagrangian_density_loop(n, edges)
        assert (_typed(rep.discrete_value), _typed(rep.discrete_witness)) == \
            (_typed(best), _typed(wit))

    check_graph()
    check_complex()
    check_hypergraph()


def test_kway_dual_and_simplicial_reject_a_k_they_cannot_take():
    # k < 1, or more blocks than vertices or simplices: no family exists,
    # which used to report a value of None (or, for k_way, only k > n raised)
    p3, edge = WeightedGraph.path(3), SimplicialComplex([[0, 1]])
    for call in (lambda: cst.k_way_cheeger(p3, 0), lambda: cst.k_way_cheeger(p3, 4),
                 lambda: cst.dual_cheeger_k(p3, 0), lambda: cst.dual_cheeger_k(p3, 2),
                 lambda: cst.simplicial_cheeger(edge, 0, 0),
                 lambda: cst.simplicial_cheeger(edge, 0, 3)):
        with pytest.raises(ValueError, match="blocks"):
            call()
    assert cst.dual_cheeger_k(p3, 1).value == 1
    assert cst.simplicial_cheeger(edge, 0, 2).value is not None


def test_near_integral_weights_give_cut_over_vol():
    # 10000.09 is allclose to 10000 but not an integer: every value is the
    # float cut / vol, not a ratio of rounded sums (a cut of 60000.54 once
    # read 60001)
    from itertools import product
    from math import fsum
    W = np.array([[0, 10000.09, 10000.09, 30000.27],
                  [10000.09, 0, 20000.18, 0],
                  [10000.09, 20000.18, 0, 10000.09],
                  [30000.27, 0, 10000.09, 0]])
    assert np.allclose(W, np.round(W))
    g, n = WeightedGraph(W), 4
    deg = [fsum(row) for row in W]

    def cut(S):
        return fsum(W[i, j] for i in S for j in range(n) if j not in S)

    def vol(S):
        return fsum(deg[i] for i in S)

    def blocks_of(k):                   # label 0: in no block
        for lab in product(range(k + 1), repeat=n):
            blocks = [[i for i in range(n) if lab[i] == b] for b in range(1, k + 1)]
            if all(blocks):
                yield blocks

    h = min(cut(A) / min(vol(A), vol([i for i in range(n) if i not in A]))
            for (A,) in blocks_of(1) if len(A) < n)
    h2 = min(max(cut(S) / vol(S) for S in bs) for bs in blocks_of(2))
    dual = max(2 * fsum(W[i, j] for i in bs[0] for j in bs[1]) / vol(bs[0] + bs[1])
               for bs in blocks_of(2))
    for rep, want in ((cst.cheeger(g), h), (cst.k_way_cheeger(g, 2), h2),
                      (cst.dual_cheeger_k(g, 1), dual)):
        assert not isinstance(rep.value, Fraction), rep.variant
        assert abs(rep.value - want) <= 1e-12 * want, (rep.variant, rep.value, want)


def test_kway_and_dual_float_blocks_of_zero_volume():
    # the path 1-2-3 (weights 1.5, 0.5) and the isolated vertex 0: the block
    # {0} has cut 0 and volume 0, which counts as 0 as in the integral path,
    # so h_2 = 0 on blocks ({0}, {1, 2, 3}) like the doubled graph's
    import warnings
    W = np.zeros((4, 4))
    W[1, 2] = W[2, 1] = 1.5
    W[2, 3] = W[3, 2] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (WeightedGraph(W), WeightedGraph(2 * W)):
            rep = cst.k_way_cheeger(g, 2)
            assert rep.value == 0 and rep.optimal_sets == [(1, 14)]
            dual = cst.dual_cheeger_k(g, 1)
            assert dual.value == 1 and dual.optimal_sets == [[(11, 4)]]


def test_simplicial_cheeger_balanced_zero():
    # path complex at d = 0: the anti-signed graph is an all-negative tree,
    # balanced, so h_1(S_0) = 0
    K = SimplicialComplex([[0, 1], [1, 2]])
    rep = cst.simplicial_cheeger(K, 0, 1)
    assert rep.value == 0


def test_simplicial_cheeger_hollow_triangle_positive():
    K = SimplicialComplex([[0, 1], [1, 2], [0, 2]])
    rep = cst.simplicial_cheeger(K, 0, 1)
    assert rep.value > 0


def test_simplicial_cheeger_balance_iff_zero():
    # h_1(S_d) = 0 iff the anti-signed graph has a balanced component
    rng = np.random.default_rng(8)
    from itertools import combinations
    for _ in range(8):
        tris = [c for c in combinations(range(5), 3) if rng.random() < 0.4]
        if not tris:
            continue
        K = SimplicialComplex(tris)
        if K.count(1) > 9:
            continue
        G = K.anti_signed_graph(1)
        deg = K.up_degrees(1)
        keep = [i for i in range(K.count(1)) if deg[i] > 0]
        from homext.structures import SignedGraph
        bal, _ = SignedGraph(G.W[np.ix_(keep, keep)]).balanced_components()
        rep = cst.simplicial_cheeger(K, 1, 1)
        assert (rep.value == 0) == (bal >= 1), (tris, rep.value, bal)


def test_simplicial_kway_monotone():
    K = SimplicialComplex([[0, 1], [1, 2], [0, 2], [2, 3]])
    h1 = cst.simplicial_cheeger(K, 0, 1).value
    h2 = cst.simplicial_cheeger(K, 0, 2).value
    assert h1 <= h2


def test_simplicial_h_full_triangle():
    # boundary of a triangle with the 2-cell: first nontrivial up value on
    # edges; the multiset bound family must upper-bound the exact value
    K = SimplicialComplex([[0, 1, 2]])
    rep = cst.simplicial_h(K, 1, n_list=(1, 2))
    from homext import spectra
    B = K.boundary_matrix(2)
    D = np.diag(K.up_degrees(1))
    w, _ = spectra.quadratic_pair_spectrum(B @ B.T, D)
    # h(S_d) values dominate nothing exact here; check the family is
    # monotone in N and stays positive (H^1 of the full triangle vanishes)
    assert rep.per_n[2] <= rep.per_n[1] + 1e-12
    assert rep.value > 0


def test_down_cheeger_runs():
    K = SimplicialComplex([[0, 1, 2], [1, 2, 3]])
    rep = cst.down_cheeger(K, 1, n_list=(1,))
    assert rep.value > 0


def test_nodal_domains_counts():
    p3 = WeightedGraph.path(3)
    assert cst.nodal_domains(np.array([1.0, 1.0, 1.0]), p3) == 1
    assert cst.nodal_domains(np.array([1.0, 0.0, -1.0]), p3) == 2
    assert cst.nodal_domains(np.zeros(3), p3) == 0


def test_nodal_domains_are_the_components_of_the_support():
    # against networkx on the induced subgraph; one vertex, isolated
    # vertices and an empty support included
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nx = pytest.importorskip("networkx")
    one, empty3 = WeightedGraph(np.zeros((1, 1))), WeightedGraph(np.zeros((3, 3)))
    assert cst.nodal_domains(np.ones(1), one) == 1
    assert cst.nodal_domains(np.zeros(1), one) == 0
    assert cst.nodal_domains(np.array([1.0, -1.0, 2.0]), empty3) == 3
    assert cst.nodal_domains(np.array([1e-12, 0.0, -1e-10]), WeightedGraph.path(3)) == 0

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(st.integers(1, 8), st.data())
    def check(n, data):
        pairs = list(combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        x = np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-12, 1.0, -1.0, 0.5]),
                                        min_size=n, max_size=n)))
        g = WeightedGraph.from_edges(n, edges)
        G = nx.Graph(edges)
        G.add_nodes_from(range(n))
        support = [i for i in range(n) if abs(x[i]) > 1e-9]
        assert cst.nodal_domains(x, g) == nx.number_connected_components(G.subgraph(support))

    check()


def test_disjoint_families_keep_the_reference_order():
    # witnesses are the first best family, so the order is part of every
    # k-way and dual Cheeger result
    from reference_constants import _disjoint_tuples
    for n in range(1, 8):
        for k in range(1, 5):
            assert list(cst._disjoint_families(full_mask(n), k)) == list(_disjoint_tuples(n, k))


def test_caps_raise():
    with pytest.raises(CapExceeded):
        cst.cheeger(WeightedGraph.complete(21))
    with pytest.raises(CapExceeded):
        cst.k_way_cheeger(WeightedGraph.complete(13), 2)
