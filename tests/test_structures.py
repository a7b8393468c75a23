"""Carriers: boundary matrices, anti-signed graphs, balance, Huang signing,
hypercubes and adjacency tensors."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from homext import constants as cst
from homext.setfn import mask_of
from homext.structures import (ChemicalHypergraph, SignedGraph,
                               SimplicialComplex, SymmetricTensor,
                               WeightedGraph, adjacency_tensor,
                               huang_signing, hypercube, signed_components)

from reference_structures import (as_set_function, boundary_edges, chemical_from_graph,
                                  full_form, ordered_edge_count_loop, vol)


def test_boundary_triangle_column():
    K = SimplicialComplex([[0, 1, 2]])
    B2 = K.boundary_matrix(2)
    # edges in lexicographic order: (0,1), (0,2), (1,2)
    assert K.simplices[1] == [(0, 1), (0, 2), (1, 2)]
    assert list(B2[:, 0]) == [1, -1, 1]


def test_boundary_single_edge():
    K = SimplicialComplex([[0, 1]])
    B1 = K.boundary_matrix(1)
    assert list(B1[:, 0]) == [-1, 1]


def test_boundary_composition_vanishes_tetrahedron():
    K = SimplicialComplex([[0, 1, 2, 3]])
    B2 = K.boundary_matrix(2)
    B3 = K.boundary_matrix(3)
    assert np.all(B2 @ B3 == 0)
    B1 = K.boundary_matrix(1)
    assert np.all(B1 @ B2 == 0)


def test_boundary_composition_random_complexes():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = 6
        tris = [c for c in combinations(range(n), 3) if rng.random() < 0.4]
        if not tris:
            tris = [(0, 1, 2)]
        K = SimplicialComplex(tris)
        assert np.all(K.boundary_matrix(1) @ K.boundary_matrix(2) == 0)


def test_anti_signed_hollow_triangle_all_negative():
    K = SimplicialComplex([[0, 1], [1, 2], [0, 2]])
    G = K.anti_signed_graph(0)
    for i, j in combinations(range(3), 2):
        assert G.W[i, j] == -1


def test_anti_signed_path_negative_edges():
    K = SimplicialComplex([[0, 1], [1, 2]])
    G = K.anti_signed_graph(0)
    assert G.W[0, 1] == -1 and G.W[1, 2] == -1 and G.W[0, 2] == 0


def test_anti_signed_full_triangle_edge_level():
    K = SimplicialComplex([[0, 1, 2]])
    G = K.anti_signed_graph(1)
    # B2 column (+1,-1,+1): pairwise products (-1,+1,-1)
    assert G.W[0, 1] == -1
    assert G.W[0, 2] == 1
    assert G.W[1, 2] == -1


def test_anti_signed_degree_consistency():
    rng = np.random.default_rng(1)
    for _ in range(5):
        tris = [c for c in combinations(range(6), 3) if rng.random() < 0.35]
        if not tris:
            continue
        K = SimplicialComplex(tris)
        d = 1
        deg_up = K.up_degrees(d)
        G = K.anti_signed_graph(d)
        neighbor_count = (G.W != 0).sum(axis=1)
        assert np.all(neighbor_count == (d + 1) * deg_up)


def test_restricted_up_pair_keeps_the_simplices_with_a_coface():
    # a triangle, an edge and a vertex: at d = 0 the isolated vertex 4 is
    # dropped, at d = 1 the edge (2, 3); above and below there is no pair
    K = SimplicialComplex([[0, 1, 2], [2, 3], [4]])
    for d in (-1, 2, 3):
        assert K.restricted_up_pair(d) is None
    for d in (0, 1):
        keep, B, deg, W = K.restricted_up_pair(d)
        assert keep == [i for i, t in enumerate(K.up_degrees(d)) if t > 0]
        assert np.array_equal(B, K.boundary_matrix(d + 1)[keep, :])
        assert np.array_equal(deg, K.up_degrees(d)[keep])
        assert np.array_equal(W, K.anti_signed_graph(d).W[np.ix_(keep, keep)])
    assert K.restricted_up_pair(0)[0] == [0, 1, 2, 3]
    assert K.restricted_up_pair(1)[0] == [0, 1, 2]


def test_balance_all_positive():
    G = SignedGraph(WeightedGraph.complete(4).W)
    count, _ = G.balanced_components()
    assert count == 1


def test_balance_one_negative_triangle_edge():
    W = WeightedGraph.complete(3).W.copy()
    W[0, 1] = W[1, 0] = -1
    count, _ = SignedGraph(W).balanced_components()
    assert count == 0


def test_balance_all_negative_tree():
    W = -WeightedGraph.path(4).W
    count, _ = SignedGraph(W).balanced_components()
    assert count == 1


def test_balance_switching_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        base = WeightedGraph.erdos_renyi(6, 0.5, rng).W
        signs = rng.choice([-1.0, 1.0], size=base.shape)
        W = np.triu(base * signs, 1)
        W = W + W.T
        G = SignedGraph(W)
        count, _ = G.balanced_components()
        s = rng.choice([-1, 1], size=6)
        count2, _ = SignedGraph(W * np.outer(s, s)).balanced_components()
        assert count == count2


def _signed_graphs(st, n_max):
    """Symmetric signed weight tables on 1..n_max vertices, zeros common, so
    isolated vertices and several components occur."""
    @st.composite
    def draw(draw):
        n = draw(st.integers(1, n_max))
        vals = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.5, -0.5]),
                             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        W = np.zeros((n, n))
        for (i, j), w in zip(combinations(range(n), 2), vals):
            W[i, j] = W[j, i] = w
        return W
    return draw()


def test_signed_components_match_networkx_and_every_switching():
    # components and bipartite sides against networkx; balance against a
    # brute force over every +-1 switching of each component
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    nx = pytest.importorskip("networkx")

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(_signed_graphs(st, 7))
    def check(W):
        n = W.shape[0]
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from((i, j) for i, j in combinations(range(n), 2) if W[i, j])
        want = sorted((sorted(c) for c in nx.connected_components(G)), key=min)
        comps = signed_components(W)
        assert [sorted(comp) for comp, _, _ in comps] == want
        g = WeightedGraph(np.abs(W))
        assert g.components() == [mask_of(c) for c in want]
        assert g.is_connected() == (len(want) == 1)
        balanced = 0
        for comp, sign, witness in comps:
            root, rest = comp[0], comp[1:]
            assert root == min(comp) and list(sign) == comp and sign[root] == 1
            # each vertex is found from one found before it
            assert all(any(W[v, u] for u in comp[:t + 1]) for t, v in enumerate(rest))
            edges = [(i, j) for i, j in combinations(sorted(comp), 2) if W[i, j]]
            switchings = [dict(zip(comp, (1,) + t)) for t in product((1, -1), repeat=len(rest))]
            found = [s for s in switchings if all(W[i, j] * s[i] * s[j] > 0 for i, j in edges)]
            if found:
                balanced += 1
                assert witness is None and found == [sign]
            else:
                assert witness in edges and sign[witness[0]] * sign[witness[1]] * W[witness] < 0
        count, details = SignedGraph(W).balanced_components()
        assert count == balanced and [m for m, _ in details] == [mask_of(c) for c in want]
        flag, side = g.is_bipartite()
        assert flag == nx.is_bipartite(G)
        if flag:
            colour = nx.bipartite.color(G)
            assert side == mask_of(v for v in range(n)
                                   if colour[v] == colour[min(nx.node_connected_component(G, v))])
        else:
            assert side is None

    check()


def test_huang_signing_squares():
    for m in (1, 2, 3):
        Wp = huang_signing(m)
        assert np.all(Wp @ Wp == m * np.eye(2 ** m, dtype=np.int64))
        assert np.all(np.abs(Wp) == (hypercube(m).W != 0))


def test_hypercube_counts():
    g2 = hypercube(2)
    assert g2.n == 4 and len(g2.edges()) == 4   # 4-cycle
    g3 = hypercube(3)
    assert g3.n == 8 and len(g3.edges()) == 12
    assert np.all(g3.degrees == 3)


def test_hypercube_is_the_popcount_adjacency():
    for m in range(1, 7):
        i = np.arange(1 << m)
        want = (np.bitwise_count(i[:, None] ^ i[None, :]) == 1).astype(float)
        assert hypercube(m).W.tobytes() == want.tobytes()


def test_adjacency_tensor_matrix_case():
    g = WeightedGraph.path(3)
    T = adjacency_tensor(3, [(i, j) for i, j, _ in g.edges()], k=2)
    M = np.array([[T[i, j] for j in range(3)] for i in range(3)])
    assert np.all(M == g.W)


def test_adjacency_tensor_single_hyperedge_diagonal():
    T = adjacency_tensor(3, [(0, 1, 2)])
    ones = np.ones(3)
    assert full_form(T, ones) == 6.0    # 3! orderings
    f = as_set_function(T)
    from homext.extend import diagonal
    from fractions import Fraction
    assert diagonal(f, [Fraction(1)] * 3) == 6


def test_adjacency_tensor_empty():
    T = SymmetricTensor(3, 4)
    assert full_form(T, np.ones(4)) == 0.0


def test_tensor_apply_matches_full_form_euler():
    # <C x^{k-1}, x> equals the full multilinear form (Euler identity)
    rng = np.random.default_rng(3)
    T = adjacency_tensor(5, [(0, 1, 2), (1, 2, 3), (0, 3, 4)])
    for _ in range(10):
        x = rng.normal(size=5)
        assert np.isclose(T.apply(x) @ x, full_form(T, x))


def test_tensor_symmetry_lookup():
    T = SymmetricTensor(3, 4)
    T[(2, 0, 1)] = 5.0
    assert T[(1, 2, 0)] == 5.0


def test_chemical_hypergraph_graph_boundary():
    g = WeightedGraph.path(3)
    H = chemical_from_graph(g)
    A = mask_of([0])
    assert boundary_edges(H, A) == 1
    assert vol(H, A) == 1.0


def test_chemical_hypergraph_directed_edge():
    H = ChemicalHypergraph(2, [(mask_of([0]), mask_of([1]))])
    assert boundary_edges(H, mask_of([0])) == 1
    # the output alone sits inside, with inputs outside
    assert boundary_edges(H, mask_of([1])) == 1


def test_chemical_hypergraph_validation():
    with pytest.raises(ValueError):
        ChemicalHypergraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        ChemicalHypergraph(2, [(1, 1)])


def test_closure_of_triangle():
    K = SimplicialComplex([[0, 1, 2]])
    assert K.count(0) == 3 and K.count(1) == 3 and K.count(2) == 1


def test_signed_up_graph_spectral_relation():
    # the signed up graph is the negated anti-signed graph, so their
    # normalized spectra are reflections around 1
    from homext import spectra
    K = SimplicialComplex([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
    G = K.anti_signed_graph(1)
    Gup = SignedGraph(-G.W)
    D = np.diag(np.abs(G.W).sum(axis=1))
    wa, _ = spectra.quadratic_pair_spectrum(D - G.W, D)
    D2 = np.diag(np.abs(Gup.W).sum(axis=1))
    wb, _ = spectra.quadratic_pair_spectrum(D2 - Gup.W, D2)
    assert np.allclose(np.sort(wa), np.sort(2.0 - wb[::-1]), atol=1e-9)


def test_ordered_edge_count_matches_the_double_loop():
    # integral weights give Fractions; other weights the float sum, an
    # np.float64 when A and B are nonempty and 0.0 when either is empty
    rng = np.random.default_rng(5)
    W = np.triu(rng.uniform(0.0, 2.0, size=(5, 5)) * (rng.random((5, 5)) < 0.7), 1)
    graphs = [WeightedGraph.path(4), WeightedGraph.erdos_renyi(5, 0.6, rng),
              WeightedGraph(2 * WeightedGraph.path(3).W), WeightedGraph(W + W.T),
              WeightedGraph(0.5 * WeightedGraph.path(4).W)]
    for g in graphs:
        f, ref = g.ordered_edge_count(), ordered_edge_count_loop(g)
        for a in range(1 << g.n):
            for b in range(1 << g.n):
                got, want = f(a, b), ref(a, b)
                assert (type(got), repr(got)) == (type(want), repr(want)), (g.W, a, b)


def test_near_integral_weights_keep_float_set_functions():
    # 10000.09 is allclose to 10000 but not an integer: the cut function and
    # the ordered edge count give the float sums, not rounded Fractions
    W = np.array([[0, 10000.09, 0], [10000.09, 0, 20000.18], [0, 20000.18, 0]])
    g = WeightedGraph(W)
    cut, count = g.cut_function(), g.ordered_edge_count()
    table = cst._tables(g.W, g.degrees)[0]
    for a in range(1, 8):
        assert type(cut(a)) is not Fraction and cut(a) == table[a]
    assert type(count(0b001, 0b010)) is not Fraction
    assert count(0b001, 0b010) == 10000.09 and count(0b010, 0b111) == 10000.09 + 20000.18
    assert not g.integral and WeightedGraph(np.round(W)).integral
