"""Duality, inertia bounds, the signed hypercube, and clique programs.

Operator norms agree with their transposed duals; independence numbers
are bounded by eigenvalue counts; the recursive hypercube signing squares
to m * I and forces the degree bound sqrt(m) on half-plus-one induced
subgraphs; the Motzkin-Straus program and the clique-hypergraph
Lagrangian reproduce their clique values.
"""

import numpy as np

from homext import constants as cst
from homext.spectra import (collatz_wielandt_max, duality_spectrum_check,
                            jacobi_eigh, quadratic_pair_spectrum)
from homext.structures import WeightedGraph, huang_signing, hypercube

print(__doc__)

rng = np.random.default_rng(5)
T = rng.normal(size=(3, 4))
for (p, q) in [(2.0, 2.0), (2.0, np.inf), (1.0, 2.0)]:
    rep = duality_spectrum_check(T, p, q)
    print(f"||T x||_{p} / ||x||_{q}: primal {rep.primal:.8f}  "
          f"dual {rep.dual:.8f}  gap {rep.gap:.1e}")

print("\nCollatz-Wielandt on the path graph:",
      f"{collatz_wielandt_max(WeightedGraph.path(3).W).lam:.10f} = sqrt(2)")

print("\ninertia bound on a random graph (normalized Laplacian, level 1):")
while True:
    g = WeightedGraph.erdos_renyi(8, 0.5, rng)
    if g.is_connected():
        break
alpha, _ = cst.independence_number(g)
w, _ = quadratic_pair_spectrum(g.laplacian(), np.diag(g.degrees))
le = int(np.sum(w <= 1 + 1e-9))
ge = int(np.sum(w >= 1 - 1e-9))
print(f"  alpha = {alpha} <= min(#{{lam <= 1}} = {le}, #{{lam >= 1}} = {ge})")

print("\nsigned hypercube:")
for m in (2, 3):
    Wp = huang_signing(m)
    print(f"  m = {m}: W'^2 == {m} I exactly:",
          bool(np.array_equal(Wp @ Wp, m * np.eye(2 ** m, dtype=np.int64))))
cube = hypercube(3)
from itertools import combinations
worst = min(max(sum(1 for u in verts if cube.W[v, u]) for v in verts)
            for verts in combinations(range(8), 5))
print(f"  every 5-vertex induced subgraph of the 3-cube has max degree "
      f">= sqrt(3): {worst} >= {np.sqrt(3):.3f}")

print("\nMotzkin-Straus and the clique-hypergraph Lagrangian:")
g = WeightedGraph.complete(4)
ms = cst.motzkin_straus(g)
print(f"  K4: ascent {ms.ascent_value:.8f} = 1 - 1/4")
he = cst.clique_hypergraph(g, 3)
lag = cst.hypergraph_lagrangian(4, he)
print(f"  3-cliques of K4: subset max {lag.discrete_value} "
      f"= ascent {lag.ascent_value:.8f}")
