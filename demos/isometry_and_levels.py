"""Exact restricted isometry constants and measured perturbation sizes.

The constant accounts for every column subset of the given order, so it
is exact, and only practical for small matrices.  Most subsets are
ruled out by cheap eigenvalue bounds, and on larger shapes most are
never even listed; the count of examined subsets still covers them all.
The same machinery measures how large a perturbation is relative to the
matrix it lands on.
"""

import numpy as np

from somplab import (
    coherent_pair_matrix,
    low_coherence_frame,
    measure_perturbation_levels,
    ric_exact,
)

# a matrix with exactly one coherent column pair has a known constant:
# at order 2 it equals the planted inner product
for rho in (0.1, 0.3, 0.5):
    A = coherent_pair_matrix(8, rho)
    est = ric_exact(A, 2)
    print(f"planted coherence {rho}: delta_2 = {est.delta:.12f}, "
          f"witness = {est.witness_subset}")
    assert abs(est.delta - rho) <= 1e-12

# random unit-norm columns do far worse than an optimized frame
rng = np.random.Generator(np.random.PCG64(3))
G = rng.standard_normal((20, 25))
G /= np.linalg.norm(G, axis=0)
F = low_coherence_frame(20, 25, seed=3)
print("order-3 constant, raw gaussian:  ", ric_exact(G, 3).delta)
print("order-3 constant, tuned frame:   ", ric_exact(F, 3).delta)

# the witness subset attains the constant, and the count of examined
# subsets is reported so budget overruns are predictable
est = ric_exact(F, 3)
print("witness:", est.witness_subset, "subsets examined:", est.subsets_examined)

# perturbation levels are measured, never assumed: eps0 compares whole
# spectral norms, eps is the worst submatrix ratio up to the given order,
# epsb compares observation energies
Phi = F
E = 1e-3 * rng.standard_normal(Phi.shape)
Y = Phi @ rng.standard_normal((25, 2))
B = 1e-2 * rng.standard_normal(Y.shape)
levels = measure_perturbation_levels(Phi, E, Y, B, order=3)
print("eps0 =", levels.eps0)
print("eps  =", levels.eps, "(worst submatrix of width <= 3)")
print("epsb =", levels.epsb)
# eps usually exceeds eps0 because narrow submatrices amplify the ratio,
# but neither ordering is guaranteed; both are measurements

