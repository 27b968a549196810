"""Evaluate the sufficient recovery condition before running the solver.

The condition compares an exact isometry constant against a threshold
that shrinks as perturbations grow.  When it holds, full support
recovery is certified in advance and the refit error is bounded.
"""

import math

import numpy as np

from somplab import (
    PerturbationLevels,
    check_guarantee,
    coherent_pair_matrix,
    error_amplification,
    recovery_threshold,
    ric_exact,
)

# the clean threshold depends only on sparsity ...
for k in (1, 2, 4):
    print(f"k = {k}: clean threshold = {recovery_threshold(k, math.inf):.6f}")

# ... and tightens once the weakest signal row has to fight noise
print("k = 2, row floor / noise = 10:", recovery_threshold(2, 10.0))
print("k = 2, row floor / noise = 2: ", recovery_threshold(2, 2.0))

# the error amplification factor blows up near its domain edge
for w in (0.1, 0.3, 0.5, 0.9):
    print(f"amplification at threshold ratio {w}: {error_amplification(w):.4f}")

# a full check on a concrete matrix, mode by mode
Phi = coherent_pair_matrix(8, 0.1)
X = np.zeros((8, 2))
X[0] = [2.0, 1.0]
X[5] = [1.0, -2.0]
Y = Phi @ X
delta = ric_exact(Phi, 3)
print("delta_3 =", delta.delta)

noiseless = check_guarantee(Phi, None, None, 2, None, delta, mode="noiseless")
print("noiseless:", "holds" if noiseless.verdict == "pass" else "fails",
      "(threshold", f"{noiseless.q_threshold:.6f})")

levels = PerturbationLevels(eps0=1e-4, eps=1e-4, epsb=1e-3, order=2)
general = check_guarantee(Phi, Y, 2.0, 2, levels, delta, mode="general")
print("general: ", "holds" if general.verdict == "pass" else "fails",
      "(eps_h", f"{general.eps_h:.3e},",
      "error bound", f"{general.error_bound:.3e})")
assert general.verdict == "pass"

# crank the observation noise and the verdict flips to unsatisfiable:
# no isometry constant could certify recovery at this noise level
loud = PerturbationLevels(eps0=0.0, eps=0.0, epsb=80.0, order=2)
hopeless = check_guarantee(Phi, Y, 2.0, 2, loud, delta, mode="general")
print("very noisy:", hopeless.note)
assert hopeless.q_threshold is None
