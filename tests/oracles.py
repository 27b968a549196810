"""Independent oracles the tests check the library against.

Each is written apart from the code it checks, with its own arithmetic,
so that an agreement means something:

- ``reference_omp_smv``, plain single-vector orthogonal matching
  pursuit, against the joint solver at L = 1;
- ``perturbation_magnitude_for_mode``, the magnitude's per-mode formulas
  coded on their own, against ``perturbation_magnitude``.
"""

from __future__ import annotations

import math

import numpy as np

from somplab import (
    MODES,
    DomainError,
    IterationTrace,
    PreconditionViolated,
    RecoveryResult,
    perturbation_magnitude,
)
from somplab.model import _sparsity, as_matrix, as_support
from somplab.solver import RESIDUAL_STOP_TOL


def reference_omp_smv(y, Phi, k: int) -> RecoveryResult:
    """Plain single-vector orthogonal matching pursuit, written separately.

    Serves as an independent cross-check of the joint solver in the
    L = 1 case: same smallest-index tie-break, same relative residual
    stopping rule, but its own selection arithmetic (absolute
    correlations) and its own least-squares routine.  Unlike the solver
    it works at the inputs' own scale, so its answers are exact only
    while the squares it forms stay normal doubles: with y at 1e-170,
    ||y||^2 underflows and it stops as "zero-residual" before a pick.
    A ||y|| that overflows as computed is refused.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    y = np.asarray(y, dtype=float)
    if y.ndim == 2:
        if y.shape[1] != 1:
            raise PreconditionViolated("reference solver handles a single measurement vector")
        y = y[:, 0]
    if y.ndim != 1 or y.size != Phi.shape[0]:
        raise PreconditionViolated(f"vector of length {y.size} against {Phi.shape[0]} rows")
    m, n = Phi.shape
    k = _sparsity(k, m, n)

    with np.errstate(over="ignore"):
        y_norm = float(np.linalg.norm(y))
    if not math.isfinite(y_norm):
        raise PreconditionViolated("the norm of the measurements overflows double precision")
    stop_at = RESIDUAL_STOP_TOL * y_norm
    r = y.copy()
    x = np.zeros(n)
    picked: list[int] = []
    tables, filters, rnorms, ranks = [], [], [], []
    stopped = None
    for _ in range(k):
        if float(np.linalg.norm(r)) <= stop_at:
            stopped = "zero-residual"
            break
        c = Phi.T @ r
        scores = np.abs(c)
        j = int(np.argmax(scores))
        picked.append(j)
        sol, _res, rank, _sv = np.linalg.lstsq(Phi[:, picked], y, rcond=None)
        x = np.zeros(n)
        x[picked] = sol
        r = y - Phi[:, picked] @ sol
        tables.append(scores)
        filters.append(c[:, None])
        rnorms.append(float(np.linalg.norm(r)))
        ranks.append(rank < len(picked))
    trace = IterationTrace(
        selected=tuple(picked),
        score_tables=tuple(tables),
        filter_matrices=tuple(filters),
        residual_norms=tuple(rnorms),
        initial_residual_norm=y_norm,
        rank_deficient=tuple(ranks),
    )
    return RecoveryResult(support=as_support(picked, n), signal=x[:, None],
                          trace=trace, terminated_early=stopped)


def perturbation_magnitude_for_mode(mode: str, spectral_phi: float, frob_y: float,
                                    eps0: float = 0.0, eps: float = 0.0,
                                    epsb: float = 0.0) -> float:
    """Perturbation magnitude specialized per mode.

    The single-sided formulas are coded on their own (not by delegating
    with zeroed levels), and agree exactly with ``perturbation_magnitude``
    when the complementary levels vanish.  The library evaluates
    ``perturbation_magnitude`` in every mode; this is its test oracle.
    """
    if mode == "noiseless":
        return 0.0
    if mode == "measurement":
        return float(epsb) * float(spectral_phi) * float(frob_y)
    if mode == "sensing":
        spectral_phi = float(spectral_phi)
        frob_y = float(frob_y)
        eps = float(eps)
        denom = 12.0 - 8.0 * (1.0 + eps) ** 2
        if not denom > 0:
            raise DomainError(f"eps = {eps} >= sqrt(1.5) - 1: magnitude undefined")
        rip_term = (9.0 * (2.0 + eps) * eps / denom) \
            * (spectral_phi ** 4 + (2.0 / 3.0) * spectral_phi ** 2) * spectral_phi * frob_y
        return rip_term + float(eps0) * spectral_phi * frob_y
    if mode == "general":
        return perturbation_magnitude(spectral_phi, frob_y, eps0, eps, epsb)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
