"""Greedy joint-sparse recovery by simultaneous orthogonal matching pursuit.

One index enters the active set per iteration: the row of the matched
filter Phi^T R whose Euclidean norm is largest (ties go to the smallest
index).  The estimate is then re-fit by least squares restricted to the
active columns and the residual recomputed against the full measurement
set, which keeps the residual orthogonal to everything selected so far.

The solver is given one sensing matrix and uses it for both selection
and fitting; whether that matrix is a clean or a perturbed observation
is the caller's concern.  ``solve_perturbed`` exists so call sites that
operate on perturbed observations say so explicitly and get a trace
labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySupport, InvalidSparsity
from .model import SupportSet, as_matrix, as_support, truncated_svd


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs for the greedy loop.

    ``residual_stop_tol`` stops iteration once the residual Frobenius
    norm falls to that fraction of the measurements' norm, which keeps
    the selection step away from numerically empty residuals.
    ``rank_tol`` is the relative singular-value cutoff of the restricted
    least-squares fit.
    """

    residual_stop_tol: float = 1e-12
    rank_tol: float = 1e-12

    def __post_init__(self):
        if self.residual_stop_tol < 0 or self.rank_tol < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class SupportFit:
    """Least-squares fit restricted to a support, with rank bookkeeping."""

    signal: np.ndarray   # n x L, exactly zero off the support
    rank: int
    rank_deficient: bool


@dataclass(frozen=True)
class IterationTrace:
    """Everything the greedy loop saw, one entry per executed iteration.

    ``score_tables[i]`` holds all n match scores of iteration i + 1, so
    the scores at already-selected indices (which must vanish) can be
    audited afterwards.  ``filter_matrices[i]`` is the full n x L
    matched filter the scores were taken from, kept so perturbed and
    clean runs can be compared filter-by-filter.
    """

    label: str
    selected: tuple[int, ...]
    score_tables: tuple[np.ndarray, ...]
    filter_matrices: tuple[np.ndarray, ...]
    residual_norms: tuple[float, ...]
    initial_residual_norm: float
    rank_deficient: tuple[bool, ...]


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of a greedy solve.

    ``support`` is sorted ascending; the selection order lives in
    ``trace.selected``.  ``terminated_early`` is None when all requested
    iterations ran, else a short reason ("zero-residual").
    """

    support: SupportSet
    signal: np.ndarray
    trace: IterationTrace
    terminated_early: str | None


def match_scores(R, Phi) -> np.ndarray:
    """Match score of every column index against a residual.

    Score j is the Euclidean norm of row j of Phi^T R, i.e. the joint
    correlation of column j with all residual channels at once.
    """
    R = as_matrix(R, "residual")
    Phi = as_matrix(Phi, "sensing matrix")
    if R.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(f"residual has {R.shape[0]} rows, sensing matrix {Phi.shape[0]}")
    return np.linalg.norm(Phi.T @ R, axis=1)


def least_squares_on_support(Y, Phi, support, rank_tol: float = 1e-12) -> SupportFit:
    """Least-squares signal estimate restricted to the given support.

    Solves min ||Y - Phi Z||_F over signals supported on ``support`` via
    a singular value decomposition of the selected columns, truncating
    singular values at ``rank_tol`` times the largest one.  Rows outside
    the support are exactly zero in the returned signal.  A truncated
    (rank-deficient) fit is flagged, not an error.
    """
    Y = as_matrix(Y, "measurements")
    Phi = as_matrix(Phi, "sensing matrix")
    if Y.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(f"measurements have {Y.shape[0]} rows, sensing matrix {Phi.shape[0]}")
    n = Phi.shape[1]
    support = as_support(support, n)
    if not support:
        raise EmptySupport("least-squares fit needs a nonempty support")
    U, s, Vt = truncated_svd(Phi[:, support], rank_tol)
    Z = np.zeros((n, Y.shape[1]))
    Z[list(support)] = Vt.T @ ((U.T @ Y) / s[:, None])
    return SupportFit(signal=Z, rank=len(s), rank_deficient=len(s) < len(support))


def _greedy_solve(Y, Phi, k, opts, label):
    Y = as_matrix(Y, "measurements")
    Phi = as_matrix(Phi, "sensing matrix")
    if Y.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(f"measurements have {Y.shape[0]} rows, sensing matrix {Phi.shape[0]}")
    m, n = Phi.shape
    if int(k) != k or not 1 <= int(k) <= min(m, n):
        raise InvalidSparsity(f"sparsity {k} outside 1..min({m}, {n})")
    k = int(k)
    opts = opts if opts is not None else SolverOptions()

    y_norm = float(np.linalg.norm(Y))
    stop_at = opts.residual_stop_tol * y_norm
    R = Y
    Z = np.zeros_like(Y, shape=(n, Y.shape[1]))
    selected: list[int] = []
    score_tables: list[np.ndarray] = []
    filters: list[np.ndarray] = []
    residual_norms: list[float] = []
    ranks: list[bool] = []
    terminated_early = None

    for _ in range(k):
        r_norm = residual_norms[-1] if residual_norms else y_norm
        if r_norm <= stop_at:
            terminated_early = "zero-residual"
            break
        H = Phi.T @ R
        scores = np.linalg.norm(H, axis=1)
        j = int(np.argmax(scores))  # first occurrence wins ties
        selected.append(j)
        fit = least_squares_on_support(Y, Phi, selected, rank_tol=opts.rank_tol)
        Z = fit.signal
        R = Y - Phi @ Z
        score_tables.append(scores)
        filters.append(H)
        residual_norms.append(float(np.linalg.norm(R)))
        ranks.append(fit.rank_deficient)

    trace = IterationTrace(
        label=label,
        selected=tuple(selected),
        score_tables=tuple(score_tables),
        filter_matrices=tuple(filters),
        residual_norms=tuple(residual_norms),
        initial_residual_norm=y_norm,
        rank_deficient=tuple(ranks),
    )
    return RecoveryResult(
        support=as_support(selected, n),
        signal=Z,
        trace=trace,
        terminated_early=terminated_early,
    )


def somp_solve(Y, Phi, k: int, opts: SolverOptions | None = None) -> RecoveryResult:
    """Recover a jointly k-row-sparse signal from Y using Phi.

    Runs k greedy iterations (select, re-fit, update residual), stopping
    early only when the residual norm falls below
    ``opts.residual_stop_tol * ||Y||_F``.  With Y = 0 that happens before
    the first selection and the result has an empty support.
    """
    return _greedy_solve(Y, Phi, k, opts, label="nominal")


def solve_perturbed(Y_obs, Phi_obs, k: int, opts: SolverOptions | None = None) -> RecoveryResult:
    """Same greedy solve, applied to perturbed observations.

    Identical to ``somp_solve``; it exists so call sites make the
    perturbed-observation setting explicit and the trace is labeled for
    later pairing against a clean run.
    """
    return _greedy_solve(Y_obs, Phi_obs, k, opts, label="perturbed")
