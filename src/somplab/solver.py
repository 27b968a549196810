"""Greedy joint-sparse recovery by simultaneous orthogonal matching pursuit.

One index enters the active set per iteration: the row of the matched
filter Phi^T R whose Euclidean norm is largest among the indices not yet
selected (ties go to the smallest index).  The estimate is then re-fit
by least squares restricted to the active columns, and the residual is
formed from those columns alone, which keeps it orthogonal to
everything selected so far.  The inputs are validated once, on entry;
each iteration then reads the sensing matrix once, for the matched
filter.

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


def _matched_filter(R, Phi):
    """The n x L matched filter Phi^T R and its row norms.  Formed as
    (R^T Phi)^T, which BLAS computes faster than Phi^T R."""
    H = (R.T @ Phi).T
    return H, np.linalg.norm(H, axis=1)


def match_scores(R, Phi) -> np.ndarray:
    """Match score of every column index against a residual.

    Score j is the Euclidean norm of row j of Phi^T R, i.e. the joint
    correlation of column j with all residual channels at once.
    """
    R = as_matrix(R, "residual")
    Phi = as_matrix(Phi, "sensing matrix")
    if R.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(f"residual has {R.shape[0]} rows, sensing matrix {Phi.shape[0]}")
    return _matched_filter(R, Phi)[1]


def _fit(Y, A, rank_tol):
    """Least-squares coefficients of Y on the columns of A, and the rank
    kept after truncating singular values at ``rank_tol`` times the
    largest."""
    U, s, Vt = truncated_svd(A, rank_tol)
    return Vt.T @ ((U.T @ Y) / s[:, None]), len(s)


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
    coefficients, rank = _fit(Y, Phi[:, support], rank_tol)
    Z = np.zeros((n, Y.shape[1]))
    Z[list(support)] = coefficients
    return SupportFit(signal=Z, rank=rank, rank_deficient=rank < len(support))


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
        H, scores = _matched_filter(R, Phi)
        # once the span of Phi is used up every score is rounding noise,
        # and a selected index must not win again
        unselected = scores.copy()
        unselected[selected] = -1.0
        selected.append(int(np.argmax(unselected)))  # first occurrence wins ties
        support = sorted(selected)
        Phi_S = Phi[:, support]
        coefficients, rank = _fit(Y, Phi_S, opts.rank_tol)
        R = Y - Phi_S @ coefficients
        score_tables.append(scores)
        filters.append(H)
        residual_norms.append(float(np.linalg.norm(R)))
        ranks.append(rank < len(support))

    Z = np.zeros((n, Y.shape[1]))
    if selected:
        Z[support] = coefficients

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
