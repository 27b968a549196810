"""Greedy joint-sparse recovery by simultaneous orthogonal matching pursuit.

One index enters the active set per iteration: the row of the matched
filter Phi^T R whose Euclidean norm is largest among the indices not yet
selected.  Scores within a relative 1e-12 of that largest one tie, and
the smallest index among them wins.

The loop keeps an orthonormal basis Q of the selected columns and its
triangular factor T.  A selected column is orthogonalized against the
whole basis, once more when cancellation took most of its norm, and
enters the basis only if T still passes the rank rule of the
least-squares fit (smallest singular value above ``RANK_TOL`` times the
largest).  A column that fails leaves the residual and the filter as
they were, and it and every later iteration are marked rank-deficient.
Each new basis vector q updates the residual to R - q (q^T R), which
stays orthogonal to everything selected.

The matched filter Phi^T Y is formed once.  Each basis vector adds one
row q^T Phi to G = Q^T Phi, which is one pass over Phi, and each later
iteration's filter is Phi^T Y - G^T W with W = Q^T R, one small product
written to a fresh array, so the trace keeps every iteration's filter.
After the loop a single least-squares fit on the selected columns gives
the signal, the same fit ``least_squares_on_support`` makes.  The
inputs are validated once, on entry.

The solver is given one sensing matrix and uses it for both selection
and fitting; whether that matrix is a clean or a perturbed observation
is the caller's concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySupport, InvalidSparsity
from .model import RANK_TOL, SupportSet, as_matrix, as_support, truncated_svd

# Iteration stops once the residual's Frobenius norm falls to this
# fraction of ||Y||_F, which keeps selection away from numerically empty
# residuals.
RESIDUAL_STOP_TOL = 1e-12


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


def _fit(Y, A):
    """Least-squares coefficients of Y on the columns of A, and the rank
    kept after truncating singular values at ``RANK_TOL`` times the
    largest."""
    U, s, Vt = truncated_svd(A)
    return Vt.T @ ((U.T @ Y) / s[:, None]), len(s)


def least_squares_on_support(Y, Phi, support) -> SupportFit:
    """Least-squares signal estimate restricted to the given support.

    Solves min ||Y - Phi Z||_F over signals supported on ``support`` via
    a singular value decomposition of the selected columns, truncating
    singular values at ``RANK_TOL`` times the largest one.  Rows outside
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
    coefficients, rank = _fit(Y, Phi[:, support])
    Z = np.zeros((n, Y.shape[1]))
    Z[list(support)] = coefficients
    return SupportFit(signal=Z, rank=rank, rank_deficient=rank < len(support))


# Scores within this fraction of the largest unselected score tie, and
# the smallest index among them wins.  The filter is an update of Phi^T Y,
# so two identical columns can get scores that differ in the last bits.
_TIE_TOL = 1e-12

# A Gram-Schmidt pass that leaves less than this fraction of a column's
# norm lost accuracy to cancellation and is repeated once.
_REORTH = 1.0 / math.sqrt(2.0)


def _select(scores, selected):
    """The smallest unselected index whose score ties the largest
    unselected score (up to ``_TIE_TOL``)."""
    unselected = scores.copy()
    unselected[selected] = -1.0
    top = float(unselected[unselected.argmax()])
    return int((unselected >= top - _TIE_TOL * top).argmax())


def somp_solve(Y, Phi, k: int) -> RecoveryResult:
    """Recover a jointly k-row-sparse signal from Y using Phi.

    Runs k greedy iterations (select, grow the basis, update residual),
    stopping early only when the residual norm falls to
    ``RESIDUAL_STOP_TOL * ||Y||_F``, then fits the signal on the selected
    support by least squares.  With Y = 0 the stop comes before the first
    selection and the result has an empty support.
    """
    Y = as_matrix(Y, "measurements")
    Phi = as_matrix(Phi, "sensing matrix")
    if Y.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(f"measurements have {Y.shape[0]} rows, sensing matrix {Phi.shape[0]}")
    m, n = Phi.shape
    if int(k) != k or not 1 <= int(k) <= min(m, n):
        raise InvalidSparsity(f"sparsity {k} outside 1..min({m}, {n})")
    k = int(k)

    y_norm = float(np.linalg.norm(Y))
    stop_at = RESIDUAL_STOP_TOL * y_norm
    # Row i of Qt is the i-th kept basis vector q_i, and Phi_kept = Qt^T T.
    # W[i] = q_i^T R when q_i was kept (q_i^T Y in exact arithmetic), so
    # R = Y - Qt^T W and Phi^T R = Phi^T Y - Gt^T W with Gt[i] = q_i^T Phi.
    Qt = np.empty((k, m))
    T = np.zeros((k, k))
    W = np.empty((k, Y.shape[1]))
    Gt = np.empty((k, n))
    kept = filtered = 0   # basis vectors, and those folded into the filter
    floor = fro_sq = 0.0  # bounds sigma_min(T) from below, and ||T||_F^2
    R, r_norm = Y, y_norm
    selected: list[int] = []
    score_tables: list[np.ndarray] = []
    filters: list[np.ndarray] = []
    residual_norms: list[float] = []
    ranks: list[bool] = []
    terminated_early = None

    for i in range(k):
        if r_norm <= stop_at:
            terminated_early = "zero-residual"
            break
        if i == 0:
            H, scores = _matched_filter(Y, Phi)
            Ht0 = H.T
        elif kept > filtered:
            Gt[filtered] = Qt[filtered] @ Phi
            filtered = kept
            Ht = W[:kept].T @ Gt[:kept]
            np.subtract(Ht0, Ht, out=Ht)
            H = Ht.T
            scores = np.linalg.norm(H, axis=1)
        else:   # the last column was not kept, so the filter stands
            H, scores = H.copy(), scores.copy()
        j = _select(scores, selected)
        selected.append(j)
        score_tables.append(scores)
        filters.append(H)

        v = Phi[:, j]
        if kept:
            Q = Qt[:kept]
            c = Q @ v
            u = v - c @ Q
            rho = math.sqrt(u @ u)
            if rho < _REORTH * math.sqrt(v @ v):
                c2 = Q @ u
                u -= c2 @ Q
                c += c2
                rho = math.sqrt(u @ u)
            T[:kept, kept] = c
            T[kept, kept] = rho
            c_sq = c @ c
            # The smallest singular value of [[T, c], [0, rho]] is at least
            # rho * floor / (rho + |c| + floor) and the largest at most its
            # Frobenius norm; only when those bounds cannot decide the rank
            # test are the singular values computed.
            bound = rho * floor / (rho + math.sqrt(c_sq) + floor)
            if bound > RANK_TOL * math.sqrt(fro_sq + c_sq + rho * rho):
                independent = True
            else:
                s = np.linalg.svd(T[:kept + 1, :kept + 1], compute_uv=False)
                independent = s[-1] > RANK_TOL * s[0]
                bound = s[-1]
        else:
            u = v
            rho = bound = math.sqrt(v @ v)
            T[0, 0] = rho
            c_sq = 0.0
            independent = rho > RANK_TOL * rho
        if independent:
            q = u / rho
            Qt[kept] = q
            W[kept] = w = q @ R
            R = R - q[:, None] * w
            r_norm = math.sqrt(np.vdot(R, R))
            floor, fro_sq = bound, fro_sq + c_sq + rho * rho
            kept += 1
        residual_norms.append(r_norm)
        ranks.append(kept < len(selected))

    Z = np.zeros((n, Y.shape[1]))
    support = sorted(selected)
    if support:
        Z[support] = _fit(Y, Phi[:, support])[0]

    trace = IterationTrace(
        selected=tuple(selected),
        score_tables=tuple(score_tables),
        filter_matrices=tuple(filters),
        residual_norms=tuple(residual_norms),
        initial_residual_norm=y_norm,
        rank_deficient=tuple(ranks),
    )
    return RecoveryResult(
        support=tuple(support),   # distinct: selection skips chosen indices
        signal=Z,
        trace=trace,
        terminated_early=terminated_early,
    )


# The same solve under its former name, kept only because
# ``perfbench/tracing.py`` wraps it by that name.
solve_perturbed = somp_solve
