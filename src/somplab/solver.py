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

The matched filter is held transposed, in one contiguous L x n buffer
that starts as Y^T Phi.  Each basis vector q adds one row g = q^T Phi to
G = Q^T Phi and updates the buffer in place by the rank-one product w g
with w = q^T R: the basis is orthonormal, so in exact arithmetic the
buffer stays Phi^T R transposed.  The scores are its column norms.  On
a small Phi the row g is one pass over Phi.  On a large one, g of a
column phi_j kept with Gram-Schmidt coefficients c and norm rho is
(Phi^T phi_j - G^T c) / rho, where Phi^T phi_j is a row of the Gram
Phi^T Phi.  Only the rows of likely picks are formed, by one product
per solve (see ``_GramRows``), so most iterations do not read Phi.  A
column that needed the second Gram-Schmidt pass, where that subtraction
would magnify rounding, and a pick the product did not cover still take
the pass.  The trace keeps the factors, not the filters:
``filter_matrices[i]`` forms Phi^T Y - G^T W from the first filter and
the rows of G and W that iteration had folded in, so it equals the
running filter up to rounding.  After the loop a single least-squares
fit on the selected columns gives the signal, the same fit
``least_squares_on_support`` makes.  The inputs are validated once, on
entry.

The picks and the fit do not change when Phi and Y are multiplied by
powers of two: every tie test, stop level and rank cutoff is relative,
and such a product is exact in binary floating point.  So a Phi or Y
whose size lies outside a window where every square stays a normal
double is first scaled by an exact power of two, and the signal, the
scores, the filters and the residual norms are scaled back afterwards.
The window and the prescale are ``model``'s, the ones every norm of
caller data in the library goes through.
A solve thus answers the same at any scale, and bit for bit the answer
at unit scale times the power of two.  Only a returned number that does
not fit a double at the caller's scale is refused.

The solver is given one sensing matrix and uses it for both selection
and fitting; whether that matrix is a clean or a perturbed observation
is the caller's concern.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport, PreconditionViolated
from .model import (
    RANK_TOL,
    SupportSet,
    _largest_column_norm,
    _prescaled,
    _rows_conform,
    _sparsity,
    as_matrix,
    as_support,
    truncated_svd,
)

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
    audited afterwards; the solver takes them from its running filter.
    ``filter_matrices[i]`` is the full n x L matched filter of that
    iteration, so perturbed and clean runs can be compared
    filter-by-filter.  The solver's trace forms it afresh on each access,
    from factors it keeps instead of the filters, and its row norms equal
    the score table up to rounding.
    """

    selected: tuple[int, ...]
    score_tables: tuple[np.ndarray, ...]
    filter_matrices: Sequence[np.ndarray]
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


class _Filters(Sequence):
    """The matched filters of a solve, formed on access: filter i is
    2^e (Ht0 - W[:c]^T Gt[:c])^T, where Ht0 = Y^T Phi of the prescaled
    inputs, e undoes their prescale, and c counts the basis vectors
    folded into the filter by iteration i + 1."""

    def __init__(self, Ht0, W, Gt, counts, e):
        self._Ht0, self._W, self._Gt, self._counts, self._e = Ht0, W, Gt, counts, e

    def __len__(self):
        return len(self._counts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        c = self._counts[i]
        if not c:
            H = self._Ht0.T.copy()
        else:
            Ht = self._W[:c].T @ self._Gt[:c]
            H = np.subtract(self._Ht0, Ht, out=Ht).T
        if self._e:
            np.ldexp(H, self._e, out=H)
        return H


def _column_norms(Ht):
    """Euclidean norms of the columns of Ht.

    The same bits as ``np.add.reduce(Ht * Ht, axis=0)`` for two or more
    columns; a single column is summed in another order."""
    norms = np.einsum("ij,ij->j", Ht, Ht)
    return np.sqrt(norms, out=norms)


def _pass(q, Phi, out):
    """The row q^T Phi, written into ``out``: one pass over Phi."""
    np.dot(q, Phi, out=out)


def _subtract_outer(Ht, w, g, scratch):
    """Ht -= w g^T, with the product formed in ``scratch`` one row at a
    time: at 16 x 2048 that took 27-39 us, a broadcast product 44-48 us."""
    for product, w_l in zip(scratch, w):
        np.multiply(g, w_l, out=product)
    Ht -= scratch


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
    _rows_conform(Y, Phi)
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


def _unscaled(x, e, refusal):
    """x times 2^e, in place; PreconditionViolated(refusal) when a value
    does not fit a double at that scale."""
    if e:
        with np.errstate(over="ignore"):
            np.ldexp(x, e, out=x)
    if not np.isfinite(x).all():
        raise PreconditionViolated(refusal)
    return x


# Gram rows are used only on a Phi of at least this many entries (4 MiB),
# which no longer fits in a core's cache (2 MiB of L2 where this was
# measured), so its passes stream from memory: at 256 x 2048 a pass took
# about 200 us and a row of a 20-row product about 35 us.  A smaller Phi
# stays in L2 between passes until the fills evict it.  With the rows
# forced on, 128 x 2048 solves gained where the first fill held most
# picks (L = 16, k = 40: 1.47x; L = 4, k = 60: 1.06x) and lost where it
# did not (L = 1, k = 40, noisy: 0.83x; 64 x 4096, L = 4, k = 20: 0.89x),
# and 128 x 1024, L = 1, k = 40 (noisy) fell to 0.79x.  From 4 MiB on,
# the worst measured solve ran at 0.96-0.99x (64 x 8192, L = 4, k = 20).
_GRAM_MIN_ENTRIES = 1 << 19

# A fill of fewer rows is declined, so a solve with k < 9 takes every
# row by a pass.  Per row, a product of b rows cost 0.55-0.74 of a pass
# at b = 4, 0.33-0.43 at b = 8 and 0.15-0.20 at b = 48 (256 x 2048 and
# 128 x 2048).
_MIN_FILL = 8


class _GramRows:
    """Rows Phi^T phi_c of the Gram for the columns a solve is likely to
    pick, formed by one product Phi[:, C]^T Phi per solve.

    The fill comes with the first row the solve asks for.  C is that
    pick and the k - 2 best-scoring unselected columns by the scores that
    made it, so the fill covers every further row of G the solve may
    form.  A later pick takes its held row; a pick without one gets None,
    and the caller makes its pass.  A fill of fewer than ``_MIN_FILL``
    rows is declined, and then every pick takes the pass.  Against passes
    alone, at 256 x 2048, k = 40, the fill made noiseless L = 16 solves
    1.51x faster, and noisy L = 1, 2 and 4 ones, where it holds fewer of
    the picks, 1.15x, 1.24x and 1.48x; at 64 x 8192, L = 4, k = 20 the
    solve ran at 0.96x.
    """

    def __init__(self, Phi, k):
        self._Phi = Phi
        self._k = k
        self._held = None   # column -> its row, once filled

    def take(self, j, scores, selected):
        """Phi^T phi_j for the picked column j, or None when no row is
        held for it."""
        if self._held is None:
            self._held = self._fill(j, scores, selected)
        return self._held.get(j)

    def _fill(self, j, scores, selected):
        """Form the rows of j and of the k - 2 best-scoring unselected
        columns, and map each column to its row; empty when fewer than
        ``_MIN_FILL`` rows fit."""
        n = self._Phi.shape[1]
        size = min(self._k - 1, n - len(selected) + 1)
        if size < _MIN_FILL:
            return {}
        open_ = scores.copy()
        open_[selected] = -1.0
        C = [j, *np.argpartition(open_, n - size + 1)[n - size + 1:].tolist()]
        return dict(zip(C, self._Phi[:, C].T @ self._Phi))


def somp_solve(Y, Phi, k: int) -> RecoveryResult:
    """Recover a jointly k-row-sparse signal from Y using Phi.

    Runs k greedy iterations (select, grow the basis, update residual),
    stopping early only when the residual norm falls to
    ``RESIDUAL_STOP_TOL * ||Y||_F``, then fits the signal on the selected
    support by least squares.  With Y = 0 the stop comes before the first
    selection and the result has an empty support.

    The answer does not depend on the inputs' scale (``_prescaled``).  A
    recovered signal, matched-filter scores or a residual norm that does
    not fit a double at the caller's scale raises PreconditionViolated.
    """
    Y = as_matrix(Y, "measurements")
    Phi = as_matrix(Phi, "sensing matrix")
    _rows_conform(Y, Phi)
    m, n = Phi.shape
    k = _sparsity(k, m, n)
    # With Phi's largest column norm and ||Y||_F in the window of
    # ``_prescaled``, [2^-128, 2^128], a score is at most 2^256, so every
    # square the solve forms stays below 2^512, and the squares of the two
    # sizes stay above 2^-256: normal doubles, far from overflow and
    # underflow.
    with np.errstate(over="ignore", under="ignore"):
        Phi, a = _prescaled(Phi, _largest_column_norm(Phi))
        y_norm = float(np.linalg.norm(Y))
        Y, b = _prescaled(Y, y_norm)
        if b:
            y_norm = float(np.linalg.norm(Y))
    stop_at = RESIDUAL_STOP_TOL * y_norm
    # Row i of Qt is the i-th kept basis vector q_i, and Phi_kept = Qt^T T.
    # W[i] = q_i^T R when q_i was kept (q_i^T Y in exact arithmetic), so
    # R = Y - Qt^T W and Phi^T R = Phi^T Y - Gt^T W with Gt[i] = q_i^T Phi.
    # Ht is that filter transposed, updated by one row pair at a time.
    Qt = np.empty((k, m))
    T = np.zeros((k, k))
    W = np.empty((k, Y.shape[1]))
    Gt = np.empty((k, n))
    columns = [0] * k     # columns[i] is the column q_i came from
    gram = _GramRows(Phi, k) if Phi.size >= _GRAM_MIN_ENTRIES else None
    kept = filtered = 0   # basis vectors, and those folded into the filter
    floor = fro_sq = 0.0  # bounds sigma_min(T) from below, and ||T||_F^2
    R, r_norm = Y, y_norm
    Ht0 = None
    selected: list[int] = []
    score_tables: list[np.ndarray] = []
    counts: list[int] = []
    residual_norms: list[float] = []
    ranks: list[bool] = []
    terminated_early = None

    for i in range(k):
        if r_norm <= stop_at:
            terminated_early = "zero-residual"
            break
        if i == 0:
            Ht0 = Y.T @ Phi
            Ht = Ht0.copy()
            scratch = np.empty_like(Ht)
            scores = _column_norms(Ht)
        elif kept > filtered:
            g = Gt[filtered]
            row = None
            if gram is not None and not repeated:
                row = gram.take(columns[filtered], scores, selected)
            if row is None:
                _pass(Qt[filtered], Phi, g)
            else:   # g = (Phi^T phi_j - Gt^T c) / rho, with c and rho in T
                np.dot(T[:filtered, filtered], Gt[:filtered], out=g)
                np.subtract(row, g, out=g)
                g /= T[filtered, filtered]
            _subtract_outer(Ht, W[filtered], g, scratch)
            filtered = kept
            scores = _column_norms(Ht)
        else:   # the last column was not kept, so the filter stands
            scores = scores.copy()
        j = _select(scores, selected)
        selected.append(j)
        score_tables.append(scores)
        counts.append(filtered)

        v = Phi[:, j]
        repeated = False   # whether Gram-Schmidt took a second pass
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
                repeated = True
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
            q = np.divide(u, rho, out=Qt[kept])
            columns[kept] = j
            w = np.dot(q, R, out=W[kept])
            R = R - q[:, None] * w
            r_norm = math.sqrt(np.vdot(R, R))
            floor, fro_sq = bound, fro_sq + c_sq + rho * rho
            kept += 1
        residual_norms.append(r_norm)
        ranks.append(kept < len(selected))

    Ht = scratch = gram = None   # the fit below needs none of the loop's buffers
    Z = np.zeros((n, Y.shape[1]))
    support = sorted(selected)
    if support:   # a column far smaller than Y can take a coefficient beyond any double
        with np.errstate(over="ignore", invalid="ignore"):
            Z[support] = _fit(Y, Phi[:, support])[0]
    _unscaled(Z, b - a, "the recovered signal overflows double precision")
    if a or b:   # back to the caller's scale
        for scores in score_tables:
            _unscaled(scores, a + b, "matched-filter scores overflow double precision")
        norms = _unscaled(np.array([y_norm, *residual_norms]), b,
                          "the norm of the measurements overflows double precision")
        y_norm, *residual_norms = norms.tolist()

    trace = IterationTrace(
        selected=tuple(selected),
        score_tables=tuple(score_tables),
        filter_matrices=_Filters(Ht0, W, Gt, tuple(counts), a + b),
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
