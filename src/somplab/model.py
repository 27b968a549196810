"""Core domain types and support-set arithmetic.

Matrices are plain float64 numpy arrays throughout: a signal is n x L
(one row per dictionary atom), a sensing matrix is m x n, and a
measurement set is m x L.  A support set is a sorted tuple of 0-based
row indices.  All functions are pure and treat their inputs as
read-only.

The library's one rule for numbers of the caller's scale lives here.
Its answers are ratios of such numbers (t0 against a magnitude that
grows with ||Y||_F, ||B||_F against ||Y||_F, a relative error), so they
must not depend on that scale.  Every norm it takes of caller data goes
through ``_norms``, which prescales by an exact power of two where
numpy's squares would overflow or underflow; the solver prescales its
inputs by the same window (``_SAFE``, ``_prescaled``).
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySupport,
    InvalidConfig,
    InvalidOrder,
    InvalidSparsity,
    ZeroReference,
)

# A support set: strictly increasing 0-based row indices.
SupportSet = tuple[int, ...]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a nonempty 2-d float64 array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool: the sizes, counts, seeds
    and indices an input may hold."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_integer(value) or isinstance(value, (float, np.floating))


# The kinds of value a config and the library types take.  A kind takes a
# value and its field's name (in a config, a dotted key) and returns the
# value as stored, or raises InvalidConfig naming the field.

def _kind(test, want: str, convert):
    def check(value, where):
        if not test(value):
            raise InvalidConfig(f"{where!r} must be {want}, got {value!r}")
        return convert(value)
    return check


def _one_of(choices: tuple[str, ...]):
    return _kind(lambda v: isinstance(v, str) and v in choices, f"one of {', '.join(choices)}", str)


_COUNT = _kind(lambda v: _is_integer(v) and v >= 1, "an integer >= 1", int)
_SEED = _kind(lambda v: _is_integer(v) and v >= 0, "an integer >= 0", int)
# the upper comparison also rejects NaN, infinities and ints beyond float
# range; adding 0.0 stores -0.0 as 0.0
_NONNEGATIVE = _kind(lambda v: _is_real(v) and 0 <= v <= sys.float_info.max,
                     "a finite number >= 0.0", lambda v: float(v) + 0.0)
_BOOLEAN = _kind(lambda v: isinstance(v, (bool, np.bool_)), "true or false", bool)
_OVERLAP = _kind(lambda v: _is_real(v) and 0 < v <= 1, "a number in (0, 1]", float)


def _level(value, where) -> list[float]:
    """Perturbation levels: one number, or a nonempty list (or 1-d
    array) of them."""
    levels = value if isinstance(value, (list, tuple)) or np.ndim(value) == 1 else [value]
    if len(levels) == 0:
        raise InvalidConfig(f"{where!r} must be a number or a nonempty list of numbers")
    return [_NONNEGATIVE(v, where) for v in levels]


def _check_fields(obj, **kinds) -> None:
    """Check the named fields of a frozen dataclass by their kinds, and
    store each as its kind returns it (a numpy integer as an int)."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, kind(getattr(obj, name), name))


# The argument rules of the numeric API.  Unlike a kind, a rule reads its
# argument against the matrix it applies to and raises its own error.

def _whole_number(value, top: int, span: str, what: str, error) -> int:
    """``value`` as an int; ``error`` unless it is an integer (no bool or
    float) in 1..top, which ``span`` writes out."""
    if not _is_integer(value):
        raise error(f"{what} must be an integer, got {value!r}")
    if not 1 <= value <= top:
        raise error(f"{what} {value} outside 1..{span}")
    return int(value)


def _sparsity(k, m: int, n: int) -> int:
    """InvalidSparsity unless k is in 1..min(m, n), the most rows an m x n
    sensing matrix can select."""
    return _whole_number(k, min(m, n), f"min({m}, {n})", "sparsity", InvalidSparsity)


def _order(order, n: int) -> int:
    """InvalidOrder unless a subset order or width is in 1..n."""
    return _whole_number(order, n, str(n), "order", InvalidOrder)


def _rows_conform(Y: np.ndarray, Phi: np.ndarray) -> None:
    """DimensionMismatch unless measurements Y have Phi's rows."""
    if Y.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(f"measurements have {Y.shape[0]} rows, "
                                f"sensing matrix {Phi.shape[0]}")


def _perturbation_conforms(Phi: np.ndarray, E: np.ndarray, Y: np.ndarray, B: np.ndarray) -> None:
    """DimensionMismatch unless the sensing perturbation E has Phi's shape
    and the measurement perturbation B has Y's."""
    if E.shape != Phi.shape or B.shape != Y.shape:
        raise DimensionMismatch(f"perturbation shapes {E.shape} and {B.shape} do not match "
                                f"the observations' {Phi.shape} and {Y.shape}")


def as_support(indices, n: int) -> SupportSet:
    """Normalize to a sorted tuple of distinct 0-based indices in [0, n);
    an index that is not an integer (a bool or a float among them) is
    refused, not truncated."""
    indices = tuple(indices)
    if not all(_is_integer(i) for i in indices):
        raise ValueError(f"support indices must be integers: {indices}")
    idx = tuple(sorted(int(i) for i in indices))
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"support index outside 0..{n - 1}: {idx}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"support contains duplicate indices: {idx}")
    return idx


# Relative singular-value cutoff of every numerical span and rank: the
# least-squares fit, the solver's basis and the residual sensing matrix.
RANK_TOL = 1e-12


def truncated_svd(A: np.ndarray):
    """Thin SVD (U, s, Vt) of a matrix with at least one column, keeping
    only singular values above ``RANK_TOL`` times the largest; U's
    columns are then an orthonormal basis of the numerical span."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > s[0] * RANK_TOL
    return U[:, keep], s[keep], Vt[keep]


# A matrix whose size (a 2-norm, or a largest column norm) lies in
# [2^-128, 2^128] is used as given.  Squares of numbers that size stay
# between 2^-256 and 2^256, and so do products of two of them: normal
# doubles, far from overflow and underflow.
_SAFE = 2.0 ** 128


def _prescaled(A, size):
    """A and 0 when ``size`` lies in [1 / _SAFE, _SAFE].  Otherwise A
    times 2^-e and e, for the e that puts A's largest |entry| in
    [1/2, 1): a power of two, so the scaling is exact barring underflow."""
    if 1.0 / _SAFE <= size <= _SAFE:
        return A, 0
    e = int(np.frexp(max(A.max(), -A.min()))[1])
    return np.ldexp(A, -e), e


@np.errstate(over="ignore")
def _largest_column_norm(A) -> float:
    """A's largest column norm, the size that ``_prescaled`` takes for a
    Gram, whose entries its square bounds; inf, without a warning, where
    the square overflows."""
    return float(np.sqrt(np.einsum("ij,ij->j", A, A).max()))


@np.errstate(over="ignore", under="ignore")
def _norms(A, axis=None):
    """The 2-norm of A (its Frobenius norm as a matrix), or of each row
    (``axis=1``) or column (``axis=0``), at any scale.

    A norm that numpy gives inside [1 / _SAFE, _SAFE] is returned as
    numpy gives it, and so is the 0 of a zero row.  Any other is taken
    again on a copy scaled by the power of two that puts the largest
    |entry| of its row (or of A) in [1/2, 1), and scaled back.  A
    power-of-two scaling commutes with the norm, so the norm of 2^a A is
    2^a times the norm of A, bit for bit, where numpy's squares would
    overflow or underflow.  A norm above the largest double reads inf,
    without a warning."""
    norms = np.linalg.norm(A, axis=axis)
    if axis is None:   # one norm: a scalar test, far cheaper than the array one
        if 1.0 / _SAFE <= norms <= _SAFE or not A.any():
            return norms
        outside = True
    else:
        if 1.0 / _SAFE <= norms.min() and norms.max() <= _SAFE:
            return norms
        outside = ((norms < 1.0 / _SAFE) | (norms > _SAFE)) & A.any(axis=axis)
        if not outside.any():
            return norms
    e = np.frexp(np.abs(A).max(axis=axis, keepdims=True))[1]
    scaled = np.ldexp(np.linalg.norm(np.ldexp(A, -e), axis=axis), e.reshape(np.shape(norms)))
    return np.where(outside, scaled, norms)


def support_of(X) -> SupportSet:
    """Indices of the rows of ``X`` that are not exactly zero."""
    return tuple(int(i) for i in np.flatnonzero(as_matrix(X, "signal").any(axis=1)))


def min_support_row_norm(X) -> float:
    """t0, the smallest norm over the nonzero rows of ``X``, at any scale
    (``_norms``).

    Raises EmptySupport when every row is exactly zero, since the
    smallest occupied-row norm is undefined for the zero signal.  A row
    whose norm exceeds the largest double reads inf.
    """
    norms = _norms(as_matrix(X, "signal"), axis=1)
    live = norms[norms > 0]
    if live.size == 0:
        raise EmptySupport("signal has no nonzero rows")
    return float(live.min())


def relative_frobenius_error(X_hat, X) -> float:
    """Frobenius norm of the difference, relative to the reference ``X``;
    both norms at any scale (``_norms``)."""
    X_hat = as_matrix(X_hat, "estimate")
    X = as_matrix(X, "reference")
    if X_hat.shape != X.shape:
        raise DimensionMismatch(f"shapes differ: {X_hat.shape} vs {X.shape}")
    ref = float(_norms(X))
    if ref == 0.0:
        raise ZeroReference("reference signal has zero Frobenius norm")
    return float(_norms(X_hat - X) / ref)
