"""Core domain types and support-set arithmetic.

Matrices are plain float64 numpy arrays throughout: a signal is n x L
(one row per dictionary atom), a sensing matrix is m x n, and a
measurement set is m x L.  A support set is a sorted tuple of 0-based
row indices.  All functions are pure and treat their inputs as
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySupport, ZeroReference

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


def support_of(X) -> SupportSet:
    """Indices of the rows of ``X`` that are not exactly zero."""
    norms = np.linalg.norm(as_matrix(X, "signal"), axis=1)
    return tuple(int(i) for i in np.flatnonzero(norms > 0))


@dataclass(frozen=True)
class RowNormProfile:
    """Per-row norms of a signal together with the weakest occupied row."""

    norms: np.ndarray  # length n, Euclidean norm per row
    t0: float          # smallest norm over nonzero rows


def min_support_row_norm(X) -> RowNormProfile:
    """Profile the row norms of ``X``; ``t0`` is the smallest nonzero one.

    Raises EmptySupport when every row is exactly zero, since the
    smallest occupied-row norm is undefined for the zero signal.
    """
    norms = np.linalg.norm(as_matrix(X, "signal"), axis=1)
    live = norms[norms > 0]
    if live.size == 0:
        raise EmptySupport("signal has no nonzero rows")
    return RowNormProfile(norms=norms, t0=float(live.min()))


def relative_frobenius_error(X_hat, X) -> float:
    """Frobenius norm of the difference, relative to the reference ``X``."""
    X_hat = as_matrix(X_hat, "estimate")
    X = as_matrix(X, "reference")
    if X_hat.shape != X.shape:
        raise DimensionMismatch(f"shapes differ: {X_hat.shape} vs {X.shape}")
    ref = float(np.linalg.norm(X))
    if ref == 0.0:
        raise ZeroReference("reference signal has zero Frobenius norm")
    return float(np.linalg.norm(X_hat - X) / ref)
