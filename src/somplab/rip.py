"""Exact restricted-isometry estimation over every column subset.

Every width-k column subset is accounted for, so the reported constants
are exact up to floating point; nothing is sampled.  Cost grows as
C(n, k), which is why every enumerating operation takes a subset budget
and refuses work beyond it instead of silently crawling.

Most subsets cannot be the extreme one, and the kernel proves it
cheaply, in two stages.  First, Gershgorin discs bound each subset Gram
matrix's eigenvalues from one vectorised pass over the Gram entries of
every subset.  Second, a subset whose disc bound reaches the best value
found so far (less a float slack) gets the tighter bound of Brauer's
ovals of Cassini, computed from the same centres and radii.  Subsets go
to a batched symmetric eigendecomposition in descending order of their
bounds, and evaluation stops once no remaining bound can reach the best
value.  A subset whose bound could tie the best is still evaluated, so
results are exactly those of evaluating every subset: the same float,
and among equally extreme subsets the first in lexicographic order.
The same kernel lists every subset within a given factor of the
extreme, which the frame builder in ``perturb`` shrinks.  The subset
table of each (n, order) is built once and kept read-only in a small
cache, since a sweep enumerates the same few shapes for every matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidOrder,
    PreconditionViolated,
    SubsetBudgetExceeded,
    ZeroReference,
)
from .model import SupportSet, as_matrix, as_support, truncated_svd

DEFAULT_SUBSET_BUDGET = 2_000_000

# Subsets per vectorised Gershgorin block and per batched eigendecomposition.
_CHUNK = 4096

# Size of the first eigendecomposition batch: the subsets with the largest
# bounds, whose best value sets the pruning threshold.
_PROBE = 64

# Absolute-plus-relative slack used when float comparisons decide a
# mathematically exact inequality.
_SLACK = 1e-12


@dataclass(frozen=True)
class RicEstimate:
    """Exact isometry constant at one order, with the subset attaining it."""

    order: int
    delta: float
    witness_subset: SupportSet
    subsets_examined: int


@dataclass(frozen=True)
class PerturbationLevels:
    """Relative perturbation levels measured against clean references.

    ``eps0`` is the full spectral-norm ratio of the sensing perturbation,
    ``eps`` the largest such ratio over column submatrices of width
    1..order, and ``epsb`` the Frobenius ratio of the measurement
    perturbation.
    """

    eps0: float
    eps: float
    epsb: float
    order: int


@dataclass(frozen=True)
class InequalityDiagnostic:
    """One-sided check ``lhs <= rhs`` with both sides recorded."""

    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class SandwichDiagnostic:
    """Two-sided check ``lower <= middle <= upper`` with all sides recorded."""

    lower: float
    middle: float
    upper: float
    passed: bool


def _check_enumeration(n: int, order: int, subset_budget: int) -> int:
    if not 1 <= order <= n:
        raise InvalidOrder(f"order {order} outside 1..{n}")
    count = math.comb(n, order)
    if count > subset_budget:
        raise SubsetBudgetExceeded(
            f"C({n}, {order}) = {count} subsets exceed the budget of {subset_budget}"
        )
    return count


def column_subsets(n: int, order: int) -> np.ndarray:
    """Every width-``order`` subset of range(n), one per row, in
    lexicographic order (the order of ``itertools.combinations``);
    requires 1 <= order <= n.

    Entries use the smallest unsigned dtype that holds n - 1.  The table
    grows from its last column: the trailing width-r parts range over
    range(order - r, n), and the rows that start with ``a`` are ``a``
    followed by the suffix of the width-(r-1) table whose rows start
    above ``a``.  Columns are stored contiguously (Fortran order).
    """
    dtype = np.min_scalar_type(n - 1)
    table = np.arange(order - 1, n, dtype=dtype)[:, None]
    for r in range(2, order + 1):
        firsts = np.arange(order - r, n - r + 1, dtype=dtype)
        counts = np.array([math.comb(n - 1 - int(a), r - 1) for a in firsts], dtype=np.intp)
        starts = np.cumsum(counts) - counts
        rest = np.repeat(len(table) - counts - starts, counts)
        rest += np.arange(len(rest))
        grown = np.empty((len(rest), r), dtype=dtype, order="F")
        grown[:, 0] = np.repeat(firsts, counts)
        for c in range(r - 1):
            table[:, c].take(rest, out=grown[:, c + 1])
        table = grown
    return table


@functools.lru_cache(maxsize=8)
def _subset_table(n: int, order: int) -> np.ndarray:
    """``column_subsets(n, order)``, built once per shape and shared
    read-only.  Eight shapes cover every width a sweep at order <= 8
    enumerates; the least recently used table goes first."""
    table = column_subsets(n, order)
    table.flags.writeable = False
    return table


def _disc_chunks(gram: np.ndarray, idx: np.ndarray):
    """Blocks of at most ``_CHUNK`` listed subsets: each block's offset and
    the centres and radii of its subsets' Gershgorin discs, one row per
    subset position and one column per subset."""
    n = gram.shape[0]
    flat = np.abs(gram).ravel()
    diag = np.diag(gram)
    pairs = list(combinations(range(idx.shape[1]), 2))
    for start in range(0, len(idx), _CHUNK):
        cols = idx[start:start + _CHUNK].T.astype(np.intp)
        rows = cols * n
        radius = np.zeros(cols.shape)
        for a, b in pairs:
            off = flat.take(rows[a] + cols[b])
            radius[a] += off
            radius[b] += off
        yield start, diag.take(cols), radius


def _gershgorin_bounds(gram: np.ndarray, idx: np.ndarray, deviation: bool) -> np.ndarray:
    """Upper bound on each subset's value from the Gershgorin discs of its
    Gram submatrix: on ``max(lam_max - 1, 1 - lam_min)`` when
    ``deviation`` is set, else on ``lam_max``."""
    out = np.empty(len(idx))
    for start, centre, radius in _disc_chunks(gram, idx):
        top = (centre + radius).max(axis=0)
        if deviation:
            top = np.maximum(top - 1.0, 1.0 - (centre - radius).min(axis=0))
        out[start:start + len(top)] = top
    return out


def _cassini_bounds(gram: np.ndarray, idx: np.ndarray, deviation: bool) -> np.ndarray:
    """Upper bound on each subset's value, as ``_gershgorin_bounds`` gives,
    from Brauer's ovals of Cassini instead of the discs.

    Every eigenvalue lies in some oval |z - a_i| |z - a_j| <= r_i r_j
    (i < j, centres a and radii r of the discs), so lam_max is at most
    the largest (a_i + a_j)/2 + sqrt(((a_i - a_j)/2)^2 + r_i r_j) and
    lam_min at least the smallest mirror value.  The ovals lie inside the
    union of the two discs, so the bound never exceeds the Gershgorin
    bound beyond rounding.  One column has no pair: its bound is the
    diagonal, which the discs already give.  Centres are halved before
    they are added, so no sum overflows; a radius that overflowed, times
    a zero one, is NaN, and a subset with a NaN bound gets an infinite
    one instead, so that it is never pruned.
    """
    pairs = list(combinations(range(idx.shape[1]), 2))
    if not pairs:
        return _gershgorin_bounds(gram, idx, deviation)
    out = np.empty(len(idx))
    for start, centre, radius in _disc_chunks(gram, idx):
        half = 0.5 * centre
        up = np.full(centre.shape[1], -math.inf)
        lo = np.full(centre.shape[1], math.inf)
        for a, b in pairs:
            mid = half[a] + half[b]
            gap = half[a] - half[b]
            root = np.sqrt(gap * gap + radius[a] * radius[b])
            np.maximum(up, mid + root, out=up)
            np.minimum(lo, mid - root, out=lo)
        out[start:start + len(up)] = np.maximum(up - 1.0, 1.0 - lo) if deviation else up
    out[np.isnan(out)] = math.inf
    return out


def _subset_values(gram: np.ndarray, sub: np.ndarray, deviation: bool) -> np.ndarray:
    """Each listed subset's value from a batched eigendecomposition."""
    w = np.linalg.eigvalsh(gram[sub[:, :, None], sub[:, None, :]])
    return np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]) if deviation else w[:, -1]


def _extreme_subsets(A: np.ndarray, order: int, deviation: bool,
                     rel: float = 1.0) -> tuple[float, np.ndarray]:
    """Largest subset value over all width-``order`` column subsets of A,
    and every subset whose value is at least ``rel`` times it, in
    lexicographic order (rel = 1 gives the subsets attaining it).

    A subset's value is ``max(lam_max - 1, 1 - lam_min)`` of its Gram
    submatrix when ``deviation`` is set, else ``lam_max``.  Batches of
    the largest remaining bounds are evaluated until no remaining bound
    reaches the floor: ``rel`` times the best value, less the slack.  A
    subset starts with its Gershgorin bound; the first time that bound
    reaches the floor it is replaced by the tighter Cassini bound, which
    must reach the floor too.  The slack covers the rounding of the
    bounds and the eigenvalues, so a skipped subset can neither beat the
    result nor belong to the returned set.  Requires 0 < rel <= 1.
    """
    gram = A.T @ A
    if not np.isfinite(gram).all():
        raise PreconditionViolated("column inner products overflow double precision")
    idx = _subset_table(A.shape[1], order)
    bound = _gershgorin_bounds(gram, idx, deviation)
    tight = np.zeros(len(bound), dtype=bool)   # bound is already the Cassini one
    best, size = -math.inf, _PROBE
    seen_rows, seen_vals = [], []
    rows = np.argpartition(bound, max(len(bound) - size, 0))[-size:]
    while len(rows):
        vals = _subset_values(gram, idx[rows], deviation)
        best = max(best, float(vals.max()))
        seen_rows.append(rows)
        seen_vals.append(vals)
        bound[rows] = -math.inf   # evaluated
        floor = rel * best - _SLACK * max(1.0, abs(best))
        rows = np.flatnonzero(bound >= floor)
        loose = rows[~tight[rows]]
        if len(loose):
            bound[loose] = _cassini_bounds(gram, idx[loose], deviation)
            tight[loose] = True
            rows = rows[bound[rows] >= floor]
        size = min(2 * size, _CHUNK)
        if len(rows) > size:
            rows = rows[np.argpartition(bound[rows], len(rows) - size)[-size:]]
    rows = np.concatenate(seen_rows)
    return best, idx[np.sort(rows[np.concatenate(seen_vals) >= rel * best])]


def ric_exact(A, order: int, subset_budget: int = DEFAULT_SUBSET_BUDGET) -> RicEstimate:
    """Exact restricted isometry constant of ``A`` at the given order.

    The constant is the largest deviation of a squared extreme singular
    value from 1 over all width-``order`` column submatrices:
    ``max(sigma_max^2 - 1, 1 - sigma_min^2)``.  Columns are taken as
    given; nothing is normalized on the caller's behalf.

    Raises InvalidOrder when ``order`` is outside 1..n and
    SubsetBudgetExceeded when C(n, order) exceeds ``subset_budget``.
    """
    A = as_matrix(A, "sensing matrix")
    examined = _check_enumeration(A.shape[1], order, subset_budget)
    delta, attaining = _extreme_subsets(A, order, deviation=True)
    return RicEstimate(order=order, delta=delta,
                       witness_subset=tuple(int(i) for i in attaining[0]),
                       subsets_examined=examined)


def submatrix_spectral_norm(A, width: int,
                            subset_budget: int = DEFAULT_SUBSET_BUDGET) -> float:
    """Largest spectral norm over all width-``width`` column submatrices."""
    A = as_matrix(A, "matrix")
    _check_enumeration(A.shape[1], width, subset_budget)
    top, _ = _extreme_subsets(A, width, deviation=False)
    return math.sqrt(max(top, 0.0))


def measure_perturbation_levels(Phi, E, Y, B, order: int,
                                subset_budget: int = DEFAULT_SUBSET_BUDGET) -> PerturbationLevels:
    """Measure relative perturbation levels of (E, B) against (Phi, Y).

    ``eps`` maximizes the submatrix spectral-norm ratio over widths
    1..order, because the solver only ever applies width-at-most-order
    column submatrices.  Raises ZeroReference when Phi or Y has zero
    norm, since the ratios are then undefined.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    E = as_matrix(E, "sensing perturbation")
    Y = as_matrix(Y, "measurements")
    B = as_matrix(B, "measurement perturbation")
    if E.shape != Phi.shape:
        raise DimensionMismatch(f"perturbation shape {E.shape} != sensing shape {Phi.shape}")
    if B.shape != Y.shape:
        raise DimensionMismatch(f"perturbation shape {B.shape} != measurement shape {Y.shape}")
    spectral_phi = _spectral_reference(Phi)
    frob_y = _frobenius_reference(Y)
    eps0, eps = _sensing_levels(E, spectral_phi, _width_references(Phi, order, subset_budget),
                                subset_budget)
    return PerturbationLevels(eps0=eps0, eps=eps, epsb=float(np.linalg.norm(B)) / frob_y,
                              order=order)


# The level arithmetic in pieces, so that a sweep computes the references
# of a clean matrix once and the levels of each sensing perturbation once.

def _spectral_reference(Phi: np.ndarray) -> float:
    """||Phi||_2, the reference of eps0."""
    spectral_phi = float(np.linalg.norm(Phi, 2))
    if spectral_phi == 0.0:
        raise ZeroReference("sensing matrix has zero spectral norm")
    return spectral_phi


def _frobenius_reference(Y: np.ndarray) -> float:
    """||Y||_F, the reference of epsb."""
    frob_y = float(np.linalg.norm(Y))
    if frob_y == 0.0:
        raise ZeroReference("measurements have zero Frobenius norm")
    return frob_y


def _width_references(Phi: np.ndarray, order: int, subset_budget: int) -> tuple[float, ...]:
    """The references of eps: Phi's largest width-w submatrix spectral
    norm for w = 1..order."""
    widths = []
    for width in range(1, order + 1):
        den = submatrix_spectral_norm(Phi, width, subset_budget)
        if den == 0.0:
            raise ZeroReference(f"all width-{width} submatrices of the sensing matrix are zero")
        widths.append(den)
    return tuple(widths)


def _sensing_levels(E: np.ndarray, spectral_phi: float, widths: tuple[float, ...],
                    subset_budget: int) -> tuple[float, float]:
    """eps0 and eps of a sensing perturbation against the references of
    its clean matrix."""
    eps0 = float(np.linalg.norm(E, 2)) / spectral_phi
    eps = 0.0
    for width, den in enumerate(widths, 1):
        eps = max(eps, submatrix_spectral_norm(E, width, subset_budget) / den)
    return eps0, eps


def selected_span_projector(Phi, support) -> np.ndarray:
    """Orthogonal projector onto the span of the selected columns.

    Built from an orthonormal basis of the selected columns (singular
    vectors above a small relative rank cutoff), independent of any
    least-squares path that may have produced the support.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    support = as_support(support, Phi.shape[1])
    m = Phi.shape[0]
    if not support:
        return np.zeros((m, m))
    U, _, _ = truncated_svd(Phi[:, support])
    return U @ U.T


def residual_sensing_matrix(Phi, support) -> np.ndarray:
    """Every column of ``Phi`` projected off the selected columns' span."""
    Phi = as_matrix(Phi, "sensing matrix")
    support = as_support(support, Phi.shape[1])
    if not support:
        return Phi.copy()
    U, _, _ = truncated_svd(Phi[:, support])
    return Phi - U @ (U.T @ Phi)


def inner_product_check(Phi, u, v, delta: float) -> InequalityDiagnostic:
    """Check that sensing nearly preserves the inner product of u and v.

    With ``delta`` a valid isometry constant at order
    ``max(||u - v||_0, ||u + v||_0)``, the deviation
    ``|<Phi u, Phi v> - <u, v>|`` cannot exceed ``delta ||u|| ||v||``.
    The caller supplies ``delta``; this function only evaluates both
    sides, with a tiny float slack on the comparison.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.size != Phi.shape[1] or v.size != Phi.shape[1]:
        raise DimensionMismatch(
            f"vectors of length {u.size}, {v.size} against {Phi.shape[1]} columns")
    lhs = abs(float((Phi @ u) @ (Phi @ v)) - float(u @ v))
    scale = float(np.linalg.norm(u) * np.linalg.norm(v))
    rhs = float(delta) * scale
    passed = lhs <= rhs + _SLACK * max(1.0, scale)
    return InequalityDiagnostic(lhs=lhs, rhs=rhs, passed=passed)


def projected_isometry_check(Phi, support, u, delta: float) -> SandwichDiagnostic:
    """Check the two-sided energy bound for columns projected off a span.

    For ``A`` = ``residual_sensing_matrix(Phi, support)`` and a vector u
    supported away from ``support``, with ``delta`` a valid isometry
    constant at order ``|support| + ||u||_0`` or higher (and below 1):

        (1 - delta/(1 - delta)) ||u||^2  <=  ||A u||^2  <=  (1 + delta) ||u||^2

    Raises PreconditionViolated when u touches the selected support.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    support = as_support(support, Phi.shape[1])
    u = np.asarray(u, dtype=float).ravel()
    if u.size != Phi.shape[1]:
        raise DimensionMismatch(f"vector of length {u.size} against {Phi.shape[1]} columns")
    if set(np.flatnonzero(u).tolist()) & set(support):
        raise PreconditionViolated("vector support overlaps the selected support")
    delta = float(delta)
    energy = float(u @ u)
    middle = float(np.linalg.norm(residual_sensing_matrix(Phi, support) @ u) ** 2)
    lower = -math.inf if delta >= 1.0 else (1.0 - delta / (1.0 - delta)) * energy
    upper = (1.0 + delta) * energy
    slack = _SLACK * max(1.0, energy)
    passed = (lower - slack <= middle) and (middle <= upper + slack)
    return SandwichDiagnostic(lower=lower, middle=middle, upper=upper, passed=passed)
