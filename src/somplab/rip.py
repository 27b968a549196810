"""Exact restricted-isometry estimation over every column subset.

Every width-k column subset is accounted for, so the reported constants
are exact up to floating point; nothing is sampled.  Cost grows as
C(n, k) at worst, which is why every enumerating operation takes a
subset budget and refuses work beyond it instead of silently crawling.

Most subsets cannot be the extreme one, and the kernel proves it
cheaply, with one bound per subset: the tighter of the Gershgorin discs
of its Gram matrix and the trace bound of Wolkowicz and Styan ("Bounds
for eigenvalues using traces", Linear Algebra Appl. 29, 1980), which
puts the eigenvalues of a w x w Gram within s sqrt(w - 1) of their mean
m, where m and the standard deviation s are read off the traces of the
matrix and of its square.  A shape with at most ``_CHUNK`` subsets
bounds every subset in one vectorised pass over its Gram entries.  A
larger shape first eigendecomposes a seed, a group grown from each
column by adding the column most coherent with the group so far, and
lists only the subsets whose disc bound can reach the seed's best
value: for each column, the partner sets whose coupling magnitudes,
read from its Gram row sorted in descending order, sum high enough;
only the listed subsets are then bounded.  Subsets go to a batched
symmetric eigendecomposition in descending order of their bounds, and
evaluation stops once no remaining bound can reach the best value (less
a float slack).  A subset whose bound could tie the best is still
evaluated, so results are exactly those of evaluating every subset: the
same float (up to the last bit where a Gram has exactly repeated
eigenvalues, which ``eigvalsh`` can round differently depending on the
subsets sharing its batch), and among equally extreme subsets the first
in lexicographic order.  At order 1 the bound is the value (the
diagonal entry, which is what an eigendecomposition of a 1 x 1 matrix
returns), so nothing is eigendecomposed.  The same kernel lists every subset
within a given factor of the extreme, which the frame builder in
``perturb`` shrinks.  The subset table and the lexicographic ranker of
each shape are built once and kept in a small cache, since a sweep
enumerates the same few shapes for every matrix.  The perturbation
levels take the largest submatrix spectral norm of a matrix at every
width 1..order, all from one Gram.
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
from .model import _NONNEGATIVE, SupportSet, _check_fields, as_matrix, as_support, truncated_svd

DEFAULT_SUBSET_BUDGET = 2_000_000

# Subsets per vectorised bound block and per batched eigendecomposition.  A
# shape with no more subsets than one block bounds them all instead of listing.
_CHUNK = 4096

# Eigendecomposition batches after the first double from this size: the
# second holds at most 2 * _PROBE of the largest remaining bounds.
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
    perturbation.  Each level is a finite number >= 0.
    """

    eps0: float
    eps: float
    epsb: float
    order: int

    def __post_init__(self):
        _check_fields(self, eps0=_NONNEGATIVE, eps=_NONNEGATIVE, epsb=_NONNEGATIVE)


def _check_enumeration(n: int, order: int, subset_budget: int) -> int:
    if not 1 <= order <= n:
        raise InvalidOrder(f"order {order} outside 1..{n}")
    count = math.comb(n, order)
    if count > subset_budget:
        raise SubsetBudgetExceeded(
            f"C({n}, {order}) = {count} subsets exceed the budget of {subset_budget}"
        )
    return count


@functools.lru_cache(maxsize=8)
def _subset_table(n: int, order: int) -> np.ndarray:
    """Every width-``order`` subset of range(n), one per row, in
    lexicographic order (the order of ``itertools.combinations``);
    requires 1 <= order <= n.  Built once per shape and shared read-only.
    The kernel asks for it when it bounds every subset: for shapes of at
    most ``_CHUNK`` subsets, and for larger ones whose listing would not
    be smaller.  Eight shapes cover every width a sweep at order <= 8
    enumerates; the least recently used table goes first.

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
    table.flags.writeable = False
    return table


def _bounds(gram: np.ndarray, idx: np.ndarray, deviation: bool) -> np.ndarray:
    """Upper bound on each listed subset's value: on
    ``max(lam_max - 1, 1 - lam_min)`` of its Gram submatrix when
    ``deviation`` is set, else on ``lam_max``.

    Each end of the spectrum takes the tighter of two bounds.  One is the
    Gershgorin discs, centred on the diagonal entries d_i with radii r_i,
    the sums of |g_ij| over the other columns j.  The other is the trace
    bound: the w eigenvalues have mean m, the mean of the d_i, and
    variance s^2 = (sum of (d_i - m)^2 + 2 sum over i < j of g_ij^2) / w,
    so none lies farther than s sqrt(w - 1) from m.  That variance is a
    sum of squares, so nothing cancels; for a pair it makes the bounds
    the two eigenvalues in exact arithmetic.  A sum that overflows makes
    the trace bound infinite or NaN, and then the disc bound, which a
    finite Gram never makes NaN, stands alone.
    """
    n, width = gram.shape[0], idx.shape[1]
    flat = np.abs(gram).ravel()
    diag = np.diag(gram)
    pairs = list(combinations(range(width), 2))
    out = np.empty(len(idx))
    for start in range(0, len(idx), _CHUNK):
        cols = idx[start:start + _CHUNK].T.astype(np.intp)
        rows = cols * n
        centre = diag.take(cols)
        radius = np.zeros(cols.shape)
        squares = np.zeros(cols.shape[1])
        for a, b in pairs:
            off = flat.take(rows[a] + cols[b])
            radius[a] += off
            radius[b] += off
            squares += off * off
        mean = centre.mean(axis=0)
        apart = centre - mean
        variance = ((apart * apart).sum(axis=0) + 2.0 * squares) / width
        reach = np.sqrt(variance * (width - 1))   # s sqrt(w - 1)
        top = np.fmin((centre + radius).max(axis=0), mean + reach)
        if deviation:
            bottom = np.fmax((centre - radius).min(axis=0), mean - reach)
            top = np.maximum(top - 1.0, 1.0 - bottom)
        out[start:start + len(top)] = top
    return out


def _subset_values(gram: np.ndarray, sub: np.ndarray, deviation: bool) -> np.ndarray:
    """Each listed subset's value from a batched eigendecomposition.  A
    single column's eigenvalue is its diagonal entry, which is what the
    eigendecomposition of a 1 x 1 matrix returns, so it is read off."""
    if sub.shape[1] == 1:
        w = np.diag(gram)[sub]
    else:
        w = np.linalg.eigvalsh(gram[sub[:, :, None], sub[:, None, :]])
    return np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]) if deviation else w[:, -1]


@functools.lru_cache(maxsize=8)
def _lex_ranker(n: int, width: int):
    """A function from sorted width-``width`` subsets of range(n), one per
    row, to their rows in ``_subset_table(n, width)``; built once per
    shape, like that table.

    The row of s_0 < ... < s_{w-1} is C(n, w) - 1 less the sum of
    C(n - 1 - s_j, w - j).  Pascal's rule builds the binomials a column
    at a time.  None that a subset reaches exceeds C(n, w), so larger
    ones are clipped to it and stay in int64."""
    total = math.comb(n, width)
    choose = np.empty((width, n), dtype=np.int64)   # row j: C(n - 1 - s, w - j) at s
    col = np.ones(n, dtype=np.int64)
    for j in range(width - 1, -1, -1):   # C(x, y) is the sum of C(t, y - 1) over t < x
        col = np.minimum(np.concatenate(([0], np.cumsum(col[:-1]))), total)
        choose[j] = col[::-1]

    def ranks(sub: np.ndarray) -> np.ndarray:
        out = np.full(len(sub), total - 1, dtype=np.int64)
        for j in range(width):
            out -= choose[j].take(sub[:, j])
        return out

    return ranks


def _distinct(sub: np.ndarray, rank) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``sub`` in lexicographic order, and their
    ``rank`` values."""
    ranks = rank(sub)
    order = np.argsort(ranks)
    ranks = ranks[order]
    first = np.ones(len(ranks), dtype=bool)
    np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
    return sub[order[first]], ranks[first]


def _window_sums(coupling: np.ndarray, span: int) -> np.ndarray:
    """Sums of ``span`` consecutive entries of each row, added left to
    right, so a row whose entries descend gives descending sums."""
    width = coupling.shape[1] - span + 1
    sums = coupling[:, :width].copy()
    for t in range(1, span):
        sums += coupling[:, t:t + width]
    return sums


def _reaching_picks(coupling: np.ndarray, need: np.ndarray, picks: int, limit: int):
    """Every way to pick ``picks`` positions of one row of ``coupling``
    (each row descending) whose entries sum to at least that row's
    ``need``: the rows and the positions, one way per row of the result;
    None once a level would hold ``limit`` ways or more.

    Positions are picked in increasing order.  A partial pick is extended
    by the positions after its last one from which the next entries can
    still make up what it lacks.  The sums of a descending row descend,
    so those positions run up to the row's first sum that falls short,
    and one sorted search finds it for every partial pick.  Memory stays
    in proportion to the ways kept."""
    row = np.arange(len(need))
    last = np.full(len(need), -1)
    surplus = -need   # the sum picked so far, less the need
    chosen = np.empty((len(need), 0), dtype=np.intp)
    for left in range(picks, 0, -1):
        reach = _window_sums(coupling, left)
        width = reach.shape[1]
        # numpy orders complex numbers by real part, then imaginary part:
        # (row, -sum) pairs are sorted, and a search in them counts the
        # leading sums of a row that cover a partial pick's shortfall
        keys = np.empty(reach.shape, dtype=complex)
        keys.real, keys.imag = np.arange(len(reach))[:, None], -reach
        wanted = np.empty(len(row), dtype=complex)
        wanted.real, wanted.imag = row, surplus
        end = np.searchsorted(keys.ravel(), wanted, side="right") - row * width
        counts = np.maximum(end - last - 1, 0)
        ways = int(counts.sum())
        if ways >= limit:
            return None
        parent = np.repeat(np.arange(len(counts)), counts)
        last = np.arange(ways) + (last + 1 - np.cumsum(counts) + counts)[parent]
        row = row[parent]
        surplus = surplus[parent] + coupling[row, last]
        chosen = np.column_stack((chosen[parent], last))
    return row, chosen


def _search(gram: np.ndarray, idx: np.ndarray, deviation: bool, rel: float,
            seed=None) -> tuple[float, np.ndarray]:
    """``_extreme_subsets`` over the subsets ``idx``, rows in lexicographic
    order, each bounded once by ``_bounds``.  ``seed`` holds rows already
    evaluated and their values; without it the first batch is the rows
    whose bound reaches the floor of the largest bound, or when that bound
    overflowed, the rows whose bounds did."""
    bound = _bounds(gram, idx, deviation)
    if seed is None:
        top = float(bound.max())
        floor = rel * top - _SLACK * max(1.0, abs(top)) if math.isfinite(top) else top
        rows = np.flatnonzero(bound >= floor)
        seed = rows, _subset_values(gram, idx[rows], deviation)
    rows, vals = seed
    best, size = -math.inf, _PROBE
    seen_rows, seen_vals = [], []
    while True:
        best = max(best, float(vals.max()))
        seen_rows.append(rows)
        seen_vals.append(vals)
        bound[rows] = -math.inf   # evaluated
        floor = rel * best - _SLACK * max(1.0, abs(best))
        rows = np.flatnonzero(bound >= floor)
        if not len(rows):
            break
        size = min(2 * size, _CHUNK)
        if len(rows) > size:
            rows = rows[np.argpartition(bound[rows], len(rows) - size)[-size:]]
        vals = _subset_values(gram, idx[rows], deviation)
    rows = np.concatenate(seen_rows)
    return best, idx[np.sort(rows[np.concatenate(seen_vals) >= rel * best])]


def _table_search(gram: np.ndarray, order: int, deviation: bool, rel: float,
                  seed=None) -> tuple[float, np.ndarray]:
    """``_search`` over every row of the cached subset table."""
    return _search(gram, _subset_table(gram.shape[0], order), deviation, rel, seed)


def _coherent_groups(gram: np.ndarray, order: int) -> np.ndarray:
    """One width-``order`` group of columns grown from each column of the
    Gram, one row per group, sorted: each step adds the column whose
    couplings |g| to the group so far sum highest."""
    n = gram.shape[0]
    coupling = np.abs(gram)
    summed = coupling.copy()   # each column's coupling to the group
    np.fill_diagonal(summed, -math.inf)   # a member is never added again
    group = np.arange(n)[:, None]
    for _ in range(order - 1):
        added = np.argmax(summed, axis=1)
        summed[np.arange(n), added] = -math.inf
        summed += coupling[added]
        group = np.column_stack((group, added))
    return np.sort(group, axis=1)


def _listed_search(gram: np.ndarray, order: int, deviation: bool,
                   rel: float) -> tuple[float, np.ndarray]:
    """``_extreme_subsets`` that bounds only the subsets whose Gershgorin
    bound can reach a seeded floor.

    The seed is one coherent group grown from each column
    (``_coherent_groups``), and its best value sets the first floor.  A
    subset's Gershgorin bound is its largest row bound: d_i plus the sum of
    |g_ij| over the other columns j, where d_i is max(g_ii - 1, 1 - g_ii)
    for the deviation and g_ii for lam_max.  So the subsets that reach
    the floor are those of an anchor i and ``order - 1`` partners whose
    couplings sum to the floor less d_i, and ``_reaching_picks`` lists
    them from each row of |G| sorted in descending order.  A subset left
    out has a bound below this floor, and no later floor of the search
    is lower (with rel below ``_SLACK`` the floor is negative and leaves
    nothing out).  Only the listed subsets go to ``_bounds``.  A
    listing that would hold C(n, order) rows or more falls back to the
    full table.  Either way the seed's values enter the search, so no
    subset is eigendecomposed twice.
    """
    n = gram.shape[0]
    total = math.comb(n, order)
    dtype = np.min_scalar_type(n - 1)
    rank = _lex_ranker(n, order)
    apart = -np.abs(gram)
    np.fill_diagonal(apart, 1.0)   # every column comes last among its own partners
    partners = np.argsort(apart, axis=1, kind="stable")[:, :n - 1]
    coupling = -np.take_along_axis(apart, partners, axis=1)
    seed, seed_ranks = _distinct(_coherent_groups(gram, order).astype(dtype), rank)
    seed_vals = _subset_values(gram, seed, deviation)
    best = float(seed_vals.max())
    diag = np.diag(gram)
    own = np.maximum(diag - 1.0, 1.0 - diag) if deviation else diag
    floor = rel * best - _SLACK * max(1.0, abs(best))
    listed = _reaching_picks(coupling, floor - own, order - 1, total)
    if listed is None:
        return _table_search(gram, order, deviation, rel, (seed_ranks, seed_vals))
    anchor, chosen = listed
    found = np.sort(np.column_stack((anchor, partners[anchor[:, None], chosen])), axis=1)
    idx, ranks = _distinct(np.concatenate((seed, found.astype(dtype))), rank)
    return _search(gram, idx, deviation, rel, (np.searchsorted(ranks, seed_ranks), seed_vals))


def _gram(A: np.ndarray) -> np.ndarray:
    """A's Gram matrix, refused when it overflows double precision."""
    gram = A.T @ A
    if not np.isfinite(gram).all():
        raise PreconditionViolated("column inner products overflow double precision")
    return gram


def _extreme_subsets(A: np.ndarray, order: int, deviation: bool,
                     rel: float = 1.0) -> tuple[float, np.ndarray]:
    """Largest subset value over all width-``order`` column subsets of A,
    and every subset whose value is at least ``rel`` times it, in
    lexicographic order (rel = 1 gives the subsets attaining it).
    ``_gram_extremes`` on A's Gram."""
    return _gram_extremes(_gram(A), order, deviation, rel)


def _gram_extremes(gram: np.ndarray, order: int, deviation: bool,
                   rel: float = 1.0) -> tuple[float, np.ndarray]:
    """``_extreme_subsets`` of the matrix whose Gram is ``gram``.

    A subset's value is ``max(lam_max - 1, 1 - lam_min)`` of its Gram
    submatrix when ``deviation`` is set, else ``lam_max``.  At order 1
    every subset is valued at once, off the diagonal.  Otherwise batches
    of the largest remaining bounds are evaluated until no remaining bound
    reaches the floor: ``rel`` times the best value, less the slack.  A
    shape with at most ``_CHUNK`` subsets bounds every row of its cached
    table; a larger one starts from a seed and bounds the subsets
    ``_listed_search`` lists.  The slack covers the rounding of the
    bounds, the listing's sums and the eigenvalues, so a skipped subset
    can neither beat the result nor belong to the returned set.  Requires
    0 < rel <= 1.
    """
    if order == 1:   # every bound is the value
        idx = _subset_table(gram.shape[0], 1)
        value = _subset_values(gram, idx, deviation)
        best = float(value.max())
        return best, idx[value >= rel * best]
    if math.comb(gram.shape[0], order) <= _CHUNK:
        return _table_search(gram, order, deviation, rel)
    return _listed_search(gram, order, deviation, rel)


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
    column submatrices.  Raises InvalidOrder when ``order`` is outside
    1..n (below 1, eps would be a maximum over no width), and
    ZeroReference when Phi or Y has zero norm, since the ratios are then
    undefined.
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


def _width_norms(A: np.ndarray, order: int, subset_budget: int):
    """A's largest width-w submatrix spectral norm for w = 1..order, one
    width at a time, all from one Gram.  Each width's subset budget is
    checked before that width is computed, as ``submatrix_spectral_norm``
    checks it."""
    gram = None
    for width in range(1, order + 1):
        _check_enumeration(A.shape[1], width, subset_budget)
        if gram is None:
            gram = _gram(A)
        top, _ = _gram_extremes(gram, width, deviation=False)
        yield math.sqrt(max(top, 0.0))


def _width_references(Phi: np.ndarray, order: int, subset_budget: int) -> tuple[float, ...]:
    """The references of eps: Phi's largest width-w submatrix spectral
    norm for w = 1..order, from one Gram of Phi.  Width 1 reads the
    Gram's diagonal and width 2 starts from exact pair bounds.  An order
    outside 1..n raises InvalidOrder before any width is computed: eps is
    a maximum over at least one width, and over no more than n."""
    if not 1 <= order <= Phi.shape[1]:
        raise InvalidOrder(f"order {order} outside 1..{Phi.shape[1]}")
    widths = []
    for width, den in enumerate(_width_norms(Phi, order, subset_budget), 1):
        if den == 0.0:
            raise ZeroReference(f"all width-{width} submatrices of the sensing matrix are zero")
        widths.append(den)
    return tuple(widths)


def _sensing_levels(E: np.ndarray, spectral_phi: float, widths: tuple[float, ...],
                    subset_budget: int) -> tuple[float, float]:
    """eps0 and eps of a sensing perturbation against the references of
    its clean matrix, E's width norms all from one Gram of E, as in
    ``_width_references``.  An all-zero E ties every subset, which would
    send each one to the eigensolver; its levels are zero without that."""
    if not E.any():
        return 0.0, 0.0
    eps0 = float(np.linalg.norm(E, 2)) / spectral_phi
    eps = 0.0
    for den, norm in zip(widths, _width_norms(E, len(widths), subset_budget)):
        eps = max(eps, norm / den)
    return eps0, eps


def residual_sensing_matrix(Phi, support) -> np.ndarray:
    """Every column of ``Phi`` projected off the selected columns' span."""
    Phi = as_matrix(Phi, "sensing matrix")
    support = as_support(support, Phi.shape[1])
    if not support:
        return Phi.copy()
    U, _, _ = truncated_svd(Phi[:, support])
    return Phi - U @ (U.T @ Phi)

