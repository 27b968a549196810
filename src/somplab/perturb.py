"""Deterministic instance and perturbation generators.

All randomness flows through numpy's PCG64 bit generator seeded via
SeedSequence, so identical seeds and configurations reproduce matrices
bit for bit.  Sub-streams are labeled to keep draws independent:
(seed, 0) drives the sensing matrix and (seed, 1) the signal; for
perturbations, (seed, 0) drives the sensing noise and (seed, 1) the
measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, PreconditionViolated
from .model import (
    _COUNT,
    _NONNEGATIVE,
    _OVERLAP,
    _SEED,
    _check_fields,
    _norms,
    _one_of,
    _perturbation_conforms,
    _rows_conform,
    as_matrix,
)
from .rip import (
    DEFAULT_SUBSET_BUDGET,
    PerturbationLevels,
    _check_enumeration,
    _frobenius_reference,
    _gram_extremes,
    _measurement_level,
    _sensing_levels,
    _spectral_norm,
    _spectral_reference,
    _width_references,
)

ENSEMBLES = ("gaussian", "identity-embedded", "user-supplied")
B_MODES = ("gaussian", "column-skewed")
_ENSEMBLE = _one_of(ENSEMBLES)
_B_MODE = _one_of(B_MODES)

_MATRIX_STREAM = 0
_SIGNAL_STREAM = 1
_SENSING_NOISE_STREAM = 0
_MEASUREMENT_NOISE_STREAM = 1
_FRAME_STREAM = 7


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(stream)])))


@dataclass(frozen=True)
class InstanceConfig:
    """One synthetic problem instance: sizes, ensemble, and seed.

    ``matrix`` must be given exactly for the "user-supplied" ensemble.
    ``embed_overlap`` controls the identity-embedded construction: each
    padding column spreads its unit mass so no inner product against an
    identity column exceeds roughly that value.
    """

    m: int
    n: int
    L: int
    k: int
    signal_row_norm_min: float = 0.0
    matrix_ensemble: str = "gaussian"
    seed: int = 0
    matrix: np.ndarray | None = None
    embed_overlap: float = 0.5

    def __post_init__(self):
        _check_fields(self, m=_COUNT, n=_COUNT, L=_COUNT, k=_COUNT,
                      signal_row_norm_min=_NONNEGATIVE, matrix_ensemble=_ENSEMBLE,
                      seed=_SEED, embed_overlap=_OVERLAP)
        _instance_rules(self.m, self.n, self.k, self.matrix_ensemble, self.matrix)


def _instance_rules(m: int, n: int, k: int, ensemble: str, matrix, where: str = "") -> None:
    """The rules across ``InstanceConfig``'s fields: k <= min(m, n), and an
    m x n matrix is given exactly for the user-supplied ensemble (a config
    passes its path when the ensemble is another).  A refusal names the
    field, ``where`` (a section) in front."""
    if k > min(m, n):
        raise InvalidConfig(f"'{where}k' must be at most min(m, n) = {min(m, n)}, got {k}")
    if matrix is not None and ensemble != "user-supplied":
        raise InvalidConfig(f"'{where}matrix' requires ensemble 'user-supplied'")
    if matrix is None and ensemble == "user-supplied":
        raise InvalidConfig(f"ensemble 'user-supplied' requires '{where}matrix'")
    if matrix is not None and np.shape(matrix) != (m, n):
        raise InvalidConfig(f"'{where}matrix' has shape {np.shape(matrix)} != {(m, n)}")


def gen_sensing_matrix(cfg: InstanceConfig) -> np.ndarray:
    """Draw (or echo) the sensing matrix described by ``cfg``.

    gaussian: i.i.d. normal entries with variance 1/m, so columns have
    unit expected norm.  identity-embedded: the identity on the first
    min(m, n) columns; any further column spreads its unit mass evenly
    over a window of ceil(1/overlap^2) rows, giving inner products of
    about ``embed_overlap`` against the identity columns it touches.
    """
    if cfg.matrix_ensemble == "user-supplied":
        return np.array(as_matrix(cfg.matrix, "supplied matrix"))
    if cfg.matrix_ensemble == "gaussian":
        rng = _rng(cfg.seed, _MATRIX_STREAM)
        return rng.standard_normal((cfg.m, cfg.n)) / math.sqrt(cfg.m)
    # identity-embedded; deterministic, no randomness involved
    A = np.zeros((cfg.m, cfg.n))
    lead = min(cfg.m, cfg.n)
    A[np.arange(lead), np.arange(lead)] = 1.0
    width = min(cfg.m, max(1, round(1.0 / cfg.embed_overlap ** 2)))
    for j in range(lead, cfg.n):
        rows = [((j - lead) * width + i) % cfg.m for i in range(width)]
        A[rows, j] = 1.0 / math.sqrt(width)
    return A


def gen_sparse_signal(cfg: InstanceConfig) -> np.ndarray:
    """Draw an exactly k-row-sparse signal with a guaranteed row floor.

    The support is a uniform draw of k distinct rows; entries on it are
    standard normal, and any support row whose norm falls below
    ``signal_row_norm_min`` is rescaled up to exactly that floor.
    """
    X = np.zeros((cfg.n, cfg.L))
    rng = _rng(cfg.seed, _SIGNAL_STREAM)
    support = np.sort(rng.choice(cfg.n, size=cfg.k, replace=False))
    rows = rng.standard_normal((cfg.k, cfg.L))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms == 0):  # measure-zero, but keep the floor honest
        dead = norms == 0
        rows[dead] = rng.standard_normal((int(dead.sum()), cfg.L))
        norms = np.linalg.norm(rows, axis=1)
    if cfg.signal_row_norm_min > 0:
        weak = norms < cfg.signal_row_norm_min
        rows[weak] *= (cfg.signal_row_norm_min / norms[weak])[:, None]
    X[support] = rows
    return X


@dataclass(frozen=True)
class PerturbationSpec:
    """A perturbation to draw: its target levels, seed and shape of B.

    ``calibrate_perturbation`` draws E and B from ``seed`` and scales them
    so the realized eps0/epsb hit the targets exactly.  ``b_mode``
    "column-skewed" concentrates the whole measurement perturbation on
    the weakest measurement column, so one column's relative corruption
    far exceeds the global level.
    """

    target_eps0: float = 0.0
    target_epsb: float = 0.0
    seed: int = 0
    b_mode: str = "gaussian"

    def __post_init__(self):
        _check_fields(self, target_eps0=_NONNEGATIVE, target_epsb=_NONNEGATIVE,
                      seed=_SEED, b_mode=_B_MODE)


def calibrate_perturbation(Phi, Y, spec: PerturbationSpec, order: int = 1,
                           subset_budget: int = DEFAULT_SUBSET_BUDGET,
                           ) -> tuple[np.ndarray, np.ndarray, PerturbationLevels]:
    """Realize a perturbation spec against concrete clean observations.

    The one point (``spec.target_eps0``, ``spec.target_epsb``) of the
    schedule a sweep's trial runs (``_perturbations``): E and B are drawn
    from ``spec.seed`` and scaled by ``_scaled`` (E = E0 * target_eps0
    ||Phi||_2 / ||E0||_2, and likewise for B with Frobenius norms), so the
    realized full-matrix levels match the targets to rounding; a
    direction is drawn only for a nonzero target.  The submatrix level
    eps is then measured over widths 1..``order`` (in 1..n), never
    targeted.  So ``run_trial`` with this spec, on the same Phi and Y at
    order k, measures the same levels bit for bit.  Every norm is taken
    at any scale, so with Phi at 2^a and Y at 2^b, E and B are 2^a and 2^b
    times the unit-scale ones and the levels are the same; a level, or an
    entry of E or B, above the largest double is refused
    (PreconditionViolated).  Returns E, B and the measured levels;
    ``measure_perturbation_levels`` measures a given pair.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    Y = as_matrix(Y, "measurements")
    _rows_conform(Y, Phi)
    refs = (_spectral_reference(Phi), _width_references(Phi, order, subset_budget))
    _, _, E, B, _, levels = next(_perturbations(spec, Phi, Y, refs, _frobenius_reference(Y),
                                                [spec.target_eps0], [spec.target_epsb]))
    return E, B, levels


def _perturbations(noise: PerturbationSpec, Phi: np.ndarray, Y: np.ndarray,
                   refs: tuple[float, tuple[float, ...]], frob_y: float, eps0_levels,
                   epsb_levels):
    """The perturbations of a sweep's trial: for each (eps0, epsb) pair of
    target levels, eps0-major, yield the two targets, E, B, Phi + E and
    the measured levels.  These loops are the one place that fixes a
    sweep's point order: every epsb level of the first eps0 level, then
    the next; a trial's records and a report's rows follow it.
    ``refs`` are ||Phi||_2 and Phi's width references 1..order
    (``_width_references``, whose budget check covers E's widths, as E
    has Phi's shape), and ``frob_y`` is ||Y||_F.  The direction of each
    noise comes from ``noise``'s seed and b_mode, drawn once, and only
    when some level of it is nonzero; B and epsb are formed once per epsb
    level, and E, eps0, eps and Phi + E once per eps0 level."""
    spectral_phi, widths = refs
    e_noise = _sensing_noise(noise, Phi) if any(eps0_levels) else None
    b_noise = _measurement_noise(noise, Y) if any(epsb_levels) else None
    measured = [(B, _measurement_level(B, frob_y))
                for B in (_scaled(b_noise, target, frob_y, Y) for target in epsb_levels)]
    for target_eps0 in eps0_levels:
        E = _scaled(e_noise, target_eps0, spectral_phi, Phi)
        eps0, eps = _sensing_levels(E, spectral_phi, widths)
        Phi_obs = Phi + E
        for target_epsb, (B, epsb) in zip(epsb_levels, measured):
            yield (target_eps0, target_epsb, E, B, Phi_obs,
                   PerturbationLevels(eps0, eps, epsb, order=len(widths)))


# The directions of the generated noises and their scaling to a level,
# which ``_perturbations`` runs at different rates.

def _sensing_noise(spec: PerturbationSpec, Phi: np.ndarray) -> tuple[np.ndarray, float]:
    """The direction of the spec's generated sensing perturbation and the
    norm it is scaled by: a standard normal E0 and ||E0||_2."""
    E0 = _rng(spec.seed, _SENSING_NOISE_STREAM).standard_normal(Phi.shape)
    return E0, _spectral_norm(E0)


def _measurement_noise(spec: PerturbationSpec, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """The direction of the spec's generated measurement perturbation
    and the norm it is scaled by: a standard normal B0 and ||B0||_F, or,
    column-skewed, a standard normal vector b on the weakest column of Y
    (zero elsewhere) and ||b||.  The column norms of Y are taken at any
    scale (``_norms``), so the weakest column is the same at any power of
    two."""
    rng = _rng(spec.seed, _MEASUREMENT_NOISE_STREAM)
    if spec.b_mode == "gaussian":
        B0 = rng.standard_normal(Y.shape)
        return B0, float(np.linalg.norm(B0))
    j = int(np.argmin(_norms(Y, axis=0)))
    b = rng.standard_normal(Y.shape[0])
    B0 = np.zeros_like(Y)
    B0[:, j] = b
    return B0, float(np.linalg.norm(b))


def _scaled(noise: tuple[np.ndarray, float] | None, target: float, reference: float,
            like: np.ndarray) -> np.ndarray:
    """A perturbation at relative level ``target`` of ``reference``: zeros
    shaped like ``like`` at a zero target (``noise`` is then not read),
    else the direction of ``noise = (direction, size)`` times
    target * reference / size, refused where an entry would exceed the
    largest double."""
    if target == 0.0:
        return np.zeros_like(like)
    direction, size = noise
    scale = target * reference / size
    if float(np.abs(direction).max()) * scale == math.inf:   # the largest entry, rounded alike
        raise PreconditionViolated(f"a perturbation at level {target!r} overflows double precision")
    return direction * scale


def apply_perturbation(Y, Phi, E, B):
    """Return the perturbed observations (Y + B, Phi + E)."""
    Phi = as_matrix(Phi, "sensing matrix")
    Y = as_matrix(Y, "measurements")
    E = as_matrix(E, "sensing perturbation")
    B = as_matrix(B, "measurement perturbation")
    _perturbation_conforms(Phi, E, Y, B)
    return Y + B, Phi + E


def coherent_pair_matrix(n: int, rho: float) -> np.ndarray:
    """n x n, unit-norm columns where exactly one pair has inner product rho.

    Columns 0 and 1 span an angle with cosine rho; every other column is
    a fresh standard basis vector orthogonal to everything else.  The
    order-2 isometry constant of this matrix is exactly rho, which makes
    it a handy analytic test case.
    """
    n = _COUNT(n, "n")
    if n < 2:
        raise InvalidConfig("need at least two columns")
    if not 0 <= rho < 1:
        raise InvalidConfig("rho must lie in [0, 1)")
    A = np.eye(n)
    A[0, 1] = rho
    A[1, 1] = math.sqrt(1.0 - rho ** 2)
    return A


# Iterations of the frame builder's two stages.
_FRAME_STAGE1_ITERS = 800
_FRAME_STAGE2_ITERS = 300


def low_coherence_frame(m: int, n: int, seed: int = 0, order: int = 3) -> np.ndarray:
    """Unit-norm m x n frame tuned so every ``order``-column submatrix is
    well conditioned.

    Stage 1 alternates between clipping Gram off-diagonals at an annealed
    ceiling and projecting back to rank m with a unit diagonal.  Stage 2
    then shrinks the pair couplings inside the currently worst
    ``order``-subsets directly.  The best iterate (smallest exact
    order-``order`` isometry constant) is returned.  Deterministic per
    seed; at overcomplete desk sizes such as (20, 25) the result lands
    well below the constants random draws achieve.  With m > n the Gram
    has only n eigenpairs, and m - n zero rows under their n x n factor
    keep the shape without changing the Gram.  Each iterate's Gram is
    formed once and serves both its valuation and its clip or shrink
    step; its columns have norm at most 1, so it needs no overflow check.
    Every iterate is valued over all C(n, ``order``) subsets, so a count
    above ``DEFAULT_SUBSET_BUDGET`` raises SubsetBudgetExceeded before
    the draw.
    """
    m, n = _COUNT(m, "m"), _COUNT(n, "n")
    order, _ = _check_enumeration(n, order, DEFAULT_SUBSET_BUDGET)
    rng = _rng(_SEED(seed, "seed"), _FRAME_STREAM)
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0, keepdims=True)

    def project_rank_m(G):
        w, V = np.linalg.eigh(G)
        lam = np.clip(w[-m:], 0.0, None)
        M = (V[:, -m:] * np.sqrt(lam)).T
        norms = np.linalg.norm(M, axis=0, keepdims=True)
        norms[norms == 0] = 1.0
        M = M / norms
        return M if len(lam) == m else np.vstack([M, np.zeros((m - len(lam), n))])

    G = A.T @ A
    best_dev, _ = _gram_extremes(G, order, deviation=True)
    best = A.copy()
    mu = 0.35
    for t in range(_FRAME_STAGE1_ITERS):
        mu = max(0.10, mu * 0.99)
        off = G - np.diag(np.diag(G))
        G2 = np.sign(off) * np.minimum(np.abs(off), mu) + np.eye(n)
        A = project_rank_m(G2)
        G = A.T @ A
        if t % 10 == 9:
            d, _ = _gram_extremes(G, order, deviation=True)
            if d < best_dev:
                best_dev, best = d, A.copy()

    A = best.copy()
    for _ in range(_FRAME_STAGE2_ITERS):
        G = A.T @ A
        d, worst = _gram_extremes(G, order, deviation=True, rel=0.98)
        if d < best_dev:
            best_dev, best = d, A.copy()
        worst = worst[:200].astype(np.intp)
        G[worst[:, :, None], worst[:, None, :]] *= 0.97
        np.fill_diagonal(G, 1.0)
        A = project_rank_m(G)
    return best
