"""Deterministic instance and perturbation generators.

All randomness flows through numpy's PCG64 bit generator seeded via
SeedSequence, so identical seeds and configurations reproduce matrices
bit for bit.  Sub-streams are labeled to keep draws independent:
(seed, 0) drives the sensing matrix and (seed, 1) the signal; for
perturbations, (seed, 0) drives the sensing noise and (seed, 1) the
measurement noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig
from .model import _COUNT, _NONNEGATIVE, _OVERLAP, _SEED, _check_fields, _one_of, as_matrix
from .rip import (
    DEFAULT_SUBSET_BUDGET,
    PerturbationLevels,
    _extreme_subsets,
    _frobenius_reference,
    _sensing_levels,
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
        if self.matrix is not None and np.shape(self.matrix) != (self.m, self.n):
            raise InvalidConfig(f"'matrix' has shape {np.shape(self.matrix)} != {(self.m, self.n)}")


def _instance_rules(m: int, n: int, k: int, ensemble: str, matrix, where: str = "") -> None:
    """The rules across ``InstanceConfig``'s fields: k <= min(m, n), and a
    matrix (in a config, its path) is given exactly for the user-supplied
    ensemble.  A refusal names the field, ``where`` (a section) in front."""
    if k > min(m, n):
        raise InvalidConfig(f"'{where}k' must be at most min(m, n) = {min(m, n)}, got {k}")
    if matrix is not None and ensemble != "user-supplied":
        raise InvalidConfig(f"'{where}matrix' requires ensemble 'user-supplied'")
    if matrix is None and ensemble == "user-supplied":
        raise InvalidConfig(f"ensemble 'user-supplied' requires '{where}matrix'")


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

    E and B are drawn from ``spec.seed`` and scaled in one multiplication
    (E = E0 * target_eps0 ||Phi||_2 / ||E0||_2, and likewise for B with
    Frobenius norms), so the realized full-matrix levels match the
    targets to rounding.  The submatrix level eps is then measured over
    widths 1..``order`` (in 1..n), never targeted.  Returns E, B and the
    measured levels; ``measure_perturbation_levels`` measures a given pair.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    Y = as_matrix(Y, "measurements")
    if Phi.shape[0] != Y.shape[0]:
        raise DimensionMismatch(f"sensing matrix has {Phi.shape[0]} rows, measurements {Y.shape[0]}")
    refs = _sensing_references(Phi, order, subset_budget)
    E, eps0, eps = _sensing(spec, Phi, refs, subset_budget)(spec.target_eps0)
    B, epsb = _measurement(spec, Y)(spec.target_epsb)
    return E, B, PerturbationLevels(eps0=eps0, eps=eps, epsb=epsb, order=order)


# The calibration in the pieces a sweep runs at different rates: the
# references once per clean matrix, the directions of both noises once
# per trial, E and its levels once per sensing level, and B and its level
# once per measurement level.

def _sensing_references(Phi: np.ndarray, order: int,
                        subset_budget: int) -> tuple[float, tuple[float, ...]]:
    """||Phi||_2 and Phi's largest width-w submatrix spectral norms for
    w = 1..order: the references of eps0 and eps."""
    return _spectral_reference(Phi), _width_references(Phi, order, subset_budget)


def _sensing_noise(spec: PerturbationSpec, Phi: np.ndarray) -> tuple[np.ndarray, float]:
    """The direction of the spec's generated sensing perturbation and the
    norm it is scaled by: a standard normal E0 and ||E0||_2."""
    E0 = _rng(spec.seed, _SENSING_NOISE_STREAM).standard_normal(Phi.shape)
    return E0, float(np.linalg.norm(E0, 2))


def _sensing(spec: PerturbationSpec, Phi: np.ndarray, refs: tuple[float, tuple[float, ...]],
             subset_budget: int):
    """A function from a target eps0 to the spec's E against a clean Phi
    with references ``refs``, and its levels eps0 and eps.  A generated E
    is the direction of ``_sensing_noise`` times target ||Phi||_2 / its
    norm; the direction is drawn at the first nonzero target and only
    scaled for every later one, so the eps0 levels of a trial share it."""
    spectral_phi, widths = refs
    noise = functools.cache(lambda: _sensing_noise(spec, Phi))

    def sensed(target_eps0: float) -> tuple[np.ndarray, float, float]:
        if target_eps0 == 0.0:
            E = np.zeros_like(Phi)
        else:
            E0, size = noise()
            E = E0 * (target_eps0 * spectral_phi / size)
        return (E, *_sensing_levels(E, spectral_phi, widths, subset_budget))

    return sensed


def _measurement_noise(spec: PerturbationSpec, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """The direction of the spec's generated measurement perturbation
    and the norm it is scaled by: a standard normal B0 and ||B0||_F, or,
    column-skewed, a standard normal vector b on the weakest column of Y
    (zero elsewhere) and ||b||."""
    rng = _rng(spec.seed, _MEASUREMENT_NOISE_STREAM)
    if spec.b_mode == "gaussian":
        B0 = rng.standard_normal(Y.shape)
        return B0, float(np.linalg.norm(B0))
    j = int(np.argmin(np.linalg.norm(Y, axis=0)))
    b = rng.standard_normal(Y.shape[0])
    B0 = np.zeros_like(Y)
    B0[:, j] = b
    return B0, float(np.linalg.norm(b))


def _measurement(spec: PerturbationSpec, Y: np.ndarray):
    """A function from a target epsb to the spec's B against clean
    measurements Y and its level epsb.  A generated B is the direction
    of ``_measurement_noise`` times target ||Y||_F / its norm; the
    direction is drawn at the first nonzero target and only scaled for
    every later one, so the sweep points of a trial share it.  ||Y||_F
    is taken once, here."""
    frob_y = _frobenius_reference(Y)
    noise = functools.cache(lambda: _measurement_noise(spec, Y))

    def measured(target_epsb: float) -> tuple[np.ndarray, float]:
        if target_epsb == 0.0:
            B = np.zeros_like(Y)
        else:
            B0, size = noise()
            B = B0 * (target_epsb * frob_y / size)
        return B, float(np.linalg.norm(B)) / frob_y

    return measured


def apply_perturbation(Y, Phi, E, B):
    """Return the perturbed observations (Y + B, Phi + E)."""
    Phi = as_matrix(Phi, "sensing matrix")
    Y = as_matrix(Y, "measurements")
    E = as_matrix(E, "sensing perturbation")
    B = as_matrix(B, "measurement perturbation")
    if E.shape != Phi.shape or B.shape != Y.shape:
        raise DimensionMismatch(f"perturbation shapes {E.shape} and {B.shape} do not match "
                                f"the observations' {Phi.shape} and {Y.shape}")
    return Y + B, Phi + E


def coherent_pair_matrix(n: int, rho: float) -> np.ndarray:
    """n x n, unit-norm columns where exactly one pair has inner product rho.

    Columns 0 and 1 span an angle with cosine rho; every other column is
    a fresh standard basis vector orthogonal to everything else.  The
    order-2 isometry constant of this matrix is exactly rho, which makes
    it a handy analytic test case.
    """
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
    keep the shape without changing the Gram.
    """
    if not 1 <= order <= n:
        raise InvalidConfig(f"order {order} outside 1..{n}")
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

    best_dev, _ = _extreme_subsets(A, order, deviation=True)
    best = A.copy()
    mu = 0.35
    for t in range(_FRAME_STAGE1_ITERS):
        mu = max(0.10, mu * 0.99)
        G = A.T @ A
        off = G - np.diag(np.diag(G))
        G2 = np.sign(off) * np.minimum(np.abs(off), mu) + np.eye(n)
        A = project_rank_m(G2)
        if t % 10 == 9:
            d, _ = _extreme_subsets(A, order, deviation=True)
            if d < best_dev:
                best_dev, best = d, A.copy()

    A = best.copy()
    for _ in range(_FRAME_STAGE2_ITERS):
        d, worst = _extreme_subsets(A, order, deviation=True, rel=0.98)
        if d < best_dev:
            best_dev, best = d, A.copy()
        worst = worst[:200].astype(np.intp)
        shrink = np.ones((n, n))
        shrink[worst[:, :, None], worst[:, None, :]] = 0.97
        G = (A.T @ A) * shrink
        np.fill_diagonal(G, 1.0)
        A = project_rank_m(G)
    return best
