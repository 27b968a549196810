"""Closed-form recovery guarantees and the report that evaluates them.

The certified-recovery story in one line: if the exact order-(k+1)
restricted isometry constant of the clean sensing matrix stays below a
threshold that shrinks as perturbations grow, the greedy solver applied
to the perturbed observations selects exactly the true row support, and
the relative estimation error is bounded by an explicit factor of the
perturbation levels.

Four modes are supported.  "noiseless" compares the constant against
1/(2 sqrt(k) + 1).  "measurement" (perturbed measurements only),
"sensing" (perturbed sensing matrix only) and "general" (both) first
fold the perturbation levels into one magnitude with the same units as
the weakest signal row, then evaluate the threshold at the ratio of the
two.  ``_evaluate_guarantee`` alone decides the verdict, "n/a", "unsat",
"pass" or "fail", for ``check_guarantee``, ``somplab check`` and sweeps
alike; each is an answer, never raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatch, DomainError, PreconditionViolated, ZeroReference
from .model import _COUNT, as_matrix
from .rip import PerturbationLevels, RicEstimate, _frobenius_reference, _spectral_reference

MODES = ("noiseless", "measurement", "sensing", "general")

# The levels each mode assumes are zero.  A certificate evaluated where
# a measured level breaks its mode's assumption promises nothing.
ZERO_LEVELS = {"noiseless": ("eps0", "eps", "epsb"), "measurement": ("eps0", "eps"),
               "sensing": ("epsb",), "general": ()}


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def levels_outside_mode(mode: str, levels: PerturbationLevels) -> tuple[str, ...]:
    """Names of the levels that ``mode`` assumes zero but are not; the
    guarantee of ``mode`` does not apply (verdict n/a) when any are."""
    return tuple(name for name in ZERO_LEVELS[mode] if getattr(levels, name) != 0)


def recovery_threshold(sparsity: float, ratio: float) -> float:
    """Isometry-constant threshold at a given signal-to-perturbation ratio.

    For sparsity u and ratio v = t0 / magnitude (``math.inf`` is fine and
    gives the perturbation-free threshold 1 / (2 sqrt(u) + 1)):

        1 / (2 sqrt(u) + 1)  -  (4 sqrt(u) / (2 sqrt(u) + 1)) / ((2 + 1/sqrt(u)) v - 2)

    Raises DomainError when u <= 0 or (2 + 1/sqrt(u)) v <= 2; the latter
    means no isometry constant, however small, satisfies the condition at
    this perturbation level.
    """
    u = float(sparsity)
    v = float(ratio)
    if not u > 0:
        raise DomainError(f"sparsity must be positive, got {u}")
    root = math.sqrt(u)
    denom = (2.0 + 1.0 / root) * v - 2.0
    if not denom > 0:
        raise DomainError(
            f"signal-to-perturbation ratio {v} too small: (2 + 1/sqrt(u)) v - 2 = {denom} <= 0")
    lead = 1.0 / (2.0 * root + 1.0)
    return lead - (4.0 * root / (2.0 * root + 1.0)) / denom


def error_amplification(w: float, eps: float = 0.0) -> float:
    """Error amplification factor sqrt((1 + w) / (2 - (1 + w)(1 + eps)^2)).

    Used with w = 1/sqrt(k) to turn perturbation levels into a relative
    recovery-error bound.  Raises DomainError when
    (1 + w)(1 + eps)^2 >= 2, where no finite amplification exists.
    """
    w = float(w)
    eps = float(eps)
    denom = 2.0 - (1.0 + w) * (1.0 + eps) ** 2
    if not denom > 0:
        raise DomainError(
            f"(1 + w)(1 + eps)^2 = {(1.0 + w) * (1.0 + eps) ** 2} >= 2: no finite amplification")
    return math.sqrt((1.0 + w) / denom)


def perturbation_magnitude(spectral_phi: float, frob_y: float,
                           eps0: float, eps: float, epsb: float) -> float:
    """Composite perturbation magnitude for the general (both-sides) mode.

    Folds the three relative levels into one absolute magnitude
    comparable against the weakest signal row norm:

        9 (2 + eps) eps / (12 - 8 (1 + eps)^2)
            * (||Phi||_2^4 + (2/3) ||Phi||_2^2) * ||Phi||_2 * ||Y||_F
        + (eps0 + epsb + eps0 epsb) * ||Phi||_2 * ||Y||_F

    The first term carries strong powers of the spectral norm, so
    magnitudes are only comparable across sensing matrices of similar
    scale; the expression is evaluated exactly as stated rather than
    renormalized.  Raises DomainError when eps >= sqrt(1.5) - 1, where
    the first term's denominator closes.
    """
    spectral_phi = float(spectral_phi)
    frob_y = float(frob_y)
    if spectral_phi <= 0 or frob_y <= 0:
        raise ZeroReference("reference norms must be positive")
    eps0 = float(eps0)
    eps = float(eps)
    epsb = float(epsb)
    if min(eps0, eps, epsb) < 0:
        raise DomainError("perturbation levels must be nonnegative")
    denom = 12.0 - 8.0 * (1.0 + eps) ** 2
    if not denom > 0:
        raise DomainError(f"eps = {eps} >= sqrt(1.5) - 1: magnitude undefined")
    rip_term = (9.0 * (2.0 + eps) * eps / denom) \
        * (spectral_phi ** 4 + (2.0 / 3.0) * spectral_phi ** 2) * spectral_phi * frob_y
    additive = (eps0 + epsb + eps0 * epsb) * spectral_phi * frob_y
    return rip_term + additive


def perturbation_magnitude_for_mode(mode: str, spectral_phi: float, frob_y: float,
                                    eps0: float = 0.0, eps: float = 0.0,
                                    epsb: float = 0.0) -> float:
    """Perturbation magnitude specialized per mode.

    The single-sided formulas are coded on their own (not by delegating
    with zeroed levels), and agree exactly with ``perturbation_magnitude``
    when the complementary levels vanish.
    """
    if mode == "noiseless":
        return 0.0
    if mode == "measurement":
        return float(epsb) * float(spectral_phi) * float(frob_y)
    if mode == "sensing":
        spectral_phi = float(spectral_phi)
        frob_y = float(frob_y)
        eps = float(eps)
        denom = 12.0 - 8.0 * (1.0 + eps) ** 2
        if not denom > 0:
            raise DomainError(f"eps = {eps} >= sqrt(1.5) - 1: magnitude undefined")
        rip_term = (9.0 * (2.0 + eps) * eps / denom) \
            * (spectral_phi ** 4 + (2.0 / 3.0) * spectral_phi ** 2) * spectral_phi * frob_y
        return rip_term + float(eps0) * spectral_phi * frob_y
    if mode == "general":
        return perturbation_magnitude(spectral_phi, frob_y, eps0, eps, epsb)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of evaluating the sufficient recovery condition.

    ``verdict`` is "n/a" (a level the mode assumes zero is not; the
    report then has no magnitude, threshold or error bound, and ``note``
    names the levels), "unsat", "pass" or "fail"; ``condition_holds`` is
    true for "pass" alone.  ``q_threshold`` is None when the condition is
    unsatisfiable at the given perturbation level (out-of-domain
    threshold).  The error bound is None in noiseless mode (recovery is
    exact there) and ``math.inf`` when no finite amplification factor
    exists (e.g. k = 1 with perturbations).  ``error_bound_direct``
    carries the alternative direct form of the measurement-only bound,
    epsb (sqrt(k) + 1) / sqrt(k - 1); the two published algebraic forms
    of that bound disagree, so both are reported and downstream checks
    use the amplification-factor form.
    """

    mode: str
    verdict: str   # "n/a" | "unsat" | "pass" | "fail"
    delta: RicEstimate
    eps_h: float | None
    q_threshold: float | None
    condition_holds: bool
    error_bound: float | None
    error_bound_direct: float | None
    note: str


def check_guarantee(Phi, Y, t0: float | None, k: int, levels: PerturbationLevels | None,
                    delta: RicEstimate, mode: str = "general") -> GuaranteeReport:
    """Evaluate the sufficient recovery condition and error bound.

    ``delta`` must be the exact isometry estimate at order k + 1 for the
    clean sensing matrix; ``t0`` the weakest occupied-row norm of the
    true signal (unused in noiseless mode); ``levels`` the measured
    relative perturbation levels (all-zero when omitted, finite and
    nonnegative by construction).  A ``k`` that is not an integer >= 1
    raises InvalidConfig; a non-finite ``t0`` PreconditionViolated; Y
    with a row count other than Phi's DimensionMismatch; and a noisy
    mode a zero Phi or Y ZeroReference (see ``_references``).  Levels
    that ``mode`` assumes zero but are not, and out-of-domain closed
    forms, are verdicts ("n/a", "unsat"), never raised.
    """
    _check_mode(mode)
    k = _COUNT(k, "k")
    if delta.order != k + 1:
        raise PreconditionViolated(
            f"isometry estimate has order {delta.order}, need k + 1 = {k + 1}")
    if levels is None:
        levels = PerturbationLevels(eps0=0.0, eps=0.0, epsb=0.0, order=k)
    if t0 is not None and not math.isfinite(t0):
        raise PreconditionViolated(f"weakest-row norm must be finite, got {t0!r}")
    return _evaluate_guarantee(*_references(Phi, Y, mode), t0, k, levels, delta, mode)


def _references(Phi, Y, mode: str) -> tuple[float | None, float | None]:
    """||Phi||_2 and ||Y||_F, the references of the levels (None without
    measurements; both None in noiseless mode).  Y must have Phi's row
    count.  A noisy mode takes them through ``rip``'s reference
    functions, as sweeps do, so a zero one raises ZeroReference."""
    Phi = as_matrix(Phi, "sensing matrix")
    Y = None if Y is None else as_matrix(Y, "measurements")
    if Y is not None and Y.shape[0] != Phi.shape[0]:
        raise DimensionMismatch(
            f"measurements have {Y.shape[0]} rows, sensing matrix {Phi.shape[0]}")
    if mode == "noiseless":
        return None, None
    return _spectral_reference(Phi), None if Y is None else _frobenius_reference(Y)


def _evaluate_guarantee(spectral_phi: float | None, frob_y: float | None,
                        t0: float | None, k: int, levels: PerturbationLevels, delta: RicEstimate,
                        mode: str) -> GuaranteeReport:
    """``check_guarantee`` on validated inputs, given ||Phi||_2 and
    ||Y||_F (None without measurements) instead of Phi and Y.  The one
    rule that decides a verdict, for sweeps and ``somplab check`` too."""
    def report(verdict, eps_h, q_threshold, error_bound, error_bound_direct, note):
        return GuaranteeReport(
            mode=mode, verdict=verdict, delta=delta, eps_h=eps_h, q_threshold=q_threshold,
            condition_holds=verdict == "pass", error_bound=error_bound,
            error_bound_direct=error_bound_direct, note=note)

    outside = levels_outside_mode(mode, levels)
    if outside:   # the mode's certificate promises nothing here
        got = ", ".join(f"{name}={getattr(levels, name)!r}" for name in outside)
        return report("n/a", None, None, None, None,
                      f"mode {mode} assumes zero {', '.join(outside)}; got {got}")
    note = ""
    if mode == "noiseless":
        eps_h = 0.0
        q_threshold = recovery_threshold(k, math.inf)
    else:
        if frob_y is None:
            raise PreconditionViolated(f"mode {mode!r} needs the measurement set")
        if t0 is None or not t0 > 0:
            raise PreconditionViolated(f"mode {mode!r} needs a positive weakest-row norm")
        try:
            eps_h = perturbation_magnitude_for_mode(
                mode, spectral_phi, frob_y, levels.eps0, levels.eps, levels.epsb)
        except DomainError as exc:
            return report("unsat", math.inf, None, math.inf, None,
                          f"condition unsatisfiable: {exc}")
        try:
            ratio = math.inf if eps_h == 0.0 else float(t0) / eps_h
            q_threshold = recovery_threshold(k, ratio)
        except DomainError as exc:
            q_threshold = None
            note = f"condition unsatisfiable at this perturbation level: {exc}"

    error_bound = None
    error_bound_direct = None
    if mode != "noiseless":
        w = 1.0 / math.sqrt(k)
        feps = levels.eps if mode in ("sensing", "general") else 0.0
        try:
            amp = error_amplification(w, feps)
            if mode == "measurement":
                error_bound = levels.epsb * amp
            elif mode == "sensing":
                error_bound = levels.eps * amp
            else:
                error_bound = (levels.eps + levels.epsb) * amp
        except DomainError:
            error_bound = math.inf
            note = (note + "; " if note else "") + "no finite error bound at this sparsity/level"
        if mode == "measurement":
            if k > 1:
                error_bound_direct = levels.epsb * (math.sqrt(k) + 1.0) / math.sqrt(k - 1.0)
            else:
                error_bound_direct = math.inf

    verdict = ("unsat" if q_threshold is None
               else "pass" if delta.delta < q_threshold else "fail")
    return report(verdict, eps_h, q_threshold, error_bound, error_bound_direct, note)
