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

from .errors import DomainError, PreconditionViolated, ZeroReference
from .model import _rows_conform, _sparsity, as_matrix
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
    renormalized.  The term is 0 at eps = 0, and +inf where a power of
    ||Phi||_2 overflows (above about 1e77).  Raises DomainError when
    eps >= sqrt(1.5) - 1, where the first term's denominator closes.
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
    rip_term = 0.0   # at eps = 0 even where the powers overflow: 0 * inf is NaN
    if eps:
        try:
            powers = spectral_phi ** 4 + (2.0 / 3.0) * spectral_phi ** 2
        except OverflowError:
            powers = math.inf
        rip_term = (9.0 * (2.0 + eps) * eps / denom) * powers * spectral_phi * frob_y
    additive = (eps0 + epsb + eps0 * epsb) * spectral_phi * frob_y
    return rip_term + additive


@dataclass(frozen=True)
class GuaranteeReport:
    """Outcome of evaluating the sufficient recovery condition.

    ``verdict`` is "n/a" (a level the mode assumes zero is not; the
    report then has no magnitude, threshold or error bound, and ``note``
    names the levels), "unsat", "pass" or "fail"; the condition holds for
    "pass" alone.  ``q_threshold`` is None when the condition is
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
    nonnegative by construction).  Every refusal comes before delta's
    constant is read, in this order, all but the last from ``_gate`` as
    in ``somplab check``: ValueError for an unknown mode; InvalidSparsity
    for k outside 1..min(m, n); DimensionMismatch for Y without Phi's
    rows; ZeroReference for a zero Phi or Y in a noisy mode; and
    PreconditionViolated for levels measured below order k, a non-finite
    t0, in a noisy mode that is not n/a a missing Y or a t0 <= 0, and a
    delta not at order k + 1.  Levels that ``mode`` assumes zero but are
    not, and out-of-domain closed forms, are verdicts, never raised.
    """
    spectral_phi, frob_y, k, levels = _gate(Phi, Y, t0, k, levels, mode)
    if delta.order != k + 1:
        raise PreconditionViolated(
            f"isometry estimate has order {delta.order}, need k + 1 = {k + 1}")
    return _evaluate_guarantee(spectral_phi, frob_y, t0, k, levels, delta, mode)


def _gate(Phi, Y, t0: float | None, k: int, levels: PerturbationLevels | None, mode: str):
    """``check_guarantee``'s refusals but delta's, in the order it lists them.
    Returns ||Phi||_2, ||Y||_F (None where unused), k as an int and the levels."""
    _check_mode(mode)
    Phi = as_matrix(Phi, "sensing matrix")
    k = _sparsity(k, *Phi.shape)
    if Y is not None:
        Y = as_matrix(Y, "measurements")
        _rows_conform(Y, Phi)
    noisy = mode != "noiseless"
    spectral_phi = _spectral_reference(Phi) if noisy else None
    frob_y = _frobenius_reference(Y) if noisy and Y is not None else None
    if levels is None:
        levels = PerturbationLevels(eps0=0.0, eps=0.0, epsb=0.0, order=k)
    if levels.order < k:   # eps would understate the widths the solver applies
        raise PreconditionViolated(
            f"levels measured at order {levels.order}, need at least k = {k}")
    if t0 is not None and not math.isfinite(t0):
        raise PreconditionViolated(f"weakest-row norm must be finite, got {t0!r}")
    if noisy and not levels_outside_mode(mode, levels):   # an n/a answer needs neither
        if Y is None:
            raise PreconditionViolated(f"mode {mode!r} needs the measurement set")
        if t0 is None or not t0 > 0:
            raise PreconditionViolated(f"mode {mode!r} needs a positive weakest-row norm")
    return spectral_phi, frob_y, k, levels


def _magnitude(spectral_phi: float | None, frob_y: float | None, levels: PerturbationLevels,
               mode: str) -> tuple[float | None, str]:
    """eps_h, the magnitude of ``mode``'s guarantee and the bound of the
    filter-deviation check, and why it is undefined ("" where it is not):
    None on n/a, 0 in noiseless mode, and inf where ``perturbation_magnitude``
    leaves its domain.  Past the n/a gate the levels a mode assumes zero
    are zero, so one formula serves every noisy mode."""
    if levels_outside_mode(mode, levels):
        return None, ""
    if mode == "noiseless":
        return 0.0, ""
    try:
        return perturbation_magnitude(spectral_phi, frob_y, levels.eps0, levels.eps,
                                      levels.epsb), ""
    except DomainError as exc:
        return math.inf, str(exc)


def _evaluate_guarantee(spectral_phi: float | None, frob_y: float | None,
                        t0: float | None, k: int, levels: PerturbationLevels, delta: RicEstimate,
                        mode: str) -> GuaranteeReport:
    """The closed forms and the one rule that decides a verdict, on inputs
    ``_gate`` passes; sweeps pass ||Y||_F > 0 and t0 from ``min_support_row_norm``."""
    def report(eps_h, q_threshold, error_bound=None, error_bound_direct=None, note="",
               verdict=None):
        if verdict is None:
            verdict = ("unsat" if q_threshold is None
                       else "pass" if delta.delta < q_threshold else "fail")
        return GuaranteeReport(
            mode=mode, verdict=verdict, delta=delta, eps_h=eps_h, q_threshold=q_threshold,
            error_bound=error_bound, error_bound_direct=error_bound_direct, note=note)

    outside = levels_outside_mode(mode, levels)
    if outside:   # the mode's certificate promises nothing here
        got = ", ".join(f"{name}={getattr(levels, name)!r}" for name in outside)
        return report(None, None, verdict="n/a",
                      note=f"mode {mode} assumes zero {', '.join(outside)}; got {got}")
    eps_h, undefined = _magnitude(spectral_phi, frob_y, levels, mode)
    if mode == "noiseless":
        return report(eps_h, recovery_threshold(k, math.inf))
    if undefined:
        return report(eps_h, None, math.inf, note=f"condition unsatisfiable: {undefined}")
    notes = []
    try:
        q_threshold = recovery_threshold(k, math.inf if eps_h == 0.0 else float(t0) / eps_h)
    except DomainError as exc:
        q_threshold = None
        notes.append(f"condition unsatisfiable at this perturbation level: {exc}")
    try:
        amp = error_amplification(1.0 / math.sqrt(k), levels.eps)
        error_bound = (levels.eps + levels.epsb) * amp
    except DomainError:
        error_bound = math.inf
        notes.append("no finite error bound at this sparsity/level")
    direct = None   # measurement mode also reports the direct form of its bound
    if mode == "measurement":
        direct = levels.epsb * (math.sqrt(k) + 1.0) / math.sqrt(k - 1.0) if k > 1 else math.inf
    return report(eps_h, q_threshold, error_bound, direct, "; ".join(notes))
