"""Closed-form guarantee machinery against independent oracles.

Rational cases are checked against fractions.Fraction arithmetic,
irrational ones against 50-digit mpmath evaluations of the same
formulas typed out separately.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from somplab import (
    DimensionMismatch,
    DomainError,
    InvalidConfig,
    PreconditionViolated,
    ZeroReference,
    check_guarantee,
    coherent_pair_matrix,
    error_amplification,
    perturbation_magnitude,
    perturbation_magnitude_for_mode,
    recovery_threshold,
    ric_exact,
)
from somplab.rip import PerturbationLevels

mpmath.mp.dps = 50


def _threshold_oracle(u, v):
    u = mpmath.mpf(u)
    v = mpmath.mpf(v)
    r = mpmath.sqrt(u)
    return float(1 / (2 * r + 1) - (4 * r / (2 * r + 1)) / ((2 + 1 / r) * v - 2))


def _amplification_oracle(w, eps):
    w = mpmath.mpf(w)
    eps = mpmath.mpf(eps)
    return float(mpmath.sqrt((1 + w) / (2 - (1 + w) * (1 + eps) ** 2)))


def test_threshold_rational_point():
    # at sparsity 4 and ratio 100 every intermediate is rational
    expected = Fraction(1, 5) - Fraction(4 * 2, 5) / (Fraction(5, 2) * 100 - 2)
    assert expected == Fraction(6, 31)
    assert recovery_threshold(4, 100) == pytest.approx(float(expected), abs=1e-12)


def test_threshold_unperturbed_limit_is_exact():
    for k in range(1, 11):
        assert recovery_threshold(k, math.inf) == 1.0 / (2.0 * math.sqrt(k) + 1.0)


def test_threshold_monotone_in_ratio():
    grid = [0.9, 1.0, 2.0, 5.0, 50.0, 1e4, math.inf]
    vals = [recovery_threshold(3, v) for v in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < recovery_threshold(3, math.inf) for v in vals[:-1])


def test_threshold_decreasing_in_sparsity():
    for v in (1.0, 5.0, 100.0, math.inf):
        vals = [recovery_threshold(u, v) for u in (1, 2, 3, 5, 9, 16)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_threshold_against_mpmath_grid():
    for u in (1, 2, 3, 4, 7, 12):
        for v in (0.9, 1.5, 10.0, 300.0):
            assert recovery_threshold(u, v) == pytest.approx(
                _threshold_oracle(u, v), abs=1e-12)


def test_threshold_domain_errors():
    with pytest.raises(DomainError):
        recovery_threshold(0, 10.0)
    with pytest.raises(DomainError):
        recovery_threshold(-2, 10.0)
    # boundary: (2 + 1/sqrt(4)) v = 2 exactly at v = 0.8
    with pytest.raises(DomainError):
        recovery_threshold(4, 0.8)
    assert math.isfinite(recovery_threshold(4, 0.8 + 1e-9))


def test_amplification_known_values():
    assert error_amplification(1.0 / 3.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    for k in range(2, 9):
        w = 1.0 / math.sqrt(k)
        expected = math.sqrt((math.sqrt(k) + 1.0) / (math.sqrt(k) - 1.0))
        assert error_amplification(w) == pytest.approx(expected, rel=1e-12)


def test_amplification_against_mpmath_grid():
    for w in (0.1, 1.0 / 3.0, 0.5, 0.7):
        for eps in (0.0, 1e-4, 0.05, 0.1):
            if (1 + w) * (1 + eps) ** 2 >= 2:
                continue
            assert error_amplification(w, eps) == pytest.approx(
                _amplification_oracle(w, eps), abs=1e-12)


def test_amplification_domain_errors():
    with pytest.raises(DomainError):
        error_amplification(1.0)  # k = 1: (1 + 1) = 2, denominator zero
    with pytest.raises(DomainError):
        error_amplification(0.5, 0.2)  # 1.5 * 1.44 > 2
    assert math.isfinite(error_amplification(0.5, 0.1))


def test_amplification_spot_value():
    assert error_amplification(0.25, 0.1) == pytest.approx(1.60128, abs=1e-4)


def test_amplification_increasing_in_both_arguments():
    for eps in (0.0, 0.05, 0.1):
        vals = [error_amplification(w, eps) for w in (0.05, 0.15, 0.3, 0.45)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for w in (0.1, 0.3):
        vals = [error_amplification(w, e) for e in (0.0, 0.02, 0.08, 0.15)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_magnitude_zero_levels_is_exactly_zero():
    assert perturbation_magnitude(1.3, 2.7, 0.0, 0.0, 0.0) == 0.0


def test_magnitude_domain_and_reference_errors():
    limit = math.sqrt(1.5) - 1.0
    with pytest.raises(DomainError):
        perturbation_magnitude(1.0, 1.0, 0.0, limit + 1e-12, 0.0)
    assert math.isfinite(perturbation_magnitude(1.0, 1.0, 0.0, limit - 1e-9, 0.0))
    with pytest.raises(DomainError):
        perturbation_magnitude(1.0, 1.0, -1e-3, 0.0, 0.0)
    with pytest.raises(ZeroReference):
        perturbation_magnitude(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ZeroReference):
        perturbation_magnitude(1.0, 0.0, 0.0, 0.0, 0.0)


def test_magnitude_against_mpmath():
    phi = 1.118
    y = 2.7
    eps0, eps, epsb = 5e-4, 6.1e-4, 2e-3
    p = mpmath.mpf(phi)
    fy = mpmath.mpf(y)
    e0, e, eb = mpmath.mpf(eps0), mpmath.mpf(eps), mpmath.mpf(epsb)
    expected = (9 * (2 + e) * e / (12 - 8 * (1 + e) ** 2)
                * (p ** 4 + mpmath.mpf(2) / 3 * p ** 2) * p * fy
                + (e0 + eb + e0 * eb) * p * fy)
    assert perturbation_magnitude(phi, y, eps0, eps, epsb) == pytest.approx(
        float(expected), rel=1e-13)


def test_mode_reductions_are_bitwise():
    # the per-mode formulas must agree bit for bit with the general one
    # evaluated at zeroed complementary levels
    grid_phi = (0.7, 1.0, 1.118, 2.3)
    grid_y = (0.5, 2.7)
    grid_lv = (0.0, 1e-4, 0.01, 0.1)
    for phi in grid_phi:
        for y in grid_y:
            for b in grid_lv:
                assert perturbation_magnitude_for_mode("measurement", phi, y, epsb=b) \
                    == perturbation_magnitude(phi, y, 0.0, 0.0, b)
            for e0 in grid_lv:
                for e in grid_lv:
                    assert perturbation_magnitude_for_mode(
                        "sensing", phi, y, eps0=e0, eps=e) \
                        == perturbation_magnitude(phi, y, e0, e, 0.0)
                    for b in grid_lv:
                        assert perturbation_magnitude_for_mode(
                            "general", phi, y, eps0=e0, eps=e, epsb=b) \
                            == perturbation_magnitude(phi, y, e0, e, b)
    assert perturbation_magnitude_for_mode("noiseless", 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        perturbation_magnitude_for_mode("bogus", 1.0, 1.0)


def _noiseless_setup(rho, n=8):
    Phi = coherent_pair_matrix(n, rho)
    delta = ric_exact(Phi, 2)
    return Phi, delta


def test_check_guarantee_noiseless_verdicts():
    Phi, delta = _noiseless_setup(0.1)
    report = check_guarantee(Phi, None, None, 1, None, delta, mode="noiseless")
    assert report.condition_holds and report.verdict == "pass"
    assert report.q_threshold == recovery_threshold(1, math.inf)
    assert report.error_bound is None
    assert report.eps_h == 0.0

    Phi, delta = _noiseless_setup(0.5)
    report = check_guarantee(Phi, None, None, 1, None, delta, mode="noiseless")
    assert not report.condition_holds  # 0.5 >= 1/3
    assert report.verdict == "fail"


def test_check_guarantee_validates_order_and_mode():
    Phi, delta = _noiseless_setup(0.1)
    with pytest.raises(PreconditionViolated):
        check_guarantee(Phi, None, None, 2, None, delta, mode="noiseless")
    with pytest.raises(ValueError):
        check_guarantee(Phi, None, None, 1, None, delta, mode="bogus")
    with pytest.raises(PreconditionViolated):
        check_guarantee(Phi, None, None, 1, None, delta, mode="general")  # no Y
    Y = np.ones((Phi.shape[0], 1))
    with pytest.raises(PreconditionViolated):
        check_guarantee(Phi, Y, None, 1, None, delta, mode="general")  # no t0


def test_check_guarantee_general_mode_paths():
    Phi, delta = _noiseless_setup(0.1)
    Y = Phi @ (np.eye(8)[:, :1] * 2.0)
    levels = PerturbationLevels(eps0=1e-5, eps=1e-5, epsb=1e-4, order=1)
    report = check_guarantee(Phi, Y, 2.0, 1, levels, delta, mode="general")
    assert report.condition_holds
    assert report.q_threshold < recovery_threshold(1, math.inf)
    # k = 1 has no finite amplification factor
    assert report.error_bound == math.inf

    # enormous measurement noise: threshold leaves its domain, folded
    # into the verdict rather than raised
    big = PerturbationLevels(eps0=0.0, eps=0.0, epsb=50.0, order=1)
    report = check_guarantee(Phi, Y, 2.0, 1, big, delta, mode="general")
    assert report.q_threshold is None
    assert not report.condition_holds and report.verdict == "unsat"
    assert "unsatisfiable" in report.note


def test_check_guarantee_measurement_mode_bounds():
    Phi, delta = _noiseless_setup(0.1)
    delta3 = ric_exact(Phi, 3)
    X = np.zeros((8, 2))
    X[0] = [1.0, 1.0]
    X[4] = [2.0, -1.0]
    Y = Phi @ X
    levels = PerturbationLevels(eps0=0.0, eps=0.0, epsb=1e-3, order=2)
    report = check_guarantee(Phi, Y, math.sqrt(2.0), 2, levels, delta3, mode="measurement")
    amp = error_amplification(1.0 / math.sqrt(2.0))
    assert report.error_bound == pytest.approx(1e-3 * amp, rel=1e-15)
    assert report.error_bound_direct == pytest.approx(
        1e-3 * (math.sqrt(2.0) + 1.0) / math.sqrt(1.0), rel=1e-15)
    # direct form blows up at k = 1
    levels1 = PerturbationLevels(eps0=0.0, eps=0.0, epsb=1e-3, order=1)
    report1 = check_guarantee(Phi, Y, 1.0, 1, levels1, delta, mode="measurement")
    assert report1.error_bound_direct == math.inf


def _golden_frame():
    """The checked-in 20 x 25 frame, its order-3 constant and the
    measurements of a 2-row signal whose weakest row has norm sqrt(2)."""
    from pathlib import Path

    from somplab import read_matrix

    Phi = read_matrix(Path(__file__).resolve().parent / "golden" / "frame_20x25.txt")
    X = np.zeros((25, 2))
    X[3] = [1.0, 1.0]
    X[7] = [2.0, -1.0]
    return Phi, ric_exact(Phi, 3), Phi @ X


def test_check_guarantee_sensing_mode_bound():
    Phi, delta, Y = _golden_frame()
    levels = PerturbationLevels(eps0=0.01, eps=0.01, epsb=0.0, order=2)
    report = check_guarantee(Phi, Y, math.sqrt(2.0), 2, levels, delta, mode="sensing")
    assert report.error_bound == 0.01 * error_amplification(1.0 / math.sqrt(2.0), 0.01)
    assert report.error_bound == pytest.approx(0.025694050027047, rel=1e-12)
    assert report.error_bound_direct is None


@pytest.mark.parametrize("mode", ["sensing", "general"])
def test_check_guarantee_outside_the_magnitude_domain(mode):
    # eps = 0.3 >= sqrt(1.5) - 1: the magnitude is undefined, so no
    # constant certifies and the error bound is infinite
    Phi, delta, Y = _golden_frame()
    levels = PerturbationLevels(eps0=0.3, eps=0.3, epsb=0.0, order=2)
    report = check_guarantee(Phi, Y, math.sqrt(2.0), 2, levels, delta, mode=mode)
    assert report.q_threshold is None
    assert report.eps_h == math.inf
    assert report.error_bound == math.inf
    assert not report.condition_holds and report.verdict == "unsat"
    assert "magnitude undefined" in report.note


def test_check_guarantee_rejects_bad_sparsity():
    Phi, delta = _noiseless_setup(0.1)
    # refused as the config's instance.k is
    for k in (0, 1.5, True):
        with pytest.raises(InvalidConfig, match="'k' must be an integer >= 1"):
            check_guarantee(Phi, None, None, k, None, delta, mode="noiseless")


@pytest.mark.parametrize("mode", ["general", "sensing", "measurement"])
@pytest.mark.parametrize("name", ["eps0", "eps", "epsb"])
@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf])
def test_check_guarantee_refuses_negative_or_non_finite_levels(mode, name, value):
    # refused where the levels are built, so no mode ever sees them: a
    # negative eps0 would otherwise raise the sensing-mode threshold, and
    # nan levels give nan bounds
    Phi, delta = _noiseless_setup(0.1)
    Y = Phi @ (np.eye(8)[:, :1] * 2.0)
    with pytest.raises(InvalidConfig, match=f"'{name}' must be a finite number >= 0"):
        check_guarantee(Phi, Y, 2.0, 1, PerturbationLevels(
            **{"eps0": 0.0, "eps": 0.0, "epsb": 0.0, name: value}, order=1), delta, mode=mode)


def test_check_guarantee_refuses_an_infinite_weakest_row():
    # t0 = inf would make the measurement-mode condition hold at any level
    Phi, delta = _noiseless_setup(0.1)
    Y = Phi @ (np.eye(8)[:, :1] * 2.0)
    levels = PerturbationLevels(eps0=0.0, eps=0.0, epsb=1e-3, order=1)
    with pytest.raises(PreconditionViolated, match="must be finite"):
        check_guarantee(Phi, Y, math.inf, 1, levels, delta, mode="measurement")


def test_check_guarantee_refuses_levels_outside_its_mode():
    # measurement mode assumes eps0 = eps = 0; with them nonzero it would
    # otherwise report a passing condition that promises nothing, so the
    # answer is n/a, with no threshold or bound and the levels named
    Phi, delta = _noiseless_setup(0.1)
    X = np.zeros((8, 1))
    X[0] = 2.0
    levels = PerturbationLevels(eps0=0.05, eps=0.05, epsb=0.0, order=1)
    report = check_guarantee(Phi, Phi @ X, 2.0, 1, levels, delta, mode="measurement")
    assert report.verdict == "n/a"
    assert report.condition_holds is False
    assert report.q_threshold is None and report.eps_h is None
    assert report.error_bound is None and report.error_bound_direct is None
    assert report.note == "mode measurement assumes zero eps0, eps; got eps0=0.05, eps=0.05"


@pytest.mark.parametrize("mode", ["noiseless", "measurement", "sensing", "general"])
def test_check_guarantee_refuses_measurements_of_another_row_count(mode):
    # Y's rows are Phi's rows; one row short is not a measurement set of Phi
    Phi, delta = _noiseless_setup(0.1)
    Y = np.ones((Phi.shape[0] - 1, 2))
    with pytest.raises(DimensionMismatch, match="measurements have 7 rows, sensing matrix 8"):
        check_guarantee(Phi, Y, 2.0, 1, None, delta, mode=mode)


_NOISY_LEVELS = {"measurement": dict(eps0=0.0, eps=0.0, epsb=1e-2),
                 "sensing": dict(eps0=1e-3, eps=1e-3, epsb=0.0),
                 "general": dict(eps0=1e-3, eps=1e-3, epsb=1e-2)}


@pytest.mark.parametrize("mode", sorted(_NOISY_LEVELS))
def test_check_guarantee_refuses_a_zero_reference_in_every_noisy_mode(mode):
    # the levels are relative to ||Phi||_2 and ||Y||_F; against a zero one
    # the certificate would rest on a magnitude of zero
    Phi, delta = _noiseless_setup(0.1)
    Y = Phi @ (np.eye(8)[:, :1] * 2.0)
    levels = PerturbationLevels(**_NOISY_LEVELS[mode], order=1)
    with pytest.raises(ZeroReference, match="measurements have zero Frobenius norm"):
        check_guarantee(Phi, np.zeros_like(Y), 2.0, 1, levels, delta, mode=mode)
    with pytest.raises(ZeroReference, match="sensing matrix has zero spectral norm"):
        check_guarantee(np.zeros_like(Phi), Y, 2.0, 1, levels, delta, mode=mode)
    # noiseless mode uses neither reference
    report = check_guarantee(Phi, np.zeros_like(Y), None, 1, None, delta, mode="noiseless")
    assert report.condition_holds
