import numpy as np
import pytest

from somplab import (
    DimensionMismatch,
    EmptySupport,
    InstanceConfig,
    InvalidConfig,
    InvalidOrder,
    InvalidSparsity,
    PerturbationLevels,
    PerturbationSpec,
    PreconditionViolated,
    SubsetBudgetExceeded,
    ZeroReference,
    calibrate_perturbation,
    low_coherence_frame,
    measure_perturbation_levels,
    min_support_row_norm,
    relative_frobenius_error,
    ric_exact,
    run_trial,
    somp_solve,
    submatrix_spectral_norm,
    support_of,
)
from somplab.model import as_matrix, as_support

from oracles import reference_omp_smv


def test_as_matrix_accepts_lists():
    A = as_matrix([[1, 2], [3, 4]])
    assert A.dtype == np.float64
    assert A.shape == (2, 2)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])


def test_as_support_sorts_and_validates():
    assert as_support([4, 1, 2], 5) == (1, 2, 4)
    assert as_support((), 5) == ()
    with pytest.raises(ValueError):
        as_support([0, 5], 5)
    with pytest.raises(ValueError):
        as_support([-1], 5)
    with pytest.raises(ValueError):
        as_support([2, 2], 5)
    # a fractional or boolean index is refused, not truncated or read as 0/1
    for bad in ([1.7, 3], [2.0], [True, 3], [np.float64(1.0)]):
        with pytest.raises(ValueError, match="must be integers"):
            as_support(bad, 5)
    assert as_support(np.array([3, 0]), 5) == (0, 3)
    assert as_support([np.uint8(4), np.int64(1)], 5) == (1, 4)


def test_row_norms_values():
    # t0 of a one-row signal is that row's norm
    X = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    assert [min_support_row_norm(X[[i]]) for i in (0, 2)] == [5.0, 1.0]
    assert support_of(X) == (0, 2)


def test_support_of_exact_and_tolerant():
    # every row that is not exactly zero counts, however small
    X = np.array([[3.0, 4.0], [0.0, 0.0], [1e-14, 0.0]])
    assert support_of(X) == (0, 2)


def test_min_support_row_norm():
    X = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    t0 = min_support_row_norm(X)
    assert type(t0) is float and t0 == 1.0


def test_min_support_row_norm_empty():
    with pytest.raises(EmptySupport):
        min_support_row_norm(np.zeros((4, 2)))


def test_row_norms_that_overflow_read_inf_without_a_warning():
    # 1e200 squared overflows, yet the norm is taken at an exact prescale;
    # only a true norm above the largest double reads inf.  Warnings are
    # errors in this suite
    X = np.zeros((4, 2))
    X[[0, 2]] = 1e200
    X[3] = 1.0
    assert support_of(X) == (0, 2, 3)
    assert min_support_row_norm(X) == np.sqrt(2.0)
    for i in (0, 2):
        assert min_support_row_norm(X[[i]]) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    X[3] = 0.0
    assert min_support_row_norm(X) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    X[0] = 1.5e308   # a true norm of about 2.1e308
    assert min_support_row_norm(X[[0]]) == np.inf
    assert min_support_row_norm(X) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)


@pytest.mark.parametrize("a", [-700, -400, 400, 700])
def test_signal_norms_are_equivariant_under_powers_of_two(a):
    # at 2^a every row and the whole signal scale exactly, so the support
    # stays, t0 scales by 2^a and a relative error stays, bit for bit,
    # also where numpy's squares would overflow or underflow
    g = np.random.default_rng(11)
    for _ in range(20):
        X = g.standard_normal((12, 3))
        X[g.choice(12, size=7, replace=False)] = 0.0
        X_hat = X + 1e-3 * g.standard_normal(X.shape)
        X_a, X_hat_a = np.ldexp(X, a), np.ldexp(X_hat, a)
        assert support_of(X_a) == support_of(X)
        assert min_support_row_norm(X_a) == np.ldexp(min_support_row_norm(X), a)
        assert relative_frobenius_error(X_hat_a, X_a) == relative_frobenius_error(X_hat, X)


def _overflowing_measurements():
    """An 8 x 12 Gaussian Phi and the measurements of a signal whose rows
    1 and 5 hold 1e200: every entry of Y is finite, ||Y||_F overflows."""
    Phi = np.random.default_rng(0).standard_normal((8, 12))
    X = np.zeros((12, 2))
    X[[1, 5]] = 1e200
    Y = Phi @ X
    assert np.isfinite(Y).all()
    return Phi, Y


def test_measurements_whose_norm_overflows_are_refused():
    Phi, Y = _overflowing_measurements()
    # the solver works at an exact power-of-two prescale, so it answers
    # as it does for the same signal at unit scale
    res, unit = somp_solve(Y, Phi, 2), somp_solve(Y * 1e-200, Phi, 2)
    assert res.support == unit.support
    assert res.trace.initial_residual_norm == pytest.approx(
        1e200 * unit.trace.initial_residual_norm, rel=1e-12)
    # the levels take ||Y||_F at the same kind of prescale, so they answer
    # too: epsb is a ratio
    levels = measure_perturbation_levels(Phi, 0 * Phi, Y, 1e-3 * Y, order=1)
    assert levels.epsb == pytest.approx(1e-3, rel=1e-15)
    _, B, levels = calibrate_perturbation(Phi, Y, PerturbationSpec(target_epsb=0.01))
    assert levels.epsb == pytest.approx(0.01, rel=1e-15)
    assert np.isfinite(B).all()
    # a norm that does not fit a double at the caller's scale is refused,
    # and so is one that overflows as the independent oracle computes it
    huge = np.full((8, 1), 1e308)
    calls = [lambda: somp_solve(huge, np.eye(8, 12), 2),
             lambda: reference_omp_smv(Y[:, 0], Phi, 2),
             lambda: measure_perturbation_levels(np.eye(8, 12), 0 * np.eye(8, 12), huge,
                                                 0 * huge, order=1),
             lambda: calibrate_perturbation(np.eye(8, 12), huge, PerturbationSpec(target_epsb=0.01))]
    for call in calls:
        with pytest.raises(PreconditionViolated,
                           match="^the norm of the measurements overflows double precision$"):
            call()


def test_relative_frobenius_error():
    X = np.array([[3.0, 4.0]])
    assert relative_frobenius_error(X, X) == 0.0
    assert relative_frobenius_error(2 * X, X) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ZeroReference):
        relative_frobenius_error(X, np.zeros((1, 2)))
    with pytest.raises(DimensionMismatch):
        relative_frobenius_error(np.zeros((2, 2)), X)


def test_weakest_row_never_beats_full_energy():
    g = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        X = g.standard_normal((8, 3))
        X[g.choice(8, size=3, replace=False)] = 0.0
        assert min_support_row_norm(X) <= np.linalg.norm(X) + 1e-15


def test_relative_error_invariant_under_column_permutation():
    g = np.random.Generator(np.random.PCG64(6))
    X = g.standard_normal((6, 4))
    R = g.standard_normal((6, 4))
    base = relative_frobenius_error(X, R)
    for _ in range(10):
        perm = g.permutation(4)
        assert relative_frobenius_error(X[:, perm], R[:, perm]) == pytest.approx(
            base, rel=1e-13)


# Every sparsity, order, width and subset-budget argument of the public API,
# on a 16 x 24 instance (n = 24): a call that passes the value, the class a
# value of the wrong kind or below 1 raises, and the class n + 1 raises
# (None where n + 1 is valid).

_PHI = np.random.default_rng(3).standard_normal((16, 24)) / 4.0
_Y = _PHI[:, [2, 9]] @ np.ones((2, 2))
_SPEC = PerturbationSpec(target_eps0=1e-3, target_epsb=1e-3, seed=1)
_CFG = InstanceConfig(m=16, n=24, L=2, k=2)

_ARGUMENTS = {
    "somp_solve.k": (lambda v: somp_solve(_Y, _PHI, v), InvalidSparsity, InvalidSparsity),
    "reference_omp_smv.k": (lambda v: reference_omp_smv(_Y[:, 0], _PHI, v),
                            InvalidSparsity, InvalidSparsity),
    "ric_exact.order": (lambda v: ric_exact(_PHI, v), InvalidOrder, InvalidOrder),
    "submatrix_spectral_norm.width": (lambda v: submatrix_spectral_norm(_PHI, v),
                                      InvalidOrder, InvalidOrder),
    "calibrate_perturbation.order": (lambda v: calibrate_perturbation(_PHI, _Y, _SPEC, order=v),
                                     InvalidOrder, InvalidOrder),
    "measure_perturbation_levels.order": (
        lambda v: measure_perturbation_levels(_PHI, 1e-3 * _PHI, _Y, 1e-3 * _Y, order=v),
        InvalidOrder, InvalidOrder),
    "low_coherence_frame.order": (lambda v: low_coherence_frame(6, 24, order=v),
                                  InvalidOrder, InvalidOrder),
    "PerturbationLevels.order": (lambda v: PerturbationLevels(0.0, 0.0, 0.0, order=v),
                                 InvalidConfig, None),
    "ric_exact.subset_budget": (lambda v: ric_exact(_PHI, 2, subset_budget=v),
                                InvalidConfig, SubsetBudgetExceeded),
    "submatrix_spectral_norm.subset_budget": (
        lambda v: submatrix_spectral_norm(_PHI, 2, subset_budget=v),
        InvalidConfig, SubsetBudgetExceeded),
    "calibrate_perturbation.subset_budget": (
        lambda v: calibrate_perturbation(_PHI, _Y, _SPEC, order=2, subset_budget=v),
        InvalidConfig, SubsetBudgetExceeded),
    "measure_perturbation_levels.subset_budget": (
        lambda v: measure_perturbation_levels(_PHI, 1e-3 * _PHI, _Y, 1e-3 * _Y, order=2,
                                              subset_budget=v),
        InvalidConfig, SubsetBudgetExceeded),
    "run_trial.subset_budget": (lambda v: run_trial(_CFG, _SPEC, subset_budget=v),
                                InvalidConfig, SubsetBudgetExceeded),
}


@pytest.mark.parametrize("value", [True, 2.5, 0, 25], ids=["True", "2.5", "0", "n+1"])
@pytest.mark.parametrize("argument", sorted(_ARGUMENTS))
def test_each_size_argument_is_read_by_its_rule(argument, value):
    call, refused, above = _ARGUMENTS[argument]
    want = above if value == 25 else refused
    if want is None:
        call(value)
    else:
        with pytest.raises(want):
            call(value)
