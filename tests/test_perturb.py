import dataclasses
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from somplab import (
    B_MODES,
    DimensionMismatch,
    InstanceConfig,
    InvalidConfig,
    InvalidOrder,
    PerturbationSpec,
    PreconditionViolated,
    SubsetBudgetExceeded,
    apply_perturbation,
    calibrate_perturbation,
    coherent_pair_matrix,
    gen_sensing_matrix,
    gen_sparse_signal,
    low_coherence_frame,
    measure_perturbation_levels,
    read_matrix,
    ric_exact,
    support_of,
)
from somplab import perturb, rip


def _clean(seed=3, m=16, n=24, L=3, k=2, **kw):
    cfg = InstanceConfig(m=m, n=n, L=L, k=k, seed=seed, **kw)
    Phi = gen_sensing_matrix(cfg)
    X = gen_sparse_signal(cfg)
    return cfg, Phi, X, Phi @ X


def test_gen_sensing_matrix_deterministic():
    cfg = InstanceConfig(m=10, n=14, L=2, k=2, seed=42)
    assert np.array_equal(gen_sensing_matrix(cfg), gen_sensing_matrix(cfg))
    other = dataclasses.replace(cfg, seed=43)
    assert not np.array_equal(gen_sensing_matrix(cfg), gen_sensing_matrix(other))


def test_gaussian_columns_concentrate_near_unit_norm():
    cfg = InstanceConfig(m=400, n=50, L=1, k=1, seed=0)
    norms = np.linalg.norm(gen_sensing_matrix(cfg), axis=0)
    assert np.all(np.abs(norms - 1.0) < 0.15)


def test_identity_embedded_square_is_identity():
    cfg = InstanceConfig(m=6, n=6, L=1, k=1, seed=0, matrix_ensemble="identity-embedded")
    assert np.array_equal(gen_sensing_matrix(cfg), np.eye(6))


def test_identity_embedded_columns_are_unit_norm():
    cfg = InstanceConfig(m=8, n=14, L=1, k=1, seed=0, matrix_ensemble="identity-embedded")
    Phi = gen_sensing_matrix(cfg)
    assert np.allclose(np.linalg.norm(Phi, axis=0), 1.0, atol=1e-12)
    assert np.array_equal(Phi[:, :8], np.eye(8))


def test_user_supplied_matrix_passthrough():
    M = np.arange(12.0).reshape(3, 4) + 1.0
    cfg = InstanceConfig(m=3, n=4, L=1, k=1, seed=0,
                         matrix_ensemble="user-supplied", matrix=M)
    assert np.array_equal(gen_sensing_matrix(cfg), M)


def test_instance_config_validation():
    with pytest.raises(InvalidConfig):
        InstanceConfig(m=4, n=8, L=1, k=5, seed=0)  # k > min(m, n)
    with pytest.raises(InvalidConfig):
        InstanceConfig(m=4, n=8, L=0, k=1, seed=0)
    with pytest.raises(InvalidConfig):
        InstanceConfig(m=4, n=8, L=1, k=1, seed=0, matrix=np.eye(4, 8))
    with pytest.raises(InvalidConfig):
        InstanceConfig(m=4, n=8, L=1, k=1, seed=0, matrix_ensemble="user-supplied")
    with pytest.raises(InvalidConfig):
        InstanceConfig(m=4, n=8, L=1, k=1, seed=0, matrix_ensemble="bogus")


def test_gen_sparse_signal_shape_and_support():
    cfg, Phi, X, Y = _clean(k=3)
    assert X.shape == (24, 3)
    assert len(support_of(X)) == 3
    assert np.array_equal(X, gen_sparse_signal(cfg))


def test_gen_sparse_signal_full_sparsity():
    cfg = InstanceConfig(m=10, n=10, L=2, k=10, seed=2)
    assert len(support_of(gen_sparse_signal(cfg))) == 10


def test_gen_sparse_signal_row_floor():
    cfg = InstanceConfig(m=8, n=40, L=2, k=6, seed=5, signal_row_norm_min=1.25)
    X = gen_sparse_signal(cfg)
    norms = np.linalg.norm(X, axis=1)
    occupied = norms[norms > 0]
    assert occupied.size == 6
    assert np.all(occupied >= 1.25 - 1e-12)


def test_calibration_hits_targets():
    cfg, Phi, X, Y = _clean()
    spec = PerturbationSpec(target_eps0=3e-4, target_epsb=2e-3, seed=9)
    E, B, levels = calibrate_perturbation(Phi, Y, spec, order=2)
    assert levels.eps0 == pytest.approx(3e-4, rel=1e-12)
    assert levels.epsb == pytest.approx(2e-3, rel=1e-12)
    assert levels.eps > 0.0
    assert levels.order == 2
    assert E.shape == Phi.shape and B.shape == Y.shape


def test_calibration_zero_targets_give_zero_matrices():
    cfg, Phi, X, Y = _clean()
    E, B, levels = calibrate_perturbation(Phi, Y, PerturbationSpec(), order=1)
    assert not E.any() and not B.any()
    assert levels.eps0 == 0.0 and levels.epsb == 0.0


def test_calibration_is_deterministic():
    cfg, Phi, X, Y = _clean()
    Ea, Ba, levels_a = calibrate_perturbation(Phi, Y, PerturbationSpec(1e-3, 1e-2, seed=4))
    Eb, Bb, levels_b = calibrate_perturbation(Phi, Y, PerturbationSpec(1e-3, 1e-2, seed=4))
    assert np.array_equal(Ea, Eb) and np.array_equal(Ba, Bb) and levels_a == levels_b
    _, Bc, _ = calibrate_perturbation(Phi, Y, PerturbationSpec(1e-3, 1e-2, seed=5))
    assert not np.array_equal(Ba, Bc)


def test_user_supplied_perturbation_is_measured_not_scaled():
    # calibration and trials draw their own E and B; a given pair is measured
    cfg, Phi, X, Y = _clean()
    levels = measure_perturbation_levels(Phi, 0.07 * Phi, Y, np.zeros_like(Y), order=2)
    assert levels.eps0 == pytest.approx(0.07, rel=1e-12)
    assert levels.eps == pytest.approx(0.07, rel=1e-12)
    assert levels.epsb == 0.0


@pytest.mark.parametrize("order", [0, -2, 25])
def test_levels_are_measured_over_at_least_one_width(order):
    cfg, Phi, X, Y = _clean()
    with pytest.raises(InvalidOrder, match=f"order {order} outside 1..24"):
        calibrate_perturbation(Phi, Y, PerturbationSpec(target_eps0=1e-2), order=order)
    with pytest.raises(InvalidOrder, match=f"order {order} outside 1..24"):
        measure_perturbation_levels(Phi, 1e-2 * Phi, Y, np.zeros_like(Y), order=order)


def test_column_skewed_concentrates_on_weakest_column():
    cfg, Phi, X, Y = _clean(L=4)
    spec = PerturbationSpec(target_epsb=0.01, seed=2, b_mode="column-skewed")
    _, B, levels = calibrate_perturbation(Phi, Y, spec)
    col_norms = np.linalg.norm(B, axis=0)
    j = int(np.argmin(np.linalg.norm(Y, axis=0)))
    assert np.flatnonzero(col_norms).tolist() == [j]
    assert levels.epsb == pytest.approx(0.01, rel=1e-12)
    # that one column is corrupted far beyond the global level
    assert col_norms[j] / np.linalg.norm(Y[:, j]) > 0.01


def test_column_skewed_b_lands_on_the_same_column_at_any_scale():
    # at 2^700 every column norm of Y overflows as numpy takes it, which
    # would read the weakest column as the first one
    cfg, Phi, X, Y = _clean(L=4)
    spec = PerturbationSpec(target_epsb=0.01, seed=2, b_mode="column-skewed")
    _, B, _ = calibrate_perturbation(Phi, Y, spec)
    _, B_huge, _ = calibrate_perturbation(Phi, np.ldexp(Y, 700), spec)
    assert np.flatnonzero(B.any(axis=0)).tolist() == [2]
    assert np.flatnonzero(B_huge.any(axis=0)).tolist() == [2]


@pytest.mark.parametrize("a", [-700, -400, 400, 700])
@pytest.mark.parametrize("b_mode", B_MODES)
def test_measurement_levels_are_equivariant_under_powers_of_two(b_mode, a):
    # epsb is a ratio of norms of caller data: with Y at 2^a the calibrated
    # B is 2^a times the unit-scale one and every level is the same, bit
    # for bit, also where numpy's squares of Y overflow or underflow
    cfg, Phi, X, Y = _clean(L=4)
    spec = PerturbationSpec(target_eps0=1e-3, target_epsb=1e-2, seed=2, b_mode=b_mode)
    E, B, levels = calibrate_perturbation(Phi, Y, spec, order=2)
    E_a, B_a, levels_a = calibrate_perturbation(Phi, np.ldexp(Y, a), spec, order=2)
    assert np.array_equal(E_a, E) and np.array_equal(B_a, np.ldexp(B, a))
    assert levels_a == levels
    measured = measure_perturbation_levels(Phi, E, Y, B, order=2)
    assert measure_perturbation_levels(Phi, E, np.ldexp(Y, a), np.ldexp(B, a), order=2) == measured
    assert measured.epsb == levels.epsb


def _frame_clean():
    Phi = read_matrix(Path(__file__).resolve().parent / "golden" / "frame_20x25.txt")
    X = np.zeros((25, 2))
    X[[4, 7]] = [[1.0, 2.0], [-1.0, 0.5]]
    return Phi, Phi @ X


@pytest.mark.parametrize("b", [-600, 0, 600])
@pytest.mark.parametrize("a", [-600, -500, 500, 600])
def test_levels_are_equivariant_under_powers_of_two(a, b):
    # eps0 and eps are ratios of norms of (E, Phi) as epsb is of (B, Y):
    # with Phi at 2^a and Y at 2^b the calibrated E and B are 2^a and 2^b
    # times the unit-scale ones, and every level is the same, bit for bit
    spec = PerturbationSpec(target_eps0=1e-3, target_epsb=1e-2, seed=2)
    _, Phi_g, _, Y_g = _clean(L=4)
    for Phi, Y in ((Phi_g, Y_g), _frame_clean()):
        E, B, levels = calibrate_perturbation(Phi, Y, spec, order=2)
        E_s, B_s, levels_s = calibrate_perturbation(np.ldexp(Phi, a), np.ldexp(Y, b), spec,
                                                    order=2)
        assert np.array_equal(E_s, np.ldexp(E, a)) and np.array_equal(B_s, np.ldexp(B, b))
        assert levels_s == levels
        measured = measure_perturbation_levels(Phi, E, Y, B, order=2)
        assert measure_perturbation_levels(np.ldexp(Phi, a), np.ldexp(E, a), np.ldexp(Y, b),
                                           np.ldexp(B, b), order=2) == measured
        assert measured == levels


def test_calibrated_level_or_perturbation_beyond_the_largest_double_is_refused():
    # nearly equal columns: Phi's width norms are far below ||Phi||_2, so
    # at target_eps0 = 1e308 the width level eps exceeds the largest double
    Phi = (1.0 + 0.01 * np.random.default_rng(0).standard_normal((8, 12))) / 16
    Y = Phi[:, [1, 5]]
    _, _, levels = calibrate_perturbation(Phi, Y, PerturbationSpec(target_eps0=1e307, seed=3),
                                          order=2)
    assert levels.eps0 == 1e307 and 2e307 < levels.eps < 3e307
    with pytest.raises(PreconditionViolated,
                       match="^the measured level eps overflows double precision$"):
        calibrate_perturbation(Phi, Y, PerturbationSpec(target_eps0=1e308, seed=3), order=2)
    # on a Phi and Y of larger norm, E or B itself would not fit a double:
    # refused before it is formed, so numpy has no overflow to warn about
    Phi = 16 * Phi
    for spec in (PerturbationSpec(target_eps0=1e308, seed=3),
                 PerturbationSpec(target_epsb=1e308, seed=3)):
        with pytest.raises(PreconditionViolated,
                           match=r"^a perturbation at level 1e\+308 overflows double precision$"):
            calibrate_perturbation(Phi, 16 * Y, spec, order=2)


def test_apply_perturbation_and_inverse():
    cfg, Phi, X, Y = _clean()
    E, B, _ = calibrate_perturbation(Phi, Y, PerturbationSpec(1e-3, 5e-3, seed=8))
    Y_obs, Phi_obs = apply_perturbation(Y, Phi, E, B)
    assert np.array_equal(Y_obs, Y + B)
    assert np.array_equal(Phi_obs, Phi + E)
    Y_back, Phi_back = apply_perturbation(Y_obs, Phi_obs, -E, -B)
    assert np.allclose(Y_back, Y, rtol=0, atol=1e-12 * np.linalg.norm(Y))
    assert np.allclose(Phi_back, Phi, rtol=0, atol=1e-12 * np.linalg.norm(Phi))


def test_apply_perturbation_refuses_mismatched_shapes():
    cfg, Phi, X, Y = _clean()
    E, B, _ = calibrate_perturbation(Phi, Y, PerturbationSpec(1e-3, 5e-3, seed=8))
    for bad_E, bad_B in ((E[:-1], B), (E[:, :-1], B), (E, B[:-1]), (E, B[:, :-1]), (E.T, B)):
        with pytest.raises(DimensionMismatch, match="do not match the observations"):
            apply_perturbation(Y, Phi, bad_E, bad_B)


def test_perturbation_spec_validation():
    with pytest.raises(InvalidConfig):
        PerturbationSpec(target_eps0=-0.1)
    with pytest.raises(InvalidConfig):
        PerturbationSpec(b_mode="bogus")


@pytest.mark.parametrize("name", ["target_eps0", "target_epsb"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_perturbation_spec_refuses_non_finite_targets(name, value):
    # calibration scales the draws by the targets, so a non-finite one
    # would give non-finite perturbations
    with pytest.raises(InvalidConfig, match=name):
        PerturbationSpec(**{name: value})


def test_coherent_pair_matrix_construction():
    for rho in (0.1, 0.5, 0.9):
        A = coherent_pair_matrix(10, rho)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)
        gram = A.T @ A
        off = gram - np.diag(np.diag(gram))
        assert off[0, 1] == pytest.approx(rho, abs=1e-12)
        # every other pair is exactly orthogonal
        off[0, 1] = off[1, 0] = 0.0
        assert np.abs(off).max() <= 1e-12
    assert ric_exact(coherent_pair_matrix(10, 0.0), 2).delta == 0.0
    with pytest.raises(InvalidConfig):
        coherent_pair_matrix(10, 1.0)
    with pytest.raises(InvalidConfig):
        coherent_pair_matrix(10, -0.1)


def test_coherent_pair_matrix_reads_n_by_its_kind():
    with pytest.raises(InvalidConfig, match="'n' must be an integer >= 1, got 3.0"):
        coherent_pair_matrix(3.0, 0.5)
    with pytest.raises(InvalidConfig, match="need at least two columns"):
        coherent_pair_matrix(1, 0.5)
    assert np.array_equal(coherent_pair_matrix(np.int64(3), 0.5), coherent_pair_matrix(3, 0.5))


def test_low_coherence_frame_properties():
    A = low_coherence_frame(12, 15, seed=0, order=2)
    assert A.shape == (12, 15)
    assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-10)
    B = low_coherence_frame(12, 15, seed=0, order=2)
    assert np.array_equal(A, B)
    # the optimizer beats the plain gaussian draw it started from
    cfg = InstanceConfig(m=12, n=15, L=1, k=1, seed=0)
    raw = gen_sensing_matrix(cfg)
    raw = raw / np.linalg.norm(raw, axis=0)
    assert ric_exact(A, 2).delta < ric_exact(raw, 2).delta


@pytest.mark.parametrize("seed", [0.5, -1, True, np.float64(2.0)])
def test_low_coherence_frame_refuses_a_seed_that_is_not_a_nonnegative_integer(seed):
    # refused before the draw, which would truncate a float seed
    with pytest.raises(InvalidConfig, match="'seed' must be an integer >= 0"):
        low_coherence_frame(6, 8, seed=seed, order=2)


@pytest.mark.parametrize("m, n, name", [(0, 8, "m"), (True, 8, "m"), (6, 8.0, "n")])
def test_low_coherence_frame_refuses_sizes_that_are_not_counts(m, n, name):
    # refused before numpy sees them, naming the argument
    with pytest.raises(InvalidConfig, match=f"'{name}' must be an integer >= 1"):
        low_coherence_frame(m, n, order=2)


def test_low_coherence_frame_refuses_more_subsets_than_the_default_budget():
    # C(60, 5) = 5,461,512 subsets, refused before the draw as ric_exact
    # refuses them, instead of enumerating them at every iterate
    start = time.perf_counter()
    with pytest.raises(SubsetBudgetExceeded,
                       match=r"^C\(60, 5\) = 5461512 subsets exceed the budget of 2000000$"):
        low_coherence_frame(30, 60, order=5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("m, n", [(6, 5), (5, 5), (4, 5)])
def test_low_coherence_frame_is_m_by_n_on_either_side_of_square(m, n):
    # with m > n the Gram has n eigenpairs; the frame still has m rows
    A = low_coherence_frame(m, n, seed=0, order=2)
    assert A.shape == (m, n)
    assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-10)
    assert np.linalg.matrix_rank(A) == min(m, n)
    if m >= n:   # room for n orthonormal columns: the frame finds them
        assert ric_exact(A, 2).delta < 1e-3


# SHA-256 of the five session frames (20 x 25, seeds 0..4) as built before
# the frame builder shared the isometry kernel's subset table.  The digest
# pins the float results of this numpy/OpenBLAS build; record it again
# from that earlier code when the linear-algebra build changes.
_FRAMES_DIGEST = "3b832f2536e72347c1a4e0335556b4103e69a650af996122c5ce48bc03d1af6a"


def test_low_coherence_frames_are_bit_identical_to_recorded_digest(frames):
    h = hashlib.sha256()
    for A in frames:
        h.update(A.tobytes())
    assert h.hexdigest() == _FRAMES_DIGEST


def test_low_coherence_frame_values_each_iterate_on_the_gram_it_holds(monkeypatch):
    # one Gram per iterate: the 381 valuations (the start, every tenth of
    # stage 1's 800 iterates and all 300 of stage 2) read the Gram that
    # the builder clips or shrinks, so none goes through rip._gram
    calls, valued = [], []
    real_gram, real_extremes = rip._gram, rip._gram_extremes
    monkeypatch.setattr(rip, "_gram", lambda A: calls.append(A) or real_gram(A))
    monkeypatch.setattr(perturb, "_gram_extremes",
                        lambda gram, *args, **kw: valued.append(gram) or real_extremes(
                            gram, *args, **kw), raising=False)
    low_coherence_frame(8, 10, seed=0, order=2)
    assert len(calls) == 0
    assert len(valued) == 381
