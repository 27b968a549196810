"""Isometry-constant machinery against independent oracles.

The production path skips every subset whose Gershgorin or Cassini bound
proves it cannot reach the extreme value and eigendecomposes only the
rest.  Two
oracles check it.  One walks every subset through an SVD, so agreement
to 1e-10 is meaningful.  The other eigendecomposes every subset Gram
matrix in one batch, which is what the kernel computed before pruning;
the pruned kernel must reproduce its float, its witness and its set of
near-extreme subsets exactly.
"""

import itertools
import math

import numpy as np
import pytest

from somplab import (
    InvalidOrder,
    PreconditionViolated,
    SubsetBudgetExceeded,
    ZeroReference,
    coherent_pair_matrix,
    inner_product_check,
    measure_perturbation_levels,
    projected_isometry_check,
    residual_sensing_matrix,
    ric_exact,
    selected_span_projector,
    submatrix_spectral_norm,
)
from somplab import rip


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _unit_columns(m, n, seed):
    A = _rng(seed).standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def _ric_oracle(A, order):
    # one subset at a time, via singular values
    worst = 0.0
    for sub in itertools.combinations(range(A.shape[1]), order):
        s = np.linalg.svd(A[:, sub], compute_uv=False)
        worst = max(worst, s[0] ** 2 - 1.0, 1.0 - s[-1] ** 2)
    return worst


def _batched_reference(A, order):
    # every subset in lexicographic order, one batched eigendecomposition:
    # each subset's deviation and largest eigenvalue
    A = np.asarray(A, dtype=float)
    gram = A.T @ A
    idx = np.array(list(itertools.combinations(range(A.shape[1]), order)))
    w = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
    return idx, np.maximum(w[:, -1] - 1.0, 1.0 - w[:, 0]), w[:, -1]


def _reference_cases():
    g = _unit_columns(9, 13, 40)
    dup = _unit_columns(8, 12, 41)
    dup[:, 7] = dup[:, 2]
    dup[:, 9] = dup[:, 2]
    zero = _unit_columns(8, 12, 42)
    zero[:, 5] = 0.0
    big = _unit_columns(8, 12, 43)
    big[:, 3] *= 1e6
    small = _unit_columns(8, 12, 44)
    small[:, 6] *= 1e-6
    cases = {
        "gaussian": g,
        "gaussian-unnormalised": _rng(45).standard_normal((7, 12)),
        "coherent-pair": coherent_pair_matrix(11, 0.4),
        "identity": np.eye(9),
        "duplicated-columns": dup,
        "zero-column": zero,
        "column-scaled-1e6": big,
        "column-scaled-1e-6": small,
        "all-scaled-1e6": g * 1e6,
        "all-scaled-1e-6": g * 1e-6,
    }
    for seed in range(12):
        g = _rng(200 + seed)
        m, n = int(g.integers(3, 12)), int(g.integers(6, 14))
        cases[f"random-{seed}"] = g.standard_normal((m, n)) / math.sqrt(m)
        cases[f"quantised-{seed}"] = g.integers(-1, 2, size=(m, n)) / 2.0
    return cases


def _desk_gaussian():
    # the shape and order of the default certificate sweep
    return _rng(47).standard_normal((32, 40)) / math.sqrt(32)


def _kernel_cases():
    # matrix and orders of each case the pruned kernel is checked on
    cases = {name: (A, range(1, min(A.shape[1], 5) + 1))
             for name, A in _reference_cases().items()}
    cases["gaussian-32x40"] = (_desk_gaussian(), (4,))
    return cases


@pytest.mark.parametrize("probe", [1, 64])
@pytest.mark.parametrize("name", sorted(_kernel_cases()))
def test_pruned_kernel_matches_exhaustive_batched_reference(name, probe, monkeypatch):
    # a first batch of one subset spreads ties over many batches
    monkeypatch.setattr(rip, "_PROBE", probe)
    A, orders = _kernel_cases()[name]
    for order in orders:
        idx, dev, top = _batched_reference(A, order)
        j = int(np.argmax(dev))   # the first maximiser is the witness
        est = ric_exact(A, order)
        assert est.delta == dev[j]
        assert est.witness_subset == tuple(idx[j])
        assert est.subsets_examined == math.comb(A.shape[1], order)
        assert submatrix_spectral_norm(A, order) == math.sqrt(max(float(top.max()), 0.0))
        # the near-extreme subsets the frame builder shrinks
        for rel in (0.5, 0.98):
            value, near = rip._extreme_subsets(A, order, deviation=True, rel=rel)
            assert value == dev[j]
            assert np.array_equal(near, idx[dev >= rel * dev[j]])


@pytest.mark.parametrize("name", sorted(_reference_cases()))
def test_cassini_bound_is_sound_and_no_looser_than_gershgorin(name):
    A = _reference_cases()[name]
    for order in range(1, min(A.shape[1], 5) + 1):
        idx, dev, top = _batched_reference(A, order)
        gram = A.T @ A
        bottom = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])[:, 0]
        # the kernel's rounding allowance scales with the subset's largest
        # eigenvalue, also on the lam_min side, where a 1e6 column leaves
        # 1e-4 of noise
        allowance = rip._SLACK * np.maximum(1.0, top)
        # the negated Gram turns the bound on lam_min into one on lam_max
        for g, deviation, value in ((gram, True, dev), (gram, False, top),
                                    (-gram, False, -bottom)):
            cassini = rip._cassini_bounds(g, idx, deviation)
            gershgorin = rip._gershgorin_bounds(g, idx, deviation)
            assert np.all(cassini >= value - allowance), (order, deviation)
            assert np.all(cassini <= gershgorin + allowance), (order, deviation)


def test_floor_slack_covers_bounds_rounded_one_ulp_low(monkeypatch):
    # every subset of an orthonormal set ties at deviation 0; bounds that
    # come out one ulp below the true value must still reach the floor
    for name in ("_gershgorin_bounds", "_cassini_bounds"):
        real = getattr(rip, name)
        monkeypatch.setattr(rip, name, lambda *args, real=real:
                            np.nextafter(real(*args), -np.inf))
    value, near = rip._extreme_subsets(np.eye(8), 4, True)
    assert value == 0.0
    assert tuple(near[0]) == (0, 1, 2, 3)
    assert len(near) == math.comb(8, 4)


def test_cassini_bound_of_an_overflowing_radius_is_infinite():
    # row 0's radius overflows and row 3's is zero: their product is NaN
    big = 1e308
    g = np.array([[big, big, big, 0.0],
                  [big, big, 0.0, 0.0],
                  [big, 0.0, big, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for deviation in (True, False):
            assert rip._cassini_bounds(g, np.array([[0, 1, 2, 3]]), deviation)[0] == math.inf


def _eigendecomposed(monkeypatch, A, order):
    # ric_exact and the number of subsets it eigendecomposed
    count = []
    real = rip._subset_values

    def counted(gram, sub, deviation):
        count.append(len(sub))
        return real(gram, sub, deviation)

    monkeypatch.setattr(rip, "_subset_values", counted)
    return ric_exact(A, order), sum(count)


def test_cassini_stage_prunes_most_gershgorin_survivors(monkeypatch):
    A = _desk_gaussian()
    est, tightened = _eigendecomposed(monkeypatch, A, 4)
    monkeypatch.setattr(rip, "_cassini_bounds", rip._gershgorin_bounds)
    gershgorin_only, loose = _eigendecomposed(monkeypatch, A, 4)
    assert est == gershgorin_only
    assert tightened < loose / 4
    # when every subset ties, none can be pruned and the first one wins
    for order in (1, 2, 4, 6):
        est, evaluated = _eigendecomposed(monkeypatch, np.eye(8), order)
        assert est.witness_subset == tuple(range(order))
        assert evaluated == math.comb(8, order)


def test_subset_table_is_built_once_per_shape_and_read_only():
    table = rip._subset_table(17, 3)
    assert rip._subset_table(17, 3) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    fresh = rip.column_subsets(17, 3)
    assert fresh is not table and fresh.flags.writeable
    assert np.array_equal(fresh, list(itertools.combinations(range(17), 3)))
    fresh[0, 0] = 5
    assert np.array_equal(rip._subset_table(17, 3), rip.column_subsets(17, 3))


def test_ties_resolve_to_the_lexicographically_first_subset():
    # every subset holding the coherent pair attains rho
    est = ric_exact(coherent_pair_matrix(10, 0.3), 3)
    assert est.witness_subset == (0, 1, 2)
    for order in (1, 2, 4, 6):
        est = ric_exact(np.eye(8), order)
        assert est.delta == 0.0
        assert est.witness_subset == tuple(range(order))


def test_column_subsets_match_itertools():
    for n in range(1, 12):
        for order in range(1, n + 1):
            table = rip.column_subsets(n, order)
            want = np.array(list(itertools.combinations(range(n), order)))
            assert table.dtype == np.uint8
            assert np.array_equal(table, want), (n, order)
    assert rip.column_subsets(300, 1).dtype == np.uint16


def test_exact_constant_matches_per_subset_svd_oracle():
    for seed in range(5):
        A = _unit_columns(8, 12, seed)
        for order in (1, 2, 3):
            est = ric_exact(A, order)
            assert est.delta == pytest.approx(_ric_oracle(A, order), abs=1e-10)
            assert est.subsets_examined == math.comb(12, order)
            assert len(est.witness_subset) == order


def test_two_column_analytic_value():
    for rho in (0.05, 0.25, 0.6, 0.95):
        A = coherent_pair_matrix(8, rho)
        est = ric_exact(A, 2)
        assert abs(est.delta - rho) <= 1e-12
        assert est.witness_subset == (0, 1)


def test_orthonormal_columns_give_zero():
    est = ric_exact(np.eye(6), 3)
    assert est.delta == 0.0


def test_unit_columns_give_zero_at_order_one():
    A = _unit_columns(10, 15, 3)
    est = ric_exact(A, 1)
    assert est.delta <= 1e-12


def test_witness_subset_is_tight():
    A = _unit_columns(9, 14, 4)
    est = ric_exact(A, 3)
    sub = A[:, list(est.witness_subset)]
    w = np.linalg.eigvalsh(sub.T @ sub)
    assert max(w[-1] - 1.0, 1.0 - w[0]) == pytest.approx(est.delta, abs=1e-12)
    # a unit vector attaining the extreme exists within rounding
    gram = sub.T @ sub
    vals, vecs = np.linalg.eigh(gram)
    idx = -1 if vals[-1] - 1.0 >= 1.0 - vals[0] else 0
    u = vecs[:, idx]
    attained = abs(np.linalg.norm(sub @ u) ** 2 - 1.0)
    assert attained == pytest.approx(est.delta, abs=1e-10)


def test_constant_monotone_in_order():
    A = _unit_columns(10, 12, 5)
    deltas = [ric_exact(A, s).delta for s in (1, 2, 3, 4)]
    assert all(b >= a - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_sandwich_on_random_sparse_vectors():
    A = _unit_columns(12, 18, 6)
    for order in (2, 3):
        est = ric_exact(A, order)
        g = _rng(100 + order)
        for _ in range(500):
            supp = g.choice(18, size=order, replace=False)
            u = np.zeros(18)
            u[supp] = g.standard_normal(order)
            nrm2 = np.linalg.norm(u) ** 2
            img2 = np.linalg.norm(A @ u) ** 2
            assert (1 - est.delta) * nrm2 - 1e-10 <= img2 <= (1 + est.delta) * nrm2 + 1e-10


def test_validation_and_budget():
    A = _unit_columns(6, 10, 7)
    with pytest.raises(InvalidOrder):
        ric_exact(A, 0)
    with pytest.raises(InvalidOrder):
        ric_exact(A, 11)
    with pytest.raises(SubsetBudgetExceeded):
        ric_exact(A, 5, subset_budget=100)


def test_overflowing_gram_is_rejected():
    A = _unit_columns(6, 8, 46) * 1e200
    with np.errstate(over="ignore"):
        with pytest.raises(PreconditionViolated):
            ric_exact(A, 2)
        with pytest.raises(PreconditionViolated):
            submatrix_spectral_norm(A, 2)


def test_submatrix_spectral_norm_small_case():
    A = np.diag([3.0, 2.0, 1.0])
    assert submatrix_spectral_norm(A, 1) == pytest.approx(3.0, abs=1e-12)
    assert submatrix_spectral_norm(A, 2) == pytest.approx(3.0, abs=1e-12)
    assert submatrix_spectral_norm(A, 3) == pytest.approx(3.0, abs=1e-12)
    # oracle comparison on a random matrix
    B = _rng(8).standard_normal((7, 9))
    for width in (1, 2, 3):
        worst = max(np.linalg.svd(B[:, sub], compute_uv=False)[0]
                    for sub in itertools.combinations(range(9), width))
        assert submatrix_spectral_norm(B, width) == pytest.approx(worst, rel=1e-10)


def test_measured_levels_for_scaled_perturbations():
    Phi = _unit_columns(10, 14, 9)
    X = np.zeros((14, 3))
    X[[2, 7]] = _rng(10).standard_normal((2, 3))
    Y = Phi @ X
    c = 0.0375
    levels = measure_perturbation_levels(Phi, c * Phi, Y, c * Y, order=2)
    assert levels.eps0 == pytest.approx(c, rel=1e-12)
    assert levels.eps == pytest.approx(c, rel=1e-12)
    assert levels.epsb == pytest.approx(c, rel=1e-12)
    assert levels.order == 2


def test_measured_levels_zero_perturbation():
    Phi = _unit_columns(8, 10, 11)
    Y = Phi @ _rng(12).standard_normal((10, 2))
    levels = measure_perturbation_levels(Phi, np.zeros_like(Phi), Y, np.zeros_like(Y), order=1)
    assert levels.eps0 == 0.0 and levels.eps == 0.0 and levels.epsb == 0.0


def test_measured_levels_reject_zero_references():
    Phi = _unit_columns(8, 10, 13)
    Y = np.ones((8, 2))
    with pytest.raises(ZeroReference):
        measure_perturbation_levels(np.zeros((8, 10)), np.zeros((8, 10)), Y, np.zeros_like(Y), 1)
    with pytest.raises(ZeroReference):
        measure_perturbation_levels(Phi, np.zeros_like(Phi), np.zeros((8, 2)), np.zeros((8, 2)), 1)


def test_selected_span_projector_properties():
    Phi = _unit_columns(9, 12, 14)
    P = selected_span_projector(Phi, (1, 4, 6))
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.allclose(P @ Phi[:, [1, 4, 6]], Phi[:, [1, 4, 6]], atol=1e-12)
    # empty support projects onto nothing
    P0 = selected_span_projector(Phi, ())
    assert not P0.any()


def test_residual_sensing_matrix_kills_selected_columns():
    Phi = _unit_columns(9, 12, 15)
    A = residual_sensing_matrix(Phi, (0, 3))
    assert np.linalg.norm(A[:, [0, 3]]) <= 1e-12
    # remaining columns lose exactly their component in the selected span
    P = selected_span_projector(Phi, (0, 3))
    assert np.allclose(A, Phi - P @ Phi, atol=1e-13)


def test_inner_product_check_randomized():
    A = _unit_columns(12, 16, 16)
    order = 4
    est = ric_exact(A, order)
    g = _rng(17)
    for _ in range(100):
        rows = g.choice(16, size=order, replace=False)
        u = np.zeros(16)
        v = np.zeros(16)
        u[rows[:2]] = g.standard_normal(2)
        v[rows[2:]] = g.standard_normal(2)
        diag = inner_product_check(A, u, v, est.delta)
        assert diag.passed
        assert diag.lhs == pytest.approx(abs((A @ u) @ (A @ v)), rel=1e-12, abs=1e-15)


def test_inner_product_check_overlapping_supports():
    # the deviation bound also covers overlapping supports, with delta
    # taken at the order of the combined vectors
    A = _unit_columns(10, 12, 18)
    est = ric_exact(A, 3)
    g = _rng(23)
    for _ in range(50):
        rows = g.choice(12, size=3, replace=False)
        u = np.zeros(12)
        v = np.zeros(12)
        u[rows[:2]] = g.standard_normal(2)
        v[rows[1:]] = g.standard_normal(2)  # shares rows[1] with u
        assert inner_product_check(A, u, v, est.delta).passed


def test_inner_product_check_with_identical_vectors():
    # u = v collapses the deviation to |(norm of Au)^2 - (norm of u)^2|
    A = _unit_columns(10, 12, 29)
    est = ric_exact(A, 2)
    g = _rng(31)
    for _ in range(50):
        rows = g.choice(12, size=2, replace=False)
        u = np.zeros(12)
        u[rows] = g.standard_normal(2)
        diag = inner_product_check(A, u, u, est.delta)
        assert diag.passed
        expected = abs(np.linalg.norm(A @ u) ** 2 - np.linalg.norm(u) ** 2)
        assert diag.lhs == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_projected_isometry_check_randomized():
    A = _unit_columns(12, 16, 19)
    est = ric_exact(A, 4)
    g = _rng(20)
    for _ in range(100):
        rows = g.choice(16, size=4, replace=False)
        support = tuple(sorted(int(r) for r in rows[:2]))
        u = np.zeros(16)
        u[rows[2:]] = g.standard_normal(2)
        diag = projected_isometry_check(A, support, u, est.delta)
        assert diag.passed
        assert diag.lower <= diag.middle <= diag.upper


def test_projected_isometry_check_rejects_overlap():
    A = _unit_columns(8, 10, 21)
    u = np.zeros(10)
    u[1] = 1.0
    with pytest.raises(PreconditionViolated):
        projected_isometry_check(A, (1, 2), u, 0.5)


def test_projected_isometry_degenerate_constant():
    A = _unit_columns(8, 10, 22)
    u = np.zeros(10)
    u[5] = 1.0
    diag = projected_isometry_check(A, (0,), u, 1.5)
    assert diag.lower == -math.inf
    assert diag.passed


def test_projected_isometry_empty_support_is_plain_sandwich():
    A = _unit_columns(10, 14, 27)
    assert np.array_equal(residual_sensing_matrix(A, ()), A)
    est = ric_exact(A, 2)
    g = _rng(28)
    for _ in range(25):
        rows = g.choice(14, size=2, replace=False)
        u = np.zeros(14)
        u[rows] = g.standard_normal(2)
        diag = projected_isometry_check(A, (), u, est.delta)
        assert diag.passed
        assert diag.middle == pytest.approx(np.linalg.norm(A @ u) ** 2, rel=1e-12)


def test_projected_isometry_orthonormal_columns():
    # orthonormal columns: the projection removes nothing from a vector
    # supported off the selected set, and the constant is zero
    Phi = np.eye(6)
    u = np.zeros(6)
    u[4] = 3.0
    diag = projected_isometry_check(Phi, (0, 1), u, 0.0)
    assert diag.passed
    assert diag.middle == pytest.approx(9.0, rel=1e-14)
    assert diag.lower == pytest.approx(9.0, rel=1e-14)
    assert diag.upper == pytest.approx(9.0, rel=1e-14)
