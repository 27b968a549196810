"""Isometry-constant machinery against independent oracles.

The production path skips every subset whose bound (the tighter of its
Gershgorin discs and the trace bound) proves it cannot reach the extreme
value and eigendecomposes only the rest.  Two oracles check it.  One
walks every subset through an SVD, so agreement to 1e-10 is
meaningful.  The other eigendecomposes every subset Gram
matrix in one batch, which is what the kernel computed before pruning;
the pruned kernel must reproduce its float, its witness and its set of
near-extreme subsets exactly.  Past one block of subsets the kernel only
lists the subsets whose Gershgorin bound can reach a seeded floor; that
listing is forced on the small oracle cases too, and checked against
the full table on larger shapes.  The perturbation levels take every
width of a matrix from one Gram; that loop must give the floats of one
kernel call per width, raise what those calls raise, and keep pairs
whose bounds overflow in the search.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from somplab import (
    InstanceConfig,
    InvalidOrder,
    PreconditionViolated,
    SubsetBudgetExceeded,
    ZeroReference,
    coherent_pair_matrix,
    gen_sensing_matrix,
    measure_perturbation_levels,
    read_matrix,
    residual_sensing_matrix,
    ric_exact,
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
    # column 0 has inner product 0.3 with each of the orthonormal columns
    # 1, 2 and 3, the rest are orthonormal too: there the ovals of
    # Cassini bound the star's largest eigenvalue, 1 + 0.3 sqrt(3),
    # exactly, while the trace and Gershgorin bounds both exceed it
    star = np.eye(10)
    star[:4, 0] = (math.sqrt(0.73), 0.3, 0.3, 0.3)
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
        "star-coupled": star,
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
            value, near = rip._gram_extremes(rip._gram(A), order, deviation=True, rel=rel)
            assert value == dev[j]
            assert np.array_equal(near, idx[dev >= rel * dev[j]])
        # the lam_max side, which the width norms read; orders 1 and 2
        # start from exact bounds
        for rel in (1.0, 0.98, 0.5):
            value, near = rip._gram_extremes(rip._gram(A), order, deviation=False, rel=rel)
            assert value == top.max()
            assert np.array_equal(near, idx[top >= rel * value])


@pytest.mark.parametrize("name", sorted(_reference_cases()))
def test_listing_matches_exhaustive_batched_reference(name, monkeypatch):
    # the listing, forced on shapes that would bound their whole table
    A = _reference_cases()[name]
    gram = A.T @ A
    for order in range(1, min(A.shape[1], 5) + 1):
        idx, dev, top = _batched_reference(A, order)
        for probe, deviation, rel in itertools.product((1, 64), (True, False), (1.0, 0.98, 0.5)):
            monkeypatch.setattr(rip, "_PROBE", probe)
            value = dev if deviation else top
            best, near = rip._listed_search(gram, order, deviation, rel)
            assert best == value.max(), (order, probe, deviation, rel)
            assert np.array_equal(near, idx[value >= rel * best]), (order, probe, deviation, rel)


def _width_cases():
    # the reference cases hold the tie-heavy coherent pair, duplicated and
    # zero columns; an identity-embedded matrix adds exactly repeated
    # eigenvalues
    return {**_reference_cases(), "identity-embedded": gen_sensing_matrix(InstanceConfig(
        m=8, n=13, L=1, k=1, matrix_ensemble="identity-embedded"))}


@pytest.mark.parametrize("name", sorted(_width_cases()))
def test_width_loop_matches_per_width_kernel(name):
    # one Gram for every width gives the floats of one kernel call per width
    A = _width_cases()[name]
    order = min(A.shape[1], 5)
    norms = list(rip._width_norms(A, order))
    assert len(norms) == order
    for width, norm in enumerate(norms, 1):
        top, _ = rip._gram_extremes(rip._gram(A), width, deviation=False)
        assert norm == math.sqrt(max(top, 0.0)), width
        assert norm == math.sqrt(max(float(_batched_reference(A, width)[2].max()), 0.0)), width
    # a wider submatrix holds a narrower one, so its norm is no smaller
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_width_loop_matches_the_full_table_at_32x40():
    A = _desk_gaussian()
    gram = A.T @ A
    norms = list(rip._width_norms(A, 4))
    for width, norm in enumerate(norms, 1):
        top, _ = rip._gram_extremes(rip._gram(A), width, deviation=False)
        # every row of the table bounded, no listing
        idx = rip._subset_table(40, width)
        full, _ = rip._search(gram, idx, False, 1.0)
        assert norm == math.sqrt(top) == math.sqrt(full), width
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def _per_width_references(Phi, order, subset_budget):
    # one kernel call per width, with the zero check after each
    widths = []
    for width in range(1, order + 1):
        den = submatrix_spectral_norm(Phi, width, subset_budget)
        if den == 0.0:
            raise ZeroReference(f"all width-{width} submatrices of the sensing matrix are zero")
        widths.append(den)
    return tuple(widths)


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:   # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


def test_width_references_refuse_the_inputs_per_width_calls_refuse():
    A = _unit_columns(6, 10, 50)
    cases = [(A, order, budget) for order in (1, 3, 4)
             for budget in (9, 10, 44, 45, 119, 120, 209, 210)]
    with np.errstate(over="ignore"):
        cases += [(np.zeros((6, 10)), 3, 1000), (np.zeros((6, 10)), 2, 5),
                  (A * 1e200, 2, 1000), (A * 1e200, 2, 5), (A, 11, 10**6)]
        for Phi, order, budget in cases:
            want = _outcome(_per_width_references, Phi, order, budget)
            got = _outcome(rip._width_references, Phi, order, budget)
            assert got == want, (order, budget)
    assert _outcome(rip._width_references, A, 3, 119)[0] is SubsetBudgetExceeded
    assert _outcome(rip._width_references, np.zeros((6, 10)), 3, 1000) == (
        ZeroReference, "all width-1 submatrices of the sensing matrix are zero")


def _overflowing_pair(big_column):
    # columns 0 and 1 have Gram entries 1.5e308, 4e307 and 1.07e307: the
    # square of their coupling and the disc of column 0 overflow, while the
    # pair's eigenvalues, at most 1.61e308, do not; column 2, when big, has
    # a larger value, 1.69e308, and finite bounds with columns 0 and 3
    A = np.zeros((4, 4))
    A[0, 0] = math.sqrt(1.5e308)
    A[0, 1] = 4e307 / A[0, 0]
    A[1, 1] = 1e70
    A[2, 2] = 1.3e154 if big_column else 1.0
    A[3, 3] = 1.0
    return A


@pytest.mark.parametrize("probe", [1, 64])
def test_overflowing_pair_bounds_stay_in_the_search(probe, monkeypatch):
    monkeypatch.setattr(rip, "_PROBE", probe)
    for big_column, want_witness in ((False, (0, 1)), (True, (0, 2))):
        A = _overflowing_pair(big_column)
        gram = A.T @ A
        assert np.isfinite(gram).all()
        idx, dev, top = _batched_reference(A, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = rip._bounds(gram, idx, False)
            # the pair (0, 1) has no finite bound, the pair (0, 2) has one
            assert bounds[0] == math.inf and math.isfinite(bounds[1])
            for deviation, value in ((True, dev), (False, top)):
                best, near = rip._gram_extremes(rip._gram(A), 2, deviation)
                assert best == value.max()
                assert tuple(near[0]) == want_witness
                assert np.array_equal(near, idx[value == best])
            est = ric_exact(A, 2)
            assert est.witness_subset == want_witness
            # the width norms read the Gram of A's power-of-two prescaled
            # copy, where no bound overflows
            e = int(np.frexp(np.abs(A).max())[1])
            _, _, scaled_top = _batched_reference(np.ldexp(A, -e), 2)
            norms = list(rip._width_norms(A, 2))
            assert norms[1] == math.ldexp(math.sqrt(scaled_top.max()), e)
            assert norms[1] == pytest.approx(math.sqrt(top.max()), rel=1e-15)


def _evaluated(monkeypatch):
    # every subset the kernel eigendecomposes, batch by batch
    batches = []
    real = rip._subset_values

    def spied(gram, sub, deviation):
        batches.append(np.array(sub))
        return real(gram, sub, deviation)

    monkeypatch.setattr(rip, "_subset_values", spied)
    return batches


def _evaluated_once(batches, n):
    ranks = rip._lex_ranker(n, batches[0].shape[1])(np.concatenate(batches))
    return len(np.unique(ranks)) == len(ranks)


def test_listing_matches_the_table_at_64x80(monkeypatch):
    A = _rng(48).standard_normal((64, 80)) / 8.0
    batches = _evaluated(monkeypatch)
    best, near = rip._gram_extremes(rip._gram(A), 4, True, rel=0.98)
    assert _evaluated_once(batches, 80)
    assert sum(map(len, batches)) < 1000
    want_best, want_near = rip._table_search(A.T @ A, 4, True, 0.98)
    assert best == want_best
    assert np.array_equal(near, want_near)


def test_coherent_groups_grow_by_the_largest_summed_coupling():
    for A in (_desk_gaussian(), _reference_cases()["duplicated-columns"], np.eye(7)):
        gram = A.T @ A
        coupling = np.abs(gram)
        n = gram.shape[0]
        for order in (1, 2, 3, 4):
            groups = rip._coherent_groups(gram, order)
            assert groups.shape == (n, order)
            for anchor, row in enumerate(groups):
                # the same group, grown one column at a time in plain Python
                want = [anchor]
                for _ in range(order - 1):
                    summed = coupling[want].sum(axis=0)
                    summed[want] = -np.inf
                    want.append(int(np.argmax(summed)))
                assert tuple(row) == tuple(sorted(want)), (order, anchor)


def test_listing_seed_often_reaches_the_final_best(monkeypatch):
    # the seed, the listing's first batch, sets its first floor: the
    # closer to the final best, the fewer subsets are listed
    rng = _rng(51)
    batches = _evaluated(monkeypatch)
    hits = 0
    for _ in range(30):
        A = rng.standard_normal((32, 40)) / math.sqrt(32)
        batches.clear()
        best, _ = rip._gram_extremes(rip._gram(A), 4, True)
        assert np.array_equal(batches[0], np.unique(rip._coherent_groups(A.T @ A, 4), axis=0))
        hits += float(rip._subset_values(A.T @ A, batches[0], True).max()) == best
    assert hits >= 18


def test_listing_falls_back_to_the_table_when_not_smaller(monkeypatch):
    listings = []
    real = rip._reaching_picks
    monkeypatch.setattr(rip, "_reaching_picks",
                        lambda *args: listings.append(real(*args)) or listings[-1])
    batches = _evaluated(monkeypatch)
    # every subset ties: the listing would hold all of them, several times
    value, near = rip._gram_extremes(rip._gram(np.eye(40)), 4, True)
    assert listings == [None]
    assert value == 0.0
    assert np.array_equal(near, rip._subset_table(40, 4))
    assert sum(map(len, batches)) == math.comb(40, 4)
    assert _evaluated_once(batches, 40)


def test_listing_on_duplicated_columns_matches_the_table(monkeypatch):
    A = _desk_gaussian()
    A[:, [7, 9, 30]] = A[:, [2, 2, 11]]
    batches = _evaluated(monkeypatch)
    for deviation, rel in itertools.product((True, False), (1.0, 0.98)):
        batches.clear()
        best, near = rip._gram_extremes(rip._gram(A), 4, deviation, rel)
        assert _evaluated_once(batches, 40)
        assert sum(map(len, batches)) < math.comb(40, 4) / 10
        want_best, want_near = rip._table_search(A.T @ A, 4, deviation, rel)
        assert best == want_best
        assert np.array_equal(near, want_near)


def _gershgorin_oracle(gram, idx, deviation):
    # the Gershgorin bound of each subset, one subset at a time
    out = []
    for sub in idx:
        g = gram[np.ix_(sub, sub)]
        radius = np.abs(g).sum(axis=1) - np.abs(np.diag(g))
        top, bottom = (np.diag(g) + radius).max(), (np.diag(g) - radius).min()
        out.append(max(top - 1.0, 1.0 - bottom) if deviation else top)
    return np.array(out)


@pytest.mark.parametrize("name", sorted(_reference_cases()))
def test_cassini_bound_is_sound_and_no_looser_than_gershgorin(name):
    # the kernel's bound against the eigenvalues and against plain
    # Gershgorin discs
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
            bound = rip._bounds(g, idx, deviation)
            gershgorin = _gershgorin_oracle(g, idx, deviation)
            assert np.all(bound >= value - allowance), (order, deviation)
            assert np.all(bound <= gershgorin + allowance), (order, deviation)


def _pair_coupled(n):
    # columns 0 and 1 have squared norm 1.5 and inner product 0.5, every
    # other column is a unit vector orthogonal to all; each Gram entry is
    # exact, and every width-4 subset holding both ties at deviation 1
    A = np.zeros((n + 1, n))
    A[:3, 0] = (1.0, 0.5, 0.5)
    A[:3, 1] = (1.0, -0.5, -0.5)
    A[np.arange(3, n + 1), np.arange(2, n)] = 1.0
    return A


def _equiangular_cluster(n, c):
    # c unit columns with pairwise inner products of exactly 1/4, the rest
    # orthonormal: the Gershgorin bound of a width-4 subset of the cluster
    # is its deviation, 3/4, and needs all three couplings of a row
    A = np.zeros((1 + 3 * c + n - c, n))
    A[0, :c] = 0.5
    for i in range(c):
        A[1 + 3 * i:4 + 3 * i, i] = 0.5
    A[np.arange(1 + 3 * c, 1 + 3 * c + n - c), np.arange(c, n)] = 1.0
    return A


def test_floor_slack_covers_bounds_rounded_one_ulp_low(monkeypatch):
    # bounds and listing sums that come out one ulp below the true value
    # must still reach the floor
    for name in ("_bounds", "_window_sums"):
        real = getattr(rip, name)
        monkeypatch.setattr(rip, name, lambda *args, real=real:
                            np.nextafter(real(*args), -np.inf))
    # every subset of an orthonormal set ties at deviation 0 (the table)
    value, near = rip._gram_extremes(rip._gram(np.eye(8)), 4, True)
    assert value == 0.0
    assert tuple(near[0]) == (0, 1, 2, 3)
    assert len(near) == math.comb(8, 4)
    # the listing: every subset holding columns 0 and 1 ties, and each row
    # sum that reaches the floor equals it
    value, near = rip._gram_extremes(rip._gram(_pair_coupled(40)), 4, True)
    assert value == 1.0
    assert np.array_equal(near, [s for s in itertools.combinations(range(40), 4)
                                 if s[:2] == (0, 1)])
    # a partial subset must be bounded by all of its best completion
    value, near = rip._gram_extremes(rip._gram(_equiangular_cluster(40, 6)), 4, True, rel=0.98)
    assert value == pytest.approx(0.75, abs=1e-12)
    assert np.array_equal(near, list(itertools.combinations(range(6), 4)))


def test_cassini_bound_of_an_overflowing_radius_is_infinite():
    # row 0's radius overflows, and so does the trace of the diagonal
    big = 1e308
    g = np.array([[big, big, big, 0.0],
                  [big, big, 0.0, 0.0],
                  [big, 0.0, big, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for deviation in (True, False):
            assert rip._bounds(g, np.array([[0, 1, 2, 3]]), deviation)[0] == math.inf


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
    # the trace bound leaves fewer than a quarter of the subsets that the
    # discs alone would send to the eigensolver
    A = _desk_gaussian()
    est, tightened = _eigendecomposed(monkeypatch, A, 4)
    monkeypatch.setattr(rip, "_bounds", _gershgorin_oracle)
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
    assert np.array_equal(table, list(itertools.combinations(range(17), 3)))


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
            table = rip._subset_table(n, order)
            want = np.array(list(itertools.combinations(range(n), order)))
            assert table.dtype == np.uint8
            assert np.array_equal(table, want), (n, order)
            assert np.array_equal(rip._lex_ranker(n, order)(table), np.arange(len(want)))
    assert rip._subset_table(300, 1).dtype == np.uint16


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
    # refused before the product, so numpy never warns (warnings are errors here)
    U = _unit_columns(6, 8, 46)
    A = np.ldexp(U, 665)   # about 1e200: every squared column norm overflows
    with pytest.raises(PreconditionViolated):
        ric_exact(A, 2)
    # the submatrix norms and the levels read the Gram of a prescaled copy
    # instead: the unit-scale values times the power of two, bit for bit
    budget = rip.DEFAULT_SUBSET_BUDGET
    assert submatrix_spectral_norm(A, 2) == math.ldexp(submatrix_spectral_norm(U, 2), 665)
    # the level widths, all from one Gram
    assert rip._width_references(A, 2, budget) == tuple(
        math.ldexp(w, 665) for w in rip._width_references(U, 2, budget))
    assert rip._sensing_levels(A, 1.0, (1.0, 1.0)) == tuple(
        math.ldexp(level, 665) for level in rip._sensing_levels(U, 1.0, (1.0, 1.0)))


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


@pytest.mark.parametrize("shape", [(20, 25), (32, 40), (25, 20), (1, 6), (6, 1)])
def test_spectral_norm_is_the_float_numpy_norm_returns(shape):
    # the references and levels of every sweep were recorded through
    # np.linalg.norm(A, 2); the one helper must give the same float
    rng = _rng(11)
    for _ in range(10):
        A = rng.standard_normal(shape)
        assert rip._spectral_norm(A) == float(np.linalg.norm(A, 2))


def _golden_frame():
    return read_matrix(Path(__file__).resolve().parent / "golden" / "frame_20x25.txt")


@pytest.mark.parametrize("a", [-700, -600, -500, 500, 600, 700])
def test_sensing_norms_are_equivariant_under_powers_of_two(a):
    # the references of eps0 and eps are taken at any scale: at 2^a they
    # are 2^a times the unit-scale ones, bit for bit, where LAPACK's own
    # rescaling and numpy's squared column norms would not give them
    budget = rip.DEFAULT_SUBSET_BUDGET
    for A, order in ((_rng(13).standard_normal((8, 10)) / math.sqrt(8), 3),
                     (_desk_gaussian(), 4), (_golden_frame(), 3)):
        scaled = np.ldexp(A, a)
        assert rip._spectral_norm(scaled) == math.ldexp(rip._spectral_norm(A), a)
        assert rip._width_references(scaled, order, budget) == tuple(
            math.ldexp(w, a) for w in rip._width_references(A, order, budget))
        assert submatrix_spectral_norm(scaled, 2) == math.ldexp(submatrix_spectral_norm(A, 2), a)


def test_a_level_or_reference_beyond_the_largest_double_is_refused():
    Phi = _rng(14).standard_normal((8, 10)) / math.sqrt(8)
    Y = Phi @ _rng(15).standard_normal((10, 2))
    cases = [
        # ||B||_F / ||Y||_F is about 1e600
        ((Phi, np.zeros_like(Phi), np.full((8, 2), 1e-300), np.full((8, 2), 1e300)),
         "the measured level epsb overflows double precision"),
        # ||E||_2 / ||Phi||_2 is about 2^1100
        ((np.ldexp(Phi, -600), np.ldexp(Phi, 500), Y, np.zeros_like(Y)),
         "the measured level eps0 overflows double precision"),
        ((np.full((8, 10), 1e308), np.zeros((8, 10)), Y, np.zeros_like(Y)),
         "the spectral norm of the sensing matrix overflows double precision"),
    ]
    for args, message in cases:
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            measure_perturbation_levels(*args, order=2)


def test_epsb_fits_where_the_norm_of_b_overflows():
    # ||B||_F is 4e308, past the largest double, but ||B||_F / ||Y||_F is 10:
    # the level is divided at B's prescaled scale, then scaled back
    Y, B = np.full((8, 2), 1e307), np.full((8, 2), 1e308)
    levels = measure_perturbation_levels(np.eye(8, 10), np.zeros((8, 10)), Y, B, 1)
    assert levels.epsb == pytest.approx(10.0, rel=1e-15)


def test_eps0_fits_where_the_spectral_norm_of_e_overflows():
    # ||E||_2 = sqrt(80) 5e307 overflows; its columns (sqrt(8) 5e307) do not
    Phi, E = np.full((8, 10), 1e307), np.full((8, 10), 5e307)
    levels = measure_perturbation_levels(Phi, E, np.ones((8, 2)), np.zeros((8, 2)), 1)
    assert levels.eps0 == pytest.approx(5.0, rel=1e-15)
    assert levels.eps == pytest.approx(5.0, rel=1e-15)


def test_eps_fits_where_the_width_norms_of_e_overflow():
    # every column of E (sqrt(8) 1e308) and every width-2 submatrix
    # overflows, but each is 10 times Phi's
    Phi, E = np.full((8, 10), 1e307), np.full((8, 10), 1e308)
    levels = measure_perturbation_levels(Phi, E, np.ones((8, 2)), np.zeros((8, 2)), 2)
    assert levels.eps == pytest.approx(10.0, rel=1e-15)
    assert levels.eps0 == pytest.approx(10.0, rel=1e-15)


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


def test_zero_sensing_perturbation_skips_the_width_kernels(monkeypatch):
    # an all-zero E ties every subset, so the kernel would eigendecompose
    # each one; its levels are known to be zero without it.  A nonzero E
    # takes its widths 1..3 from one level computation, on one Gram
    Phi = _unit_columns(8, 10, 11)
    widths = rip._width_references(Phi, 3, 10**6)
    calls = []
    real = rip._width_norms

    def counting(A, order):
        calls.append(order)
        return real(A, order)

    monkeypatch.setattr(rip, "_width_norms", counting)
    levels = rip._sensing_levels(np.zeros_like(Phi), 1.0, widths)
    assert levels == (0.0, 0.0) and calls == []
    E = np.zeros_like(Phi)
    E[3, 4] = 1e-3
    eps0, eps = rip._sensing_levels(E, 1.0, widths)
    assert calls == [3]
    assert eps0 == pytest.approx(1e-3, rel=1e-12) and eps > 0.0


def test_measured_levels_reject_zero_references():
    Phi = _unit_columns(8, 10, 13)
    Y = np.ones((8, 2))
    with pytest.raises(ZeroReference):
        measure_perturbation_levels(np.zeros((8, 10)), np.zeros((8, 10)), Y, np.zeros_like(Y), 1)
    with pytest.raises(ZeroReference):
        measure_perturbation_levels(Phi, np.zeros_like(Phi), np.zeros((8, 2)), np.zeros((8, 2)), 1)


def test_residual_sensing_matrix_kills_selected_columns():
    Phi = _unit_columns(9, 12, 15)
    A = residual_sensing_matrix(Phi, (0, 3))
    assert np.linalg.norm(A[:, [0, 3]]) <= 1e-12
    # remaining columns lose exactly their component in the selected span
    Q, _ = np.linalg.qr(Phi[:, [0, 3]])
    assert np.allclose(A, Phi - Q @ (Q.T @ Phi), atol=1e-13)


# The paper's two lemmas, written out against the exact constant.  The
# float slack is the kernel's, relative to the sides' own scale.

def _inner_product_holds(A, u, v, delta):
    # |<A u, A v> - <u, v>| <= delta ||u|| ||v||, with delta an isometry
    # constant at order max(||u - v||_0, ||u + v||_0)
    scale = np.linalg.norm(u) * np.linalg.norm(v)
    return abs((A @ u) @ (A @ v) - u @ v) <= delta * scale + rip._SLACK * max(1.0, scale)


def _projected_isometry_holds(Phi, support, u, delta):
    # with P Phi the columns projected off the selected span, u supported
    # away from it and delta an isometry constant at order |support| + ||u||_0:
    # (1 - delta / (1 - delta)) ||u||^2 <= ||P Phi u||^2 <= (1 + delta) ||u||^2,
    # where the lower side says nothing once delta >= 1
    energy = u @ u
    middle = np.linalg.norm(residual_sensing_matrix(Phi, support) @ u) ** 2
    slack = rip._SLACK * max(1.0, energy)
    lower = -math.inf if delta >= 1.0 else (1.0 - delta / (1.0 - delta)) * energy
    return lower - slack <= middle <= (1.0 + delta) * energy + slack


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
        assert _inner_product_holds(A, u, v, est.delta)


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
        assert _inner_product_holds(A, u, v, est.delta)


def test_inner_product_check_with_identical_vectors():
    # u = v collapses the deviation to |(norm of Au)^2 - (norm of u)^2|,
    # which delta at the order of u bounds by delta (norm of u)^2
    A = _unit_columns(10, 12, 29)
    est = ric_exact(A, 2)
    g = _rng(31)
    for _ in range(50):
        rows = g.choice(12, size=2, replace=False)
        u = np.zeros(12)
        u[rows] = g.standard_normal(2)
        assert _inner_product_holds(A, u, u, est.delta)


def test_projected_isometry_check_randomized():
    A = _unit_columns(12, 16, 19)
    est = ric_exact(A, 4)
    g = _rng(20)
    for _ in range(100):
        rows = g.choice(16, size=4, replace=False)
        support = tuple(sorted(int(r) for r in rows[:2]))
        u = np.zeros(16)
        u[rows[2:]] = g.standard_normal(2)
        assert _projected_isometry_holds(A, support, u, est.delta)


def test_projected_isometry_empty_support_is_plain_sandwich():
    A = _unit_columns(10, 14, 27)
    assert np.array_equal(residual_sensing_matrix(A, ()), A)
    est = ric_exact(A, 2)
    g = _rng(28)
    for _ in range(25):
        rows = g.choice(14, size=2, replace=False)
        u = np.zeros(14)
        u[rows] = g.standard_normal(2)
        assert _projected_isometry_holds(A, (), u, est.delta)


def test_projected_isometry_orthonormal_columns():
    # orthonormal columns: the projection removes nothing from a vector
    # supported off the selected set, and the constant is zero, so both
    # sides of the lemma meet at ||u||^2
    Phi = np.eye(6)
    u = np.zeros(6)
    u[4] = 3.0
    assert ric_exact(Phi, 3).delta == 0.0
    assert np.linalg.norm(residual_sensing_matrix(Phi, (0, 1)) @ u) ** 2 == pytest.approx(
        9.0, rel=1e-14)
    assert _projected_isometry_holds(Phi, (0, 1), u, 0.0)
