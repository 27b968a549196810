"""Solver invariants checked on randomized instances.

Every property here holds in exact arithmetic; tolerances are pure
rounding allowances, scaled by the problem's own norms.
"""

import math

import numpy as np
import pytest

from somplab import (
    DimensionMismatch,
    EmptySupport,
    InvalidSparsity,
    least_squares_on_support,
    somp_solve,
    solve_perturbed,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _instance(seed, m=40, n=10, L=3, k=2):
    # deliberately overdetermined so greedy recovery is certain
    g = _rng(seed)
    Phi = g.standard_normal((m, n)) / np.sqrt(m)
    X = np.zeros((n, L))
    rows = g.choice(n, size=k, replace=False)
    X[np.sort(rows)] = g.standard_normal((k, L))
    return Phi, X, Phi @ X


def test_noiseless_exact_recovery():
    for seed in range(20):
        Phi, X, Y = _instance(seed)
        res = somp_solve(Y, Phi, 2)
        assert res.support == tuple(np.flatnonzero(np.linalg.norm(X, axis=1)))
        assert np.linalg.norm(res.signal - X) <= 1e-10 * np.linalg.norm(X)


def test_residual_orthogonal_to_selected_columns():
    for seed in range(20):
        Phi, X, Y = _instance(seed, m=12, n=30, L=4, k=3)
        res = somp_solve(Y, Phi, 3)
        R = Y - Phi @ res.signal
        cross = np.linalg.norm(Phi[:, list(res.support)].T @ R)
        scale = np.linalg.norm(Phi, 2) * np.linalg.norm(Y)
        assert cross <= 1e-10 * scale


def test_residual_matches_projector_complement():
    # the residual after refitting equals Y minus its projection onto
    # the span of the selected columns
    for seed in range(10):
        Phi, X, Y = _instance(seed, m=15, n=25, L=2, k=3)
        res = somp_solve(Y, Phi, 3)
        Q, _ = np.linalg.qr(Phi[:, list(res.support)])   # the selected span
        P = Q @ Q.T
        R_direct = Y - Phi @ res.signal
        R_proj = Y - P @ Y
        assert np.linalg.norm(R_direct - R_proj) <= 1e-10 * np.linalg.norm(Y)
        assert res.trace.residual_norms[-1] == pytest.approx(
            np.linalg.norm(R_direct), rel=1e-10, abs=1e-12)


def test_selected_scores_vanish_in_later_iterations():
    for seed in range(10):
        Phi, X, Y = _instance(seed, m=12, n=30, L=4, k=4)
        trace = somp_solve(Y, Phi, 4).trace
        for i, scores in enumerate(trace.score_tables):
            prev = list(trace.selected[:i])
            if prev:
                assert np.max(scores[prev]) <= 1e-10 * np.max(scores)


def test_permutation_equivariance():
    # column i of the permuted matrix is column perm[i] of the original,
    # so selections map through the inverse permutation
    for seed in range(10):
        Phi, X, Y = _instance(seed, m=20, n=12, L=3, k=3)
        perm = _rng(1000 + seed).permutation(12)
        inv = np.argsort(perm)
        res = somp_solve(Y, Phi, 3)
        res_p = somp_solve(Y, Phi[:, perm], 3)
        assert res_p.support == tuple(sorted(int(inv[j]) for j in res.support))
        assert np.linalg.norm(res_p.signal - res.signal[perm]) \
            <= 1e-9 * np.linalg.norm(res.signal)


def test_positive_scaling_invariance():
    Phi, X, Y = _instance(3, m=18, n=24, L=2, k=3)
    base = somp_solve(Y, Phi, 3)
    for c in (0.25, 7.0):
        scaled = somp_solve(c * Y, Phi, 3)
        assert scaled.trace.selected == base.trace.selected
        assert np.allclose(scaled.signal, c * base.signal, rtol=1e-12, atol=0)


def test_single_vector_scores_are_absolute_correlations():
    g = _rng(9)
    Phi = g.standard_normal((16, 32)) / 4.0
    r = g.standard_normal((16, 1))
    scores = somp_solve(r, Phi, 1).trace.score_tables[0]
    assert np.allclose(scores, np.abs(Phi.T @ r[:, 0]), rtol=1e-14)


def test_early_stop_on_zero_observations():
    Phi = _rng(0).standard_normal((10, 20))
    res = somp_solve(np.zeros((10, 3)), Phi, 4)
    assert res.support == ()
    assert res.terminated_early == "zero-residual"
    assert res.signal.shape == (20, 3)
    assert not res.signal.any()


def test_early_stop_after_exact_fit():
    # asking for more atoms than the signal has stops once the residual
    # is numerically zero
    Phi, X, Y = _instance(4, m=40, n=10, L=3, k=2)
    res = somp_solve(Y, Phi, 5)
    assert res.terminated_early == "zero-residual"
    assert len(res.trace.selected) == 2
    assert res.support == tuple(np.flatnonzero(np.linalg.norm(X, axis=1)))


def test_solve_perturbed_matches_nominal_algorithm():
    Phi, X, Y = _instance(5, m=14, n=28, L=2, k=2)
    a = somp_solve(Y, Phi, 2)
    b = solve_perturbed(Y, Phi, 2)
    assert a.support == b.support
    assert np.array_equal(a.signal, b.signal)
    assert solve_perturbed is somp_solve   # one solver under two names


def test_least_squares_rows_off_support_exactly_zero():
    Phi, X, Y = _instance(6, m=15, n=25, L=3, k=3)
    fit = least_squares_on_support(Y, Phi, (1, 5, 9))
    off = [j for j in range(25) if j not in (1, 5, 9)]
    assert not fit.signal[off].any()
    assert fit.rank == 3
    assert not fit.rank_deficient


def test_least_squares_flags_rank_deficiency():
    g = _rng(7)
    Phi = g.standard_normal((10, 6))
    Phi[:, 3] = Phi[:, 1]  # duplicated column
    Y = g.standard_normal((10, 2))
    fit = least_squares_on_support(Y, Phi, (1, 3))
    assert fit.rank_deficient
    assert fit.rank == 1
    with pytest.raises(EmptySupport):
        least_squares_on_support(Y, Phi, ())


def test_sparsity_validation():
    Phi = _rng(8).standard_normal((10, 20))
    Y = _rng(9).standard_normal((10, 2))
    for bad in (0, -1, 11, 2.5):
        with pytest.raises(InvalidSparsity):
            somp_solve(Y, Phi, bad)
    assert somp_solve(Y, Phi, 2.0).support  # integral float is fine


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        somp_solve(np.zeros((9, 2)), np.zeros((10, 20)) + 1.0, 2)


def test_trace_records_every_iteration():
    Phi, X, Y = _instance(10, m=12, n=30, L=4, k=3)
    trace = somp_solve(Y, Phi, 3).trace
    assert len(trace.selected) == 3
    assert len(trace.score_tables) == 3
    assert len(trace.filter_matrices) == 3
    assert len(trace.residual_norms) == 3
    assert trace.filter_matrices[0].shape == (30, 4)
    assert trace.initial_residual_norm == pytest.approx(np.linalg.norm(Y), rel=1e-15)
    # residual norms decrease monotonically for a greedy refit
    seq = (trace.initial_residual_norm,) + trace.residual_norms
    assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def _reference_solve(Y, Phi, k):
    """The greedy loop as it was before it formed the residual from the
    selected columns: the matched filter as Phi^T R, a validated
    ``least_squares_on_support`` refit every iteration and the residual
    against all of Phi.  Selection skips already-selected indices, as
    the solver does."""
    y_norm = float(np.linalg.norm(Y))
    R, Z = Y, np.zeros((Phi.shape[1], Y.shape[1]))
    selected, scores_seen, residual_norms, rank_deficient = [], [], [], []
    for _ in range(k):
        if (residual_norms[-1] if residual_norms else y_norm) <= 1e-12 * y_norm:
            return selected, Z, scores_seen, residual_norms, rank_deficient, "zero-residual"
        scores = np.linalg.norm(Phi.T @ R, axis=1)
        unselected = scores.copy()
        unselected[selected] = -1.0
        selected.append(int(np.argmax(unselected)))
        fit = least_squares_on_support(Y, Phi, selected)
        Z = fit.signal
        R = Y - Phi @ Z
        scores_seen.append(scores)
        residual_norms.append(float(np.linalg.norm(R)))
        rank_deficient.append(fit.rank_deficient)
    return selected, Z, scores_seen, residual_norms, rank_deficient, None


def test_loop_matches_full_residual_reference():
    # 500 random shapes: every third Y exactly sparse, every fifth Phi with
    # a duplicated column (the square ones among them run out of span and
    # must refit rank-deficiently); rounding allowances scale with ||Y||
    # and ||Phi|| ||Y||, since a residual near zero has no relative accuracy
    stopped = rank_deficient_runs = 0
    for seed in range(500):
        g = _rng(5000 + seed)
        m = int(g.integers(5, 41))
        L = int(g.integers(1, 6))
        if seed % 10 == 4:
            n, k = m, m
        else:
            n, k = int(g.integers(m, 2 * m + 1)), int(g.integers(1, m + 1))
        Phi = g.standard_normal((m, n))
        if seed % 5 == 4:
            a, b = g.choice(n, size=2, replace=False)
            Phi[:, b] = Phi[:, a]
        if seed % 3 == 0:
            s = int(g.integers(1, k + 1))
            X = np.zeros((n, L))
            X[g.choice(n, size=s, replace=False)] = g.standard_normal((s, L))
            Y = Phi @ X
        else:
            Y = g.standard_normal((m, L))
        res = somp_solve(Y, Phi, k)
        selected, Z, scores_seen, residual_norms, rank_deficient, stop = _reference_solve(Y, Phi, k)
        t = res.trace
        assert t.selected == tuple(selected), seed
        assert res.terminated_early == stop, seed
        assert t.rank_deficient == tuple(rank_deficient), seed
        assert np.linalg.norm(res.signal - Z) <= 1e-12 * np.linalg.norm(Z), seed
        y_norm = np.linalg.norm(Y)
        assert np.allclose(t.residual_norms, residual_norms, rtol=0, atol=1e-12 * y_norm), seed
        scale = np.linalg.norm(Phi, 2) * y_norm
        for got, want in zip(t.score_tables, scores_seen, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, seed
        stopped += stop is not None
        rank_deficient_runs += any(rank_deficient)
    assert stopped >= 50 and rank_deficient_runs >= 20


def test_solve_validates_inputs_once(monkeypatch):
    import somplab.solver as solver_mod

    calls = []
    original = solver_mod.as_matrix

    def counting(a, name="matrix"):
        calls.append(name)
        return original(a, name)

    monkeypatch.setattr(solver_mod, "as_matrix", counting)
    g = _rng(11)
    Phi = g.standard_normal((30, 60))
    Y = g.standard_normal((30, 4))
    for k in (1, 5, 30):
        calls.clear()
        res = somp_solve(Y, Phi, k)
        assert len(res.trace.selected) == k
        assert len(calls) <= 2


def _duplicated_column_instance():
    # column 1 repeats column 0, so Phi has rank 9 and Y (generic) lies
    # outside its span: after nine selections every score is rounding noise
    g = _rng(0)
    Phi = g.standard_normal((10, 10))
    Phi[:, 1] = Phi[:, 0]
    return Phi, g.standard_normal((10, 2))


def test_exhausted_span_does_not_reselect_a_column(tmp_path, capsys):
    from somplab import write_matrix
    from somplab.cli import main

    Phi, Y = _duplicated_column_instance()
    res = somp_solve(Y, Phi, 10)
    assert sorted(res.trace.selected) == list(range(10))
    assert res.support == tuple(range(10))
    assert res.trace.rank_deficient[-1]
    assert not any(res.trace.rank_deficient[:-1])

    phi_path, y_path = tmp_path / "phi.txt", tmp_path / "y.txt"
    write_matrix(phi_path, Phi)
    write_matrix(y_path, Y)
    code = main(["solve", "--phi", str(phi_path), "--y", str(y_path), "--sparsity", "10"])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.out.strip() == ",".join(str(j) for j in range(10))


def test_first_score_table_is_the_column_norms_of_yt_phi():
    # the first score table is the column norms of Y^T Phi, bit for bit
    for seed in range(5):
        Phi, X, Y = _instance(seed, m=128, n=256, L=8, k=3)
        Ht = Y.T @ Phi
        scores = np.sqrt(np.add.reduce(Ht * Ht, axis=0))   # column norms of Y^T Phi
        assert np.array_equal(scores, somp_solve(Y, Phi, 3).trace.score_tables[0])


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_large_solve_matches_reference(seed):
    # the shape of the solve_large benchmark: 40 filter updates against the
    # matched filter recomputed from a refit residual
    from somplab import InstanceConfig, gen_sensing_matrix, gen_sparse_signal

    cfg = InstanceConfig(m=256, n=2048, L=16, k=40, seed=seed)
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg)
    res = somp_solve(Y, Phi, 40)
    selected, _Z, scores_seen, _norms, _ranks, _stop = _reference_solve(Y, Phi, 40)
    assert res.trace.selected == tuple(selected)
    scale = np.linalg.norm(Phi, 2) * np.linalg.norm(Y)
    for got, want in zip(res.trace.score_tables, scores_seen, strict=True):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert np.array_equal(res.signal, least_squares_on_support(Y, Phi, res.support).signal)


@pytest.mark.parametrize("seed", [21, 22])
def test_large_noisy_solve_scores_match_refit_and_filters(seed):
    # 40 rank-one updates of one filter buffer, with a residual that never
    # vanishes: each score table against Phi^T R from a refit residual, and
    # against the row norms of the filter the trace forms for it
    from somplab import InstanceConfig, gen_sensing_matrix, gen_sparse_signal

    cfg = InstanceConfig(m=256, n=2048, L=16, k=40, seed=seed)
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg) + 1e-2 * _rng(seed).standard_normal((256, 16))
    trace = somp_solve(Y, Phi, 40).trace
    selected, _Z, scores_seen, _norms, _ranks, _stop = _reference_solve(Y, Phi, 40)
    assert trace.selected == tuple(selected)
    scale = np.linalg.norm(Phi, 2) * np.linalg.norm(Y)
    for i, (got, want) in enumerate(zip(trace.score_tables, scores_seen, strict=True)):
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        filter_norms = np.linalg.norm(trace.filter_matrices[i], axis=1)
        assert np.max(np.abs(got - filter_norms)) <= 1e-12 * scale


def test_large_solve_holds_no_filter_copies():
    # the trace keeps the factors of the filters, not 40 n x L filters
    # (11.4 MB held and a 12.5 MB peak when every filter was kept)
    import tracemalloc

    from somplab import InstanceConfig, gen_sensing_matrix, gen_sparse_signal

    cfg = InstanceConfig(m=256, n=2048, L=16, k=40, seed=11)
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg)
    tracemalloc.start()
    try:
        res = somp_solve(Y, Phi, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.trace.filter_matrices) == 40
    assert peak < 4e6, peak


@pytest.mark.parametrize("lo, hi", [(0, 1), (1, 0), (22, 5), (3, 29), (28, 27)])
def test_duplicated_columns_tie_to_the_smaller_index(lo, hi):
    # Y leans on column 9 first and on the duplicated pair second, so the
    # pair ties in the updated filter of the second iteration; at the last
    # two positions the product can round the two identical rows differently
    for seed in range(20):
        g = _rng(300 + seed)
        Phi = g.standard_normal((24, 30))
        Phi /= np.linalg.norm(Phi, axis=0)
        Phi[:, hi] = Phi[:, lo]
        Y = 10.0 * np.outer(Phi[:, 9], g.standard_normal(4)) \
            + np.outer(Phi[:, lo], g.standard_normal(4))
        selected = somp_solve(Y, Phi, 3).trace.selected
        assert selected[:2] == (9, min(lo, hi)), (seed, selected)


def test_one_least_squares_fit_per_solve(monkeypatch):
    import somplab.solver as solver_mod

    calls = []
    original = solver_mod.truncated_svd

    def counting(A):
        calls.append(A.shape)
        return original(A)

    monkeypatch.setattr(solver_mod, "truncated_svd", counting)
    g = _rng(12)
    Phi = g.standard_normal((30, 60))
    Y = g.standard_normal((30, 4))
    for k in (1, 5, 30):
        calls.clear()
        assert len(somp_solve(Y, Phi, k).trace.selected) == k
        assert calls == [(30, k)]


def test_filters_are_distinct_arrays_equal_to_the_direct_filter():
    # two duplicated pairs leave Phi with rank 6 < m = 8, so the last two
    # iterations select dependent columns and the filter stands
    g = _rng(13)
    Phi = g.standard_normal((8, 8))
    Phi[:, 1], Phi[:, 5] = Phi[:, 0], Phi[:, 4]
    Y = g.standard_normal((8, 3))
    assert somp_solve(Y, Phi, 8).trace.rank_deficient == (False,) * 6 + (True, True)
    cases = [(Phi, Y, 8)] + [_instance(seed, m=12, n=30, L=4, k=5)[::2] + (5,)
                             for seed in range(5)]
    for Phi, Y, k in cases:
        res = somp_solve(Y, Phi, k)
        trace = res.trace
        filters = trace.filter_matrices
        assert len(filters) == k
        listed = list(filters)
        assert len(listed) == k
        assert all(np.array_equal(H, filters[i]) for i, H in enumerate(listed))
        assert np.array_equal(filters[-1], listed[-1])
        with pytest.raises(IndexError):
            filters[k]
        scale = np.linalg.norm(Phi, 2) * np.linalg.norm(Y)
        for i, H in enumerate(filters):
            prefix = trace.selected[:i]
            R = Y - Phi @ least_squares_on_support(Y, Phi, prefix).signal if prefix else Y
            assert H.shape == (Phi.shape[1], Y.shape[1])
            assert np.max(np.abs(H - Phi.T @ R)) <= 1e-12 * scale
            assert np.max(np.abs(np.linalg.norm(H, axis=1) - trace.score_tables[i])) <= 1e-12 * scale
            assert not any(np.shares_memory(H, other) for other in filters[:i] + (listed[i],))
            if i and trace.rank_deficient[i - 1]:   # the filter stands
                assert np.array_equal(H, filters[i - 1])
                assert np.array_equal(trace.score_tables[i], trace.score_tables[i - 1])
                assert not np.shares_memory(trace.score_tables[i], trace.score_tables[i - 1])


def _direct_pass_solve(monkeypatch, Y, Phi, k):
    # the same loop with every row of G taken by a pass over Phi
    import somplab.solver as solver_mod

    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "_GRAM_MIN_ENTRIES", math.inf)
        return somp_solve(Y, Phi, k)


def _count_passes_and_fills(monkeypatch):
    # one entry per pass over Phi for a row of G, and the rows of every fill
    import somplab.solver as solver_mod

    passes, fills = [], []
    real_pass, real_fill = solver_mod._pass, solver_mod._GramRows._fill

    def counted_pass(q, Phi, out):
        passes.append(q.shape)
        real_pass(q, Phi, out)

    def counted_fill(self, j, scores, selected):
        held = real_fill(self, j, scores, selected)
        if held:
            fills.append(len(held))
        return held

    monkeypatch.setattr(solver_mod, "_pass", counted_pass)
    monkeypatch.setattr(solver_mod._GramRows, "_fill", counted_fill)
    return passes, fills


def _gram_row_case(m, n, L, k, seed, noise):
    from somplab import InstanceConfig, gen_sensing_matrix, gen_sparse_signal

    cfg = InstanceConfig(m=m, n=n, L=L, k=k, seed=seed)
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg)
    if noise:
        Y = Y + noise * _rng(seed).standard_normal(Y.shape)
    return Phi, Y


@pytest.mark.parametrize("m, n, L, k, seed, noise, gate", [
    (256, 2048, 16, 40, 12, 0.0, None),
    (256, 2048, 16, 40, 21, 1e-2, None),
    # the many-miss cases, where most picks are not held and take the pass;
    # the second is below the size gate, so the gate is lowered to reach it
    (256, 2048, 1, 40, 21, 1e-2, None),
    (256, 2048, 2, 40, 22, 1e-2, None),
    (128, 2048, 4, 60, 31, 0.0, 0),
])
def test_gram_rows_match_the_direct_pass_solve(monkeypatch, m, n, L, k, seed, noise, gate):
    import somplab.solver as solver_mod

    Phi, Y = _gram_row_case(m, n, L, k, seed, noise)
    want = _direct_pass_solve(monkeypatch, Y, Phi, k)
    if gate is not None:
        monkeypatch.setattr(solver_mod, "_GRAM_MIN_ENTRIES", gate)
    passes, fills = _count_passes_and_fills(monkeypatch)
    got = somp_solve(Y, Phi, k)
    assert fills == [k - 1] and len(passes) < k - 1   # one fill gave some rows
    assert got.trace.selected == want.trace.selected
    assert np.array_equal(got.signal, want.signal)
    selected, _Z, scores_seen, _norms, _ranks, _stop = _reference_solve(Y, Phi, k)
    assert got.trace.selected == tuple(selected)
    scale = np.linalg.norm(Phi, 2) * np.linalg.norm(Y)
    for i, (a, b) in enumerate(zip(got.trace.score_tables, scores_seen, strict=True)):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale, i
    filters = got.trace.filter_matrices
    for i in (1, k // 2, k - 1):
        norms = np.linalg.norm(filters[i], axis=1)
        assert np.max(np.abs(norms - got.trace.score_tables[i])) <= 1e-12 * scale, i


def _leaning_case(g, inside):
    # column 7 is `inside` times column 3 plus a unit direction e orthogonal
    # to it, so once 3 is in the basis its Gram-Schmidt keeps less than
    # 1/sqrt(2) of its norm and takes a second pass.  Y is mostly column 3
    # and then e, so 7 is the second pick
    Phi = g.standard_normal((256, 2048)) / 16.0
    a = Phi[:, 3] / np.linalg.norm(Phi[:, 3])
    e = g.standard_normal(256)
    e -= (e @ a) * a
    e /= np.linalg.norm(e)
    Phi[:, 3] = a
    Phi[:, 7] = inside * a + math.sqrt(1.0 - inside ** 2) * e
    Y = 10.0 * np.outer(a, g.standard_normal(4)) + 5.0 * np.outer(e, g.standard_normal(4))
    return Phi, Y


@pytest.mark.parametrize("inside", [0.8, 0.9])
def test_column_leaning_on_the_basis_takes_the_pass(monkeypatch, inside):
    # the row of G for column 7 must come from a pass over Phi, not from
    # the Gram row
    import somplab.solver as solver_mod

    g = _rng(41)
    Phi, Y = _leaning_case(g, inside)
    Y += 1e-3 * g.standard_normal((256, 4))
    want = _direct_pass_solve(monkeypatch, Y, Phi, 20)

    asked = []
    real_take = solver_mod._GramRows.take

    def recorded(self, j, scores, selected):
        asked.append(j)
        return real_take(self, j, scores, selected)

    monkeypatch.setattr(solver_mod._GramRows, "take", recorded)
    passes, _fills = _count_passes_and_fills(monkeypatch)
    got = somp_solve(Y, Phi, 20)
    assert got.trace.selected[:2] == (3, 7)
    assert not any(got.trace.rank_deficient)
    assert 7 not in asked and 3 in asked   # the Gram path ran for the others
    assert len(passes) >= 1
    assert got.trace.selected == want.trace.selected
    assert np.array_equal(got.signal, want.signal)
    scale = np.linalg.norm(Phi, 2) * np.linalg.norm(Y)
    for a_, b_ in zip(got.trace.score_tables, want.trace.score_tables, strict=True):
        assert np.max(np.abs(a_ - b_)) <= 1e-12 * scale


@pytest.mark.parametrize("seed, passes_wanted", [(11, 3), (12, 1), (21, 2)])
def test_passes_over_phi_at_the_solve_large_shape(monkeypatch, seed, passes_wanted):
    # 39 rows of G at 256 x 2048, k = 40: all by passes over Phi without the
    # Gram rows, and with them one product of 39 rows and a pass for each
    # pick it missed
    Phi, Y = _gram_row_case(256, 2048, 16, 40, seed, 0.0)
    passes, fills = _count_passes_and_fills(monkeypatch)
    somp_solve(Y, Phi, 40)
    assert (len(passes), fills) == (passes_wanted, [39])
    assert all(shape == (256,) for shape in passes)
    passes.clear()
    fills.clear()
    _direct_pass_solve(monkeypatch, Y, Phi, 40)
    assert (len(passes), fills) == (39, [])


@pytest.mark.parametrize("k", [9, 10])
def test_a_solve_above_the_fill_floor_fills_once(monkeypatch, k):
    # at 256 x 2048 from k = 9 on, the k - 1 rows reach the fill floor
    passes, fills = _count_passes_and_fills(monkeypatch)
    Phi, Y = _gram_row_case(256, 2048, 2, k, 5, 0.0)
    got = somp_solve(Y, Phi, k)
    assert fills == [k - 1] and len(passes) < k - 1
    assert got.trace.selected == _direct_pass_solve(monkeypatch, Y, Phi, k).trace.selected


def test_small_solves_never_fill(monkeypatch):
    # below the size gate, and below the fill floor (k < 9) on any size,
    # every row is a pass; at 128 x 1024 a fill of 39 rows would pass the
    # fill floor
    passes, fills = _count_passes_and_fills(monkeypatch)
    for m, n, k in ((20, 25, 2), (32, 40, 3), (32, 40, 8), (128, 1024, 40), (256, 2048, 3),
                    (256, 2048, 8)):
        Phi, Y = _gram_row_case(m, n, 2, k, 5, 0.0)
        passes.clear()
        res = somp_solve(Y, Phi, k)
        assert len(res.trace.selected) == k and not any(res.trace.rank_deficient)
        assert (len(passes), fills) == (k - 1, [])


@pytest.mark.parametrize("L, n", [(1, 25), (2, 40), (3, 1023), (16, 2048)])
def test_row_products_and_einsum_norms_give_the_broadcast_bits(L, n):
    # the rank-one update and the scores equal, bit for bit, the broadcast
    # product and the reduction of Ht * Ht they replaced
    import somplab.solver as solver_mod

    g = _rng(L * n)
    Ht = g.standard_normal((L, n)) * np.exp(g.standard_normal((L, n)))
    want = Ht.copy()
    w, row = g.standard_normal(L), g.standard_normal(n)
    assert np.array_equal(solver_mod._column_norms(Ht), np.sqrt(np.add.reduce(Ht * Ht, axis=0)))
    solver_mod._subtract_outer(Ht, w, row, np.empty_like(Ht))
    want -= w[:, None] * row
    assert np.array_equal(Ht, want)
