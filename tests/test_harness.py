import dataclasses
import math
import sys
import warnings
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from somplab import (
    InstanceConfig,
    InvalidConfig,
    InvalidOrder,
    InvalidSparsity,
    PerturbationSpec,
    PreconditionViolated,
    TraceMismatch,
    TrialChecks,
    calibrate_perturbation,
    filter_deviation_diagnostic,
    gen_sensing_matrix,
    gen_sparse_signal,
    matched_filter_oracle,
    read_matrix,
    render_report,
    ric_exact,
    run_experiment,
    run_trial,
    selected_scores_vanish,
    somp_solve,
    trial_seeds,
)
from somplab.model import _norms

from oracles import reference_omp_smv


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_trial_seeds_deterministic_and_distinct():
    assert trial_seeds(7, 0) == trial_seeds(7, 0)
    seen = {trial_seeds(7, t) for t in range(100)}
    assert len(seen) == 100
    assert trial_seeds(7, 0) != trial_seeds(8, 0)


def test_run_trial_deterministic():
    cfg = InstanceConfig(m=20, n=28, L=3, k=2, seed=5)
    pert = PerturbationSpec(target_eps0=1e-4, target_epsb=1e-3, seed=6)
    a = run_trial(cfg, pert)
    b = run_trial(cfg, pert)
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def test_run_trial_records_consistent_levels():
    cfg = InstanceConfig(m=20, n=28, L=3, k=2, seed=5)
    pert = PerturbationSpec(target_eps0=1e-4, target_epsb=1e-3, seed=6)
    rec = run_trial(cfg, pert)
    assert rec.eps0 == pytest.approx(1e-4, rel=1e-12)
    assert rec.epsb == pytest.approx(1e-3, rel=1e-12)
    assert rec.guarantee in ("pass", "fail", "unsat")
    assert rec.delta is not None and rec.delta > 0
    assert rec.selected_scores_ok


def test_run_trial_noiseless_recovers():
    cfg = InstanceConfig(m=40, n=10, L=2, k=2, seed=3)
    rec = run_trial(cfg, PerturbationSpec(), mode="noiseless")
    assert rec.support_exact
    assert rec.rel_error <= 1e-10
    assert rec.error_bound is None


def test_reference_solver_matches_joint_solver_on_single_vector():
    # 50 random instances, identical selection sequences
    for seed in range(50):
        g = _rng(seed)
        Phi = g.standard_normal((16, 32)) / 4.0
        k = int(g.integers(1, 5))
        X = np.zeros((32, 1))
        rows = g.choice(32, size=k, replace=False)
        X[rows, 0] = g.standard_normal(k) + np.sign(g.standard_normal(k)) * 0.5
        y = Phi @ X
        joint = somp_solve(y, Phi, k)
        ref = reference_omp_smv(y[:, 0], Phi, k)
        assert joint.trace.selected == ref.trace.selected
        assert joint.support == ref.support
        assert np.allclose(joint.signal, ref.signal, atol=1e-10)


def test_reference_solver_validates_input():
    Phi = _rng(0).standard_normal((8, 12))
    with pytest.raises(PreconditionViolated):
        reference_omp_smv(np.ones((8, 2)), Phi, 2)
    with pytest.raises(PreconditionViolated):
        reference_omp_smv(np.ones(7), Phi, 2)
    with pytest.raises(InvalidSparsity):   # the sparsity rule somp_solve applies
        reference_omp_smv(np.ones(8), Phi, 0)


def test_reference_solver_stops_at_a_zero_residual():
    Phi = _rng(4).standard_normal((16, 32)) / 4.0
    ref = reference_omp_smv(3.0 * Phi[:, 9], Phi, 3)
    assert ref.terminated_early == "zero-residual"
    assert ref.trace.selected == (9,)
    assert ref.support == (9,)


def test_filter_proximity_skips_prefixes_that_left_the_true_support():
    # columns 0 and 1 are orthogonal and column 2 leans on both (30 degrees
    # off their plane), so a signal on rows 0 and 1 can pick column 2 first;
    # delta_3 = cos(30) < 1, so the proximity check runs in every trial
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    A = np.zeros((12, 6))
    A[[0, 1, 3, 4, 5], [0, 1, 3, 4, 5]] = 1.0
    A[:, 2] = c * (A[:, 0] + A[:, 1]) / math.sqrt(2.0)
    A[2, 2] = s
    cfg = InstanceConfig(m=12, n=6, L=2, k=2, matrix_ensemble="user-supplied", matrix=A)
    rep = run_experiment(cfg, 0.0, 0.0, trials=20, master_seed=3,
                         checks=TrialChecks(filter_proximity=True))
    assert rep.records[0].delta == pytest.approx(c, rel=1e-12)
    assert all(r.filter_proximity_ok for r in rep.records)
    left = 0
    for t in range(20):
        X = gen_sparse_signal(dataclasses.replace(cfg, seed=trial_seeds(3, t)[0]))
        first = somp_solve(A @ X, A, 2).trace.selected[0]
        left += first not in np.flatnonzero(np.linalg.norm(X, axis=1))
    assert left >= 1   # the branch under test is reached


def test_matched_filter_oracle_on_well_conditioned_instances():
    from somplab import ric_exact

    # draws whose constant reaches 1 carry no hypothesis to check; skip
    # them and require enough that do
    checked = 0
    for seed in range(30):
        cfg = InstanceConfig(m=48, n=12, L=2, k=2, seed=seed)
        Phi = gen_sensing_matrix(cfg)
        est = ric_exact(Phi, 3)
        if est.delta >= 0.95:
            continue
        X = gen_sparse_signal(cfg)
        diag = matched_filter_oracle(Phi, (), X, delta=est)
        assert diag.passed
        assert diag.order == 3
        assert diag.max_deviation <= diag.bound
        checked += 1
    assert checked >= 10


def test_matched_filter_oracle_rejects_overlap_and_bad_order():
    cfg = InstanceConfig(m=48, n=12, L=2, k=2, seed=0)
    Phi = gen_sensing_matrix(cfg)
    X = gen_sparse_signal(cfg)
    rows = [int(i) for i in np.flatnonzero(np.linalg.norm(X, axis=1))]
    with pytest.raises(PreconditionViolated):
        matched_filter_oracle(Phi, (rows[0],), X)
    # order k + |support| + 1 exceeding n
    wide = np.ones((4, 3)) / 2.0
    dense = np.ones((3, 2))
    with pytest.raises(InvalidOrder):
        matched_filter_oracle(wide, (), dense)


def test_matched_filter_oracle_rejects_degenerate_constant():
    # a gaussian 16 x 32 matrix has isometry constant >= 1 at order 3
    g = _rng(1)
    Phi = g.standard_normal((16, 32)) / 4.0
    X = np.zeros((32, 2))
    X[[3, 17]] = g.standard_normal((2, 2))
    with pytest.raises(PreconditionViolated):
        matched_filter_oracle(Phi, (), X)


def test_filter_deviation_identical_runs():
    cfg = InstanceConfig(m=20, n=28, L=3, k=3, seed=9)
    Phi = gen_sensing_matrix(cfg)
    X = gen_sparse_signal(cfg)
    Y = Phi @ X
    t = somp_solve(Y, Phi, 3).trace
    diag = filter_deviation_diagnostic(t, t, bound=0.0)
    assert diag.passed
    assert diag.diverged_at is None
    assert all(d == 0.0 for d in diag.deviations)


def test_filter_deviation_reports_divergence_without_raising():
    g = _rng(11)
    Phi = g.standard_normal((12, 20)) / np.sqrt(12)
    X = np.zeros((20, 2))
    X[[2, 9]] = g.standard_normal((2, 2))
    Y = Phi @ X
    clean = somp_solve(Y, Phi, 2).trace
    # a strong perturbation that rewrites the selection order
    Phi2 = g.standard_normal((12, 20)) / np.sqrt(12)
    noisy = somp_solve(Y, Phi2, 2).trace
    if noisy.selected != clean.selected:
        diag = filter_deviation_diagnostic(noisy, clean, bound=1e6)
        assert diag.diverged_at is not None
        assert len(diag.deviations) == diag.diverged_at + 1
    with pytest.raises(TraceMismatch):
        wrong = somp_solve(np.ones((12, 3)), Phi2, 2).trace
        filter_deviation_diagnostic(wrong, clean, bound=1.0)


def test_selected_scores_vanish_detects_tampering():
    cfg = InstanceConfig(m=20, n=28, L=3, k=3, seed=13)
    Phi = gen_sensing_matrix(cfg)
    X = gen_sparse_signal(cfg)
    trace = somp_solve(Phi @ X, Phi, 3).trace
    assert selected_scores_vanish(trace)
    tables = list(trace.score_tables)
    bad = tables[1].copy()
    bad[trace.selected[0]] = np.max(bad)  # a previously selected index scoring high
    tables[1] = bad
    assert not selected_scores_vanish(dataclasses.replace(trace, score_tables=tuple(tables)))


def test_selected_scores_check_is_not_made_on_scores_that_read_zero():
    # the golden frame and a signal on rows 4 and 7: at 2^-600 the support
    # is still (4, 7), but every score lies near 2^-1200 and reads 0, so
    # the second table gives no scale to compare the selected score with
    Phi = read_matrix(Path(__file__).resolve().parent / "golden" / "frame_20x25.txt")
    X = np.zeros((25, 2))
    X[[4, 7]] = [[1.0, 2.0], [-1.0, 0.5]]
    for a, want in ((0, True), (-600, None)):
        trace = somp_solve(np.ldexp(Phi @ X, a), np.ldexp(Phi, a), 2).trace
        assert trace.selected == (4, 7)
        assert (max(float(t.max()) for t in trace.score_tables) == 0.0) == (a < 0)
        assert selected_scores_vanish(trace) is want
    # a failure another table shows still counts
    tables = list(trace.score_tables)
    tables.append(np.ones(25))
    failed = dataclasses.replace(trace, score_tables=tuple(tables), selected=(4, 7, 4))
    assert selected_scores_vanish(failed) is False


def _golden_frame_and_signal():
    # the golden frame and a signal on rows 4 and 7
    Phi = read_matrix(Path(__file__).resolve().parent / "golden" / "frame_20x25.txt")
    X = np.zeros((25, 2))
    X[[4, 7]] = [[1.0, 2.0], [-1.0, 0.5]]
    return Phi, X


def test_proximity_slack_scales_with_the_signal(monkeypatch):
    # with the residual matrix doubled the filter sits far from the signal
    # (dev 6.72 s against a bound of 2.19 s at every scale s), and an
    # absolute slack of 1e-12 hid that once s was near 1e-13
    import somplab.harness as harness_mod

    Phi, X = _golden_frame_and_signal()
    delta = ric_exact(Phi, 5)
    scales = (1.0, 2.0 ** -40, 1e-13)
    for s in scales:
        assert matched_filter_oracle(Phi, (1, 2), X * s, delta=delta).passed, s
    monkeypatch.setattr(harness_mod, "residual_sensing_matrix", lambda Phi, support: 2 * Phi)
    for s in scales:
        diag = matched_filter_oracle(Phi, (1, 2), X * s, delta=delta)
        assert diag.max_deviation > 3 * diag.bound > 0.0, s
        assert not diag.passed, s


def test_filter_deviation_slack_scales_with_the_filters():
    # a bound of half the largest deviation fails at every scale of the
    # instance; an absolute slack of 1e-12 passed it once the filters were
    # small, and a bound of the largest deviation itself passes throughout
    Phi, X = _golden_frame_and_signal()
    B = np.random.default_rng(3).standard_normal((20, 2))
    for s in (1.0, 1e-6, 1e-13, 2.0 ** -60):
        Y = Phi @ (X * s)
        clean = somp_solve(Y, Phi, 2).trace
        perturbed = somp_solve(Y + 1e-2 * s * B, Phi, 2).trace
        top = max(filter_deviation_diagnostic(perturbed, clean, 0.0).deviations)
        assert filter_deviation_diagnostic(perturbed, clean, top).passed, s
        diag = filter_deviation_diagnostic(perturbed, clean, top / 2)
        assert diag.diverged_at is None and not diag.passed, s
    # with Phi near 2^511 the norms of the first filters exceed the largest
    # double while every entry, score and deviation fits: the slack stays
    # finite, so the check is still made
    Phi = Phi * math.ldexp(1.25, 511)
    Y = Phi @ X
    clean = somp_solve(Y, Phi, 2).trace
    perturbed = somp_solve(Y + 1e-2 * B * (float(_norms(Y)) / float(_norms(B))), Phi, 2).trace
    assert float(_norms(clean.filter_matrices[0])) == math.inf
    top = max(filter_deviation_diagnostic(perturbed, clean, 0.0).deviations)
    assert math.isfinite(top)
    assert not filter_deviation_diagnostic(perturbed, clean, top / 2).passed


def test_proximity_check_is_made_at_any_signal_scale(monkeypatch):
    # H = A^T A x_star formed at x_star's own scale overflowed near 1e308:
    # numpy warned at 6e307, and at 8e307 dev and bound both read inf and
    # the doubled residual matrix passed.  On x_star's prescaled copy the
    # check is made, and fails, at every scale, with no warning
    import somplab.harness as harness_mod

    Phi, X = _golden_frame_and_signal()
    delta = ric_exact(Phi, 5)
    scales = (1.0, 6e307, 8e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in scales:
            assert matched_filter_oracle(Phi, (1, 2), X * s, delta=delta).passed, s
        monkeypatch.setattr(harness_mod, "residual_sensing_matrix",
                            lambda Phi, support: 2 * Phi)
        for s in scales:
            diag = matched_filter_oracle(Phi, (1, 2), X * s, delta=delta)
            assert not diag.passed, s
            assert diag.max_deviation > diag.bound, s


def test_filter_deviation_forms_each_filter_once():
    # a solver trace forms a filter on each access: the first pair, which
    # the shape check reads, is formed once, also on the mismatch path
    formed = []

    class Counted(Sequence):
        def __init__(self, name, filters):
            self.name, self.filters = name, filters

        def __len__(self):
            return len(self.filters)

        def __getitem__(self, i):
            formed.append((self.name, i))
            return self.filters[i]

    def counted(name, trace):
        return dataclasses.replace(trace, filter_matrices=Counted(name, trace.filter_matrices))

    Phi, X = _golden_frame_and_signal()
    Y = Phi @ X
    clean = somp_solve(Y, Phi, 2).trace
    perturbed = somp_solve(Y + 1e-2 * np.random.default_rng(3).standard_normal(Y.shape),
                           Phi, 2).trace
    want = filter_deviation_diagnostic(perturbed, clean, 1.0)
    got = filter_deviation_diagnostic(counted("p", perturbed), counted("c", clean), 1.0)
    assert got == want and got.diverged_at is None
    assert sorted(formed) == [("c", 0), ("c", 1), ("p", 0), ("p", 1)]
    formed.clear()
    wrong = somp_solve(np.ones((20, 3)), Phi, 2).trace
    with pytest.raises(TraceMismatch, match=r"filter shapes differ: \(25, 3\) vs \(25, 2\)"):
        filter_deviation_diagnostic(counted("p", wrong), counted("c", clean), 1.0)
    assert sorted(formed) == [("c", 0), ("p", 0)]


# The mutation referee: each fault planted in a trial of the golden frame
# must flip the check column it names, and that column alone, whatever
# the signal's scale.  Each plant takes the trial's record without it.

def _plant_wrong_pick(monkeypatch, harness_mod, record):
    real = harness_mod.somp_solve

    def solve(Y, Phi, k):
        result = real(Y, Phi, k)
        wrong = next(j for j in range(Phi.shape[1]) if j not in result.support)
        return dataclasses.replace(result, support=tuple(sorted(result.support[1:] + (wrong,))))

    monkeypatch.setattr(harness_mod, "somp_solve", solve)


def _plant_doubled_residual(monkeypatch, harness_mod, record):
    monkeypatch.setattr(harness_mod, "residual_sensing_matrix", lambda Phi, support: 2 * Phi)


def _plant_moved_filter(monkeypatch, harness_mod, record):
    # the first perturbed filter moved by twice the bound, away from the clean one
    real = harness_mod.filter_deviation_diagnostic

    def diagnose(perturbed, clean, bound):
        F, C = perturbed.filter_matrices[0], clean.filter_matrices[0]
        moved = (F + 2 * bound * (F - C) / _norms(F - C), *perturbed.filter_matrices[1:])
        return real(dataclasses.replace(perturbed, filter_matrices=moved), clean, bound)

    monkeypatch.setattr(harness_mod, "filter_deviation_diagnostic", diagnose)


def _plant_unzeroed_score(monkeypatch, harness_mod, record):
    # the first pick scores the largest entry of the second table
    real = harness_mod.somp_solve

    def solve(Y, Phi, k):
        result = real(Y, Phi, k)
        tables = [t.copy() for t in result.trace.score_tables]
        tables[1][result.trace.selected[0]] = tables[1].max()
        trace = dataclasses.replace(result.trace, score_tables=tuple(tables))
        return dataclasses.replace(result, trace=trace)

    monkeypatch.setattr(harness_mod, "somp_solve", solve)


def _plant_tenth_bound(monkeypatch, harness_mod, record):
    real = harness_mod._evaluate_guarantee
    monkeypatch.setattr(harness_mod, "_evaluate_guarantee", lambda *args: dataclasses.replace(
        real(*args), error_bound=record.rel_error / 10))


_REFEREE_COLUMNS = ("support_exact", "bound_ok", "selected_scores_ok", "filter_proximity_ok",
                    "filter_deviation_ok")


@pytest.mark.parametrize("a", [0, -40, 40])
@pytest.mark.parametrize("fault, column", [
    (None, None),
    (_plant_wrong_pick, "support_exact"),
    (_plant_doubled_residual, "filter_proximity_ok"),
    (_plant_moved_filter, "filter_deviation_ok"),
    (_plant_unzeroed_score, "selected_scores_ok"),
    (_plant_tenth_bound, "bound_ok"),
], ids=["no-fault", "wrong-pick", "doubled-residual", "moved-filter", "unzeroed-score",
        "tenth-bound"])
def test_each_planted_fault_flips_its_check_column(monkeypatch, fault, column, a):
    import somplab.harness as harness_mod

    Phi, _ = _golden_frame_and_signal()
    real_signal = harness_mod.gen_sparse_signal
    monkeypatch.setattr(harness_mod, "gen_sparse_signal", lambda cfg: np.ldexp(real_signal(cfg), a))
    cfg = InstanceConfig(m=20, n=25, L=3, k=2, signal_row_norm_min=1.0,
                         matrix_ensemble="user-supplied", matrix=Phi)
    checks = TrialChecks(filter_proximity=True, filter_deviation=True)

    def trial():
        report = run_experiment(cfg, [1e-3], [1e-3], trials=1, master_seed=0, checks=checks)
        return report.records[0], report.red_alert

    record, red_alert = trial()
    assert record.guarantee == "pass" and not red_alert
    assert all(getattr(record, name) is True for name in _REFEREE_COLUMNS)
    if fault is None:
        return
    fault(monkeypatch, harness_mod, record)
    faulty, red_alert = trial()
    flipped = [name for name in _REFEREE_COLUMNS if getattr(faulty, name) is not True]
    assert flipped == [column] and getattr(faulty, column) is False
    assert faulty.guarantee == "pass"
    assert red_alert == (column in ("support_exact", "bound_ok"))   # a broken promise


def test_sweep_checks_the_budget_once_per_clean_matrix(monkeypatch):
    # the subset budget is checked where a clean matrix's work is done: at
    # delta's order k + 1 and at the widths 1..k of eps's references.  A
    # perturbation has its clean matrix's shape, so its levels add none
    import somplab.rip as rip_mod

    checked = []
    real = rip_mod._check_enumeration

    def check(n, order, subset_budget):
        checked.append(order)
        return real(n, order, subset_budget)

    monkeypatch.setattr(rip_mod, "_check_enumeration", check)
    cfg = InstanceConfig(m=16, n=24, L=2, k=2)
    run_experiment(cfg, [0.0, 1e-4, 1e-3], [1e-3], trials=2, master_seed=5)
    assert checked == [3, 1, 2] * 2   # per trial: delta, then widths 1 and 2

    checked.clear()
    Phi, _ = _golden_frame_and_signal()
    cfg = InstanceConfig(m=20, n=25, L=2, k=2, matrix_ensemble="user-supplied", matrix=Phi)
    run_experiment(cfg, [1e-4, 1e-3], [1e-3], trials=3, master_seed=5)
    assert checked == [3, 1, 2]   # once for the sweep's one matrix


def test_run_experiment_render_is_reproducible():
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    kw = dict(eps0_levels=[0.0], epsb_levels=[1e-3, 2e-3], trials=5, master_seed=21)
    a = render_report(run_experiment(cfg, **kw))
    b = render_report(run_experiment(cfg, **kw))
    assert a == b
    assert "wall" not in a
    c = render_report(run_experiment(cfg, eps0_levels=[0.0], epsb_levels=[1e-3, 2e-3],
                                     trials=5, master_seed=22))
    assert a != c


def test_run_experiment_aggregates_match_records():
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    rep = run_experiment(cfg, [0.0], [1e-3, 2e-3], trials=6, master_seed=33)
    assert len(rep.records) == 12
    assert len(rep.points) == 2
    for i, p in enumerate(rep.points):
        recs = rep.records[i * 6:(i + 1) * 6]
        assert p.trials == 6
        assert p.support_recovery_rate == sum(r.support_exact for r in recs) / 6
        assert p.mean_rel_error == pytest.approx(sum(r.rel_error for r in recs) / 6, rel=1e-15)
        assert p.max_rel_error == max(r.rel_error for r in recs)
        scored = [r for r in recs if r.bound_ok is not None]
        if scored:
            assert p.bound_rate == sum(bool(r.bound_ok) for r in scored) / len(scored)
        else:
            assert p.bound_rate is None
    assert rep.overall.support_recovery_rate == sum(r.support_exact for r in rep.records) / 12
    assert not rep.red_alert


def test_run_experiment_shares_instances_across_levels():
    # the same trial index sees the same instance seed at every level
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    rep = run_experiment(cfg, [0.0], [1e-3, 2e-3], trials=4, master_seed=44)
    lo, hi = rep.records[:4], rep.records[4:]
    for a, b in zip(lo, hi):
        assert a.seed == b.seed and a.pert_seed == b.pert_seed
        assert b.epsb_target == 2 * a.epsb_target


def test_run_experiment_rejects_empty_plan():
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    with pytest.raises(InvalidConfig, match="'trials' must be an integer >= 1"):
        run_experiment(cfg, [0.0], [1e-3], trials=0, master_seed=0)


@pytest.mark.parametrize("eps0_levels, epsb_levels", [([], [1e-3]), ([0.0], [])])
def test_run_experiment_refuses_an_empty_level_list_before_any_trial(
        monkeypatch, eps0_levels, epsb_levels):
    import somplab.harness as harness_mod

    draws = []
    real = harness_mod.gen_sensing_matrix
    monkeypatch.setattr(harness_mod, "gen_sensing_matrix",
                        lambda cfg: draws.append(cfg.seed) or real(cfg))
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    with pytest.raises(InvalidConfig, match="_levels' must be a number or a nonempty list"):
        run_experiment(cfg, eps0_levels, epsb_levels, trials=2, master_seed=0)
    assert draws == []


@pytest.mark.parametrize("eps0_levels, epsb_levels, name", [
    (math.nan, 0.0, "target_eps0"),
    ([0.0, math.inf], 0.0, "target_eps0"),
    (0.0, [1e-3, -1e-3], "target_epsb"),
    (0.0, math.nan, "target_epsb"),
])
def test_run_experiment_refuses_bad_levels_before_any_trial(
        monkeypatch, eps0_levels, epsb_levels, name):
    import somplab.harness as harness_mod

    draws = []
    real = harness_mod.gen_sensing_matrix
    monkeypatch.setattr(harness_mod, "gen_sensing_matrix",
                        lambda cfg: draws.append(cfg.seed) or real(cfg))
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    # refused as the run_experiment argument that lists the spec's target
    argument = name.removeprefix("target_") + "_levels"
    with pytest.raises(InvalidConfig, match=f"'{argument}' must be a finite number >= 0"):
        run_experiment(cfg, eps0_levels, epsb_levels, trials=2, master_seed=0)
    assert draws == []


@pytest.mark.parametrize("checks", [TrialChecks(), TrialChecks(guarantee=False)],
                         ids=["guarantee", "no-guarantee"])
def test_run_experiment_and_run_trial_refuse_an_unknown_mode(checks):
    # refused on entry, with or without the guarantee that reads the mode
    cfg = InstanceConfig(m=8, n=12, L=2, k=2, seed=0)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run_experiment(cfg, 0.0, 0.0, trials=1, master_seed=0, checks=checks, mode="bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run_trial(cfg, PerturbationSpec(), checks=checks, mode="bogus")


@pytest.mark.parametrize("cfg_kw, run_kw, spec_kw, error, match", [
    ({"m": 8.0}, {}, {}, InvalidConfig, "'m' must be an integer >= 1"),
    ({"k": 2.0}, {}, {}, InvalidConfig, "'k' must be an integer >= 1"),
    ({"L": True}, {}, {}, InvalidConfig, "'L' must be an integer >= 1"),
    ({"signal_row_norm_min": math.nan}, {}, {}, InvalidConfig, "'signal_row_norm_min'"),
    ({"signal_row_norm_min": math.inf}, {}, {}, InvalidConfig, "'signal_row_norm_min'"),
    ({"k": 0}, {}, {}, InvalidConfig, "'k' must be an integer >= 1, got 0"),
    ({"seed": 1.5}, {}, {}, InvalidConfig, "'seed' must be an integer >= 0"),
    ({"seed": -1}, {}, {}, InvalidConfig, "'seed' must be an integer >= 0"),
    ({"seed": False}, {}, {}, InvalidConfig, "'seed' must be an integer >= 0"),
    ({}, {}, {"seed": 2.7}, InvalidConfig, "'seed' must be an integer >= 0"),
    ({}, {}, {"seed": -2}, InvalidConfig, "'seed' must be an integer >= 0"),
    ({}, {}, {"seed": True}, InvalidConfig, "'seed' must be an integer >= 0"),
    ({}, {"trials": 2.0}, {}, InvalidConfig, "'trials' must be an integer >= 1"),
    ({}, {"master_seed": 1.5}, {}, InvalidConfig, "'master_seed' must be an integer >= 0"),
    ({"m": np.int64(8), "k": np.int32(2), "seed": np.uint64(4)},
     {"trials": np.int64(2), "master_seed": np.uint32(3)}, {"seed": np.int16(7)}, None, None),
], ids=["float-m", "float-k", "bool-L", "nan-floor", "inf-floor", "zero-k", "float-cfg-seed",
        "negative-cfg-seed", "bool-cfg-seed", "float-spec-seed", "negative-spec-seed",
        "bool-spec-seed", "float-trials", "float-seed", "numpy-integers"])
def test_instance_and_sweep_refuse_what_the_config_table_refuses(cfg_kw, run_kw, spec_kw,
                                                                 error, match):
    # the table refuses these for `experiment`; a library caller gets the same
    # answer before any draw, while numpy integers read as the ints they hold
    cfg_kw = {"m": 8, "n": 12, "L": 2, "k": 2, **cfg_kw}
    run_kw = {"trials": 2, "master_seed": 3, **run_kw}

    def run(cfg_kw, run_kw, spec_kw):
        cfg = InstanceConfig(**cfg_kw)
        return (render_report(run_experiment(cfg, 0.0, 1e-3, **run_kw)),
                run_trial(cfg, PerturbationSpec(target_epsb=1e-3, **spec_kw)))

    if error is None:
        assert run(cfg_kw, run_kw, spec_kw) == run(*({k: int(v) for k, v in kw.items()}
                                                     for kw in (cfg_kw, run_kw, spec_kw)))
    else:
        with pytest.raises(error, match=match):
            run(cfg_kw, run_kw, spec_kw)


def test_guarantee_check_requires_ric():
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    with pytest.raises(InvalidConfig, match="'guarantee' needs 'ric' enabled"):
        run_trial(cfg, PerturbationSpec(),
                  checks=TrialChecks(ric=False, guarantee=True))


@pytest.mark.parametrize("kw, name", [
    ({}, "guarantee"),
    ({"guarantee": False, "filter_proximity": True}, "filter proximity"),
])
def test_checks_needing_the_constant_are_refused_when_built(kw, name):
    field = name.replace(" ", "_")
    with pytest.raises(InvalidConfig, match=f"'{field}' needs 'ric' enabled"):
        TrialChecks(ric=False, **kw)
    TrialChecks(ric=False, guarantee=False, filter_deviation=True)   # needs no constant


def test_filter_deviation_runs_with_the_guarantee_off():
    # the check's bound is the magnitude eps_h, which needs no constant:
    # with ric and the guarantee off it compares the filters against the
    # same bound a guarantee's report carries, and prints 1 or 0
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    args = ([1e-4], [1e-3], 3, 5)
    alone = run_experiment(cfg, *args, checks=TrialChecks(ric=False, guarantee=False,
                                                          filter_deviation=True))
    beside = run_experiment(cfg, *args, checks=TrialChecks(filter_deviation=True))
    assert ([r.filter_deviation_ok for r in alone.records]
            == [r.filter_deviation_ok for r in beside.records])
    lines = render_report(alone).splitlines()
    column = lines[4].split("\t").index("filter_deviation_ok")
    assert [line.split("\t")[column] for line in lines[5:8]] == ["1", "1", "1"]
    # n/a (measurement mode assumes eps0 = 0) has no bound, as with the guarantee on
    na = run_experiment(cfg, *args, mode="measurement",
                        checks=TrialChecks(ric=False, guarantee=False, filter_deviation=True))
    assert all(r.filter_deviation_ok is None for r in na.records)


def test_render_report_mentions_unsatisfiable_verdicts():
    # gigantic noise: the threshold leaves its domain; verdict "unsat"
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    rec = run_trial(cfg, PerturbationSpec(target_epsb=10.0, seed=1))
    assert rec.guarantee == "unsat"
    assert rec.error_bound is not None and math.isfinite(rec.error_bound)


def _count_ric_calls(monkeypatch):
    import somplab.harness as harness_mod

    calls = []
    real = harness_mod.ric_exact

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "ric_exact", counted)
    return calls


def test_run_experiment_enumerates_each_matrix_once(monkeypatch):
    # 3 points x 4 trials: one enumeration per distinct clean matrix
    calls = _count_ric_calls(monkeypatch)
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    rep = run_experiment(cfg, [1e-4, 1e-3, 1e-2], [1e-3], trials=4, master_seed=55)
    assert calls == [3] * 4
    for t in range(4):
        deltas = {rep.records[p * 4 + t].delta for p in range(3)}
        assert len(deltas) == 1

    calls.clear()
    Phi = gen_sensing_matrix(cfg)
    shared = InstanceConfig(m=16, n=24, L=2, k=2, seed=0,
                            matrix_ensemble="user-supplied", matrix=Phi)
    run_experiment(shared, [1e-4, 1e-3], [1e-3], trials=3, master_seed=55)
    assert calls == [3]

    calls.clear()
    run_experiment(cfg, [1e-4, 1e-3], [1e-3], trials=3, master_seed=55,
                   checks=TrialChecks(ric=False, guarantee=False))
    assert calls == []


def test_run_experiment_refuses_checks_without_ric_before_any_trial(monkeypatch):
    import somplab.harness as harness_mod

    draws = []
    real = harness_mod.gen_sensing_matrix
    monkeypatch.setattr(harness_mod, "gen_sensing_matrix",
                        lambda cfg: draws.append(cfg.seed) or real(cfg))
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    # refused where the checks are built, so no sweep can start with them
    for kw in ({}, {"guarantee": False, "filter_proximity": True}):
        with pytest.raises(InvalidConfig, match="needs 'ric' enabled"):
            run_experiment(cfg, [1e-3], [1e-3], trials=3, master_seed=0,
                           checks=TrialChecks(ric=False, **kw))
    assert draws == []


def _count_sweep_work(monkeypatch, clean_matrices):
    """Count level computations (one Gram and its widths 1..k each),
    split by whether they run on a clean matrix (Phi side) or on a
    perturbation (E side), the clean solves the harness starts, and the
    ||Y||_F references taken by the harness and the perturbation.  One
    solver serves the clean and the perturbed solves, and at an eps0 = 0
    level the perturbed Phi equals the clean one, so a clean solve is
    told apart by its arguments: it gets the very Phi the harness drew,
    while every perturbed solve gets the new array Phi + E."""
    import somplab.harness as harness_mod
    import somplab.perturb as perturb_mod
    import somplab.rip as rip_mod

    levels, solves, drawn, norms = [], [], [], []
    real_levels = rip_mod._width_norms
    real_solve = harness_mod.somp_solve
    real_draw = harness_mod.gen_sensing_matrix
    real_norm = rip_mod._frobenius_reference

    def widths(A, order):
        side = "phi" if any(np.array_equal(A, P) for P in clean_matrices) else "E"
        levels.append((side, order))
        return real_levels(A, order)

    def draw(cfg):
        drawn.append(real_draw(cfg))
        return drawn[-1]

    def solve(Y, Phi, k):
        if any(Phi is P for P in drawn):
            solves.append(1)
        return real_solve(Y, Phi, k)

    def norm(Y):
        norms.append(1)
        return real_norm(Y)

    monkeypatch.setattr(harness_mod, "gen_sensing_matrix", draw)
    monkeypatch.setattr(rip_mod, "_width_norms", widths)
    monkeypatch.setattr(harness_mod, "somp_solve", solve)
    for module in (harness_mod, perturb_mod):
        monkeypatch.setattr(module, "_frobenius_reference", norm)
    return levels, solves, norms


def test_run_experiment_does_clean_work_once_per_trial(monkeypatch):
    from collections import Counter

    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    trials, seed = 3, 71
    phis = [gen_sensing_matrix(dataclasses.replace(cfg, seed=trial_seeds(seed, t)[0]))
            for t in range(trials)]
    levels, solves, norms = _count_sweep_work(monkeypatch, phis)
    # three eps0 levels, one of them zero, times two epsb levels
    kw = dict(eps0_levels=[0.0, 1e-4, 1e-3], epsb_levels=[1e-3, 1e-2], trials=trials,
              master_seed=seed)
    run_experiment(cfg, **kw, checks=TrialChecks(filter_deviation=True))
    # Phi side: one level computation (widths 1..k) per clean matrix; E
    # side: one per (trial, nonzero eps0 level), since an all-zero E needs
    # none; one clean solve and one ||Y||_F per trial, over all six points
    assert Counter(levels) == {("phi", 2): 3, ("E", 2): 6}
    assert len(solves) == trials
    assert len(norms) == trials

    levels.clear()
    solves.clear()
    norms.clear()
    run_experiment(cfg, **kw)
    assert Counter(levels) == {("phi", 2): 3, ("E", 2): 6}
    assert solves == []
    assert len(norms) == trials

    # a user-supplied matrix is one clean matrix for the whole sweep
    Phi = _rng(5).standard_normal((40, 12)) / np.sqrt(40)
    shared = InstanceConfig(m=40, n=12, L=2, k=2, matrix_ensemble="user-supplied", matrix=Phi)
    levels, solves, norms = _count_sweep_work(monkeypatch, [Phi])
    run_experiment(shared, **kw, checks=TrialChecks(filter_proximity=True))
    assert Counter(levels) == {("phi", 2): 1, ("E", 2): 6}
    assert len(solves) == trials
    assert len(norms) == trials


def _count_noise_draws(monkeypatch, drawer):
    # the (seed, stream) of every generator that ``drawer`` makes
    import somplab.perturb as perturb_mod

    draws = []
    real = perturb_mod._rng

    def counted(seed, stream):
        if sys._getframe(1).f_code.co_name == drawer:
            draws.append((seed, stream))
        return real(seed, stream)

    monkeypatch.setattr(perturb_mod, "_rng", counted)
    return draws


@pytest.mark.parametrize("b_mode", ["gaussian", "column-skewed"])
def test_sweep_draws_the_measurement_noise_once_per_trial(monkeypatch, b_mode):
    from somplab.perturb import _MEASUREMENT_NOISE_STREAM

    draws = _count_noise_draws(monkeypatch, "_measurement_noise")
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    trials, seed = 4, 91
    # two eps0 levels times three epsb levels: six points per trial
    run_experiment(cfg, [1e-4, 1e-3], [1e-4, 1e-3, 1e-2], trials, seed, b_mode=b_mode)
    assert draws == [(trial_seeds(seed, t)[1], _MEASUREMENT_NOISE_STREAM)
                     for t in range(trials)]
    # a sweep whose epsb levels are all zero draws none
    draws.clear()
    run_experiment(cfg, [1e-4], [0.0, 0.0], trials, seed, b_mode=b_mode)
    assert draws == []
    # calibration draws it once for a nonzero target and never for a zero one
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg)
    calibrate_perturbation(Phi, Y, PerturbationSpec(target_eps0=1e-3, seed=5, b_mode=b_mode))
    assert draws == []
    calibrate_perturbation(Phi, Y, PerturbationSpec(target_epsb=1e-3, seed=5, b_mode=b_mode))
    assert draws == [(5, _MEASUREMENT_NOISE_STREAM)]


def test_sweep_draws_the_sensing_noise_once_per_trial(monkeypatch):
    from somplab.perturb import _SENSING_NOISE_STREAM

    draws = _count_noise_draws(monkeypatch, "_sensing_noise")
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    trials, seed = 4, 93
    # three eps0 levels times two epsb levels: six points per trial
    run_experiment(cfg, [1e-4, 1e-3, 1e-2], [0.0, 1e-3], trials, seed)
    assert draws == [(trial_seeds(seed, t)[1], _SENSING_NOISE_STREAM)
                     for t in range(trials)]
    # a sweep whose eps0 levels are all zero draws none
    draws.clear()
    run_experiment(cfg, [0.0, 0.0], [1e-3], trials, seed)
    assert draws == []
    # calibration draws it once for a nonzero target and never for a zero one
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg)
    calibrate_perturbation(Phi, Y, PerturbationSpec(target_epsb=1e-3, seed=5), order=2)
    assert draws == []
    calibrate_perturbation(Phi, Y, PerturbationSpec(target_eps0=1e-3, seed=5), order=2)
    assert draws == [(5, _SENSING_NOISE_STREAM)]


def test_sweep_forms_each_perturbation_once_per_level(monkeypatch):
    # one schedule: per trial, B and epsb once per epsb level and E and its
    # levels once per eps0 level, not once per point of the grid
    from collections import Counter

    import somplab.perturb as perturb_mod

    formed = []
    real_scaled, real_epsb = perturb_mod._scaled, perturb_mod._measurement_level
    real_eps0 = perturb_mod._sensing_levels

    def scaled(noise, target, reference, like):
        formed.append("scaled")
        return real_scaled(noise, target, reference, like)

    def epsb(B, frob_y):
        formed.append("epsb")
        return real_epsb(B, frob_y)

    def eps0(E, spectral_phi, widths):
        formed.append("eps0")
        return real_eps0(E, spectral_phi, widths)

    monkeypatch.setattr(perturb_mod, "_scaled", scaled)
    monkeypatch.setattr(perturb_mod, "_measurement_level", epsb)
    monkeypatch.setattr(perturb_mod, "_sensing_levels", eps0)
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    trials = 3
    # two eps0 levels times three epsb levels: six points per trial
    rep = run_experiment(cfg, [1e-4, 1e-3], [1e-4, 1e-3, 1e-2], trials, 95)
    assert len(rep.records) == 6 * trials
    # 2 E and 3 B per trial, where forming B per point would make 6
    assert Counter(formed) == {"scaled": 5 * trials, "epsb": 3 * trials, "eps0": 2 * trials}


@pytest.mark.parametrize("b_mode", ["gaussian", "column-skewed"])
def test_calibration_and_a_trial_measure_the_same_levels(b_mode):
    # calibrate_perturbation is the trial's schedule at one point: for the
    # same seed and targets it gives the trial's eps0, eps and epsb bit for bit
    cfg = InstanceConfig(m=16, n=24, L=2, k=3, seed=4)
    Phi = gen_sensing_matrix(cfg)
    Y = Phi @ gen_sparse_signal(cfg)
    for e0, eb in ((1e-3, 2e-2), (0.0, 5e-2), (3e-2, 0.0)):
        spec = PerturbationSpec(target_eps0=e0, target_epsb=eb, seed=17, b_mode=b_mode)
        rec = run_trial(cfg, spec)
        _, _, levels = calibrate_perturbation(Phi, Y, spec, order=cfg.k)
        assert (rec.eps0, rec.eps, rec.epsb) == (levels.eps0, levels.eps, levels.epsb)
        assert (rec.eps0 > 0, rec.epsb > 0) == (e0 > 0, eb > 0)


@pytest.mark.parametrize("filters", [False, True])
@pytest.mark.parametrize("b_mode", ["column-skewed", "gaussian"])
def test_sweep_records_equal_run_trial(b_mode, filters):
    # one code path: every sweep record is run_trial on its trial's config and spec
    cfg = InstanceConfig(m=48, n=16, L=2, k=2, signal_row_norm_min=0.5)
    checks = TrialChecks(filter_proximity=filters, filter_deviation=filters)
    e0s, ebs, trials, seed = [1e-4, 1e-2], [0.0, 1e-2, 5e-2], 3, 81
    rep = run_experiment(cfg, e0s, ebs, trials, seed, checks=checks, b_mode=b_mode)
    assert len(rep.records) == 6 * trials
    for p, (e0, eb) in enumerate((e0, eb) for e0 in e0s for eb in ebs):
        for t in range(trials):
            iseed, pseed = trial_seeds(seed, t)
            want = run_trial(dataclasses.replace(cfg, seed=iseed),
                             PerturbationSpec(target_eps0=e0, target_epsb=eb, seed=pseed,
                                              b_mode=b_mode),
                             checks=checks)
            got = rep.records[p * trials + t]
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), (p, t, f.name)
    if filters:
        assert any(r.filter_proximity_ok is not None for r in rep.records)
