import dataclasses
import math
import sys

import numpy as np
import pytest

from somplab import (
    InstanceConfig,
    InvalidOrder,
    PerturbationSpec,
    PreconditionViolated,
    TraceMismatch,
    TrialChecks,
    filter_deviation_diagnostic,
    gen_sensing_matrix,
    gen_sparse_signal,
    matched_filter_oracle,
    reference_omp_smv,
    render_report,
    run_experiment,
    run_trial,
    selected_scores_vanish,
    somp_solve,
    trial_seeds,
)


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
    with pytest.raises(PreconditionViolated):
        reference_omp_smv(np.ones(8), Phi, 0)


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
    with pytest.raises(PreconditionViolated):
        run_experiment(cfg, [0.0], [1e-3], trials=0, master_seed=0)


def test_run_trial_rejects_mismatched_shared_estimate():
    from somplab import ric_exact

    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    Phi = gen_sensing_matrix(cfg)
    wrong = ric_exact(Phi, 2)  # order must be k + 1 = 3
    with pytest.raises(PreconditionViolated):
        run_trial(cfg, PerturbationSpec(), delta=wrong)


def test_guarantee_check_requires_ric():
    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    with pytest.raises(PreconditionViolated):
        run_trial(cfg, PerturbationSpec(),
                  checks=TrialChecks(ric=False, guarantee=True))


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
    for checks in (TrialChecks(ric=False),
                   TrialChecks(ric=False, guarantee=False, filter_proximity=True)):
        with pytest.raises(PreconditionViolated, match="isometry check"):
            run_experiment(cfg, [1e-3], [1e-3], trials=3, master_seed=0, checks=checks)
    assert draws == []


def _count_sweep_work(monkeypatch, clean_matrices):
    """Count width enumerations of the one subset kernel, split by whether
    they run on a clean matrix (Phi side) or on a perturbation (E side),
    and the clean solves the harness starts.  One solver serves the clean
    and the perturbed solves, and at an eps0 = 0 level the perturbed Phi
    is the clean one, so a clean solve is told apart by its caller."""
    import somplab.harness as harness_mod
    import somplab.rip as rip_mod

    widths, solves = [], []
    real_kernel = rip_mod._extreme_subsets
    real_solve = harness_mod.somp_solve

    def kernel(A, order, deviation, *args, **kwargs):
        if not deviation:   # a submatrix spectral norm, not an isometry constant
            side = "phi" if any(np.array_equal(A, P) for P in clean_matrices) else "E"
            widths.append((side, order))
        return real_kernel(A, order, deviation, *args, **kwargs)

    def solve(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_clean_stage":
            solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(rip_mod, "_extreme_subsets", kernel)
    monkeypatch.setattr(harness_mod, "somp_solve", solve)
    return widths, solves


def test_run_experiment_does_clean_work_once_per_trial(monkeypatch):
    from collections import Counter

    cfg = InstanceConfig(m=16, n=24, L=2, k=2, seed=0)
    trials, seed = 3, 71
    phis = [gen_sensing_matrix(dataclasses.replace(cfg, seed=trial_seeds(seed, t)[0]))
            for t in range(trials)]
    widths, solves = _count_sweep_work(monkeypatch, phis)
    # three eps0 levels, one of them zero, times two epsb levels
    kw = dict(eps0_levels=[0.0, 1e-4, 1e-3], epsb_levels=[1e-3, 1e-2], trials=trials,
              master_seed=seed)
    run_experiment(cfg, **kw, checks=TrialChecks(filter_deviation=True))
    # Phi side: one set of widths 1..k per clean matrix; E side: one set
    # per (trial, eps0 level); one clean solve per trial
    assert Counter(widths) == {("phi", 1): 3, ("phi", 2): 3, ("E", 1): 9, ("E", 2): 9}
    assert len(solves) == trials

    widths.clear()
    solves.clear()
    run_experiment(cfg, **kw)
    assert Counter(widths) == {("phi", 1): 3, ("phi", 2): 3, ("E", 1): 9, ("E", 2): 9}
    assert solves == []

    # a user-supplied matrix is one clean matrix for the whole sweep
    Phi = _rng(5).standard_normal((40, 12)) / np.sqrt(40)
    shared = InstanceConfig(m=40, n=12, L=2, k=2, matrix_ensemble="user-supplied", matrix=Phi)
    widths, solves = _count_sweep_work(monkeypatch, [Phi])
    run_experiment(shared, **kw, checks=TrialChecks(filter_proximity=True))
    assert Counter(widths) == {("phi", 1): 1, ("phi", 2): 1, ("E", 1): 9, ("E", 2): 9}
    assert len(solves) == trials


@pytest.mark.parametrize("filters", [False, True])
def test_sweep_records_equal_run_trial(filters):
    # one code path: every sweep record is run_trial on its trial's config and spec
    cfg = InstanceConfig(m=48, n=16, L=2, k=2, signal_row_norm_min=0.5)
    checks = TrialChecks(filter_proximity=filters, filter_deviation=filters)
    e0s, ebs, trials, seed = [1e-4, 1e-2], [0.0, 1e-2], 3, 81
    rep = run_experiment(cfg, e0s, ebs, trials, seed, checks=checks, b_mode="column-skewed")
    assert len(rep.records) == 4 * trials
    for p, (e0, eb) in enumerate((e0, eb) for e0 in e0s for eb in ebs):
        for t in range(trials):
            iseed, pseed = trial_seeds(seed, t)
            want = run_trial(dataclasses.replace(cfg, seed=iseed),
                             PerturbationSpec(target_eps0=e0, target_epsb=eb, seed=pseed,
                                              b_mode="column-skewed"),
                             checks=checks)
            got = rep.records[p * trials + t]
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), (p, t, f.name)
    if filters:
        assert any(r.filter_proximity_ok is not None for r in rep.records)
