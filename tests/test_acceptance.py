"""Acceptance checks, one test per criterion, in order.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
before asserting, so a red run still shows which criteria stood.  The
score-vanish criterion aggregates over solver runs made by the earlier
criteria in this file; tests therefore execute in definition order, and
that criterion falls back to a fresh batch when run on its own.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from somplab import (
    DomainError,
    InstanceConfig,
    TrialChecks,
    check_guarantee,
    coherent_pair_matrix,
    error_amplification,
    gen_sensing_matrix,
    gen_sparse_signal,
    matched_filter_oracle,
    perturbation_magnitude,
    recovery_threshold,
    ric_exact,
    run_experiment,
    selected_scores_vanish,
    somp_solve,
)
from somplab.cli import main

from oracles import perturbation_magnitude_for_mode, reference_omp_smv

_TRACES = []        # solver traces accumulated by earlier criteria
_TRIAL_FLAGS = []   # selected_scores_ok flags from harness trials


def _verdict(num, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {name}{suffix}")
    assert ok, f"criterion {num:02d}: {name}{suffix}"


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _ric_oracle(A, order):
    worst = 0.0
    for sub in itertools.combinations(range(A.shape[1]), order):
        s = np.linalg.svd(A[:, sub], compute_uv=False)
        worst = max(worst, s[0] ** 2 - 1.0, 1.0 - s[-1] ** 2)
    return worst


def test_c01_frames_and_noiseless_recovery(frames):
    started = time.perf_counter()
    deltas = []
    for Phi in frames:
        est = ric_exact(Phi, 3)
        oracle = _ric_oracle(Phi, 3)
        assert abs(est.delta - oracle) <= 1e-10
        deltas.append(est.delta)

    solved = 0
    failures = 0
    for t in range(200):
        Phi = frames[t % 5]
        L = (1, 3, 8)[t % 3]
        cfg = InstanceConfig(m=20, n=25, L=L, k=2, seed=900_000 + t,
                             matrix_ensemble="user-supplied", matrix=Phi)
        X = gen_sparse_signal(cfg)
        res = somp_solve(Phi @ X, Phi, 2)
        _TRACES.append(res.trace)
        ok = (res.support == tuple(np.flatnonzero(np.linalg.norm(X, axis=1)))
              and np.linalg.norm(res.signal - X) <= 1e-10 * np.linalg.norm(X))
        solved += 1
        failures += not ok
    elapsed = frames.build_seconds + (time.perf_counter() - started)
    ok = (len(frames) >= 5 and all(d < 0.2612 for d in deltas)
          and solved == 200 and failures == 0 and elapsed <= 15.0)
    _verdict(1, "five verified frames, 200/200 noiseless recoveries", ok,
             f"max delta {max(deltas):.4f}, {elapsed:.1f}s of 15s")


def test_c02_passed_guarantee_implies_recovery(frames):
    # one sweep per frame, so each frame's constant is enumerated once
    records = []
    for fi, Phi in enumerate(frames):
        cfg = InstanceConfig(m=20, n=25, L=3, k=2, matrix_ensemble="user-supplied",
                             matrix=Phi, signal_row_norm_min=1.0)
        rep = run_experiment(cfg, 1e-4, 5e-4, trials=52, master_seed=31_000 + fi,
                             mode="general")
        records.extend(rep.records)
        _TRIAL_FLAGS.extend(r.selected_scores_ok for r in rep.records)
    passed = [r for r in records if r.guarantee == "pass"]
    violations = [r for r in passed if not r.support_exact or r.bound_ok is not True]
    ok = len(passed) >= 200 and not violations
    _verdict(2, "perturbed general-mode: passed check implies exact support "
                "and bounded error", ok,
             f"{len(passed)} passes of {len(records)} trials, "
             f"{len(violations)} violations")


def test_c03_matched_filter_proximity():
    checked = 0
    skipped = 0
    seed = itertools.count(50_000)
    dims = itertools.cycle([(10, 1, 1), (11, 2, 2), (12, 3, 3), (13, 2, 4), (14, 3, 2)])
    while checked < 500:
        n, k, L = next(dims)
        cfg = InstanceConfig(m=4 * n, n=n, L=L, k=k, seed=next(seed))
        Phi = gen_sensing_matrix(cfg)
        est = ric_exact(Phi, k + 1)
        if est.delta >= 0.95:
            skipped += 1
            continue
        X = gen_sparse_signal(cfg)
        diag = matched_filter_oracle(Phi, (), X, delta=est)
        assert diag.passed, f"proximity violated at seed {cfg.seed}"
        if k >= 2:
            rows = [int(i) for i in np.flatnonzero(np.linalg.norm(X, axis=1))]
            X_rest = X.copy()
            X_rest[rows[0]] = 0.0
            diag2 = matched_filter_oracle(Phi, (rows[0],), X_rest, delta=est)
            assert diag2.passed, f"prefix proximity violated at seed {cfg.seed}"
        checked += 1
    _verdict(3, "matched-filter proximity bound on 500 instances", checked == 500,
             f"{checked} checked, {skipped} draws skipped for constant >= 0.95")


def test_c05_single_vector_agreement():
    mismatches = 0
    for t in range(1000):
        g = _rng(70_000 + t)
        Phi = g.standard_normal((16, 32)) / 4.0
        k = int(g.integers(1, 5))
        X = np.zeros((32, 1))
        rows = g.choice(32, size=k, replace=False)
        X[rows, 0] = g.standard_normal(k) + np.sign(g.standard_normal(k)) * 0.5
        y = Phi @ X
        joint = somp_solve(y, Phi, k)
        ref = reference_omp_smv(y[:, 0], Phi, k)
        _TRACES.append(joint.trace)
        _TRACES.append(ref.trace)
        mismatches += joint.trace.selected != ref.trace.selected
    _verdict(5, "1000 single-vector instances, identical selection sequences",
             mismatches == 0, f"{mismatches} mismatches")


def test_c06_two_column_isometry_oracle():
    worst = 0.0
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
        est = ric_exact(coherent_pair_matrix(8, rho), 2)
        worst = max(worst, abs(est.delta - rho))
    _verdict(6, "two-column construction hits its analytic constant",
             worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_c07_closed_form_values_and_boundaries():
    ok = True
    # rational point: every intermediate is an exact fraction
    ok &= abs(recovery_threshold(4, 100) - float(Fraction(6, 31))) <= 1e-12
    # unperturbed limit is bit-exact
    ok &= all(recovery_threshold(k, math.inf) == 1.0 / (2.0 * math.sqrt(k) + 1.0)
              for k in range(1, 11))
    # large but finite ratio is already within 1e-9 of that limit
    ok &= abs(recovery_threshold(1, 1e12) - 1.0 / 3.0) <= 1e-9
    # threshold domain boundary at v = 2 / (2 + 1/sqrt(u))
    try:
        recovery_threshold(4, 0.8)
        ok = False
    except DomainError:
        pass
    ok &= math.isfinite(recovery_threshold(4, 0.8 + 1e-9))
    # amplification closed forms
    ok &= abs(error_amplification(1.0 / 3.0) - math.sqrt(2.0)) <= 1e-15
    ok &= all(abs(error_amplification(1.0 / math.sqrt(k))
                  - math.sqrt((math.sqrt(k) + 1.0) / (math.sqrt(k) - 1.0))) <= 1e-12
              for k in range(2, 9))
    try:
        error_amplification(1.0)  # sparsity 1: no finite amplification
        ok = False
    except DomainError:
        pass
    # magnitude: zero levels give exactly zero, domain closes at sqrt(1.5) - 1
    ok &= perturbation_magnitude(1.3, 2.7, 0.0, 0.0, 0.0) == 0.0
    limit = math.sqrt(1.5) - 1.0
    try:
        perturbation_magnitude(1.0, 1.0, 0.0, limit + 1e-12, 0.0)
        ok = False
    except DomainError:
        pass
    ok &= math.isfinite(perturbation_magnitude(1.0, 1.0, 0.0, limit - 1e-9, 0.0))
    _verdict(7, "closed-form values, limits, and domain boundaries", bool(ok))


def test_c08_mode_reduction_identities():
    exact = True
    grid_lv = (0.0, 1e-4, 0.01, 0.1)
    for phi in (0.7, 1.0, 1.118, 2.3):
        for y in (0.5, 2.7):
            for e0 in grid_lv:
                for e in grid_lv:
                    for b in grid_lv:
                        general = perturbation_magnitude(phi, y, e0, e, b)
                        if b == 0.0:
                            exact &= perturbation_magnitude_for_mode(
                                "sensing", phi, y, eps0=e0, eps=e) == general
                        if e0 == 0.0 and e == 0.0:
                            exact &= perturbation_magnitude_for_mode(
                                "measurement", phi, y, epsb=b) == general
                        exact &= perturbation_magnitude_for_mode(
                            "general", phi, y, eps0=e0, eps=e, epsb=b) == general
    # noiseless check reuses the unperturbed threshold, bit for bit
    A = coherent_pair_matrix(8, 0.1)
    est = ric_exact(A, 3)
    rep = check_guarantee(A, None, None, 2, None, est, mode="noiseless")
    exact &= rep.q_threshold == 1.0 / (2.0 * math.sqrt(2.0) + 1.0)
    exact &= rep.eps_h == 0.0
    _verdict(8, "single-sided formulas reduce to the general one bit for bit",
             bool(exact))


def test_c09_error_grows_with_measurement_noise():
    cfg = InstanceConfig(m=24, n=32, L=3, k=2, seed=0, signal_row_norm_min=1.0)
    rep = run_experiment(
        cfg, [0.0], [0.005, 0.01, 0.02], trials=200, master_seed=2024,
        checks=TrialChecks(ric=False, guarantee=False, selected_scores=True))
    _TRIAL_FLAGS.extend(r.selected_scores_ok for r in rep.records)
    means = [p.mean_rel_error for p in rep.points]
    ok = (len(rep.records) == 600
          and means[0] <= means[1] <= means[2]
          and means[2] <= 3.0 * means[1])
    _verdict(9, "mean error non-decreasing in measurement noise, "
                "with bounded growth", ok,
             "means " + ", ".join(f"{v:.5f}" for v in means))


def test_c10_reports_reproduce_byte_for_byte(tmp_path):
    raw = {
        "instance": {"m": 16, "n": 24, "L": 2, "k": 2},
        "perturbation": {"eps0": 0.0, "epsb": [1e-3, 2e-3]},
        "trials": 10,
        "master_seed": 99,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(raw))
    out1, out2, out3 = (tmp_path / f"r{i}.txt" for i in range(3))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2)]) == 0
    raw["master_seed"] = 100
    cfg_path.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out3)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    distinct = out1.read_bytes() != out3.read_bytes()
    _verdict(10, "reports reproduce byte for byte under a fixed master seed",
             identical and distinct)


def test_c04_selected_scores_vanish_everywhere():
    # defined last so it executes after every other criterion and sees
    # all of their solver runs; the verdict line keeps its own number
    traces = list(_TRACES)
    if not traces:  # standalone invocation: build a fresh batch
        for seed in range(60):
            cfg = InstanceConfig(m=18, n=26, L=2, k=3, seed=seed)
            Phi = gen_sensing_matrix(cfg)
            X = gen_sparse_signal(cfg)
            traces.append(somp_solve(Phi @ X, Phi, 3).trace)
    bad = sum(not selected_scores_vanish(t) for t in traces)
    flags_bad = sum(f is False for f in _TRIAL_FLAGS)
    ok = bad == 0 and flags_bad == 0
    _verdict(4, "selected scores vanish in every solver run", ok,
             f"{len(traces)} traces and {len(_TRIAL_FLAGS)} harness flags")
