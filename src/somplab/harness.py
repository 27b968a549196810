"""Monte Carlo verification harness.

A trial generates a clean instance, calibrates and applies a
perturbation, solves from the perturbed observations, and records what
the guarantee machinery predicted next to what actually happened.  The
one invariant that must never break: a trial whose sufficient condition
passed and whose recovery still went wrong is a red alert, not a
statistic; ``broken_promise`` is that rule.  A trial whose measured
levels break its mode's assumption gets no certificate (verdict "n/a").
Sweep points and the whole sweep are summarized by one rule, where each
rate counts only the trials that evaluated its flag, and rendered by one
formatter.

One trial body serves ``run_trial`` and every sweep: for a trial's
clean matrix, signal and noise seed it yields one record per (eps0,
epsb) pair, and it does each piece of work only as often as its inputs
change:

- once per clean matrix: Phi, its exact constant and the references of
  the levels eps0 and eps (||Phi||_2 and Phi's largest submatrix
  spectral norms).  A sweep on a user-supplied matrix does this once for
  all its trials, any other sweep once per trial;
- once per trial: the signal draw (X, Y, true support, t0), ||Y||_F
  (the reference of epsb and an input of the guarantee) and, when a
  filter check is on, the clean solve and the filter-proximity verdict;
- once per eps0 level: the sensing perturbation E, its levels eps0 and
  eps, and Phi + E;
- once per epsb level: the measurement perturbation B and epsb against
  ||Y||_F;
- once per point: the guarantee (evaluated on the clean ||Phi||_2 and
  ||Y||_F held above), the perturbed solve and its diagnostics.

E, B and their levels come from one schedule, ``perturb._perturbations``,
which ``calibrate_perturbation`` runs at one point: the direction of a
generated E (and its spectral norm) or B is drawn once per trial, when
any level of it is nonzero, and each level only scales it.
``run_trial`` is the trial body at one point.

Determinism: the seeds of trial t derive from SeedSequence([master_seed,
t]) (two 64-bit words: instance seed, perturbation seed).  Sweep points
share trial seeds on purpose, so levels are compared on identical
instances and noise directions; points at one eps0 level share E bit for
bit.  The schedule alone fixes the order of a sweep's points
(eps0-major: every epsb level of the first eps0 level, then the next).
Records are reported point by point in that order, whatever order they
were computed in, and reports render to text without wall times, which
keeps a rerun byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidConfig, PreconditionViolated, TraceMismatch
from .guarantees import _check_mode, _evaluate_guarantee, _magnitude
from .model import (
    _BOOLEAN,
    _COUNT,
    _SEED,
    _check_fields,
    _level,
    _norms,
    _order,
    _prescaled,
    as_matrix,
    as_support,
    min_support_row_norm,
    relative_frobenius_error,
    support_of,
)
from .perturb import (
    _B_MODE,
    InstanceConfig,
    PerturbationSpec,
    _perturbations,
    gen_sensing_matrix,
    gen_sparse_signal,
)
from .rip import (
    _SLACK,
    DEFAULT_SUBSET_BUDGET,
    RicEstimate,
    _frobenius_reference,
    _spectral_reference,
    _width_references,
    residual_sensing_matrix,
    ric_exact,
)
from .solver import IterationTrace, somp_solve

_SCORE_VANISH_TOL = 1e-10


@dataclass(frozen=True)
class TrialChecks:
    """Which optional diagnostics a trial should run (see ``_checks_rules``)."""

    ric: bool = True
    guarantee: bool = True
    selected_scores: bool = True
    filter_proximity: bool = False
    filter_deviation: bool = False

    def __post_init__(self):
        _check_fields(self, **{f.name: _BOOLEAN for f in fields(self)})
        _checks_rules(vars(self))


def _checks_rules(checks: dict, where: str = "") -> None:
    """The rule across ``TrialChecks``' fields: a check that needs the
    exact constant needs ``ric``.  A refusal names the field, ``where`` in front."""
    for name in ("guarantee", "filter_proximity"):
        if checks[name] and not checks["ric"]:
            raise InvalidConfig(f"'{where}{name}' needs '{where}ric' enabled")


@dataclass(frozen=True)
class FilterProximityDiagnostic:
    """Row-wise matched-filter proximity check against an exact constant."""

    max_deviation: float
    bound: float
    delta: float
    order: int
    passed: bool


@dataclass(frozen=True)
class FilterDeviationDiagnostic:
    """Per-iteration filter distance between a perturbed and a clean run.

    Iterations are compared while the two selection prefixes agree; (the
    first diverging iteration is still comparable, since its filters
    were formed before the diverging picks).  ``diverged_at`` is the
    0-based iteration where selections first differ, None if never.
    """

    deviations: tuple[float, ...]
    bound: float
    diverged_at: int | None
    passed: bool


@dataclass(frozen=True)
class TrialRecord:
    """Everything observed in one trial, ready for tabulation."""

    seed: int
    pert_seed: int
    eps0_target: float
    epsb_target: float
    eps0: float
    eps: float
    epsb: float
    delta: float | None
    guarantee: str                    # "pass" | "fail" | "unsat" | "n/a" | "-"
    support_exact: bool
    rel_error: float
    error_bound: float | None
    bound_ok: bool | None
    selected_scores_ok: bool | None
    filter_proximity_ok: bool | None
    filter_deviation_ok: bool | None
    stop: str                         # "-" or the early-stop reason


def selected_scores_vanish(trace: IterationTrace) -> bool | None:
    """True when already-selected indices score (numerically) zero, False
    when one does not, and None when a table gives nothing to check.

    At every iteration, the matched-filter rows of previously selected
    indices are exact zeros in exact arithmetic; here they must stay
    below ``_SCORE_VANISH_TOL`` times the iteration's largest score.  A
    table after the first whose largest score is 0, as when every score
    underflowed, has no scale to compare with, so the check is not made
    and the answer is None (``-`` in a report), unless another table
    shows a failure.
    """
    for i, scores in enumerate(trace.score_tables):
        prev = trace.selected[:i]
        if prev and np.max(scores[list(prev)]) > _SCORE_VANISH_TOL * np.max(scores):
            return False
    return None if any(np.max(scores) == 0.0 for scores in trace.score_tables[1:]) else True


def matched_filter_oracle(Phi, support, x_star,
                          delta: RicEstimate | None = None) -> FilterProximityDiagnostic:
    """Check that the clean matched filter stays row-wise close to the signal.

    For a signal ``x_star`` supported away from ``support`` and
    A = the sensing columns projected off the selected span, every
    unselected row of H = A^T A x_star satisfies

        ||H(j) - x_star(j)||_2  <=  delta / (1 - delta) ||x_star||_F

    with ``delta`` the exact isometry constant at order
    ``||x_star||_0 + |support| + 1`` (computed here, within the default
    subset budget, unless a matching estimate is passed in).  Requires
    delta < 1; the bound is meaningless otherwise.  H, the deviation and
    the bound are formed on x_star's prescaled copy (``model._prescaled``)
    and compared there, so the check is made at any signal scale; the two
    numbers are then scaled back, and read inf past the largest double.
    """
    Phi = as_matrix(Phi, "sensing matrix")
    support = as_support(support, Phi.shape[1])
    x_star = as_matrix(x_star, "signal")
    star_rows = support_of(x_star)
    if set(star_rows) & set(support):
        raise PreconditionViolated("signal support overlaps the selected support")
    order = _order(len(star_rows) + len(support) + 1, Phi.shape[1])
    if delta is None:
        delta = ric_exact(Phi, order)
    elif delta.order != order:
        raise PreconditionViolated(f"estimate has order {delta.order}, need {order}")
    d = delta.delta
    if d >= 1.0:
        raise PreconditionViolated(f"isometry constant {d} >= 1: proximity bound undefined")
    x_norm = float(_norms(x_star))
    x_star, e = _prescaled(x_star, x_norm)   # x_star 2^-e, so that H fits
    if e:
        x_norm = float(_norms(x_star))
    A = residual_sensing_matrix(Phi, support)
    H = A.T @ (A @ x_star)
    others = [j for j in range(Phi.shape[1]) if j not in support]
    dev = float(np.max(_norms(H[others] - x_star[others], axis=1)))
    bound = d / (1.0 - d) * x_norm
    passed = dev <= bound + _SLACK * x_norm   # dev and bound both scale with x_star
    if e:   # back at x_star's scale, inf past the largest double
        with np.errstate(over="ignore", under="ignore"):
            dev, bound = (float(np.ldexp(v, e)) for v in (dev, bound))
    return FilterProximityDiagnostic(max_deviation=dev, bound=bound, delta=d,
                                     order=order, passed=passed)


def filter_deviation_diagnostic(trace_perturbed: IterationTrace, trace_clean: IterationTrace,
                                bound: float) -> FilterDeviationDiagnostic:
    """Compare matched filters of a perturbed and a clean run iteration by
    iteration, against a precomputed deviation bound.

    Both traces must come from the same instance; structurally
    incompatible traces (different filter shapes) raise TraceMismatch.
    A solver trace forms its filters on access, so each one compared is
    formed once, the first pair before the shape check.
    Divergence of the selection sequences is an observation, not an
    error: comparison simply stops after the first diverging iteration.
    """
    perturbed, clean = trace_perturbed.filter_matrices, trace_clean.filter_matrices
    if not perturbed or not clean:
        raise TraceMismatch("need at least one executed iteration in both traces")
    first = perturbed[0], clean[0]
    if first[0].shape != first[1].shape:
        raise TraceMismatch(f"filter shapes differ: {first[0].shape} vs {first[1].shape}")
    diverged_at = None
    last = min(len(trace_perturbed.selected), len(trace_clean.selected))
    for i in range(last):
        if trace_perturbed.selected[i] != trace_clean.selected[i]:
            diverged_at = i
            break
    compare_until = last if diverged_at is None else diverged_at + 1
    filters = [first, *((perturbed[i], clean[i]) for i in range(1, compare_until))]
    deviations = tuple(float(_norms(p - c)) for p, c in filters)
    # the slack scales with the first filters, as the deviations do; a
    # filter whose norm exceeds the largest double must not make it inf
    top = max(float(_norms(first[0])), float(_norms(first[1])))
    slack = _SLACK * min(top, np.finfo(float).max)
    passed = all(d <= bound + slack for d in deviations)
    return FilterDeviationDiagnostic(deviations=deviations, bound=bound,
                                     diverged_at=diverged_at, passed=passed)


@dataclass(frozen=True)
class _Matrix:
    """A clean sensing matrix and the results that depend on it alone;
    a user-supplied matrix's are shared by every trial of a sweep."""

    Phi: np.ndarray
    delta: RicEstimate | None
    refs: tuple[float, tuple[float, ...]]   # the references of eps0 and eps


def _matrix_stage(cfg: InstanceConfig, checks: TrialChecks, subset_budget: int) -> _Matrix:
    """Draw the clean sensing matrix and do its own work: the exact
    constant (with the isometry check) and the references of the levels."""
    Phi = gen_sensing_matrix(cfg)
    delta = ric_exact(Phi, cfg.k + 1, subset_budget) if checks.ric else None
    return _Matrix(Phi=Phi, delta=delta,
                   refs=(_spectral_reference(Phi), _width_references(Phi, cfg.k, subset_budget)))


def _trial(cfg: InstanceConfig, matrix: _Matrix, noise: PerturbationSpec, eps0_levels,
           epsb_levels, checks: TrialChecks, mode: str):
    """Run one trial on ``matrix`` and yield its records, one per (eps0,
    epsb) pair, in the order of the schedule ``_perturbations`` it
    iterates, which alone fixes the point order (eps0-major).  The signal
    comes from ``cfg``, and E, B and each record's targets from the
    schedule, drawn from ``noise``'s seed and b_mode; each piece of work
    runs once per change of its inputs (see the module docstring)."""
    Phi, delta = matrix.Phi, matrix.delta
    X = gen_sparse_signal(cfg)
    Y = Phi @ X
    frob_y = _frobenius_reference(Y)   # the guarantee's and epsb's reference
    true_support = support_of(X)
    t0 = min_support_row_norm(X) if checks.guarantee else None

    clean_trace = proximity_ok = None
    if checks.filter_proximity or checks.filter_deviation:
        clean_trace = somp_solve(Y, Phi, cfg.k).trace
    if checks.filter_proximity and delta.delta < 1.0:   # else the bound is undefined
        proximity_ok = True
        for i in range(len(clean_trace.selected)):
            prefix = clean_trace.selected[:i]
            if not set(prefix) <= set(true_support):
                continue  # hypothesis gone; nothing to assert here
            X_rest = X.copy()
            X_rest[list(prefix)] = 0.0
            diag = matched_filter_oracle(Phi, prefix, X_rest, delta=delta)
            proximity_ok = proximity_ok and diag.passed

    spectral_phi = matrix.refs[0]
    for target_eps0, target_epsb, _, B, Phi_obs, levels in _perturbations(
            noise, Phi, Y, matrix.refs, frob_y, eps0_levels, epsb_levels):
        report = None
        if checks.guarantee:
            report = _evaluate_guarantee(spectral_phi, frob_y, t0, cfg.k, levels, delta, mode)

        solved = somp_solve(Y + B, Phi_obs, cfg.k)
        rel_error = relative_frobenius_error(solved.signal, X)
        scores_ok = selected_scores_vanish(solved.trace) if checks.selected_scores else None

        deviation_ok = None  # also when there is no finite bound to compare against
        if checks.filter_deviation:
            eps_h = (report.eps_h if report is not None   # None on n/a
                     else _magnitude(spectral_phi, frob_y, levels, mode)[0])
            if eps_h is not None and math.isfinite(eps_h):
                deviation_ok = filter_deviation_diagnostic(solved.trace, clean_trace,
                                                           eps_h).passed

        error_bound = None if report is None else report.error_bound
        bound_ok = None
        if error_bound is not None:
            bound_ok = rel_error <= error_bound + _SLACK * max(1.0, error_bound)

        yield TrialRecord(
            seed=cfg.seed, pert_seed=noise.seed,
            eps0_target=target_eps0, epsb_target=target_epsb,
            eps0=levels.eps0, eps=levels.eps, epsb=levels.epsb,
            delta=None if delta is None else delta.delta,
            guarantee="-" if report is None else report.verdict,
            support_exact=solved.support == true_support, rel_error=rel_error,
            error_bound=error_bound, bound_ok=bound_ok,
            selected_scores_ok=scores_ok, filter_proximity_ok=proximity_ok,
            filter_deviation_ok=deviation_ok,
            stop=solved.terminated_early or "-",
        )


def run_trial(cfg: InstanceConfig, pert: PerturbationSpec,
              checks: TrialChecks = TrialChecks(), mode: str = "general",
              subset_budget: int = DEFAULT_SUBSET_BUDGET) -> TrialRecord:
    """Run one generate/perturb/solve/check trial and record the outcome.

    The trial derives every input from ``cfg`` and from ``pert``'s seed
    and targets.  A failing step raises with context; nothing is skipped
    silently.  It is the trial body a sweep runs, at the one point
    (``pert.target_eps0``, ``pert.target_epsb``), so a sweep's record
    equals ``run_trial`` on its trial's config and spec.  An unknown
    ``mode`` raises ValueError.
    """
    _check_mode(mode)
    matrix = _matrix_stage(cfg, checks, subset_budget)
    return next(_trial(cfg, matrix, pert, [pert.target_eps0], [pert.target_epsb], checks, mode))


def trial_seeds(master_seed: int, trial: int) -> tuple[int, int]:
    """Deterministic (instance seed, perturbation seed) of trial ``trial``.

    Two 64-bit words drawn from SeedSequence([master_seed, trial]); the
    derivation is part of the report contract, so experiments reproduce
    from the master seed alone.
    """
    state = np.random.SeedSequence([int(master_seed), int(trial)]).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


@dataclass(frozen=True)
class PointSummary:
    """Aggregates of one sweep point, or of the whole sweep (its targets
    None).  A rate is the share of the trials that evaluated its flag."""

    eps0_target: float | None
    epsb_target: float | None
    trials: int
    support_recovery_rate: float
    mean_rel_error: float
    max_rel_error: float
    bound_rate: float | None
    guarantee_pass_count: int
    recovery_rate_given_pass: float | None
    bound_rate_given_pass: float | None


@dataclass(frozen=True)
class ExperimentReport:
    """All trial records of a sweep plus the aggregates over them."""

    cfg: InstanceConfig
    mode: str
    b_mode: str
    trials_per_point: int
    master_seed: int
    checks: TrialChecks
    points: tuple[PointSummary, ...]
    records: tuple[TrialRecord, ...]
    overall: PointSummary
    red_alert: bool


def broken_promise(rec: TrialRecord) -> str | None:
    """The promise a trial with a passed guarantee broke: "support"
    (recovery missed the true support), "bound" (the error bound was
    exceeded) or None.  Any such trial is a red alert."""
    if rec.guarantee != "pass":
        return None
    if not rec.support_exact:
        return "support"
    if rec.bound_ok is False:
        return "bound"
    return None


def _rate(flags) -> float | None:
    """Share of true flags among the evaluated ones (not None), if any."""
    scored = [f for f in flags if f is not None]
    return sum(scored) / len(scored) if scored else None


def _summarize(eps0_target, epsb_target, records) -> PointSummary:
    passed = [r for r in records if r.guarantee == "pass"]
    return PointSummary(
        eps0_target=eps0_target,
        epsb_target=epsb_target,
        trials=len(records),
        support_recovery_rate=_rate(r.support_exact for r in records),
        mean_rel_error=sum(r.rel_error for r in records) / len(records),
        max_rel_error=max(r.rel_error for r in records),
        bound_rate=_rate(r.bound_ok for r in records),
        guarantee_pass_count=len(passed),
        recovery_rate_given_pass=_rate(r.support_exact for r in passed),
        bound_rate_given_pass=_rate(r.bound_ok for r in passed),
    )


def run_experiment(cfg: InstanceConfig, eps0_levels, epsb_levels, trials: int,
                   master_seed: int, checks: TrialChecks = TrialChecks(),
                   mode: str = "general", b_mode: str = "gaussian",
                   subset_budget: int = DEFAULT_SUBSET_BUDGET) -> ExperimentReport:
    """Run a deterministic sweep over perturbation levels.

    ``eps0_levels`` x ``epsb_levels`` form the sweep grid (scalars are
    promoted to one-element lists).  Each point runs ``trials`` trials
    whose seeds depend only on (master_seed, trial index), so points see
    identical instances and noise directions at different scales.  The
    sweep runs the trial body of ``run_trial`` trial by trial, over every
    point at once (see the module docstring).  Each record joins the
    point whose index its trial yields it at, so the points, and the
    records point by point, come out in the order of the perturbation
    schedule (``perturb._perturbations``, eps0-major), and each point's
    targets are read from its records.
    Every argument is checked before the first trial: an unknown ``mode``
    raises ValueError, and any other argument of the wrong kind (see
    ``experiment --config``) raises InvalidConfig naming it.
    """
    _check_mode(mode)
    eps0_levels = _level(eps0_levels, "eps0_levels")
    epsb_levels = _level(epsb_levels, "epsb_levels")
    trials, subset_budget = _COUNT(trials, "trials"), _COUNT(subset_budget, "subset_budget")
    master_seed = _SEED(master_seed, "master_seed")
    b_mode = _B_MODE(b_mode, "b_mode")
    by_point: dict[int, list[TrialRecord]] = {}   # trial 0 enters the points in order
    # Trial by trial, so only one trial's clean side is alive at a time.
    shared = None   # a user-supplied matrix's own work, done once
    for t in range(trials):
        iseed, pseed = trial_seeds(master_seed, t)
        tcfg = replace(cfg, seed=iseed)
        matrix = shared or _matrix_stage(tcfg, checks, subset_budget)
        if cfg.matrix_ensemble == "user-supplied":
            shared = matrix
        noise = PerturbationSpec(seed=pseed, b_mode=b_mode)
        for point, rec in enumerate(_trial(tcfg, matrix, noise, eps0_levels, epsb_levels,
                                           checks, mode)):
            by_point.setdefault(point, []).append(rec)
    all_records = [rec for recs in by_point.values() for rec in recs]   # point-major
    return ExperimentReport(
        cfg=cfg, mode=mode, b_mode=b_mode, trials_per_point=trials,
        master_seed=master_seed, checks=checks,
        points=tuple(_summarize(recs[0].eps0_target, recs[0].epsb_target, recs)
                     for recs in by_point.values()),
        records=tuple(all_records),
        overall=_summarize(None, None, all_records),
        red_alert=any(broken_promise(r) for r in all_records),
    )


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


_COLUMNS = ("point", "trial", *(f.name for f in fields(TrialRecord)))

_SUMMARY_FIELDS = tuple(f.name for f in fields(PointSummary))[2:]   # after the two targets


def _summary_line(head: str, summary: PointSummary) -> str:
    return " ".join([head] + [f"{name}={_fmt(getattr(summary, name))}"
                              for name in _SUMMARY_FIELDS])


def render_report(report: ExperimentReport) -> str:
    """Render an experiment to reproducible text: a tab-separated trial
    table followed by a summary block.  Wall times are deliberately
    omitted so identical seeds give identical bytes."""
    cfg = report.cfg
    lines = [
        "# somplab experiment report",
        f"# instance: m={cfg.m} n={cfg.n} L={cfg.L} k={cfg.k} "
        f"ensemble={cfg.matrix_ensemble} signal_row_norm_min={_fmt(cfg.signal_row_norm_min)}",
        f"# sweep: mode={report.mode} b_mode={report.b_mode} "
        f"trials_per_point={report.trials_per_point} master_seed={report.master_seed}",
        " ".join(["# checks:"] + [f"{f.name}={_fmt(getattr(report.checks, f.name))}"
                                  for f in fields(TrialChecks)]),
        "\t".join(_COLUMNS),
    ]
    for i, rec in enumerate(report.records):
        point, trial = divmod(i, report.trials_per_point)
        row = [point, trial] + [getattr(rec, name) for name in _COLUMNS[2:]]
        lines.append("\t".join(_fmt(v) for v in row))
    lines.append("summary:")
    for i, p in enumerate(report.points):
        lines.append(_summary_line(
            f"point={i} eps0={_fmt(p.eps0_target)} epsb={_fmt(p.epsb_target)}", p))
    lines.append(_summary_line("overall", report.overall)
                 + f" red_alert={_fmt(report.red_alert)}")
    return "\n".join(lines) + "\n"
