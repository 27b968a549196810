"""Command-line front end.

Subcommands: solve, ric, check, perturb, experiment.  Exit codes are
part of the contract: 0 success (including a guarantee verdict of
"fails", which is an answer, not an error), 1 usage or input-format
problems, 2 domain or numerical errors, 3 red alert (an experiment
produced a trial whose passed guarantee was violated).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .errors import DimensionMismatch, InvalidConfig, ParseError, PreconditionViolated, SomplabError
from .guarantees import MODES, _evaluate_guarantee, _references
from .harness import TrialChecks, _checks_rules, broken_promise, render_report, run_experiment
from .matrixio import read_matrix, write_matrix
from .model import (
    _BOOLEAN,
    _COUNT,
    _NONNEGATIVE,
    _OVERLAP,
    _SEED,
    _kind,
    _level,
    _one_of,
    min_support_row_norm,
)
from .perturb import (
    _B_MODE,
    _ENSEMBLE,
    B_MODES,
    InstanceConfig,
    PerturbationSpec,
    _instance_rules,
    apply_perturbation,
    calibrate_perturbation,
)
from .rip import DEFAULT_SUBSET_BUDGET, PerturbationLevels, ric_exact
from .solver import _check_sparsity, somp_solve


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache   # built once per process; parsing leaves the parser unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="somplab", description="joint-sparse recovery toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="recover a row-sparse signal",
                        description="Greedy joint recovery from a sensing matrix "
                                    "and observation file; prints the support.")
    sp.add_argument("--phi", required=True, help="sensing matrix file")
    sp.add_argument("--y", required=True, help="observation matrix file")
    sp.add_argument("--sparsity", type=_flag("--sparsity", _COUNT), required=True,
                    help="number of rows to select")
    sp.add_argument("--out", help="write the recovered signal matrix here")
    sp.add_argument("--trace", help="write per-iteration details to this file")

    rp = sub.add_parser("ric", help="exact restricted isometry constant",
                        description="Enumerate all column subsets of the given "
                                    "order and print the exact constant.")
    rp.add_argument("--matrix", required=True)
    rp.add_argument("--order", type=_flag("--order", _COUNT), required=True)
    rp.add_argument("--budget", type=_flag("--budget", _COUNT),
                    default=DEFAULT_SUBSET_BUDGET,
                    help="largest subset count the enumeration may attempt")

    cp = sub.add_parser("check", help="evaluate the recovery guarantee",
                        description="Evaluate the sufficient recovery condition "
                                    "for given perturbation levels.  The verdict "
                                    "is printed and the exit code stays 0 either way.")
    cp.add_argument("--phi", required=True, help="clean sensing matrix file")
    cp.add_argument("--sparsity", type=_flag("--sparsity", _COUNT), required=True)
    cp.add_argument("--mode", choices=MODES, default="general")
    cp.add_argument("--y", help="clean observation file (noisy modes)")
    cp.add_argument("--x", help="true signal file; its weakest occupied row "
                                "supplies the floor (noisy modes)")
    cp.add_argument("--t0", type=_flag("--t0", _NONNEGATIVE),
                    help="weakest occupied-row norm, given directly instead of --x")
    cp.add_argument("--eps0", type=_flag("--eps0", _NONNEGATIVE), default=0.0,
                    help="relative spectral size of the sensing perturbation")
    cp.add_argument("--eps", type=_flag("--eps", _NONNEGATIVE),
                    help="submatrix-level relative size (defaults to --eps0)")
    cp.add_argument("--epsb", type=_flag("--epsb", _NONNEGATIVE), default=0.0,
                    help="relative size of the observation perturbation")
    cp.add_argument("--budget", type=_flag("--budget", _COUNT),
                    default=DEFAULT_SUBSET_BUDGET)

    pp = sub.add_parser("perturb", help="calibrate and apply a perturbation",
                        description="Scale random perturbations to hit the "
                                    "target levels, write the perturbed files, "
                                    "and print the realized levels.")
    pp.add_argument("--phi", required=True)
    pp.add_argument("--y", required=True)
    pp.add_argument("--eps0", type=_flag("--eps0", _NONNEGATIVE), default=0.0)
    pp.add_argument("--epsb", type=_flag("--epsb", _NONNEGATIVE), default=0.0)
    pp.add_argument("--b-mode", choices=B_MODES, default="gaussian")
    pp.add_argument("--sparsity", type=_flag("--sparsity", _COUNT), default=1,
                    help="submatrix width for level measurement")
    pp.add_argument("--seed", type=_flag("--seed", _SEED), default=0)
    pp.add_argument("--out-prefix", required=True,
                    help="write PREFIX.phi.txt, PREFIX.y.txt, PREFIX.e.txt, PREFIX.b.txt")
    pp.add_argument("--budget", type=_flag("--budget", _COUNT),
                    default=DEFAULT_SUBSET_BUDGET)

    ep = sub.add_parser("experiment", help="run a Monte Carlo sweep",
                        description="Run the trial sweep described by a JSON "
                                    "config and render the deterministic report.")
    ep.add_argument("--config", required=True, help="JSON experiment description")
    ep.add_argument("--out", help="write the report here instead of stdout")
    return p


def _cmd_solve(args) -> int:
    Phi = read_matrix(args.phi)
    Y = read_matrix(args.y)
    result = somp_solve(Y, Phi, args.sparsity)
    if args.trace:
        t = result.trace
        lines = [f"iter={i} selected={j} residual={t.residual_norms[i]!r}"
                 for i, j in enumerate(t.selected)]
        if result.terminated_early:
            lines.append(f"stopped early: {result.terminated_early}")
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    if args.out:
        write_matrix(args.out, result.signal)
    print(",".join(str(j) for j in result.support))
    return 0


def _cmd_ric(args) -> int:
    A = read_matrix(args.matrix)
    est = ric_exact(A, args.order, subset_budget=args.budget)
    print(f"order={est.order}")
    print(f"delta={est.delta!r}")
    print(f"witness={','.join(str(j) for j in est.witness_subset)}")
    print(f"subsets_examined={est.subsets_examined}")
    return 0


def _cmd_check(args) -> int:
    Phi = read_matrix(args.phi)
    k = args.sparsity
    noisy = args.mode != "noiseless"
    Y = read_matrix(args.y) if args.y else None
    X = None if args.x is None else read_matrix(args.x)
    if X is not None and args.t0 is not None:
        raise _UsageError("somplab check: give --x or --t0, not both")
    if noisy and Y is None:
        raise _UsageError("somplab check: --y is required for noisy modes")
    if noisy and X is None and args.t0 is None:
        raise _UsageError("somplab check: --x or --t0 is required for noisy modes")
    # every input is checked before the order-(k + 1) enumeration
    _check_sparsity(k, *Phi.shape)
    spectral_phi, frob_y = _references(Phi, Y, args.mode)
    t0 = args.t0 if X is None else _weakest_row(X, Phi.shape[1], Y, k)
    eps = args.eps if args.eps is not None else args.eps0
    levels = PerturbationLevels(eps0=args.eps0, eps=eps, epsb=args.epsb, order=k)
    delta = ric_exact(Phi, k + 1, subset_budget=args.budget)
    print(f"mode={args.mode}")
    print(f"order={delta.order}")
    print(f"delta={delta.delta!r}")
    print(f"eps0={levels.eps0!r}")
    print(f"eps={levels.eps!r}")
    print(f"epsb={levels.epsb!r}")
    report = _evaluate_guarantee(spectral_phi, frob_y, t0, k, levels, delta, args.mode)
    if report.verdict != "n/a":
        print(f"eps_h={report.eps_h!r}")
        print(f"q_threshold={'-' if report.q_threshold is None else repr(report.q_threshold)}")
        print(f"error_bound={'-' if report.error_bound is None else repr(report.error_bound)}")
    if report.error_bound_direct is not None:
        print(f"error_bound_direct={report.error_bound_direct!r}")
    if report.verdict == "pass":
        print(f"condition holds ({delta.delta:.6g} < {report.q_threshold:.6g})")
    elif report.verdict == "fail":
        print(f"condition fails ({delta.delta:.6g} >= {report.q_threshold:.6g})")
    else:
        print(f"condition {'n/a' if report.verdict == 'n/a' else 'unsatisfiable'} ({report.note})")
    return 0


def _weakest_row(X, n: int, Y, k: int) -> float:
    """t0 of a ``check --x`` signal: its weakest occupied-row norm.  X
    must be n x L (L from --y when given) with at most k occupied rows."""
    want = (n, X.shape[1] if Y is None else Y.shape[1])
    if X.shape != want:
        raise DimensionMismatch(f"signal has shape {X.shape}, expected {want}")
    profile = min_support_row_norm(X)
    occupied = int((profile.norms > 0).sum())
    if occupied > k:
        raise PreconditionViolated(
            f"signal has {occupied} occupied rows, more than the sparsity {k}")
    return profile.t0


def _cmd_perturb(args) -> int:
    Phi = read_matrix(args.phi)
    Y = read_matrix(args.y)
    spec = PerturbationSpec(target_eps0=args.eps0, target_epsb=args.epsb,
                            seed=args.seed, b_mode=args.b_mode)
    E, B, lv = calibrate_perturbation(Phi, Y, spec, order=args.sparsity,
                                      subset_budget=args.budget)
    Y_obs, Phi_obs = apply_perturbation(Y, Phi, E, B)
    write_matrix(f"{args.out_prefix}.phi.txt", Phi_obs)
    write_matrix(f"{args.out_prefix}.y.txt", Y_obs)
    write_matrix(f"{args.out_prefix}.e.txt", E)
    write_matrix(f"{args.out_prefix}.b.txt", B)
    print(f"eps0={lv.eps0!r}")
    print(f"eps={lv.eps!r}")
    print(f"epsb={lv.epsb!r}")
    return 0


_REQUIRED = object()   # default of a key that the config must give


def _flag(name: str, kind):
    """An argparse type that checks a numeric flag by the ``kind`` its
    config key uses, so a flag and a config key refuse the same values.
    The text reads as an int where it is one, else as a float."""
    def number(text):
        try:
            value = int(text)
        except ValueError:
            value = float(text)
        return kind(value, name)
    return number


_PATH = _kind(lambda v: type(v) is str and v != "", "a path string", str)


def _walk(table: dict, raw, where: str) -> dict:
    """Check ``raw`` against ``table`` and fill in the defaults.  An
    unknown key, a missing required key and a value of the wrong kind
    each raise InvalidConfig."""
    name = where or "config"
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{name} must be a JSON object")
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise InvalidConfig(f"unknown key {unknown[0]!r} in {name}")
    out = {}
    for key, (kind, default) in table.items():
        if key not in raw and default is _REQUIRED:
            raise InvalidConfig(f"missing key {key!r} in {name}")
        value = raw.get(key, default)
        dotted = f"{where}.{key}" if where else key
        if isinstance(kind, dict):   # a nested section, walked even when absent
            out[key] = _walk(kind, value, dotted)
        else:
            out[key] = kind(value, dotted) if key in raw else value
    return out


# Every key an experiment config may hold: key -> (kind, default), where a
# kind is one the library types take or, for a nested section, its own table.
_CONFIG = {
    "instance": ({
        **{size: (_COUNT, _REQUIRED) for size in ("m", "n", "L", "k")},
        "ensemble": (_ENSEMBLE, "gaussian"),
        "matrix": (_PATH, None),
        "signal_row_norm_min": (_NONNEGATIVE, 0.0),
        "embed_overlap": (_OVERLAP, 0.5),
    }, _REQUIRED),
    "perturbation": ({
        "eps0": (_level, 0.0),
        "epsb": (_level, 0.0),
        "b_mode": (_B_MODE, "gaussian"),
    }, {}),
    "trials": (_COUNT, _REQUIRED),
    "master_seed": (_SEED, _REQUIRED),
    "mode": (_one_of(MODES), "general"),
    "subset_budget": (_COUNT, DEFAULT_SUBSET_BUDGET),
    "checks": ({f.name: (_BOOLEAN, f.default) for f in dataclasses.fields(TrialChecks)}, {}),
}


def _load_config(path: str) -> dict:
    """Read an experiment config into the keyword arguments of run_experiment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:   # also a file that is not UTF-8
        raise InvalidConfig(f"config is not valid JSON: {exc}") from None
    conf = _walk(_CONFIG, raw, "")
    _checks_rules(conf["checks"], "checks.")
    inst = dict(conf["instance"])
    ensemble, path = inst.pop("ensemble"), inst.pop("matrix")
    _instance_rules(inst["m"], inst["n"], inst["k"], ensemble, path, "instance.")
    matrix = None if path is None else read_matrix(path)
    pert = conf["perturbation"]
    return dict(cfg=InstanceConfig(**inst, matrix_ensemble=ensemble, matrix=matrix),
                eps0_levels=pert["eps0"], epsb_levels=pert["epsb"], b_mode=pert["b_mode"],
                trials=conf["trials"], master_seed=conf["master_seed"], mode=conf["mode"],
                subset_budget=conf["subset_budget"], checks=TrialChecks(**conf["checks"]))


def _cmd_experiment(args) -> int:
    report = run_experiment(**_load_config(args.config))
    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for i, rec in enumerate(report.records):
        promise = broken_promise(rec)
        if promise:
            point, trial = divmod(i, report.trials_per_point)
            print(f"red alert: point={point} trial={trial} seed={rec.seed} "
                  f"pert_seed={rec.pert_seed} broke={promise}", file=sys.stderr)
    return 3 if report.red_alert else 0


_COMMANDS = {"solve": _cmd_solve, "ric": _cmd_ric, "check": _cmd_check,
             "perturb": _cmd_perturb, "experiment": _cmd_experiment}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ParseError, InvalidConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SomplabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
