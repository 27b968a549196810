import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from somplab import (
    InstanceConfig,
    InvalidConfig,
    ParseError,
    PerturbationLevels,
    PerturbationSpec,
    TrialChecks,
    gen_sensing_matrix,
    gen_sparse_signal,
    low_coherence_frame,
    read_matrix,
    ric_exact,
    run_experiment,
    write_matrix,
)
from somplab.cli import main


def _write_instance(tmp_path, seed=3, m=16, n=24, L=2, k=2):
    cfg = InstanceConfig(m=m, n=n, L=L, k=k, seed=seed)
    Phi = gen_sensing_matrix(cfg)
    X = gen_sparse_signal(cfg)
    phi_path = tmp_path / "phi.txt"
    y_path = tmp_path / "y.txt"
    write_matrix(phi_path, Phi)
    write_matrix(y_path, Phi @ X)
    return Phi, X, phi_path, y_path


def test_matrix_roundtrip_is_byte_identical(tmp_path):
    A = np.random.Generator(np.random.PCG64(0)).standard_normal((7, 5))
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_matrix(p1, A)
    B = read_matrix(p1)
    assert np.array_equal(A, B)
    write_matrix(p2, B)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_matrix_reports_ragged_row(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0,2.0\n3.0,4.0,5.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line == 2


def test_read_matrix_reports_bad_token_position(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(p)
    assert exc.value.line == 2
    assert exc.value.column == 2
    assert "line 2" in str(exc.value)


def test_read_matrix_rejects_non_finite_and_empty(tmp_path):
    p = tmp_path / "naughty.txt"
    p.write_text("1.0,nan\n")
    with pytest.raises(ParseError):
        read_matrix(p)
    p.write_text("")
    with pytest.raises(ParseError):
        read_matrix(p)


def test_read_matrix_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.txt"
    p.write_text("1.0,2.0\n\n3.0,4.0\n")
    assert np.array_equal(read_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


def test_solve_subcommand(tmp_path, capsys):
    from somplab import support_of

    Phi, X, phi_path, y_path = _write_instance(tmp_path)
    out_path = tmp_path / "xhat.txt"
    trace_path = tmp_path / "trace.txt"
    code = main(["solve", "--phi", str(phi_path), "--y", str(y_path),
                 "--sparsity", "2", "--out", str(out_path),
                 "--trace", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 0
    printed = captured.out.strip()
    expected = ",".join(str(j) for j in np.flatnonzero(np.linalg.norm(X, axis=1)))
    assert printed == expected
    trace_lines = trace_path.read_text().splitlines()
    assert trace_lines[0].startswith("iter=0 selected=")
    assert len(trace_lines) >= 2
    X_hat = read_matrix(out_path)
    assert np.linalg.norm(X_hat - X) <= 1e-9 * np.linalg.norm(X)
    # the written signal lives entirely on the printed support
    printed_support = [int(s) for s in printed.split(",")]
    assert set(support_of(X_hat)) <= set(printed_support)


def test_ric_subcommand(tmp_path, capsys):
    Phi, X, phi_path, _ = _write_instance(tmp_path, m=10, n=12)
    code = main(["ric", "--matrix", str(phi_path), "--order", "2"])
    captured = capsys.readouterr()
    assert code == 0
    got = dict(line.split("=", 1) for line in captured.out.strip().splitlines())
    est = ric_exact(read_matrix(phi_path), 2)
    assert float(got["delta"]) == est.delta
    assert got["order"] == "2"
    assert int(got["subsets_examined"]) == est.subsets_examined


def test_check_subcommand_noiseless_verdicts(tmp_path, capsys):
    from somplab import coherent_pair_matrix

    p = tmp_path / "pair.txt"
    write_matrix(p, coherent_pair_matrix(8, 0.1))
    code = main(["check", "--phi", str(p), "--sparsity", "1", "--mode", "noiseless"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition holds (0.1 < 0.333333)" in out

    write_matrix(p, coherent_pair_matrix(8, 0.5))
    code = main(["check", "--phi", str(p), "--sparsity", "1", "--mode", "noiseless"])
    out = capsys.readouterr().out
    assert code == 0  # a failed condition is an answer, not an error
    assert "condition fails (0.5 >= 0.333333)" in out


def test_check_subcommand_general_mode(tmp_path, capsys):
    from somplab import coherent_pair_matrix

    p = tmp_path / "pair.txt"
    A = coherent_pair_matrix(8, 0.1)
    write_matrix(p, A)
    y = tmp_path / "y.txt"
    X_true = 2.0 * np.eye(8)[:, :1]
    write_matrix(y, A @ X_true)
    code = main(["check", "--phi", str(p), "--sparsity", "1", "--mode", "general",
                 "--y", str(y), "--t0", "2.0",
                 "--eps0", "1e-5", "--epsb", "1e-4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition holds" in out
    assert "eps_h=" in out

    # same floor, but derived from the true signal file
    x = tmp_path / "x.txt"
    write_matrix(x, X_true)
    code = main(["check", "--phi", str(p), "--sparsity", "1", "--mode", "general",
                 "--y", str(y), "--x", str(x),
                 "--eps0", "1e-5", "--epsb", "1e-4"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out2 == out

    code = main(["check", "--phi", str(p), "--sparsity", "1", "--mode", "general",
                 "--y", str(y), "--t0", "2.0", "--epsb", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition unsatisfiable" in out


def test_check_subcommand_is_na_outside_its_mode(tmp_path, capsys):
    from somplab import coherent_pair_matrix

    p = tmp_path / "pair.txt"
    A = coherent_pair_matrix(8, 0.1)
    write_matrix(p, A)
    y = tmp_path / "y.txt"
    write_matrix(y, A @ (2.0 * np.eye(8)[:, :1]))
    noisy = ["--y", str(y), "--t0", "2.0"]
    runs = [
        (["--mode", "noiseless", "--epsb", "0.5"], "assumes zero epsb; got epsb=0.5"),
        (["--mode", "measurement", "--eps0", "0.05", *noisy],
         "assumes zero eps0, eps; got eps0=0.05, eps=0.05"),
        (["--mode", "sensing", "--eps0", "1e-5", "--epsb", "1e-4", *noisy],
         "assumes zero epsb; got epsb=0.0001"),
    ]
    for extra, why in runs:
        code = main(["check", "--phi", str(p), "--sparsity", "1", *extra])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == f"condition n/a (mode {extra[1]} {why})"


def test_check_subcommand_requires_noisy_inputs(tmp_path, capsys):
    _, X, phi_path, _ = _write_instance(tmp_path)
    code = main(["check", "--phi", str(phi_path), "--sparsity", "2",
                 "--mode", "general"])
    assert code == 1
    assert "required" in capsys.readouterr().err

    x_path = phi_path.parent / "xtrue.txt"
    write_matrix(x_path, X)
    code = main(["check", "--phi", str(phi_path), "--sparsity", "2",
                 "--mode", "general", "--x", str(x_path), "--t0", "1.0"])
    assert code == 1
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("mode, extra, flag", [
    ("sensing", ["--eps0", "-0.001"], "--eps0"),     # would raise the threshold
    ("measurement", ["--t0", "inf"], "--t0"),         # would make the condition hold
    ("general", ["--epsb", "nan"], "--epsb"),         # would give nan bounds
    ("general", ["--eps", "-0.5"], "--eps"),          # would read as unsatisfiable
    ("general", ["--eps0", "1e400"], "--eps0"),       # overflows to inf
])
def test_check_subcommand_rejects_bad_levels(tmp_path, capsys, mode, extra, flag):
    from somplab import coherent_pair_matrix

    p = tmp_path / "pair.txt"
    A = coherent_pair_matrix(8, 0.1)
    write_matrix(p, A)
    y = tmp_path / "y.txt"
    write_matrix(y, A @ (2.0 * np.eye(8)[:, :1]))
    noisy = ["--y", str(y), *([] if flag == "--t0" else ["--t0", "2.0"])]
    code = main(["check", "--phi", str(p), "--sparsity", "1", "--mode", mode, *noisy, *extra])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith(f"error: '{flag}' must be a finite number >= 0")


@pytest.mark.parametrize("flag, value", [
    ("--eps0", "nan"), ("--eps0", "inf"), ("--epsb", "nan"), ("--epsb", "inf"),
    ("--epsb", "-1e-3"),
])
def test_perturb_subcommand_refuses_bad_levels(tmp_path, capsys, flag, value):
    # refused as input, before any file is written
    _, _, phi_path, y_path = _write_instance(tmp_path)
    prefix = tmp_path / "noisy"
    code = main(["perturb", "--phi", str(phi_path), "--y", str(y_path),
                 f"{flag}={value}", "--out-prefix", str(prefix)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith(f"error: '{flag}' must be a finite number >= 0")
    assert not list(tmp_path.glob("noisy*"))


def test_perturb_subcommand(tmp_path, capsys):
    Phi, X, phi_path, y_path = _write_instance(tmp_path)
    prefix = tmp_path / "noisy"
    code = main(["perturb", "--phi", str(phi_path), "--y", str(y_path),
                 "--eps0", "1e-3", "--epsb", "5e-3", "--seed", "11",
                 "--out-prefix", str(prefix)])
    out = capsys.readouterr().out
    assert code == 0
    got = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(got["eps0"]) == pytest.approx(1e-3, rel=1e-12)
    assert float(got["epsb"]) == pytest.approx(5e-3, rel=1e-12)
    Phi_obs = read_matrix(f"{prefix}.phi.txt")
    E = read_matrix(f"{prefix}.e.txt")
    Y_obs = read_matrix(f"{prefix}.y.txt")
    B = read_matrix(f"{prefix}.b.txt")
    assert np.array_equal(Phi_obs, Phi + E)
    Y = read_matrix(y_path)
    assert np.array_equal(Y_obs, Y + B)


def _config(tmp_path, **overrides):
    raw = {
        "instance": {"m": 16, "n": 24, "L": 2, "k": 2},
        "perturbation": {"eps0": 0.0, "epsb": [1e-3, 2e-3]},
        "trials": 4,
        "master_seed": 17,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_experiment_subcommand_reproducible(tmp_path, capsys):
    cfg_path = _config(tmp_path)
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "somplab experiment report" in text
    assert "red_alert=0" in text


def test_experiment_subcommand_stdout(tmp_path, capsys):
    cfg_path = _config(tmp_path, trials=2, perturbation={"epsb": 1e-3})
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert "summary:" in capsys.readouterr().out


def test_experiment_rejects_unknown_keys(tmp_path, capsys):
    for overrides in ({"bogus": 1},
                      {"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "zap": 3}},
                      {"perturbation": {"eps0": 0.0, "boom": 1}},
                      {"checks": {"nope": True}},
                      {"solver": {"nope": 1.0}},
                      {"solver": {"rank_tol": 1e-12}}):   # the solver has no settings
        cfg_path = _config(tmp_path, **overrides)
        assert main(["experiment", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "unknown key" in err


def test_experiment_rejects_malformed_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["experiment", "--config", str(p)]) == 1
    assert "JSON" in capsys.readouterr().err

    p.write_bytes(b"\xff\xfe{}")   # not UTF-8
    assert main(["experiment", "--config", str(p)]) == 1
    assert "JSON" in capsys.readouterr().err

    cfg_path = _config(tmp_path, trials=0)
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"instance": {"m": 4, "n": 4, "L": 1, "k": 1},
                                   "trials": 1}))
    assert main(["experiment", "--config", str(missing)]) == 1
    assert "master_seed" in capsys.readouterr().err


def test_exit_code_one_for_usage_and_files(tmp_path, capsys):
    assert main(["solve", "--phi", "nope"]) == 1  # missing required args
    assert main(["bogus-command"]) == 1
    assert main(["ric", "--matrix", str(tmp_path / "absent.txt"), "--order", "2"]) == 1
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1.0\n2.0,3.0\n")
    assert main(["ric", "--matrix", str(ragged), "--order", "1"]) == 1
    capsys.readouterr()


def test_matrix_files_that_are_not_utf8_exit_one_with_a_line(tmp_path, capsys):
    Phi, X, phi_path, y_path = _write_instance(tmp_path)
    bom = tmp_path / "utf16.txt"
    bom.write_bytes(b"\xff\xfe1\x00,\x002\x00\n")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1.0,2.0\n3.0,4.0\n5.0,\xe96.0\n")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "instance": {"m": 3, "n": 2, "L": 1, "k": 1,
                     "ensemble": "user-supplied", "matrix": str(latin1)},
        "trials": 1, "master_seed": 0}))
    runs = [
        (["ric", "--matrix", str(bom), "--order", "1"], "line 1"),
        (["ric", "--matrix", str(latin1), "--order", "1"], "line 3"),
        (["solve", "--phi", str(latin1), "--y", str(y_path), "--sparsity", "1"], "line 3"),
        (["experiment", "--config", str(cfg)], "line 3"),
    ]
    for argv, where in runs:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert f"error: not UTF-8 text ({where})" in err, argv
    with pytest.raises(ParseError) as exc:
        read_matrix(latin1)
    assert exc.value.line == 3


def test_exit_code_two_for_domain_errors(tmp_path, capsys):
    Phi, X, phi_path, y_path = _write_instance(tmp_path)
    code = main(["solve", "--phi", str(phi_path), "--y", str(y_path),
                 "--sparsity", "99"])
    assert code == 2
    assert "sparsity" in capsys.readouterr().err

    # subset enumeration over budget is a domain error too
    code = main(["ric", "--matrix", str(phi_path), "--order", "3", "--budget", "2"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_exit_code_three_on_red_alert(tmp_path, capsys, monkeypatch):
    import somplab.cli as cli_mod
    from somplab import run_experiment as real_run

    cfg_path = _config(tmp_path, trials=2)   # 2 points x 2 trials
    broken = {1: dict(support_exact=False), 2: dict(bound_ok=False)}

    def poisoned(*args, **kwargs):
        rep = real_run(*args, **kwargs)
        records = [dataclasses.replace(r, guarantee="pass", **broken[i]) if i in broken else r
                   for i, r in enumerate(rep.records)]
        return dataclasses.replace(rep, records=tuple(records), red_alert=True)

    monkeypatch.setattr(cli_mod, "run_experiment", poisoned)
    code = main(["experiment", "--config", str(cfg_path)])
    assert code == 3
    rep = poisoned(**cli_mod._load_config(str(cfg_path)))
    r1, r2 = rep.records[1], rep.records[2]
    assert capsys.readouterr().err.splitlines() == [
        f"red alert: point=0 trial=1 seed={r1.seed} pert_seed={r1.pert_seed} broke=support",
        f"red alert: point=1 trial=0 seed={r2.seed} pert_seed={r2.pert_seed} broke=bound",
    ]


FRAME = Path(__file__).resolve().parent / "golden" / "frame_20x25.txt"


def _frame_sweep(tmp_path, capsys, **overrides):
    """Sweep the checked-in 20 x 25 frame; (exit code, rows, summary lines)."""
    raw = {"instance": {"m": 20, "n": 25, "L": 3, "k": 2, "signal_row_norm_min": 1.0,
                        "ensemble": "user-supplied", "matrix": str(FRAME)},
           "checks": {"filter_deviation": True}, "trials": 5, "master_seed": 3, **overrides}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(raw))
    code = main(["experiment", "--config", str(path)])
    lines = capsys.readouterr().out.splitlines()
    header = lines[4].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[5:lines.index("summary:")]]
    summary = [dict(f.split("=") for f in line.split() if "=" in f)
               for line in lines[lines.index("summary:") + 1:]]
    for s in summary:
        if s["bound_rate"] == "-":   # no trial evaluated a bound, passed or not
            assert s["bound_rate_given_pass"] == "-"
    return code, rows, summary


def test_zero_level_sweep_keeps_exact_recoveries_within_the_bound(tmp_path, capsys):
    # eps0 = epsb = 0: the error bound is exactly 0.0 and recovery exact to rounding
    code, rows, summary = _frame_sweep(tmp_path, capsys)
    assert code == 0
    assert [r["guarantee"] for r in rows] == ["pass"] * 5
    assert all(r["error_bound"] == "0.0" and r["bound_ok"] == "1" for r in rows)
    assert max(float(r["rel_error"]) for r in rows) < 1e-14
    assert summary[-1]["red_alert"] == "0"


@pytest.mark.parametrize("mode, perturbation", [
    ("measurement", {"eps0": [0.05]}),
    ("noiseless", {"epsb": 0.5}),
    ("sensing", {"epsb": 0.5}),
])
def test_certificates_outside_their_mode_are_na(tmp_path, capsys, mode, perturbation):
    code, rows, summary = _frame_sweep(tmp_path, capsys, mode=mode, trials=20,
                                       perturbation=perturbation)
    assert code == 0
    assert [r["guarantee"] for r in rows] == ["n/a"] * 20
    for r in rows:
        assert r["error_bound"] == r["bound_ok"] == r["filter_deviation_ok"] == "-"
    assert summary[-1]["guarantee_pass_count"] == "0"
    assert summary[-1]["red_alert"] == "0"


def test_noiseless_rates_given_pass_count_only_evaluated_flags(tmp_path, capsys):
    # noiseless mode has no error bound: passed trials leave the bound rate undefined
    code, rows, summary = _frame_sweep(tmp_path, capsys, mode="noiseless")
    assert code == 0
    assert [r["guarantee"] for r in rows] == ["pass"] * 5
    for s in summary:
        assert (s["guarantee_pass_count"], s["recovery_rate_given_pass"]) == ("5", "1.0")
        assert s["bound_rate"] == s["bound_rate_given_pass"] == "-"


def test_user_supplied_matrix_in_config(tmp_path, capsys):
    Phi, X, phi_path, _ = _write_instance(tmp_path, m=16, n=20)
    cfg_path = _config(
        tmp_path,
        instance={"m": 16, "n": 20, "L": 2, "k": 2,
                  "ensemble": "user-supplied", "matrix": str(phi_path)},
        trials=3, perturbation={"epsb": 1e-3})
    out = tmp_path / "rep.txt"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "ensemble=user-supplied" in text
    # one shared matrix: the isometry column is constant
    deltas = {line.split("\t")[9] for line in text.splitlines()
              if line and line[0].isdigit()}
    assert len(deltas) == 1


@pytest.mark.parametrize("overrides, where", [
    ({"checks": {"ric": "false"}}, "checks.ric"),
    ({"checks": {"guarantee": 0}}, "checks.guarantee"),
    ({"checks": {"filter_proximity": None}}, "checks.filter_proximity"),
    ({"trials": True}, "trials"),
    ({"master_seed": True}, "master_seed"),
    ({"subset_budget": True}, "subset_budget"),
    ({"trials": 2.0}, "trials"),
    ({"perturbation": {"eps0": "abc"}}, "eps0"),
    ({"perturbation": {"eps0": True}}, "eps0"),
    ({"perturbation": {"epsb": [1e-3, "2e-3"]}}, "epsb"),
    ({"perturbation": {"epsb": float("nan")}}, "epsb"),
    ({"perturbation": {"epsb": float("inf")}}, "epsb"),
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "embed_overlap": 0}},
     "instance.embed_overlap"),
    ({"instance": {"m": 8, "n": 10, "L": 2, "k": 9}}, "instance.k"),
    ({"instance": {"m": 16.5, "n": 24, "L": 2, "k": 2}}, "instance.m"),
    ({"instance": {"m": True, "n": 24, "L": 2, "k": 2}}, "instance.m"),
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 0}}, "instance.k"),
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "embed_overlap": "x"}},
     "instance.embed_overlap"),
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "signal_row_norm_min": None}},
     "instance.signal_row_norm_min"),
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "ensemble": "user-supplied",
                   "matrix": 0}}, "instance.matrix"),
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "ensemble": ["gaussian"]}},
     "instance.ensemble"),
    ({"checks": {"ric": False}}, "checks.guarantee"),
    ({"checks": {"ric": False, "guarantee": False, "filter_proximity": True}},
     "checks.filter_proximity"),
])
def test_experiment_rejects_mistyped_fields(tmp_path, capsys, overrides, where):
    cfg_path = _config(tmp_path, **overrides)
    assert main(["experiment", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


def test_experiment_reads_false_checks_as_false(tmp_path, capsys):
    cfg_path = _config(tmp_path, trials=1,
                       checks={"ric": False, "guarantee": False, "selected_scores": False})
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert "# checks: ric=0 guarantee=0 selected_scores=0" in capsys.readouterr().out


def _dotted_keys(table, prefix=""):
    for key, (kind, _) in table.items():
        if isinstance(kind, dict):
            yield from _dotted_keys(kind, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_config_table_lists_every_accepted_key():
    from somplab.cli import _CONFIG

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Experiment configs", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert documented == set(_dotted_keys(_CONFIG))


def test_main_answers_each_call_as_a_fresh_process_would(tmp_path, capsys):
    # the parser is built once per process and shared by later calls
    from somplab import cli

    _, _, phi_path, _ = _write_instance(tmp_path, m=10, n=12)
    cfg_path = _config(tmp_path, trials=2)
    calls = [["experiment", "--config", str(cfg_path)],
             ["ric", "--matrix", str(phi_path), "--order", "2"],
             ["ric", "--matrix", str(phi_path)],   # usage error: no --order
             ["experiment", "--config", str(cfg_path)]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert [code for code, _ in fresh] == [0, 0, 1, 0]
    for argv, want in zip(calls, fresh):
        assert (main(argv), capsys.readouterr()) == want
    assert cli._build_parser.cache_info().misses == 1


def _frame_files(tmp_path, rows=(3, 7)):
    """The checked-in 20 x 25 frame and measurements of a signal on ``rows``."""
    X = np.zeros((25, 2))
    X[list(rows)] = np.arange(1.0, 2 * len(rows) + 1).reshape(len(rows), 2)
    y_path = tmp_path / "y.txt"
    write_matrix(y_path, read_matrix(FRAME) @ X)
    return str(FRAME), str(y_path)


def _flag_argv(tmp_path, command, flag, value):
    phi, y = _frame_files(tmp_path)
    base = {"solve": ["solve", "--phi", phi, "--y", y, "--sparsity", "2"],
            "ric": ["ric", "--matrix", phi, "--order", "2"],
            "check": ["check", "--phi", phi, "--sparsity", "2", "--mode", "noiseless"],
            "perturb": ["perturb", "--phi", phi, "--y", y, "--eps0", "1e-2",
                        "--out-prefix", str(tmp_path / "noisy")]}[command]
    return [*base, flag, value]   # a repeated flag takes its last value


@pytest.mark.parametrize("command, flag, value, kind", [
    ("solve", "--sparsity", "0", "an integer >= 1"),
    ("solve", "--sparsity", "1.5", "an integer >= 1"),
    ("ric", "--order", "0", "an integer >= 1"),
    ("ric", "--budget", "-5", "an integer >= 1"),
    ("ric", "--budget", "0", "an integer >= 1"),
    ("check", "--sparsity", "0", "an integer >= 1"),
    ("check", "--sparsity", "-1", "an integer >= 1"),
    ("check", "--budget", "0", "an integer >= 1"),
    ("perturb", "--sparsity", "0", "an integer >= 1"),
    ("perturb", "--sparsity", "-2", "an integer >= 1"),
    ("perturb", "--budget", "0", "an integer >= 1"),
    ("perturb", "--seed", "-1", "an integer >= 0"),
    ("perturb", "--seed", "nan", "an integer >= 0"),
])
def test_numeric_flags_refuse_malformed_values(tmp_path, capsys, command, flag, value, kind):
    # refused as input: exit 1 naming the flag, before anything is printed or written
    code = main(_flag_argv(tmp_path, command, flag, value))
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith(f"error: '{flag}' must be {kind}, got ")
    assert not list(tmp_path.glob("noisy*"))


def test_numeric_flags_refuse_text_that_is_no_number(tmp_path, capsys):
    code = main(_flag_argv(tmp_path, "ric", "--order", "two"))
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "argument --order: invalid number value: 'two'" in out.err


@pytest.mark.parametrize("command, flag, value, why", [
    ("solve", "--sparsity", "21", "sparsity"),   # above min(m, n) = 20
    ("ric", "--order", "26", "order 26 outside 1..25"),
    ("ric", "--budget", "2299", "budget"),       # C(25, 2) = 300 fits, the order below does not
    ("check", "--budget", "2299", "budget"),     # C(25, 3) = 2300 subsets at order k + 1
    ("perturb", "--budget", "24", "budget"),     # C(25, 1) = 25 subsets at width 1
])
def test_numeric_flags_out_of_range_for_the_matrix_exit_two(tmp_path, capsys, command, flag,
                                                             value, why):
    argv = _flag_argv(tmp_path, command, flag, value)
    if command == "ric" and flag == "--budget":
        argv[argv.index("--order") + 1] = "3"
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert why in out.err
    assert not list(tmp_path.glob("noisy*"))


def test_check_refuses_a_sparsity_above_the_row_count(tmp_path, capsys):
    # the 20 x 25 frame: k = 20 is answered, above min(m, n) = 20 is out of
    # range before any subset is enumerated, as for solve
    phi, _ = _frame_files(tmp_path)
    for k in (21, 22):
        code = main(["check", "--phi", phi, "--sparsity", str(k), "--mode", "noiseless"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == f"error: sparsity {k} outside 1..min(20, 25)\n"
    code = main(["check", "--phi", phi, "--sparsity", "20", "--mode", "noiseless"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[1] == "order=21"
    assert lines[-1].startswith("condition fails (1 >= ")


def _check_refused(capsys, argv, message):
    code = main(["check", *argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""   # refused before the enumeration prints anything
    assert out.err == f"error: {message}\n"


def test_check_refuses_measurements_of_another_row_count(tmp_path, capsys):
    phi, _ = _frame_files(tmp_path)
    y = tmp_path / "y19.txt"
    write_matrix(y, np.ones((19, 2)))
    _check_refused(capsys, ["--phi", phi, "--sparsity", "2", "--mode", "general",
                            "--y", str(y), "--t0", "1"],
                   "measurements have 19 rows, sensing matrix 20")


def test_check_refuses_a_signal_that_is_not_n_by_l_or_too_dense(tmp_path, capsys):
    # X must be the 25 x L signal of the 20 x L measurements, with at most
    # k occupied rows; its weakest row is the floor t0
    phi, y = _frame_files(tmp_path)
    base = ["--phi", phi, "--sparsity", "2", "--mode", "general", "--y", y]
    x = tmp_path / "x.txt"
    for shape in ((7, 3), (25, 3), (24, 2)):
        X = np.zeros(shape)
        X[2] = 1.0
        write_matrix(x, X)
        _check_refused(capsys, [*base, "--x", str(x)],
                       f"signal has shape {shape}, expected (25, 2)")
    X = np.zeros((25, 2))
    X[[3, 7, 11]] = 1.0
    write_matrix(x, X)
    _check_refused(capsys, [*base, "--x", str(x)],
                   "signal has 3 occupied rows, more than the sparsity 2")
    X[11] = 0.0
    write_matrix(x, X)
    assert main(["check", *base, "--x", str(x)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("condition ")


@pytest.mark.parametrize("mode, levels", [("measurement", ["--epsb", "1e-2"]),
                                          ("sensing", ["--eps0", "1e-3"]),
                                          ("general", ["--eps0", "1e-3"])])
def test_check_refuses_zero_measurements_in_every_noisy_mode(tmp_path, capsys, mode, levels):
    phi, _ = _frame_files(tmp_path)
    y = tmp_path / "y0.txt"
    write_matrix(y, np.zeros((20, 2)))
    _check_refused(capsys, ["--phi", phi, "--sparsity", "2", "--mode", mode, "--y", str(y),
                            "--t0", "1", *levels],
                   "measurements have zero Frobenius norm")


def test_check_without_a_row_floor_exits_one(tmp_path, capsys):
    phi, y = _frame_files(tmp_path)
    code = main(["check", "--phi", phi, "--sparsity", "2", "--mode", "sensing", "--y", y])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "--x or --t0 is required for noisy modes" in out.err


@pytest.mark.parametrize("mode", ["sensing", "general"])
def test_check_outside_the_magnitude_domain_is_unsatisfiable(tmp_path, capsys, mode):
    # eps = 0.3 >= sqrt(1.5) - 1: the magnitude is undefined, and no constant certifies
    phi, y = _frame_files(tmp_path)
    code = main(["check", "--phi", phi, "--sparsity", "2", "--mode", mode, "--y", y,
                 "--t0", "1.0", "--eps0", "0.3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[6:9] == ["eps_h=inf", "q_threshold=-", "error_bound=inf"]
    assert lines[-1].startswith("condition unsatisfiable (condition unsatisfiable: eps = 0.3")


def test_solve_trace_records_a_zero_residual_stop(tmp_path, capsys):
    phi, y = _frame_files(tmp_path, rows=(5,))
    trace = tmp_path / "trace.txt"
    code = main(["solve", "--phi", phi, "--y", y, "--sparsity", "3", "--trace", str(trace)])
    assert code == 0
    assert capsys.readouterr().out == "5\n"
    lines = trace.read_text().splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["iter=0", "selected=5"]]
    assert lines[-1] == "stopped early: zero-residual"


def test_solve_that_cannot_write_its_out_file_prints_nothing(tmp_path, capsys):
    # the support goes to stdout only once every requested file is written
    phi, y = _frame_files(tmp_path, rows=(4, 7))
    out = tmp_path / "missing" / "xhat.txt"
    code = main(["solve", "--phi", phi, "--y", y, "--sparsity", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "xhat.txt" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"instance": {"m": 16, "n": 24, "L": 2, "k": 2, "matrix": "phi.txt"}},
     "'instance.matrix' requires ensemble 'user-supplied'"),
    ({"instance": 5}, "instance must be a JSON object"),
    ({"perturbation": {"eps0": []}}, "'perturbation.eps0' must be a number or a nonempty list"),
])
def test_experiment_refuses_misplaced_or_empty_values(tmp_path, capsys, overrides, message):
    write_matrix(tmp_path / "phi.txt", np.eye(16, 24))
    cfg_path = _config(tmp_path, **overrides)
    code = main(["experiment", "--config", str(cfg_path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert message in out.err


# One refusal table for the library types and `experiment --config`: each
# declared field, the library call that takes it, its config key (None
# where a config has no such key: seeds a sweep derives, measured levels),
# the values refused, and a numpy scalar accepted as the Python value.

def _instance(**kw):
    return InstanceConfig(**{"m": 16, "n": 24, "L": 2, "k": 2, **kw})


def _sweep(**kw):
    return run_experiment(**{"cfg": _instance(), "eps0_levels": 0.0, "epsb_levels": 1e-3,
                             "trials": 1, "master_seed": 0, **kw})


def _levels(**kw):
    return PerturbationLevels(**{"eps0": 0.0, "eps": 0.0, "epsb": 0.0, "order": 1, **kw})


def _frame(seed):
    return low_coherence_frame(6, 8, seed=seed, order=2)


_COUNTS = (True, "2", None, math.nan, 2.0, 0)
_SEEDS = (False, "2", None, math.inf, 2.0, -1)
_NUMBERS = (True, "1", None, math.nan, math.inf, -1.0)
_CHOICES = (True, "bogus", None)
_FLAGS = ("no", None, 1)

_FIELDS = [
    *[(_instance, size, f"instance.{size}", _COUNTS, np.int64(2)) for size in "mnLk"],
    (_instance, "signal_row_norm_min", "instance.signal_row_norm_min", _NUMBERS,
     np.float64(1.0)),
    (_instance, "embed_overlap", "instance.embed_overlap",
     (True, "0.5", None, math.nan, math.inf, 0.0), np.float64(0.5)),
    (_instance, "matrix_ensemble", "instance.ensemble", _CHOICES, None),
    (_instance, "seed", None, _SEEDS, np.int64(3)),
    (PerturbationSpec, "target_eps0", "perturbation.eps0", _NUMBERS, np.float64(1e-3)),
    (PerturbationSpec, "target_epsb", "perturbation.epsb", _NUMBERS, np.int64(0)),
    (PerturbationSpec, "b_mode", "perturbation.b_mode", _CHOICES, None),
    (PerturbationSpec, "seed", None, _SEEDS, np.int64(3)),
    *[(TrialChecks, f.name, f"checks.{f.name}", _FLAGS, np.bool_(f.default))
      for f in dataclasses.fields(TrialChecks)],
    *[(_levels, name, None, _NUMBERS, np.float64(1e-3)) for name in ("eps0", "eps", "epsb")],
    (_sweep, "eps0_levels", "perturbation.eps0", _NUMBERS + ([], [1e-3, "2e-3"]),
     np.float64(1e-4)),
    (_sweep, "epsb_levels", "perturbation.epsb", _NUMBERS + ([],), np.float64(1e-4)),
    (_sweep, "trials", "trials", _COUNTS, np.int64(2)),
    (_sweep, "master_seed", "master_seed", _SEEDS, np.int64(5)),
    (_sweep, "subset_budget", "subset_budget", _COUNTS, np.int64(10**6)),
    (_frame, "seed", None, _SEEDS, None),
]


def _config_at(key: str, value) -> dict:
    """Overrides of ``_config`` that put ``value`` at the dotted ``key``."""
    section, _, field = key.rpartition(".")
    if not section:
        return {key: value}
    base = {"m": 16, "n": 24, "L": 2, "k": 2} if section == "instance" else {}
    return {section: {**base, field: value}}


@pytest.mark.parametrize("build, name, key, value", [
    pytest.param(build, name, key, value, id=f"{build.__name__}.{name}={value!r}")
    for build, name, key, refused, _ in _FIELDS for value in refused])
def test_library_and_config_refuse_the_same_values(tmp_path, capsys, monkeypatch,
                                                   build, name, key, value):
    import somplab.harness as harness_mod

    def drawn(cfg):
        raise AssertionError("a trial started")

    monkeypatch.setattr(harness_mod, "gen_sensing_matrix", drawn)
    with pytest.raises(InvalidConfig, match=f"'{name}'"):
        build(**{name: value})
    if key is not None:
        code = main(["experiment", "--config", str(_config(tmp_path, **_config_at(key, value)))])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: '{key}' must be ")
        assert "Traceback" not in err


@pytest.mark.parametrize("build, name, value", [
    pytest.param(build, name, value, id=f"{build.__name__}.{name}")
    for build, name, _, _, value in _FIELDS if value is not None])
def test_library_types_take_numpy_scalars_as_python_values(build, name, value):
    built = build(**{name: value})
    assert built == build(**{name: value.item()})
    assert not isinstance(getattr(built, name, None), np.generic)   # stored as a Python value


@pytest.mark.parametrize("build, kw, section, config", [
    (InstanceConfig, {"m": 8, "n": 10, "L": 2, "k": 9}, "instance",
     {"m": 8, "n": 10, "L": 2, "k": 9}),
    (_instance, {"matrix": np.eye(16, 24)}, "instance",
     {"m": 16, "n": 24, "L": 2, "k": 2, "matrix": str(FRAME)}),
    (_instance, {"matrix_ensemble": "user-supplied"}, "instance",
     {"m": 16, "n": 24, "L": 2, "k": 2, "ensemble": "user-supplied"}),
    (TrialChecks, {"ric": False}, "checks", {"ric": False}),
    (TrialChecks, {"ric": False, "guarantee": False, "filter_proximity": True}, "checks",
     {"ric": False, "guarantee": False, "filter_proximity": True}),
], ids=["k-above-min", "matrix-without-user-supplied", "user-supplied-without-matrix",
        "guarantee-without-ric", "proximity-without-ric"])
def test_cross_field_rules_refuse_alike_from_both_entry_points(tmp_path, capsys, build, kw,
                                                               section, config):
    # one rule, so one message: the config's names the fields by dotted key
    with pytest.raises(InvalidConfig) as refused:
        build(**kw)
    code = main(["experiment", "--config", str(_config(tmp_path, **{section: config}))])
    assert code == 1
    assert capsys.readouterr().err == "error: " + re.sub(
        r"'(\w+)'", rf"'{section}.\1'", str(refused.value)) + "\n"
