import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from somplab import (
    InstanceConfig,
    ParseError,
    gen_sensing_matrix,
    gen_sparse_signal,
    read_matrix,
    ric_exact,
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
