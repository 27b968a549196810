"""Behaviour lock: sweeps compared against reports checked in under golden/.

The files in ``tests/golden/`` were rendered by the code before the
pruned isometry kernel and the per-sweep enumeration memo landed, with
``python tests/test_golden.py`` (which rewrites them from the
checkout's ``src/somplab``; ``python tests/test_golden.py NAME...``
rewrites only the named cases and leaves the frame file alone).  One case is a
Gaussian sweep with default checks; another sweeps a user-supplied
low-coherence frame with both filter diagnostics on, so guarantees pass
there.  The grid case, rendered by the code before sweeps ran trial by
trial, varies both levels at once (zero levels included) in measurement
mode with column-skewed observation noise and both filter diagnostics
on, so reordering the work of a sweep cannot reorder or change its rows.
The desk case, rendered by the code before the kernel bounded subsets in
one stage, has the shape of the default certificate sweep (32 x 40,
k = 3): the only case whose largest width-k norms have enough subsets
for the kernel to list them instead of bounding its whole table, and
the only one that lists the constant's subsets at that shape.

The perturb case, rendered by the code before calibration returned E, B
and the levels instead of a spec carrying them, runs ``somplab perturb``
on the golden frame with a fixed Y, both levels nonzero, column-skewed
observation noise and a fixed seed; its stdout and its four files
must match byte for byte (``python tests/test_golden.py perturb``
rewrites them).

Discrete report fields (verdicts, flags, seeds, stop reasons, the red
alert) and the exact-isometry witness subsets must match exactly.
Floats are compared at a relative tolerance of 1e-9, so a different
BLAS rounding order does not fail the lock while a changed computation
does.
"""

import contextlib
import io
import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
FRAME_FILE = "frame_20x25.txt"

CASES = {
    "gaussian_sweep": {
        "instance": {"m": 16, "n": 24, "L": 3, "k": 2, "signal_row_norm_min": 1.0},
        "perturbation": {"eps0": [1e-4, 1e-3], "epsb": [1e-3]},
        "trials": 4,
        "master_seed": 5,
    },
    "frame_sweep": {
        "instance": {"m": 20, "n": 25, "L": 3, "k": 2, "signal_row_norm_min": 1.0,
                     "ensemble": "user-supplied", "matrix": FRAME_FILE},
        "perturbation": {"eps0": [1e-4], "epsb": [5e-4, 2e-2]},
        "checks": {"filter_proximity": True, "filter_deviation": True},
        "trials": 4,
        "master_seed": 23,
    },
    "desk_sweep": {
        "instance": {"m": 32, "n": 40, "L": 4, "k": 3, "signal_row_norm_min": 1.0},
        "perturbation": {"eps0": [1e-4], "epsb": [1e-4, 1e-3]},
        "trials": 3,
        "master_seed": 7,
    },
    "grid_sweep": {
        "instance": {"m": 16, "n": 24, "L": 3, "k": 3, "signal_row_norm_min": 1.0},
        "perturbation": {"eps0": [0.0, 1e-3], "epsb": [0.0, 1e-2],
                         "b_mode": "column-skewed"},
        "checks": {"filter_proximity": True, "filter_deviation": True},
        "mode": "measurement",
        "trials": 4,
        "master_seed": 31,
    },
}

PERTURB = "perturb"
PERTURB_FLAGS = ["--eps0", "1e-3", "--epsb", "1e-2", "--b-mode", "column-skewed",
                 "--sparsity", "2", "--seed", "7"]
PERTURB_OUTPUTS = ("stdout", "phi", "y", "e", "b")

_FLOAT = re.compile(r"^-?(\d+\.\d*|\d*\.\d+|\d+)(e[-+]?\d+)?$|^-?\d+e[-+]?\d+$")


def _write_config(case: str, directory: Path) -> Path:
    raw = json.loads(json.dumps(CASES[case]))
    inst = raw["instance"]
    if "matrix" in inst:
        inst["matrix"] = str(GOLDEN / inst["matrix"])
    path = directory / f"{case}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def _witness_lines(case: str) -> list[str]:
    """Exact constant and witness of every distinct clean sensing matrix."""
    from somplab import InstanceConfig, gen_sensing_matrix, read_matrix, ric_exact, trial_seeds

    raw = CASES[case]
    inst = raw["instance"]
    order = inst["k"] + 1
    if inst.get("ensemble") == "user-supplied":
        mats = [read_matrix(GOLDEN / inst["matrix"])]
    else:
        cfg = InstanceConfig(m=inst["m"], n=inst["n"], L=inst["L"], k=inst["k"])
        mats = [gen_sensing_matrix(replace(cfg, seed=trial_seeds(raw["master_seed"], t)[0]))
                for t in range(raw["trials"])]
    lines = []
    for i, A in enumerate(mats):
        est = ric_exact(A, order)
        lines.append(f"{i}\t{est.delta!r}\t{','.join(map(str, est.witness_subset))}")
    return lines


def _render(case: str, directory: Path) -> str:
    from somplab.cli import main

    out = directory / f"{case}.report.txt"
    code = main(["experiment", "--config", str(_write_config(case, directory)),
                 "--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def _render_perturb(directory: Path) -> dict[str, bytes]:
    """``somplab perturb`` on the golden frame and a fixed 20 x 3 Y of
    exact quarter values, whose columns differ in norm: its stdout and
    the four files it writes, by output name."""
    from somplab import write_matrix
    from somplab.cli import main

    i, j = np.indices((20, 3))
    y_path = directory / "perturb_input.y.txt"
    write_matrix(y_path, ((7 * i + 3 * j) % 11 - 5) * (j + 1) / 4.0)
    prefix = directory / PERTURB
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["perturb", "--phi", str(GOLDEN / FRAME_FILE), "--y", str(y_path),
                     *PERTURB_FLAGS, "--out-prefix", str(prefix)])
    assert code == 0
    outputs = {"stdout": stdout.getvalue().encode("utf-8")}
    for name in PERTURB_OUTPUTS[1:]:
        outputs[name] = Path(f"{prefix}.{name}.txt").read_bytes()
    return outputs


def _tokens(line: str) -> list[str]:
    return [t for t in re.split(r"[\t =]", line) if t]


def _same_token(got: str, want: str) -> bool:
    if got == want:
        return True
    if not (_FLOAT.match(got) and _FLOAT.match(want)) or "." not in got + want:
        return False  # integers, flags and words compare exactly
    return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=0.0)


def _assert_matches(got_text: str, want_text: str) -> None:
    got, want = got_text.splitlines(), want_text.splitlines()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        gt, wt = _tokens(g), _tokens(w)
        assert len(gt) == len(wt), (g, w)
        bad = [(a, b) for a, b in zip(gt, wt) if not _same_token(a, b)]
        assert not bad, (bad, w)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path, capsys):
    got = _render(case, tmp_path)
    capsys.readouterr()
    _assert_matches(got, (GOLDEN / f"{case}.report.txt").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_witnesses_match_golden(case):
    want = (GOLDEN / f"{case}.witness.txt").read_text(encoding="utf-8").splitlines()
    got = _witness_lines(case)
    assert [line.rsplit("\t", 1)[1] for line in got] == [line.rsplit("\t", 1)[1] for line in want]
    _assert_matches("\n".join(got), "\n".join(want))


def test_perturb_matches_golden(tmp_path):
    got = _render_perturb(tmp_path)
    for name in PERTURB_OUTPUTS:
        assert got[name] == (GOLDEN / f"{PERTURB}.{name}.txt").read_bytes(), name


def test_comparison_is_strict_on_discrete_fields():
    row = "0\t1\t42\t7\t0.0001\t0.001\t0.5\tfail\t1\t-"
    _assert_matches(row.replace("0.5", "0.5000000000001"), row)
    for changed in (row.replace("fail", "pass"), row.replace("\t42\t", "\t43\t"),
                    row.replace("0.5", "0.50001"), row.replace("\t-", "\tzero-residual")):
        with pytest.raises(AssertionError):
            _assert_matches(changed, row)


def regenerate(names: list[str]) -> None:
    """Rewrite the golden files of the named cases (the sweeps and the
    perturb case) from the importable somplab; with no name, rewrite
    every case and the frame they use."""
    import tempfile

    from somplab import low_coherence_frame, write_matrix

    known = [*CASES, PERTURB]
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"unknown golden case {', '.join(unknown)}; known: {', '.join(known)}")
    GOLDEN.mkdir(exist_ok=True)
    if not names:
        write_matrix(GOLDEN / FRAME_FILE, low_coherence_frame(20, 25, seed=0))
    with tempfile.TemporaryDirectory() as tmp:
        for case in names or known:
            if case == PERTURB:
                for name, data in _render_perturb(Path(tmp)).items():
                    (GOLDEN / f"{PERTURB}.{name}.txt").write_bytes(data)
                continue
            (GOLDEN / f"{case}.report.txt").write_text(_render(case, Path(tmp)),
                                                       encoding="utf-8")
            (GOLDEN / f"{case}.witness.txt").write_text(
                "".join(line + "\n" for line in _witness_lines(case)), encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))   # the checkout's own somplab
    sys.exit(regenerate(sys.argv[1:]))
