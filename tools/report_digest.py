#!/usr/bin/env python3
"""Digest of somplab's byte-stable outputs, to show that a change keeps
them byte-identical.

Runs a fixed, seeded list of commands in process through ``cli.main``,
each in its own temporary directory: experiment reports shaped like the
benchmark's sweeps (Gaussian draws and the golden 20x25 frame, every
mode), a grid with zero levels, an identity-embedded sweep, and
``check``, ``ric``, ``solve`` and ``perturb`` on the golden frame.  Each
case's digest covers its exit code, its stdout and stderr, and every
file it leaves in its directory.  It prints one ``name sha256`` line per
case, then ``total sha256`` over those lines.  Compare two checkouts
with one copy of it:

    python tools/report_digest.py --against OTHER/src

runs every case on this checkout's src and on OTHER/src, each side in a
fresh process, prints ``name sha256-here sha256-there`` for each case
whose lines differ, and exits 1 on any difference, else 0 (2 when a
side fails to run).  The lines of one side alone:

    python tools/report_digest.py                      # this checkout's src
    python tools/report_digest.py --src OTHER/src      # another checkout's

The inputs (the golden frame) always come from this checkout, and no
path of it enters what is hashed, so the lines do not depend on where
the checkout lies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FRAME = ROOT / "tests" / "golden" / "frame_20x25.txt"
MODES = ("general", "sensing", "measurement", "noiseless")
SEEDS = (1, 2, 3, 77, 901)


def _experiment(instance: dict, eps0, epsb, master_seed: int, trials: int, mode="general",
                b_mode="gaussian", checks: dict | None = None):
    """An experiment on ``instance``.  A user-supplied instance names
    ``frame.txt``: a copy of the golden frame that the case's directory
    holds, so no path of the checkout enters what is hashed."""
    config = {"instance": instance, "perturbation": {"eps0": eps0, "epsb": epsb, "b_mode": b_mode},
              "trials": trials, "master_seed": master_seed, "mode": mode,
              "checks": checks or {}}

    def argv(workdir: Path) -> list[str]:
        if "matrix" in instance:
            shutil.copyfile(FRAME, workdir / instance["matrix"])
        path = workdir / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["experiment", "--config", str(path)]
    return argv


def _on_frame(*args: str):
    """A command on the golden frame, with y.txt and x.txt written next
    to it: the measurements of rows 4 and 7 of a two-column signal."""
    def argv(workdir: Path) -> list[str]:
        from somplab import read_matrix, write_matrix   # from --src, so not at import

        X = np.zeros((25, 2))
        X[[4, 7]] = [[1.0, 2.0], [-1.0, 0.5]]
        write_matrix(workdir / "x.txt", X)
        write_matrix(workdir / "y.txt", read_matrix(FRAME) @ X)
        return [a.format(phi=FRAME, dir=workdir) for a in args]
    return argv


def _cases() -> dict:
    cases = {}
    for i, seed in enumerate(SEEDS):
        for mode in MODES:
            b_mode = ("gaussian", "column-skewed")[i % 2]
            cases[f"gaussian-{seed}-{mode}"] = _experiment(
                {"m": 32, "n": 40, "L": 4, "k": 3, "signal_row_norm_min": 1.0},
                [0.0, 1e-4], [0.0, 1e-4, 1e-3], seed, 10, mode, b_mode,
                {"filter_proximity": True, "filter_deviation": True} if seed == 77 else None)
            cases[f"frame-{seed}-{mode}"] = _experiment(
                {"m": 20, "n": 25, "L": 3, "k": 2, "ensemble": "user-supplied",
                 "matrix": "frame.txt", "signal_row_norm_min": 1.0},
                [1e-4], [5e-4, 1e-2, 2e-2], seed, 10, mode, b_mode,
                {"filter_proximity": True, "filter_deviation": True})
    for b_mode in ("gaussian", "column-skewed"):
        cases[f"grid-{b_mode}"] = _experiment(
            {"m": 16, "n": 24, "L": 2, "k": 2}, [0.0, 1e-3, 1e-2], [0.0, 1e-3, 1e-2],
            5, 3, b_mode=b_mode)
    cases["identity-embedded"] = _experiment(
        {"m": 16, "n": 24, "L": 2, "k": 2, "ensemble": "identity-embedded"},
        [0.0, 1e-3], [1e-3], 7, 3)
    signal = ["--y", "{dir}/y.txt", "--x", "{dir}/x.txt"]
    levels = {"general": ["--eps0", "1e-4", "--epsb", "1e-3"], "sensing": ["--eps0", "1e-3"],
              "measurement": ["--epsb", "1e-3"], "noiseless": []}
    for mode in MODES:
        cases[f"check-{mode}"] = _on_frame(
            "check", "--phi", "{phi}", "--sparsity", "2", "--mode", mode,
            *([] if mode == "noiseless" else signal), *levels[mode])
    cases["ric-3"] = _on_frame("ric", "--matrix", "{phi}", "--order", "3")
    cases["solve"] = _on_frame("solve", "--phi", "{phi}", "--y", "{dir}/y.txt", "--sparsity", "2",
                               "--out", "{dir}/z.txt", "--trace", "{dir}/trace.txt")
    for b_mode in ("gaussian", "column-skewed"):
        cases[f"perturb-{b_mode}"] = _on_frame(
            "perturb", "--phi", "{phi}", "--y", "{dir}/y.txt", "--eps0", "1e-3", "--epsb", "1e-3",
            "--b-mode", b_mode, "--sparsity", "2", "--seed", "5", "--out-prefix", "{dir}/out")
    return cases


CASES = _cases()


def digest(name: str) -> str:
    """sha256 of case ``name``'s exit code, output and files."""
    from somplab import cli

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argv = CASES[name](workdir)
        out, err = io.StringIO(), io.StringIO()
        # relative paths, as a config's matrix, resolve in the case's
        # directory (os.chdir, since contextlib.chdir needs Python 3.11)
        home = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")   # the same stderr however often a case runs
                code = cli.main(argv)
        finally:
            os.chdir(home)
        h = hashlib.sha256(f"exit {code}\n".encode())
        for text in (out.getvalue(), err.getvalue()):
            h.update(text.replace(tmp, "<dir>").encode() + b"\0")
        for path in sorted(workdir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _lines(procs) -> list[dict]:
    """The case lines (name -> sha256) of this tool's runs ``procs``, each
    started with ``--src`` in a fresh process; exit 2 if one fails."""
    lines = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode:
            print(f"error: the digest of {proc.args[-1]} failed", file=sys.stderr)
            raise SystemExit(2)
        lines.append(dict(line.split() for line in out.splitlines()))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the somplab package (default: this checkout's)")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare with OTHER_SRC's lines; print only the cases that differ")
    args = parser.parse_args(argv)
    if args.against:
        here, there = _lines([subprocess.Popen([sys.executable, __file__, "--src", src],
                                               stdout=subprocess.PIPE, text=True)
                              for src in (args.src, args.against)])
        differ = [name for name in CASES if here[name] != there[name]]
        for name in differ:
            print(name, here[name], there[name])
        return 1 if differ else 0
    sys.path.insert(0, str(Path(args.src).resolve()))
    lines = []
    for name in CASES:
        lines.append(f"{name} {digest(name)}")
        print(lines[-1], flush=True)
    print("total", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
