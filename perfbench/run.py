"""somplab benchmark: one workload per process, one closed-loop caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify_gaussian --seed 1 --seconds 40 --trace 0

Workloads: certify_gaussian, certify_frames, solve_large (see
perfbench/README.md for what each measures and why).  ``--trace 0``
measures the end-to-end metrics for ``--seconds`` seconds.  ``--trace 1``
runs a fixed amount of work twice on identical inputs, first untraced
and then traced, and prints the per-layer metrics plus the tracing
overhead.  Every run checks the program's outputs.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it holds the full result with host facts.

somplab is imported from ``src/`` of the checkout this file sits in; the
BLAS thread count is pinned to 1 before numpy loads.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify_gaussian", "certify_frames", "solve_large")
SETUP_PROBES = 3    # fresh set-up processes before the timed loop, and again after it

END_TO_END = (("setup_s", "s"), ("trials_per_s", "1/s"), ("peak_rss_mb", "MB"))


def _parse_args(argv):
    p = argparse.ArgumentParser(description="somplab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (used for set-up samples)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def _import_somplab():
    if not (SRC / "somplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no somplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import somplab
    if Path(somplab.__file__).resolve().parent != SRC / "somplab":
        raise SystemExit(f"error: imported somplab from {somplab.__file__}, not {SRC}")


def _blas_threads_in_use():
    """Thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _host_facts():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:  # the ceiling keeps git from finding a repository above the checkout
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "somplab").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def _setup_samples(args) -> list[float]:
    """Set-up seconds of fresh processes that do this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return [float(subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True,
                                 cwd=ROOT, env=os.environ.copy()).stdout.split()[-1])
            for _ in range(SETUP_PROBES)]


def _loop(wl, ops=None, seconds=None):
    """Run operations in order: a fixed count, or until ``seconds`` pass
    (and at least ``wl.min_ops``)."""
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (i < ops) if ops is not None else (i < wl.min_ops or time.perf_counter() < deadline):
        wl.run_op(i)
        i += 1


def _workdir(args) -> Path:
    d = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_somplab()
    from tracing import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workdir = _workdir(args)
    tracer = Tracer()
    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, workdir, tracer)
    wl.prepare()
    setup_first = time.perf_counter() - _STARTED
    if args.setup_only:
        print(repr(setup_first))
        return 0

    host = _host_facts()
    started = time.perf_counter()
    if args.trace:
        _loop(wl, ops=wl.trace_ops)
        traced = cls(args.seed, workdir, tracer)
        tracer.install()
        try:
            _loop(traced, ops=traced.trace_ops)
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        layers["trace.overhead_share"] = traced.timed_s / wl.timed_s - 1.0 if wl.timed_s else 0.0
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
        attempted = wl.attempted + traced.attempted
        failed = wl.failed + traced.failed
        spans_path = workdir / "spans.jsonl"
        tracer.write(spans_path)
        figures = {"untraced_timed_s": (wl.timed_s, "s")}
        extra = {"spans_file": str(spans_path.relative_to(ROOT)),
                 "self_s_by_span": dict(sorted(tracer.self_times().items(),
                                               key=lambda kv: -kv[1]))}
    else:
        # probes before and after the loop, so set-up samples span the run
        setup = [setup_first, *_setup_samples(args)]
        _loop(wl, seconds=args.seconds)
        setup += _setup_samples(args)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = {"setup_s": statistics.median(setup), "trials_per_s": wl.trials_per_s(),
               "peak_rss_mb": rss_mb}
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
        attempted, failed = wl.attempted, wl.failed
        figures = wl.report()
        extra = {"setup_samples_s": setup}
    elapsed = time.perf_counter() - started

    figures = {**metrics, "failure_share": (failed / attempted if attempted else 1.0, "ratio"),
               "attempted": (attempted, "count"), **figures}
    print(f"somplab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={wl.ops} wall={elapsed:.1f}s")
    for name, (value, unit) in figures.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "ops": wl.ops, "wall_s": elapsed, "host": host,
                      "figures": {k: v for k, (v, _u) in figures.items()}, **extra}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
