"""Span tracer for the traced benchmark run.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces
somplab's public functions, at every module name their callers bind, by
wrappers that record one span per call (name, parent, start, end) plus
a few facts read from arguments and return values.  ``numpy.linalg.
eigvalsh`` is wrapped too, so eigen-kernel batches are attributed to the
innermost somplab span that issued them.  Spans stay in memory until
``write`` is called at the end of the run; ``uninstall`` restores the
original functions.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _digest(a) -> str:
    arr = np.ascontiguousarray(a, dtype=float)
    return f"{arr.shape}:{hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()}"


def level_subsets(n: int, order: int) -> int:
    """Column subsets one ``measure_perturbation_levels`` call enumerates:
    every width 1..order, once for the perturbation and once for the
    clean matrix."""
    return 2 * sum(math.comb(n, w) for w in range(1, order + 1))


def trace_bytes(trace) -> int:
    return (sum(a.nbytes for a in trace.score_tables)
            + sum(a.nbytes for a in trace.filter_matrices))


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _ric_probe(fn):
    bind = _bound(fn)

    def probe(args, kwargs, est):
        return (_digest(bind(args, kwargs)["A"]), est.order, est.subsets_examined)
    return probe


def _levels_probe(fn):
    bind = _bound(fn)

    def probe(args, kwargs, _levels):
        a = bind(args, kwargs)
        return level_subsets(np.shape(a["Phi"])[1], a["order"])
    return probe


def _solve_probe(_fn):
    return lambda args, kwargs, res: (len(res.trace.selected), trace_bytes(res.trace))


def _eig_probe(_fn):
    return lambda args, kwargs, _w: int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))


# (module, attribute, span name, probe factory).  Every module of the
# somplab package that binds the same function object gets the wrapper,
# so calls through ``from .rip import ric_exact`` are traced too.
TARGETS = (
    ("somplab.cli", "main", "cli.main", None),
    ("somplab.matrixio", "read_matrix", "matrixio.read", None),
    ("somplab.matrixio", "write_matrix", "matrixio.write", None),
    ("somplab.harness", "run_experiment", "harness.run_experiment", None),
    ("somplab.harness", "run_trial", "harness.run_trial", None),
    ("somplab.harness", "render_report", "harness.render", None),
    ("somplab.harness", "selected_scores_vanish", "harness.diagnostics", None),
    ("somplab.harness", "matched_filter_oracle", "harness.diagnostics", None),
    ("somplab.harness", "filter_deviation_diagnostic", "harness.diagnostics", None),
    ("somplab.perturb", "gen_sensing_matrix", "perturb.generate", None),
    ("somplab.perturb", "gen_sparse_signal", "perturb.generate", None),
    ("somplab.perturb", "calibrate_perturbation", "perturb.calibrate", None),
    ("somplab.perturb", "apply_perturbation", "perturb.apply", None),
    ("somplab.perturb", "low_coherence_frame", "perturb.frame", None),
    ("somplab.rip", "ric_exact", "rip.ric", _ric_probe),
    ("somplab.rip", "measure_perturbation_levels", "rip.levels", _levels_probe),
    ("somplab.guarantees", "check_guarantee", "guarantees.check", None),
    ("somplab.solver", "somp_solve", "solver.solve", _solve_probe),
    ("somplab.solver", "solve_perturbed", "solver.solve", _solve_probe),
    ("somplab.solver", "least_squares_on_support", "solver.lstsq", None),
    ("somplab.model", "as_matrix", "model.as_matrix", None),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", _eig_probe),
)

# (metric, unit) in the order they are printed; see perfbench/README.md.
PER_LAYER = (
    ("rip.ric_s", "s"),
    ("rip.ric_calls", "count"),
    ("rip.subsets_examined", "count"),
    ("rip.subsets_per_s", "1/s"),
    ("rip.ric_repeat_share", "ratio"),
    ("rip.eig_matrices", "count"),
    ("rip.levels_s", "s"),
    ("rip.level_subsets", "count"),
    ("perturb.calibrate_self_s", "s"),
    ("perturb.generate_s", "s"),
    ("perturb.frame_s", "s"),
    ("perturb.frame_eig_batches", "count"),
    ("perturb.frame_eig_matrices", "count"),
    ("solver.solve_s", "s"),
    ("solver.solves", "count"),
    ("solver.iterations", "count"),
    ("solver.lstsq_s", "s"),
    ("solver.lstsq_calls", "count"),
    ("solver.trace_bytes_per_solve", "B"),
    ("model.as_matrix_calls_per_solve", "count"),
    ("model.as_matrix_s", "s"),
    ("harness.run_trial_self_s", "s"),
    ("harness.diagnostics_s", "s"),
    ("harness.render_s", "s"),
    ("guarantees.check_s", "s"),
    ("cli.self_s", "s"),
    ("matrixio.read_s", "s"),
    ("matrixio.write_s", "s"),
    ("trace.timed_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
)


class Tracer:
    """In-memory span recorder; inactive until ``install`` is called."""

    def __init__(self):
        self.spans: list[list] = []    # [name, parent index or -1, start, end, info]
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own call into somplab."""
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run the benchmark's correctness checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, name, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                self.spans[idx][4] = probe(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "somplab" or key.startswith("somplab.")]
        for modname, attr, name, make_probe in TARGETS:
            home = sys.modules[modname]
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, make_probe and make_probe(original))
            for mod in {id(m): m for m in package + [home]}.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write spans as JSON lines: name, parent, start, end (seconds
        from the first span), info."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, info in self.spans:
                fh.write(json.dumps([name, parent, start - t0, end - t0, info]) + "\n")

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus the child spans."""
        return _aggregate(self.spans)[1]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded (see PER_LAYER)."""
        spans = self.spans
        incl, selft, calls = _aggregate(spans)
        eig_calls: Counter = Counter()
        eig_mats: Counter = Counter()
        in_solve = [False] * len(spans)
        seen = set()
        repeats = subsets = level_count = iterations = tbytes = 0
        solve_as_matrix = 0
        for i, (name, parent, _s, _e, info) in enumerate(spans):
            in_solve[i] = name == "solver.solve" or (parent >= 0 and in_solve[parent])
            if name == "numpy.eigvalsh":
                owner = spans[parent][0] if parent >= 0 else "-"
                eig_calls[owner] += 1
                eig_mats[owner] += info
            elif name == "rip.ric":
                key = info[:2]
                repeats += key in seen
                seen.add(key)
                subsets += info[2]
            elif name == "rip.levels":
                level_count += info
            elif name == "solver.solve":
                iterations += info[0]
                tbytes += info[1]
            elif name == "model.as_matrix" and in_solve[i]:
                solve_as_matrix += 1
        solves = calls["solver.solve"]
        ric_s = incl["rip.ric"]
        roots = [s for s in spans if s[1] < 0 and s[0].startswith("bench.")]
        return {
            "rip.ric_s": ric_s,
            "rip.ric_calls": calls["rip.ric"],
            "rip.subsets_examined": subsets,
            "rip.subsets_per_s": subsets / ric_s if ric_s else 0.0,
            "rip.ric_repeat_share": repeats / calls["rip.ric"] if calls["rip.ric"] else 0.0,
            "rip.eig_matrices": eig_mats["rip.ric"],
            "rip.levels_s": incl["rip.levels"],
            "rip.level_subsets": level_count,
            "perturb.calibrate_self_s": selft["perturb.calibrate"],
            "perturb.generate_s": incl["perturb.generate"],
            "perturb.frame_s": incl["perturb.frame"],
            "perturb.frame_eig_batches": eig_calls["perturb.frame"],
            "perturb.frame_eig_matrices": eig_mats["perturb.frame"],
            "solver.solve_s": incl["solver.solve"],
            "solver.solves": solves,
            "solver.iterations": iterations,
            "solver.lstsq_s": incl["solver.lstsq"],
            "solver.lstsq_calls": calls["solver.lstsq"],
            "solver.trace_bytes_per_solve": tbytes / solves if solves else 0.0,
            "model.as_matrix_calls_per_solve": solve_as_matrix / solves if solves else 0.0,
            "model.as_matrix_s": incl["model.as_matrix"],
            "harness.run_trial_self_s": selft["harness.run_trial"],
            "harness.diagnostics_s": incl["harness.diagnostics"],
            "harness.render_s": incl["harness.render"],
            "guarantees.check_s": incl["guarantees.check"],
            "cli.self_s": selft["cli.main"],
            "matrixio.read_s": incl["matrixio.read"],
            "matrixio.write_s": incl["matrixio.write"],
            "trace.timed_s": sum(s[3] - s[2] for s in roots),
            "trace.spans": len(spans),
        }


def _aggregate(spans):
    """Inclusive seconds, self seconds and call counts per span name."""
    covered = [0.0] * len(spans)
    for _name, parent, start, end, _info in spans:
        if parent >= 0:
            covered[parent] += end - start
    incl: defaultdict = defaultdict(float)
    selft: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, _parent, start, end, _info) in enumerate(spans):
        incl[name] += end - start
        selft[name] += end - start - covered[i]
        calls[name] += 1
    return incl, selft, calls
