"""The benchmark's span tracer still fits somplab's functions.

``perfbench/tracing.py`` wraps functions by (module, attribute) name and
its probes bind call arguments by parameter name, so a renamed function
or parameter would break ``perfbench/run.py --trace 1`` while every other
test passes.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import somplab.cli  # noqa: F401  (the tracer patches every loaded somplab module)
from somplab import rip

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for modname, attr, _span, _probe in _tracing().TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_probes_bind_the_parameters_they_read():
    assert "A" in inspect.signature(rip.ric_exact).parameters
    assert {"Phi", "order"} <= set(inspect.signature(rip.measure_perturbation_levels).parameters)

    tracing = _tracing()
    rng = np.random.default_rng(0)
    Phi, Y = rng.standard_normal((6, 8)), rng.standard_normal((6, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        est = rip.ric_exact(Phi, 2)
        rip.measure_perturbation_levels(Phi, 1e-3 * Phi, Y, 1e-3 * Y, order=2)
    finally:
        tracer.uninstall()
    info = {span[0]: span[4] for span in tracer.spans}
    assert info["rip.ric"] == (tracing._digest(Phi), 2, est.subsets_examined)
    assert info["rip.levels"] == tracing.level_subsets(8, 2)
    assert not hasattr(rip.ric_exact, "__wrapped__")   # uninstall restored the original
