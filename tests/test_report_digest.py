"""The behaviour-lock digest in tools/report_digest.py is reproducible."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_is_the_same_twice_in_one_process():
    tool = _tool()
    names = ["gaussian-77-general", "frame-901-sensing", "grid-column-skewed", "check-general",
             "solve", "perturb-column-skewed"]
    first = [f"{name} {tool.digest(name)}" for name in names]
    assert [f"{name} {tool.digest(name)}" for name in names] == first
    assert len({line.split()[1] for line in first}) == len(names)
