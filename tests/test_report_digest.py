"""The behaviour-lock digest in tools/report_digest.py is reproducible."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(root=ROOT):
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  root / "tools" / "report_digest.py")
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


def test_report_digest_does_not_depend_on_the_checkouts_path(tmp_path):
    # a copy of the tool and the golden frame in another tree hashes the
    # same frame case: no path of the checkout enters what is hashed
    moved = tmp_path / "elsewhere"
    (moved / "tools").mkdir(parents=True)
    (moved / "tests" / "golden").mkdir(parents=True)
    for part in (("tools", "report_digest.py"), ("tests", "golden", "frame_20x25.txt")):
        moved.joinpath(*part).write_bytes(ROOT.joinpath(*part).read_bytes())
    here, there = _tool(), _tool(moved)
    assert here.FRAME != there.FRAME
    assert there.digest("frame-901-sensing") == here.digest("frame-901-sensing")


def _against(src):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"),
                           "--against", str(src)], capture_output=True, text=True, timeout=300)


def test_report_digest_against_its_own_src_prints_nothing():
    # the gate a change cites: every case of both sides, each in a fresh process
    proc = _against(ROOT / "src")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_report_digest_against_a_changed_src_prints_the_case_that_differs(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "somplab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('print(f"order={est.order}")') == 1   # the ric command's first line
    cli.write_text(text.replace('print(f"order={est.order}")', 'print(f"order= {est.order}")'),
                   encoding="utf-8")
    proc = _against(other)
    assert (proc.returncode, proc.stderr) == (1, "")
    name, here, there = proc.stdout.split()   # one line: the case, then each side's sha256
    assert name == "ric-3" and here != there
