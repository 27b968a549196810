"""The package's public surface: ``somplab.__all__`` lists what the
package imports, each name once, and every entry resolves.  And its
module boundaries: the pieces of the perturbation schedule stay private
to ``perturb``.  And the Python it needs: every file of the project
parses as the oldest version pyproject declares."""

import ast
import inspect
from pathlib import Path

import pytest

import somplab


def test_public_names_resolve_once():
    names = somplab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(somplab, name), name
    namespace = {}
    exec("from somplab import *", namespace)
    assert set(names) <= set(namespace)
    # nothing imported into the package is left out of __all__
    imported = {name for name, value in vars(somplab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert imported == set(names)


def _relative_imports(module: Path) -> set[str]:
    """The names a module imports from the package's other modules."""
    return {alias.name for node in ast.walk(ast.parse(module.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def test_only_perturb_draws_scales_and_measures_perturbations():
    # E, B and their levels come from one schedule, perturb._perturbations:
    # no other module forms them from its pieces
    package = Path(somplab.__file__).parent
    for module in package.glob("*.py"):
        imported = _relative_imports(module)
        if module.stem != "perturb":
            assert not imported & {"_scaled", "_sensing_noise", "_measurement_noise"}, module.name
        if module.stem == "harness":
            assert not imported & {"_sensing_levels", "_measurement_level"}


def test_every_python_file_parses_as_python_3_10():
    # pyproject declares requires-python >= 3.10, so no file may use syntax
    # that only a later Python reads (such as ``except*``, new in 3.11).
    # A parse sees syntax alone: a library API added after 3.10, such as
    # ``contextlib.chdir``, still parses and is not caught here
    root = Path(__file__).resolve().parent.parent
    files = [path for top in ("src", "tools", "tests", "demos", "perfbench")
             for path in sorted((root / top).rglob("*.py"))]
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
