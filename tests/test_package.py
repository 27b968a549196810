"""The package's public surface: ``somplab.__all__`` lists what the
package imports, each name once, and every entry resolves."""

import inspect

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
