"""The import surface: every exported name resolves, each exported once.

A name left in an ``__all__`` after its definition is gone breaks
``from recolor import *`` and misleads readers of the API.
"""

import importlib
import pkgutil

import pytest

import recolor

MODULES = ["recolor"] + [f"recolor.{m.name}"
                         for m in pkgutil.iter_modules(recolor.__path__)]
LIBRARY = [name for name in MODULES[1:]
           if name not in ("recolor.cli", "recolor.__main__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [n for n in exported if not hasattr(mod, n)] == []
    assert len(exported) == len(set(exported))


def test_package_exports_every_submodule_export():
    exported = set(recolor.__all__)
    for name in MODULES[1:]:
        mod = importlib.import_module(name)
        assert set(getattr(mod, "__all__", [])) <= exported, name


def test_package_exports_exactly_its_library_modules_exports():
    # Every library module declares its surface, and the package adds none.
    declared = [n for name in LIBRARY
                for n in importlib.import_module(name).__all__]
    assert sorted(recolor.__all__) == sorted(declared)
    namespace = {}
    exec("from recolor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(recolor.__all__)
