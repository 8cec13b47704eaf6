"""The import surface: every exported name resolves, each exported once,
and every exported function is used or has a stated role.

A name left in an ``__all__`` after its definition is gone breaks
``from recolor import *`` and misleads readers of the API.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


SOURCE = Path(recolor.__file__).parent

# Public functions that no other module of the package calls, each with the
# reason it stays public. Every other public function has a caller there.
ROLES = {
    "verify_path": "re-checks any path cold; the contract's path verifier",
    "verify_witness": "re-checks any witness cold; the contract's witness verifier",
    "path_core": "the paper's core lemma, as a builder of its own",
    "path_to_good_greedy": "the paper's first lemma builder",
    "path_between_good_greedy": "the paper's second lemma builder",
    "hypergraph_from_text": "reads the text format from a string",
    "coloring_from_text": "reads the text format from a string",
    "coloring_to_text": "writes the coloring text format",
    "blocked_colors": "the colors blocked at one vertex, for first-fit by hand",
    "build": "the validated constructor for an explicit edge list",
    "enumerate_proper": "the bench's census check lists every proper coloring",
    "hamming": "the bench's lower bound on a Gamma_q distance",
    "gamma_distance": "the bench's exact distance in Gamma_q",
}


def _references():
    """Per module of the package, the names it imports or reads as an
    attribute; a name used from another module is reached one of these ways."""
    refs = {}
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        refs[path.stem] = names
    return refs


def test_every_public_function_has_a_caller_or_a_role():
    refs = _references()
    idle = []
    for name in recolor.__all__:
        obj = getattr(recolor, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        if not any(name in names for mod, names in refs.items() if mod != home):
            idle.append(name)
    assert sorted(set(idle) - set(ROLES)) == []
    assert sorted(set(ROLES) - set(recolor.__all__)) == []


def test_every_import_in_the_package_is_used():
    unused = []
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    bound = (alias.asname or alias.name).partition(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []
