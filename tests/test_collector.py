"""Where the cyclic collector pauses.

The CLI pauses it once per subcommand, around the whole call, and leaves it
as it found it whatever the exit. The library pauses it only while
``Hypergraph._index`` builds an instance's incidence lists.
"""

import ast
import gc
from pathlib import Path

import pytest

import recolor
from recolor import (
    Coloring,
    build,
    cli,
    generate_hnm,
    hypergraph,
    hypergraph_from_text,
    hypergraph_to_text,
    reconfig,
)
from recolor.cli import main
from helpers import write_coloring

TRIANGLE = build(3, 2, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on; it ends as it was before."""
    collecting = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if collecting else gc.disable)()


@pytest.fixture
def triangle_file(tmp_path):
    f = tmp_path / "triangle.txt"
    f.write_text(hypergraph_to_text(TRIANGLE))
    return str(f)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("flags, code", [
    (["greedy", "--levels", "2"], 0),
    (["certify", "--alpha", "1", "--beta", "1"], 1),
    (["core", "--beta", "0"], 2),
    (["greedy", "--levels", str(10 ** 20)], 3),
])
def test_main_leaves_the_collector_as_it_found_it(triangle_file, flags, code,
                                                  collecting, capsys):
    (gc.enable if collecting else gc.disable)()
    assert main([flags[0], triangle_file, *flags[1:]]) == code
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_after_an_uncaught_exception(
        triangle_file, collecting, monkeypatch):
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise RuntimeError("subcommand failed")

    monkeypatch.setattr(cli, "_cmd_greedy", broken)
    (gc.enable if collecting else gc.disable)()
    with pytest.raises(RuntimeError):
        main(["greedy", triangle_file, "--levels", "1"])
    assert seen == [False]
    assert gc.isenabled() is collecting


def test_connect_and_verify_run_paused_under_main(tmp_path, triangle_file,
                                                 monkeypatch, capsys):
    seen = {}

    def spy(name):
        real = getattr(reconfig, name)

        def wrapper(*args, **kwargs):
            seen[name] = gc.isenabled()
            return real(*args, **kwargs)
        monkeypatch.setattr(reconfig, name, wrapper)

    spy("connect")
    spy("_replay")
    c1, c2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    write_coloring(Coloring((1, 2, 3)), c1)
    write_coloring(Coloring((3, 1, 2)), c2)
    trace = tmp_path / "trace.txt"
    assert main(["connect", triangle_file, str(c1), str(c2), "--q", "4",
                 "--alpha", "1", "--beta", "2", "--out", str(trace)]) == 0
    assert main(["verify", triangle_file, str(c1), str(trace),
                 "--q", "4"]) == 0
    assert capsys.readouterr().out == "ok length 4 end 3 1 2\n"
    assert seen == {"connect": False, "_replay": False}
    assert gc.isenabled()


class CollectorSpy:
    """Stands in for the ``gc`` module; logs each call, then makes it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        def call():
            self.calls.append(name)
            return getattr(gc, name)()
        return call


@pytest.mark.parametrize("make", [
    lambda: generate_hnm(50, 60, 3, 1),
    lambda: hypergraph_from_text(hypergraph_to_text(TRIANGLE)),
], ids=["generate_hnm", "hypergraph_from_text"])
def test_the_library_pauses_only_while_indexing(make, monkeypatch):
    spy = CollectorSpy()
    monkeypatch.setattr(hypergraph, "gc", spy)
    make()
    assert spy.calls == ["isenabled", "disable", "enable"]
    assert gc.isenabled()


def disable_sites():
    """Module-qualified names of the functions that call ``gc.disable``."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "disable"
                    and getattr(func.value, "id", None) == "gc"):
                sites.append(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(recolor.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return sites


def test_only_main_and_index_disable_the_collector():
    assert disable_sites() == ["cli.main", "hypergraph.Hypergraph._index"]
