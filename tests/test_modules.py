"""Module boundaries.

Every public name lives in, and is imported from, the module that
defines it, and the verdict modules read a closure but never build one.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fairgate
from fairgate.closure import close

MODULES = [
    importlib.import_module(f"fairgate.{info.name}")
    for info in pkgutil.iter_modules(fairgate.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_are_defined_in_their_module(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_package_root_exports_only_the_version():
    public = [
        name
        for name, obj in vars(fairgate).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    assert public == []
    assert fairgate.__version__ == "0.1.0"


@pytest.mark.parametrize("name", ["fairgate.weakening", "fairgate.fairness"])
def test_verdict_modules_do_not_close_graphs(name):
    assert not hasattr(importlib.import_module(name), "close")


def test_weakening_renders_no_facts():
    # A verdict looks its trace records up by fact; text is rendered only
    # where a record is printed.
    assert not hasattr(importlib.import_module("fairgate.weakening"), "render_path_fact")


def test_benchmark_spans_find_every_name_they_wrap():
    # benchmark/spans.py wraps fairgate names by getattr and counts a traced
    # close through Closure.derivations; deleting or renaming one would
    # break ``benchmark/run.py --trace 1``.
    root = Path(__file__).resolve().parent.parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "benchmark")]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    code = (
        "from spans import Tracer, install; install(Tracer())\n"
        "from fairgate import closure, graph\n"
        "closure.close(graph.CausalGraph('abc', [('a', 'b'), ('b', 'c')]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("helper", ["_saturation.py", "_recount.py"])
def test_reference_helpers_import_only_public_names(helper):
    # A reference that imported the engine's private helpers would check
    # that code against itself.
    tree = ast.parse((Path(__file__).parent / helper).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("fairgate"):
            public = importlib.import_module(node.module).__all__
            for alias in node.names:
                assert alias.name in public, f"{helper}: {node.module}.{alias.name}"


def test_a_closure_carries_the_graph_it_closes(loan_graph):
    assert close(loan_graph).graph is loan_graph
