"""Module boundaries.

Every public name lives in, and is imported from, the module that
defines it, and the verdict modules read a closure but never build one.
"""

import importlib
import inspect
import pkgutil

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


def test_a_closure_carries_the_graph_it_closes(loan_graph):
    assert close(loan_graph).graph is loan_graph
