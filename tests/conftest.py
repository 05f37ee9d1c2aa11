from pathlib import Path

import pytest

from fairgate import closure as closure_module, sweep
from fairgate.closure import Closure, close
from fairgate.fairness import Dataset, generate_table1
from fairgate.graph import CausalGraph, load_graph

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def loan_graph() -> CausalGraph:
    return load_graph(DATA_DIR / "loan.cg")


@pytest.fixture(scope="session")
def loan_closure(loan_graph) -> Closure:
    return close(loan_graph)


@pytest.fixture(scope="session")
def table1() -> Dataset:
    return generate_table1()


@pytest.fixture
def patch_block(monkeypatch):
    """A function that replaces Condition 2's one mask test, ``_block``,
    where the agreement sweep and ``Closure.audit`` call it."""

    def patch(block):
        for module in (closure_module, sweep):
            monkeypatch.setattr(module, "_block", block)

    return patch


@pytest.fixture
def all_facts_open(patch_block):
    """Make Condition 2 find no block on any path fact, whatever the
    conditioning set: the agreement sweep and ``Closure.audit`` then
    report every path fact of every pair open."""
    patch_block(lambda key, conditioning: None)
