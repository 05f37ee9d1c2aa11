from pathlib import Path

import pytest

from fairgate.closure import Closure, close
from fairgate.fairness import Dataset, generate_table1
from fairgate.graph import CausalGraph, load_graph

from _graphs import pair_facts

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
def all_facts_open(monkeypatch):
    """Make the agreement sweep's Condition 2 decision, ``Closure.first_open``,
    report the first path fact of every pair open, whatever the conditioning set."""

    def first_open(closure, x, y, conditioning):
        facts = pair_facts(closure, x, y)
        return facts[0] if facts else None

    monkeypatch.setattr(Closure, "first_open", first_open)
