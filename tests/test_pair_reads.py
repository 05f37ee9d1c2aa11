"""Every read of a named node pair checks the pair the same way.

``CausalGraph.pair_index`` is the one check: a name that is not a node
raises ``UnknownVariable`` for the first such name given, and a node
paired with itself raises ``ValueError``.  An answer for either would read
as "no path facts" or "no edge", which Conditions 1 and 2 take for
"independent".
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fairgate.closure import close
from fairgate.errors import UnknownVariable
from fairgate.graph import CausalGraph
from fairgate.sweep import enumerate_classified_paths
from fairgate.weakening import check_condition1, check_condition2

READERS = {
    "close": lambda g, x, y: close(g, pairs=[(x, y)]),
    "audit": lambda g, x, y: close(g).audit(x, y, 0),
    "trace_between": lambda g, x, y: close(g).trace_between(x, y),
    "check_condition1": check_condition1,
    "check_condition2": lambda g, x, y: check_condition2(close(g), x, y, ()),
    "enumerate_classified_paths": enumerate_classified_paths,
}

# (x, y) -> the error every reader raises, as (class, its whole message).
UNKNOWN = "variable {!r} is not a node of the graph"
REFUSALS = {
    ("Zq", "Loan"): (UnknownVariable, UNKNOWN.format("Zq")),
    ("MS", "Zq"): (UnknownVariable, UNKNOWN.format("Zq")),
    ("Zq", "Yq"): (UnknownVariable, UNKNOWN.format("Zq")),
    ("Yq", "Zq"): (UnknownVariable, UNKNOWN.format("Yq")),
    ("MS", "MS"): (ValueError, "path endpoints must differ"),
    ("Loan", "Loan"): (ValueError, "path endpoints must differ"),
}


@pytest.mark.parametrize("pair", list(REFUSALS), ids="-".join)
@pytest.mark.parametrize("reader", list(READERS))
def test_every_pair_reader_refuses_the_same_pair_in_the_same_words(loan_graph, reader, pair):
    error, message = REFUSALS[pair]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        READERS[reader](loan_graph, *pair)


def test_pair_index_orders_the_pair_by_node_index(loan_graph):
    index = loan_graph.index
    for x in loan_graph.names:
        for y in loan_graph.names:
            if x != y:
                assert loan_graph.pair_index(x, y) == tuple(sorted((index[x], index[y])))


# close resolves its pairs in the order given, so the first faulty pair is
# reported whatever order a set of the pairs would iterate in.
FIRST_FAULTY = """
from fairgate.closure import close
from fairgate.graph import CausalGraph
g = CausalGraph("AB", [("A", "B")])
for pairs in ([("A", "Zq"), ("B", "Yq")], [("A", "A"), ("B", "Yq")]):
    try:
        close(g, pairs=pairs)
    except Exception as exc:
        print(type(exc).__name__, exc)
"""


def test_close_reports_the_first_faulty_pair_under_every_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    expected = (
        f"UnknownVariable {UNKNOWN.format('Zq')}\n"
        "ValueError path endpoints must differ\n"
    )
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", FIRST_FAULTY], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected, seed
