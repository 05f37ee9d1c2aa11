import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fairgate
from fairgate.cli import _json_pieces, main
from fairgate.fairness import fraction_str
from fairgate.sweep import random_dag

from _golden import GOLDEN_COMMANDS

SCHEMA_DIR = Path(fairgate.__file__).parent / "schemas"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The schema tests import jsonschema themselves, so that the other tests here
# run where its compiled dependencies do not import.
def load_schema(name):
    from jsonschema import Draft202012Validator

    schema = json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))
    Draft202012Validator.check_schema(schema)
    return schema


def validate(payload, schema_name):
    from jsonschema import Draft202012Validator

    Draft202012Validator(load_schema(schema_name)).validate(payload)


# --- golden outputs -----------------------------------------------------------


@pytest.mark.parametrize("golden_name, argv_builder", GOLDEN_COMMANDS)
def test_golden_output(capsys, data_dir, golden_dir, golden_name, argv_builder):
    _, out, err = run(capsys, argv_builder(data_dir))
    assert err == ""
    assert out == (golden_dir / golden_name).read_text(encoding="utf-8")


# Per golden: a call of the same subcommand with other flags, made first in
# the same process; main reads every call from one shared flag table.
PRIOR_CALLS = {
    "weaken_loan_ms.json": lambda d: [
        "weaken", "--graph", str(d / "loan.cg"), "--judgment", str(d / "loan_gai_only.jdg"),
        "--attr", "MS=married", "--format", "text", "--fact-budget", "100000",
    ],
    "paths_loan.json": lambda d: ["paths", "--graph", str(d / "table1.cg"), "--format", "text"],
    "intersect_table1.json": lambda d: [
        "intersect", "--dataset", str(d / "table1.csv"), "--target", "t",
        "--protected", "a1,a2", "--subset-cap", "1",
    ],
    "demo_table1.json": lambda d: ["demo-table1", "--format", "text"],
    "if_loan_ms.json": lambda d: [
        "if", "--dataset", str(d / "table1.csv"), "--epsilon", "1/20",
        "--context-inline", "a2=v21", "--target", "t", "--protected", "a1",
    ],
    "intersect_loan_ms_age.json": lambda d: [
        "intersect", "--graph", str(d / "table1.cg"), "--dataset", str(d / "table1.csv"),
        "--context-inline", "a2=v21", "--target", "t", "--protected", "a1", "--epsilon", "1/3",
    ],
    "oracle_random_seed1.json": lambda d: ["oracle", "--max-nodes", "3"],
}
PRIOR_CALLS.update({name.replace(".json", ".txt"): call for name, call in PRIOR_CALLS.items()})


@pytest.mark.parametrize("golden_name, argv_builder", GOLDEN_COMMANDS)
def test_shared_parser_carries_nothing_between_calls(
    capsys, data_dir, golden_dir, golden_name, argv_builder
):
    run(capsys, PRIOR_CALLS[golden_name](data_dir))
    _, out, err = run(capsys, argv_builder(data_dir))
    assert err == ""
    assert out == (golden_dir / golden_name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "newline, reverse", [("\r\n", False), ("\r", False), ("\n", True)],
    ids=["crlf", "cr", "reversed"],
)
def test_loan_files_with_other_line_ends_give_the_golden_bytes(
    capsys, data_dir, golden_dir, tmp_path, newline, reverse
):
    # The graph, judgment and context readers split lines as str.splitlines
    # does, so CRLF and lone-CR copies of the loan files read as the LF ones.
    # A graph's adjacency is sorted by node, so loan.cg with its lines in
    # reverse order, nodes and edges alike, reads as the same graph too.
    for path in data_dir.iterdir():
        data = path.read_bytes()
        if path.name in ("loan.cg", "loan.jdg", "loan.ctx"):
            assert b"\r" not in data
            data = data.replace(b"\n", newline.encode())
        if reverse and path.name == "loan.cg":
            assert data.endswith(b"\n")
            data = b"".join(reversed(data.splitlines(keepends=True)))
        (tmp_path / path.name).write_bytes(data)
    for golden_name, argv_builder in GOLDEN_COMMANDS:
        _, out, err = run(capsys, argv_builder(tmp_path))
        assert err == ""
        assert out == (golden_dir / golden_name).read_text(encoding="utf-8"), golden_name
    # No golden reads loan.ctx: the README's example reads it.
    def example(d):
        return ["if", "--graph", str(d / "loan.cg"), "--context", str(d / "loan.ctx"),
                "--target", "Loan", "--protected", "MS"]

    want = run(capsys, example(data_dir))
    assert want[0] == 0
    assert run(capsys, example(tmp_path)) == want


# --- JSON rendering ---------------------------------------------------------------

# Characters the encoder escapes or passes through in unusual ways: quotes,
# backslashes, control characters, non-ASCII, non-BMP and lone surrogates.
_TRICKY = '"\\\x00\x08\t\n\x1f\x7f\u00e9\u03b2\u2028\U0001F600\ud800\udfff'
_text = st.text(st.characters(exclude_categories=(), include_characters=_TRICKY), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from((-(10**300), 10**300, 2**63)),
    st.floats(),
    st.sampled_from((-0.0, math.nan, math.inf, -math.inf)),
    _text,
)
# Values json.dumps refuses with TypeError.
_refused = st.sampled_from((b"x", {1}, frozenset(), 1j, Fraction(1, 3), object()))
_json_values = st.recursive(
    st.one_of(_scalars, _scalars, _scalars, _refused),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_text, max_size=4),
        st.dictionaries(_text, children, max_size=4),
        # One object at several depths, as a report shares its repeated parts.
        children.map(lambda x: {"a": x, "b": [x, [x]]}),
        st.tuples(children, children).map(lambda xy: [xy[0], {"k": [xy[1], xy[0]]}, [[xy[0]]]]),
    ),
    max_leaves=20,
)

_SHARED_LIST = [{"k": ["v", "w\n"]}, None, [1, []]]
_SHARED_DICT = {"x": [1, {"y": "\n  "}], "z": []}
_INNER = [{"a": 1}, [True]]
_OUTER = [_INNER, {"b": _INNER}]


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example(["a", ("b", "c"), {}, [], ()])
@example({"k": [1, {"x": b"bytes"}]})
@example({"a": _SHARED_LIST, "b": [_SHARED_LIST, [_SHARED_LIST]]})
@example([[[_SHARED_LIST]], _SHARED_LIST, {"c": {"d": _SHARED_LIST}}])
@example([_SHARED_DICT, {"z": [_SHARED_DICT, [[_SHARED_DICT]]]}])
@example({"p": _OUTER, "q": [[_OUTER, _INNER]], "r": _INNER})
def test_render_json_is_the_stdlib_indent_2_text(value):
    try:
        expected = json.dumps(value, indent=2, ensure_ascii=False)
    except TypeError:
        with pytest.raises(TypeError):
            "".join(_json_pieces(value))
    else:
        assert "".join(_json_pieces(value)) == expected


def test_a_list_repeated_at_one_depth_is_one_piece_after_its_first_rendering():
    shared = [{"a": 1}, [True, None]]
    pieces = _json_pieces([shared, shared, shared])
    assert "".join(pieces) == json.dumps([shared] * 3, indent=2)
    # ..., second occurrence, ",\n  ", third occurrence, "\n]"
    second, third = pieces[-4], pieces[-2]
    assert type(second) is str
    assert second is third
    assert second == json.dumps([shared], indent=2)[4:-2]


# --- schema conformance ---------------------------------------------------------


def test_paths_schema(capsys, data_dir):
    code, out, _ = run(capsys, ["paths", "--graph", str(data_dir / "loan.cg")])
    assert code == 0
    validate(json.loads(out), "paths.schema.json")


def test_weaken_schema(capsys, data_dir):
    for judgment, attr in (("loan.jdg", "MS=married"), ("loan_gai_only.jdg", "MS=married")):
        _, out, _ = run(
            capsys,
            [
                "weaken",
                "--graph", str(data_dir / "loan.cg"),
                "--judgment", str(data_dir / judgment),
                "--attr", attr,
            ],
        )
        validate(json.loads(out), "weaken.schema.json")


def test_if_schema(capsys, data_dir):
    _, out, _ = run(
        capsys,
        [
            "if",
            "--graph", str(data_dir / "table1.cg"),
            "--dataset", str(data_dir / "table1.csv"),
            "--target", "t",
            "--protected", "a1",
        ],
    )
    validate(json.loads(out), "if.schema.json")
    _, out, _ = run(
        capsys,
        [
            "if",
            "--graph", str(data_dir / "loan.cg"),
            "--context-inline", "Age=27, GAI=40K",
            "--target", "Loan",
            "--protected", "MS",
        ],
    )
    validate(json.loads(out), "if.schema.json")


def test_intersect_schema(capsys, data_dir):
    _, out, _ = run(
        capsys,
        [
            "intersect",
            "--dataset", str(data_dir / "table1.csv"),
            "--target", "t",
            "--protected", "a1,a2",
        ],
    )
    validate(json.loads(out), "intersect.schema.json")


def test_oracle_schema(capsys):
    code, out, _ = run(capsys, ["oracle", "--max-nodes", "3"])
    assert code == 0
    payload = json.loads(out)
    validate(payload, "oracle.schema.json")
    assert payload["graphsChecked"] == 9


def test_oracle_discrepancies_exit_1(capsys, all_facts_open):
    code, out, err = run(capsys, ["oracle", "--max-nodes", "3"])
    assert (code, err) == (1, "")
    payload = json.loads(out)
    validate(payload, "oracle.schema.json")
    assert payload["passed"] is False
    assert {
        "nodes": ["A", "B", "C"],
        "edges": [["A", "B"], ["B", "C"]],
        "x": "A",
        "y": "C",
        "conditioning": ["B"],
        "byRules": False,
        "byOracle": True,
    } in payload["discrepancies"]


def test_demo_schema(capsys):
    code, out, _ = run(capsys, ["demo-table1"])
    assert code == 1
    payload = json.loads(out)
    validate(payload, "demo-table1.schema.json")
    validate(payload["intersectionality"], "intersect.schema.json")


# --- exit codes ------------------------------------------------------------------


def test_weaken_exit_codes(capsys, data_dir):
    graph = str(data_dir / "loan.cg")
    code, _, _ = run(
        capsys,
        ["weaken", "--graph", graph, "--judgment", str(data_dir / "loan.jdg"),
         "--attr", "MS=married"],
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        ["weaken", "--graph", graph, "--judgment", str(data_dir / "loan_gai_only.jdg"),
         "--attr", "MS=married"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failedCondition"] == "Condition2"
    assert payload["weakened"] is None
    code, out, _ = run(
        capsys,
        ["weaken", "--graph", graph, "--judgment", str(data_dir / "loan_age_only.jdg"),
         "--attr", "GAI=40K"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["failedCondition"] == "Condition1"
    assert payload["witness"] == {"kind": "edge", "source": "GAI", "target": "Loan"}


def test_missing_file_is_input_error(capsys, data_dir):
    code, out, err = run(
        capsys,
        ["weaken", "--graph", str(data_dir / "missing.cg"),
         "--judgment", str(data_dir / "loan.jdg"), "--attr", "MS=married"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_attr_variable(capsys, data_dir):
    code, _, err = run(
        capsys,
        ["weaken", "--graph", str(data_dir / "loan.cg"),
         "--judgment", str(data_dir / "loan.jdg"), "--attr", "Zzz=1"],
    )
    assert code == 2
    assert "Zzz" in err


def test_bad_epsilon(capsys, data_dir):
    base = ["if", "--dataset", str(data_dir / "table1.csv"), "--target", "t",
            "--protected", "a1"]
    code, _, err = run(capsys, base + ["--epsilon", "lots"])
    assert code == 2 and "epsilon" in err
    code, _, err = run(capsys, base + ["--epsilon=-1/2"])
    assert code == 2 and "nonnegative" in err


def test_conflicting_context_flags(capsys, data_dir):
    code, _, err = run(
        capsys,
        ["if", "--graph", str(data_dir / "loan.cg"), "--target", "Loan",
         "--protected", "MS", "--context", "x.ctx", "--context-inline", "Age=27"],
    )
    assert code == 2
    assert "either --context or --context-inline" in err


@pytest.mark.parametrize("command", ["if", "intersect"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--graph", "", "--dataset", "table1.csv", "--target", "t", "--protected", "a1"],
        ["--graph", "loan.cg", "--dataset", "", "--target", "Loan", "--protected", "MS"],
        ["--graph", "loan.cg", "--context", "", "--target", "Loan", "--protected", "MS"],
        ["--graph", "loan.cg", "--context", "", "--context-inline", "Age=27", "--target", "Loan",
         "--protected", "MS"],
    ],
    ids=["graph", "dataset", "context", "context-and-inline"],
)
def test_an_empty_path_is_refused_not_dropped(capsys, data_dir, command, flags):
    argv = [command, *(str(data_dir / f) if f.endswith((".cg", ".csv")) else f for f in flags)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_if_rejects_attribute_list(capsys, data_dir):
    code, _, err = run(
        capsys,
        ["if", "--dataset", str(data_dir / "table1.csv"), "--target", "t",
         "--protected", "a1,a2"],
    )
    assert code == 2
    assert "intersect" in err


@pytest.mark.parametrize("command", ["if", "intersect"])
@pytest.mark.parametrize("protected", [",", "", " ", " , "])
def test_empty_protected_list_is_refused_before_any_file_is_read(capsys, command, protected):
    # The graph file does not exist: the flag is refused before it is read.
    if command == "if" and "," in protected:
        complaint = "if takes a single protected attribute"
    else:
        complaint = "at least one protected attribute is required"
    assert_input_error(
        capsys, [command, "--graph", "nope.cg", "--target", "t", "--protected", protected],
        complaint,
    )


@pytest.mark.parametrize(
    "command, spaced, plain",
    [("if", " MS ", "MS"), ("intersect", " MS , Age,", "MS,Age")],
)
def test_protected_names_are_stripped(capsys, data_dir, command, spaced, plain):
    base = [command, "--graph", str(data_dir / "loan.cg"), "--target", "Loan", "--protected"]
    result = run(capsys, [*base, spaced])
    assert result[0] in (0, 1) and result == run(capsys, [*base, plain])


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2


def test_fact_budget_flag(capsys, data_dir):
    code, _, err = run(
        capsys, ["paths", "--graph", str(data_dir / "loan.cg"), "--fact-budget", "3"]
    )
    assert code == 3
    assert err.startswith("resource limit:")


def test_fact_budget_env(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("FAIRGATE_FACT_BUDGET", "2")
    code, _, _ = run(capsys, ["paths", "--graph", str(data_dir / "loan.cg")])
    assert code == 3
    code, _, _ = run(
        capsys,
        ["paths", "--graph", str(data_dir / "loan.cg"), "--fact-budget", "100000"],
    )
    assert code == 0
    monkeypatch.setenv("FAIRGATE_FACT_BUDGET", "soon")
    code, _, err = run(capsys, ["paths", "--graph", str(data_dir / "loan.cg")])
    assert code == 2
    assert "FAIRGATE_FACT_BUDGET" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_fact_budget_is_input_error(capsys, data_dir, budget):
    code, out, err = run(
        capsys, ["paths", "--graph", str(data_dir / "loan.cg"), "--fact-budget", budget]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: the fact budget must be positive")


@pytest.mark.parametrize("command", ["if", "intersect"])
def test_fact_budget_flag_bounds_the_closure_of_if_and_intersect(capsys, data_dir, command):
    argv = [command, "--graph", str(data_dir / "loan.cg"), "--context", str(data_dir / "loan.ctx"),
            "--target", "Loan", "--protected", "MS"]
    code, _, err = run(capsys, argv + ["--fact-budget", "3"])
    assert code == 3
    assert err.startswith("resource limit:")
    code, _, _ = run(capsys, argv + ["--fact-budget", "100000"])
    assert code == 0


def test_fact_budget_charges_only_what_the_verdicts_node_pairs_can_read(capsys, data_dir):
    # loan.cg closes to 9 mediate facts and 7 path derivations, 16 units;
    # if --protected MS closes for the pair MS-Loan, which can read 5 of the
    # derivations, 14 units.  So a budget of 14 stops paths but not if.
    graph = str(data_dir / "loan.cg")
    argv = ["if", "--graph", graph, "--target", "Loan", "--protected", "MS"]
    unbudgeted = run(capsys, argv)
    assert unbudgeted[0] == 1
    assert run(capsys, argv + ["--fact-budget", "14"]) == unbudgeted
    code, out, err = run(capsys, argv + ["--fact-budget", "13"])
    assert (code, out) == (3, "") and err.startswith("resource limit:")
    code, out, err = run(capsys, ["paths", "--graph", graph, "--fact-budget", "14"])
    assert (code, out) == (3, "") and err.startswith("resource limit:")
    assert run(capsys, ["paths", "--graph", graph, "--fact-budget", "16"])[0] == 0


def test_fact_budget_charges_only_derivations_on_the_pairs_simple_paths(capsys, data_dir):
    # Every simple GAI-Loan path stays in the block Age, GAI, Loan, so of the
    # derivations that avoid GAI and Loan inside, only the fork GAI <- Age ->
    # Loan is charged, not the two through MS: 9 mediate facts and 1
    # derivation, 10 units.
    argv = ["if", "--graph", str(data_dir / "loan.cg"), "--target", "Loan", "--protected", "GAI"]
    unbudgeted = run(capsys, argv)
    assert unbudgeted[0] == 1
    assert run(capsys, argv + ["--fact-budget", "10"]) == unbudgeted
    code, out, err = run(capsys, argv + ["--fact-budget", "9"])
    assert (code, out) == (3, "") and err.startswith("resource limit:")


@pytest.mark.parametrize(
    "argv",
    [
        ["demo-table1", "--fact-budget", "0"],
        ["intersect", "--dataset", "table1.csv", "--target", "t", "--protected", "a1",
         "--fact-budget", "-5"],
        ["if", "--dataset", "table1.csv", "--target", "t", "--protected", "a1",
         "--fact-budget", "0"],
    ],
)
def test_non_positive_fact_budget_without_a_closure(capsys, data_dir, argv):
    argv = [str(data_dir / a) if a.endswith(".csv") else a for a in argv]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the fact budget must be positive")


def assert_input_error(capsys, argv, complaint):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error:") and complaint in err


@pytest.mark.parametrize("command", ["if", "intersect"])
@pytest.mark.parametrize(
    "epsilon, complaint",
    [("lots", "epsilon must be a rational"), ("-1", "epsilon must be nonnegative")],
)
def test_bad_epsilon_is_refused_before_the_closure(capsys, data_dir, command, epsilon, complaint):
    # A fact budget of 3 stops the loan closure with exit 3, so exit 2 shows
    # that --epsilon was checked before the graph was closed.
    assert_input_error(
        capsys,
        [command, "--graph", str(data_dir / "loan.cg"), "--target", "Loan", "--protected", "MS",
         "--fact-budget", "3", "--epsilon", epsilon],
        complaint,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["intersect", "--protected", "MS,Age", "--epsilon", "1/10"],
        ["if", "--protected", "MS", "--epsilon", "1/2"],
        ["if", "--protected", "MS", "--epsilon", "0"],
    ],
    ids=["intersect", "if", "if-zero"],
)
def test_epsilon_without_a_dataset_is_refused(capsys, data_dir, argv):
    # Only the empirical route has a tolerance, so on a graph alone the flag
    # would be ignored.  A fact budget of 3 stops the loan closure with exit
    # 3, so exit 2 shows the flag is refused before the graph is closed.
    assert_input_error(
        capsys,
        [argv[0], "--graph", str(data_dir / "loan.cg"), "--target", "Loan", "--fact-budget", "3",
         *argv[1:]],
        "--epsilon needs --dataset",
    )


@pytest.mark.parametrize("command", ["if", "intersect"])
@pytest.mark.parametrize(
    "source",
    [
        ["--graph", "loan.cg", "--target", "Loan", "--protected", "MS",
         "--context-inline", "Loan=yes"],
        ["--dataset", "table1.csv", "--target", "t", "--protected", "a1",
         "--context-inline", "t=β"],
    ],
    ids=["graph", "dataset"],
)
def test_context_that_fixes_the_target(capsys, data_dir, command, source):
    argv = [str(data_dir / a) if a.endswith((".cg", ".csv")) else a for a in source]
    target = argv[argv.index("--target") + 1]
    assert_input_error(capsys, [command, *argv], f"target {target!r} occurs in the context")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["weaken", "--graph", "loan.cg", "--judgment", "loan.jdg", "--attr", "Loan=yes",
          "--fact-budget", "1"], "cannot weaken with the judgment's own target 'Loan'"),
        (["weaken", "--graph", "loan.cg", "--judgment", "loan.jdg", "--attr", "Age=3",
          "--fact-budget", "1"], "variable 'Age' is already in the context"),
        (["if", "--graph", "loan.cg", "--target", "Loan", "--protected", "Loan",
          "--fact-budget", "3"], "protected attribute equals the target"),
        (["if", "--graph", "loan.cg", "--target", "Loan", "--protected", "Zzz",
          "--fact-budget", "3"], "variable 'Zzz' is not a node of the graph"),
        (["intersect", "--graph", "loan.cg", "--target", "Zzz", "--protected", "MS",
          "--fact-budget", "3"], "variable 'Zzz' is not a node of the graph"),
        (["intersect", "--graph", "loan.cg", "--target", "Loan", "--protected", "MS,Age",
          "--subset-cap", "1", "--fact-budget", "3"], "2 protected attributes exceed the cap of 1"),
    ],
)
def test_names_and_subset_cap_are_checked_before_the_closure(capsys, data_dir, argv, message):
    # Each budget stops the loan closure with exit 3, so exit 2 with the
    # message the command prints without a budget shows that the names and
    # the cap were checked before the graph was closed.
    argv = [str(data_dir / a) if a.endswith((".cg", ".jdg")) else a for a in argv]
    code, out, err = run(capsys, argv)
    assert "Traceback" not in err
    assert (code, out, err) == (2, "", f"error: {message}\n")


NOT_UTF8 = b"\xff\xfe not text\n"


def test_dataset_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,t\n" + NOT_UTF8)
    assert_input_error(
        capsys, ["if", "--dataset", str(path), "--target", "t", "--protected", "a"], "UTF-8"
    )


@pytest.mark.parametrize("command", ["if", "intersect"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("a,t\n", "the dataset has no rows"),
        ("a,t\nx,1\n,\n", "row 2, column 'a': value atoms must be non-empty strings"),
    ],
    ids=["header-only", "blank-cell"],
)
def test_dataset_errors_say_what_is_wrong_and_where(capsys, tmp_path, command, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, [command, "--dataset", str(path), "--target", "t", "--protected", "a"]
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_graph_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bad.cg"
    path.write_bytes(NOT_UTF8)
    assert_input_error(capsys, ["paths", "--graph", str(path)], "UTF-8")


def test_judgment_that_is_not_utf8(capsys, data_dir, tmp_path):
    path = tmp_path / "bad.jdg"
    path.write_bytes(NOT_UTF8)
    assert_input_error(
        capsys,
        ["weaken", "--graph", str(data_dir / "loan.cg"), "--judgment", str(path),
         "--attr", "MS=married"],
        "UTF-8",
    )


def test_context_that_is_not_utf8(capsys, data_dir, tmp_path):
    path = tmp_path / "bad.ctx"
    path.write_bytes(NOT_UTF8)
    assert_input_error(
        capsys,
        ["if", "--graph", str(data_dir / "loan.cg"), "--context", str(path),
         "--target", "Loan", "--protected", "MS"],
        "UTF-8",
    )


def test_csv_field_over_the_csv_module_limit(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("a,t\n" + "x" * 131_073 + ",yes\n", encoding="utf-8")
    assert_input_error(
        capsys,
        ["if", "--dataset", str(path), "--target", "t", "--protected", "a"],
        "field larger than field limit",
    )


@pytest.mark.parametrize(
    "epsilon, complaint",
    [
        ("1e-5000", "epsilon exponent"),
        ("1e-10000000", "epsilon exponent"),
        ("0." + "0" * 200 + "1", "epsilon may have at most"),
    ],
)
def test_oversized_epsilon(capsys, data_dir, epsilon, complaint):
    assert_input_error(
        capsys,
        ["if", "--dataset", str(data_dir / "table1.csv"), "--target", "t",
         "--protected", "a1", "--epsilon", epsilon],
        complaint,
    )


def test_epsilon_at_the_bounds(capsys, data_dir):
    base = ["if", "--dataset", str(data_dir / "table1.csv"), "--target", "t", "--protected", "a1"]
    for epsilon in ("1e-100", "1e100", "0." + "0" * 98 + "1"):
        code, out, err = run(capsys, base + ["--epsilon", epsilon])
        assert (code, err) == (0, "")
        assert json.loads(out)["empirical"]["epsilon"] == fraction_str(Fraction(epsilon))


@pytest.mark.parametrize("probability", ["0." + "3" * 5000, "1/" + "9" * 5000])
def test_oversized_judgment_probability(capsys, data_dir, tmp_path, probability):
    path = tmp_path / "long.jdg"
    path.write_text(f"Age=27, GAI=40K => Loan=yes @ {probability}\n", encoding="utf-8")
    assert_input_error(
        capsys,
        ["weaken", "--graph", str(data_dir / "loan.cg"), "--judgment", str(path),
         "--attr", "MS=married"],
        "probability has a number of more than 100 digits",
    )


def test_unexpected_exception_exits_4(capsys, data_dir, monkeypatch):
    def crash(closure):
        raise RuntimeError("boom")

    monkeypatch.setattr("fairgate.cli.closure_dump", crash)
    code, out, err = run(capsys, ["paths", "--graph", str(data_dir / "loan.cg")])
    assert (code, out) == (4, "")
    assert err == "internal error: RuntimeError: boom\n"


def test_crash_while_rendering_writes_nothing(capsys, data_dir, monkeypatch):
    # Thousands of pieces render before the bytes value, more than one
    # chunk of the write: a report is rendered in full before it is written.
    def dump_with_bytes(closure):
        return {"rows": [{"n": str(i)} for i in range(5000)], "late": b"x"}

    monkeypatch.setattr("fairgate.cli.closure_dump", dump_with_bytes)
    code, out, err = run(capsys, ["paths", "--graph", str(data_dir / "loan.cg")])
    assert (code, out) == (4, "")
    assert err.startswith("internal error: TypeError: ")


def test_stream_that_cannot_encode_a_report_gets_none_of_it(capsys, tmp_path, monkeypatch):
    graph = tmp_path / "g.cg"
    graph.write_text("A -> B\nB -> Zé\n", encoding="utf-8")
    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="ascii")
    # One piece per write: the first pieces are ASCII, a later one is not.
    monkeypatch.setattr("fairgate.cli.WRITE_CHUNK_PIECES", 1)
    monkeypatch.setattr("sys.stdout", stream)
    code = main(["paths", "--graph", str(graph)])
    stream.flush()
    assert (code, buffer.getvalue()) == (4, b"")
    assert capsys.readouterr().err.startswith("internal error: UnicodeEncodeError: ")


def _weaken_inputs(data_dir, tmp_path, graph):
    """Graph and judgment files of a ``weaken`` request, and its attribute
    variable: ``loan`` or ``random19``, a 10-node ``random_dag`` with 19 edges."""
    if graph == "loan":
        return data_dir / "loan.cg", data_dir / "loan.jdg", "MS"
    g = random_dag(random.Random(1), max_nodes=10, min_nodes=10, edge_prob=0.4)
    assert len(g.edges) == 19
    (tmp_path / "g.cg").write_text("".join(f"{a} -> {b}\n" for a, b in sorted(g.edges)))
    (tmp_path / "j.jdg").write_text("H=a => B=yes @ 1/2\n")
    return tmp_path / "g.cg", tmp_path / "j.jdg", "A"


@pytest.mark.parametrize("graph", ["loan", "random19"])
@pytest.mark.parametrize("io_encoding", ["utf-8:surrogateescape", "utf-8:strict"])
def test_a_value_that_is_not_utf8_is_refused_before_any_report(
    data_dir, tmp_path, graph, io_encoding
):
    # A command-line byte that is not UTF-8 reaches Python as a lone
    # surrogate; as an atom it would be printed in "weakened".
    graph_file, judgment, variable = _weaken_inputs(data_dir, tmp_path, graph)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONIOENCODING": io_encoding}
    argv = [
        sys.executable, "-m", "fairgate.cli", "weaken", "--graph", str(graph_file),
        "--judgment", str(judgment), "--attr", os.fsencode(variable) + b"=\xff",
    ]
    result = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, b""), result.stderr
    assert b"is not UTF-8 text" in result.stderr


@pytest.mark.parametrize(
    "flags, complaint",
    [
        (["--max-nodes", "0"], "--max-nodes must be at least 1"),
        (["--trials", "3", "--max-nodes", "2"], "--max-nodes must be at least 4 with --trials"),
        (["--trials", "0"], "--trials must be at least 1"),
        (["--trials", "-2"], "--trials must be at least 1"),
        (["--trials", "3", "--edge-prob", "nan"], "--edge-prob must be a number in [0, 1]"),
        (["--trials", "3", "--edge-prob", "inf"], "--edge-prob must be a number in [0, 1]"),
        (["--trials", "3", "--edge-prob", "-0.1"], "--edge-prob must be a number in [0, 1]"),
        (["--edge-prob", "1.5"], "--edge-prob must be a number in [0, 1]"),
        (["--max-nodes", "7"], "--max-nodes must be at most 6 without --trials"),
        (["--seed", "5"], "--seed needs --trials"),
        (["--edge-prob", "0.9"], "--edge-prob needs --trials"),
        (["--max-nodes", "3", "--seed", "5", "--edge-prob", "0.9"], "--seed needs --trials"),
        (
            ["--trials", "1", "--max-nodes", "13"],
            "--max-nodes must be at least 4 with --trials and at most 12",
        ),
    ],
)
def test_bad_oracle_flags_are_input_errors(capsys, flags, complaint):
    code, out, err = run(capsys, ["oracle", *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + complaint)


def test_oracle_flag_bounds_are_inclusive(capsys):
    for flags in (
        ["--max-nodes", "1"],
        ["--trials", "1", "--max-nodes", "4", "--edge-prob", "1"],
        ["--trials", "1", "--max-nodes", "12", "--edge-prob", "0"],
    ):
        code, _, err = run(capsys, ["oracle", *flags])
        assert (code, err) == (0, "")


# --- if and intersect behaviour ---------------------------------------------------


def test_if_mode_resolution(capsys, data_dir):
    _, out, _ = run(
        capsys,
        ["if", "--graph", str(data_dir / "table1.cg"),
         "--dataset", str(data_dir / "table1.csv"),
         "--target", "t", "--protected", "a1"],
    )
    payload = json.loads(out)
    assert payload["mode"] == "both"
    assert payload["agreement"] is False
    _, out, _ = run(
        capsys,
        ["if", "--dataset", str(data_dir / "table1.csv"),
         "--target", "t", "--protected", "a1"],
    )
    assert json.loads(out)["mode"] == "empirical"
    _, out, _ = run(
        capsys,
        ["if", "--graph", str(data_dir / "loan.cg"),
         "--target", "Loan", "--protected", "MS",
         "--context", str(data_dir / "loan.ctx")],
    )
    payload = json.loads(out)
    assert payload["mode"] == "graphical"
    assert payload["passed"] is True


@pytest.mark.parametrize("subcommand, protected", [("if", "a1"), ("intersect", "a1,a2")])
def test_mode_is_not_a_flag(capsys, data_dir, subcommand, protected):
    # The inputs given are the routes run; there is no flag to pick them.
    with pytest.raises(SystemExit) as exc_info:
        main([subcommand, "--mode", "both", "--graph", str(data_dir / "table1.cg"),
              "--dataset", str(data_dir / "table1.csv"), "--target", "t",
              "--protected", protected])
    captured = capsys.readouterr()
    assert (exc_info.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --mode both" in captured.err


def test_intersect_graphical_with_context(capsys, data_dir):
    code, out, _ = run(
        capsys,
        ["intersect", "--graph", str(data_dir / "loan.cg"),
         "--context", str(data_dir / "loan.ctx"),
         "--target", "Loan", "--protected", "MS"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "graphical"
    assert payload["maxDelta"] is None


def test_intersect_subset_cap(capsys, data_dir):
    code, _, err = run(
        capsys,
        ["intersect", "--dataset", str(data_dir / "table1.csv"),
         "--target", "t", "--protected", "a1,a2", "--subset-cap", "1"],
    )
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_non_positive_subset_cap_is_refused_as_it_is_parsed(capsys, data_dir, cap):
    # The dataset does not exist: a flag's value is checked before any file is read.
    for dataset in (data_dir / "nope.csv", data_dir / "table1.csv"):
        assert_input_error(
            capsys,
            ["intersect", "--dataset", str(dataset), "--target", "t",
             "--protected", "a1,a2", "--subset-cap", cap],
            f"--subset-cap must be at least 1, got {cap}",
        )


# --- text format -------------------------------------------------------------------


def test_text_format_weaken(capsys, data_dir):
    _, out, _ = run(
        capsys,
        ["weaken", "--graph", str(data_dir / "loan.cg"),
         "--judgment", str(data_dir / "loan.jdg"),
         "--attr", "MS=married", "--format", "text"],
    )
    assert "admissible: yes" in out
    assert "weakened judgment: Age=27, GAI=40K, MS=married => Loan=yes @ 3/5" in out


def test_text_format_intersect(capsys, data_dir):
    _, out, _ = run(
        capsys,
        ["intersect", "--dataset", str(data_dir / "table1.csv"),
         "--target", "t", "--protected", "a1,a2", "--format", "text"],
    )
    assert "passed: no" in out
    assert "FAIL" in out
    assert "9/85" in out


def test_text_format_demo(capsys):
    _, out, _ = run(capsys, ["demo-table1", "--format", "text"])
    assert "overall P(t=β): 27/34" in out


@pytest.mark.parametrize(
    "inputs, mode, expected_code",
    [
        (["--graph", "table1.cg"], "graphical", 1),
        (["--dataset", "table1.csv"], "empirical", 0),
        (["--graph", "table1.cg", "--dataset", "table1.csv"], "both", 1),
    ],
)
def test_text_format_if(capsys, data_dir, inputs, mode, expected_code):
    inputs = [str(data_dir / a) if a.startswith("table1.") else a for a in inputs]
    code, out, err = run(
        capsys, ["if", *inputs, "--target", "t", "--protected", "a1", "--format", "text"]
    )
    assert (code, err) == (expected_code, "")
    lines = out.splitlines()
    assert f"mode: {mode}" in lines
    assert ("graphical: inadmissible (Condition1)" in lines) == (mode != "empirical")
    assert ("empirical: pass, max delta 0/1 (~0.0000) at epsilon 0/1" in lines) == (
        mode != "graphical"
    )
    assert ("routes agree: no" in lines) == (mode == "both")


def test_text_format_paths(capsys, data_dir):
    code, out, err = run(capsys, ["paths", "--graph", str(data_dir / "loan.cg"), "--format", "text"])
    assert (code, err) == (0, "")
    assert out.startswith("mediate facts: 9\n")


def _between(lines, first, last):
    return lines[lines.index(first) + 1:lines.index(last)]


@pytest.mark.parametrize("graph", ["loan", "random19"])
def test_text_fact_lines_carry_the_notation_of_the_json_trace(capsys, data_dir, tmp_path, graph):
    graph_file, judgment, variable = _weaken_inputs(data_dir, tmp_path, graph)
    # paths: every fact is the conclusion of exactly one trace record.
    argv = ["paths", "--graph", str(graph_file)]
    _, out, _ = run(capsys, argv)
    payload = json.loads(out)
    _, text, _ = run(capsys, [*argv, "--format", "text"])
    lines = text.splitlines()
    mediate = _between(lines, f"mediate facts: {len(payload['mediate'])}",
                       f"path facts: {len(payload['paths'])}")
    paths = _between(lines, f"path facts: {len(payload['paths'])}",
                     f"rule firings: {len(payload['trace'])}")
    assert all(line.startswith("  ") and " |>^{" in line for line in mediate)
    assert all(line.startswith("  ") and " <>^{" in line for line in paths)
    shown = [line.strip() for line in mediate] + [line.split("  via ")[0].strip() for line in paths]
    assert sorted(shown) == sorted(record["conclusion"] for record in payload["trace"])
    # weaken: the rule trace concludes each examined fact once.
    argv = ["weaken", "--graph", str(graph_file), "--judgment", str(judgment),
            "--attr", f"{variable}=x"]
    _, out, _ = run(capsys, argv)
    payload = json.loads(out)
    _, text, _ = run(capsys, [*argv, "--format", "text"])
    facts = [line for line in text.splitlines() if line.startswith("  fact ")]
    assert len(facts) == len(payload["facts"]) > 0
    shown = [line.removeprefix("  fact ").partition(": ")[0] for line in facts]
    assert sorted(shown) == sorted(record["conclusion"] for record in payload["ruleTrace"])


def test_text_format_oracle(capsys):
    code, out, err = run(capsys, ["oracle", "--max-nodes", "3", "--format", "text"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "discrepancies: 0" in lines
    assert "passed: yes" in lines


# --- determinism ---------------------------------------------------------------------


def test_repeat_runs_are_byte_identical(capsys, data_dir):
    argv = ["paths", "--graph", str(data_dir / "loan.cg")]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_seeded_oracle_is_deterministic(capsys):
    argv = ["oracle", "--trials", "5", "--max-nodes", "5", "--seed", "3"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["mode"] == "random"
    assert payload["trials"] == 5
    assert payload["seed"] == 3


# --- fuzzing --------------------------------------------------------------------------

NAMES = ("A", "B", "C", "t", "a1", "Zz")
VALUES = ("x", "y", "v11", "x+y", "x^~")


@st.composite
def _or_bytes(draw, text):
    """Well-formed file text four times in five, arbitrary bytes otherwise."""
    if draw(st.sampled_from((True, True, True, True, False))):
        return draw(text).encode("utf-8")
    return draw(st.binary(max_size=40))


_name = st.sampled_from(NAMES)
_value = st.sampled_from(VALUES)
# A command-line byte that is not UTF-8 arrives as a lone surrogate.  Only
# argv draws it: the file texts stay UTF-8, as _or_bytes encodes them.
_argv_value = st.sampled_from((*VALUES, "x\udcff"))
_attribution = st.builds("{}={}".format, _name, _argv_value)


def _context(values):
    return st.dictionaries(_name, values, max_size=3).map(
        lambda d: ", ".join(f"{k}={v}" for k, v in d.items())
    )


_context_text = _context(_value)
# Every name is a node and edges follow the order of NAMES, so the text
# parses to a DAG; malformed graphs come from the bytes branch.
_edge = st.tuples(_name, _name).filter(lambda e: e[0] != e[1])
_graph_text = st.lists(
    _edge.map(lambda e: tuple(sorted(e, key=NAMES.index))), max_size=6, unique=True
).map(lambda edges: "\n".join([*(f"node {n}" for n in NAMES), *(f"{a} -> {b}" for a, b in edges)]))
_judgment_text = st.builds(
    "{} => {} @ {}".format,
    _context_text,
    st.builds("{}={}".format, _name, st.sampled_from(("x", "y"))),
    st.sampled_from(("0.6", "3/5", "1", "0", "2", "1/0")),
)
_csv_text = st.lists(
    st.lists(st.sampled_from(("x", "y", "v11")), min_size=len(NAMES), max_size=len(NAMES)),
    min_size=1,
    max_size=8,
).map(lambda rows: "\n".join(",".join(row) for row in [NAMES, *rows]) + "\n")

_COMMON = {
    "--format": st.just("json"),
    "--fact-budget": st.sampled_from(("100000", "1000", "40", "1", "0", "-1", "x")),
}
_AUDIT = {
    **_COMMON,
    "--graph": st.just("g.cg"),
    "--dataset": st.just("d.csv"),
    "--context": st.just("c.ctx"),
    "--context-inline": _context(_argv_value),
    "--epsilon": st.sampled_from(("0", "1/20", "0.05", "1/3", "1e-3", "-1", "1/0", "nan")),
}
# Per subcommand: the flags always given, then the flags given half the time.
# The oracle always gets a --max-nodes of at most 4, so a sweep stays small.
FLAGS = {
    "paths": ({"--graph": st.just("g.cg")}, _COMMON),
    "weaken": (
        {"--graph": st.just("g.cg"), "--judgment": st.just("j.jdg"), "--attr": _attribution},
        _COMMON,
    ),
    "if": ({"--target": _name, "--protected": _name}, _AUDIT),
    "intersect": (
        {"--target": _name, "--protected": st.lists(_name, min_size=1, max_size=3).map(",".join)},
        {**_AUDIT, "--subset-cap": st.sampled_from(("12", "2", "1", "0"))},
    ),
    "oracle": (
        {"--max-nodes": st.sampled_from(("4", "3", "2", "1", "0", "-1"))},
        {
            **_COMMON,
            "--trials": st.sampled_from(("1", "2", "0", "-1")),
            "--seed": st.sampled_from(("0", "1", "-3")),
            "--edge-prob": st.sampled_from(("0.5", "0", "1", "nan", "2")),
        },
    ),
    "demo-table1": ({}, _COMMON),
}


@st.composite
def _invocations(draw):
    subcommand = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[subcommand]
    argv = [subcommand]
    for flag, values in required.items():
        argv += [flag, draw(values)]
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    files = {
        "g.cg": draw(_or_bytes(_graph_text)),
        "j.jdg": draw(_or_bytes(_judgment_text)),
        "c.ctx": draw(_or_bytes(_context_text)),
        "d.csv": draw(_or_bytes(_csv_text)),
    }
    return argv, files


@settings(max_examples=150, deadline=None)
@given(_invocations())
# An admissible weakening whose new value is not UTF-8.
@example((
    ["weaken", "--graph", "g.cg", "--judgment", "j.jdg", "--attr", "A=x\udcff"],
    {"g.cg": b"node A\nnode B\n", "j.jdg": b" => B=x @ 1/2\n"},
))
def test_fuzzed_invocations_keep_the_exit_code_contract(tmp_path_factory, invocation):
    argv, files = invocation
    workdir = tmp_path_factory.mktemp("fuzz")
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    argv = [str(workdir / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        out = out.getvalue()
        out.encode("utf-8")
        payload = json.loads(out)
        validate(payload, f"{argv[0]}.schema.json")
        assert out == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
