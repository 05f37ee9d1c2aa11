"""The flag table: ``read_command_line`` reads the well-formed command
lines from ``COMMANDS``, and ``build_parser``, built from the same table,
answers every other line with argparse's help, usage and error messages."""

import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fairgate import cli
from fairgate.cli import COMMANDS, build_parser, main, read_command_line
from fairgate.errors import InputError

from test_cli import GOLDEN_COMMANDS

SUBCOMMANDS = ("paths", "weaken", "if", "intersect", "oracle", "demo-table1")
BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


# --- what a line reads as ---------------------------------------------------------

# Per subcommand, a line of its required flags and the namespace the
# parent's argparse parser gave it, keys and defaults included.
PINNED = {
    "paths": (
        ["--graph", "g.cg"],
        {"format": "json", "fact_budget": None, "graph": "g.cg",
         "handler": cli._cmd_paths, "text": cli._paths_text},
    ),
    "weaken": (
        ["--graph", "g.cg", "--judgment", "j.jdg", "--attr", "MS=married"],
        {"format": "json", "fact_budget": None, "graph": "g.cg", "judgment": "j.jdg",
         "attr": "MS=married", "handler": cli._cmd_weaken, "text": cli._weaken_text},
    ),
    "if": (
        ["--target", "t", "--protected", " a1 "],
        {"format": "json", "fact_budget": None, "graph": None, "dataset": None, "context": None,
         "context_inline": "", "target": "t", "epsilon": None, "protected": "a1",
         "handler": cli._cmd_if, "text": cli._if_text},
    ),
    "intersect": (
        ["--target", "t", "--protected", "a1, a2"],
        {"format": "json", "fact_budget": None, "graph": None, "dataset": None, "context": None,
         "context_inline": "", "target": "t", "epsilon": None, "protected": ["a1", "a2"],
         "subset_cap": 12, "handler": cli._cmd_intersect, "text": cli._intersect_text},
    ),
    "oracle": (
        [],
        {"format": "json", "fact_budget": None, "trials": None, "max_nodes": None, "seed": None,
         "edge_prob": None, "handler": cli._cmd_oracle, "text": cli._oracle_text},
    ),
    "demo-table1": (
        [],
        {"format": "json", "fact_budget": None,
         "handler": cli._cmd_demo_table1, "text": cli._demo_text},
    ),
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_each_subcommand_reads_the_namespace_the_parents_parser_gave(subcommand):
    flags, values = PINNED[subcommand]
    argv = [subcommand, *flags]
    expected = {"subcommand": subcommand, **values}
    assert vars(read_command_line(argv)) == expected
    assert vars(build_parser().parse_args(argv)) == expected


def test_the_table_declares_the_six_subcommands_in_order():
    assert tuple(COMMANDS) == SUBCOMMANDS


# Values drawn per flag: well-formed ones and ones its converter refuses,
# with an InputError or with a ValueError that argparse words.
_VALUES = {
    "--format": ("json", "text", "xml"),
    "--fact-budget": ("1000", "1_0", "0", "x", "1.5"),
    "--epsilon": ("1/20", "0.05", "1e-3", "nan", "1/0", "1e-500", "9" * 101),
    "--protected": ("a1", "a1,a2", " a1 , a2 ", ",", "a1,,"),
    "--subset-cap": ("2", "0", "x"),
    "--trials": ("3", "0", "x"),
    "--max-nodes": ("4", "0", "2.5"),
    "--seed": ("0", "7", "1.5"),
    "--edge-prob": ("0.5", "nan", "2", "inf", "x"),
}
# Values of the flags that take any text, and of every flag sometimes.
_TEXT = ("g.cg", "t", "a=b, c=d", "paths", " -x", "x\udcff", "a b")
# Values that only argparse reads, or refuses: empty, negative numbers,
# values starting with "-", flags in a value's place.
_ODD = ("", "-1", "-3", "-x", "-", "--", "--graph", "-1e5")


@st.composite
def _items(draw, flags):
    """One item of a flag, declared or not, and a value of any kind: a pair,
    or a form that only argparse reads or refuses."""
    flag = draw(st.sampled_from(sorted(flags) + ["--bogus", "--"]))
    value = draw(st.sampled_from(_VALUES.get(flag, _TEXT) + _TEXT + _ODD))
    form = draw(st.sampled_from(("pair", "abbreviated", "equals", "bare", "help", "positional")))
    if form == "pair":
        return [flag, value]
    if form == "abbreviated":
        return [flag[:draw(st.integers(3, max(3, len(flag) - 1)))], value]
    if form == "equals":
        return [f"{flag}={value}"]
    if form == "bare":
        return [flag]
    if form == "help":
        return [draw(st.sampled_from(("-h", "--help")))]
    return [value]


@st.composite
def _argv(draw):
    """A line of the table's shape, but for the values drawn, with up to two
    items of other forms put in between its flags."""
    subcommand = draw(st.sampled_from(SUBCOMMANDS + ("bogus", "-h")))
    flags = COMMANDS[subcommand].flags if subcommand in COMMANDS else {"--graph": None}
    pairs = st.sampled_from(sorted(flags)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(_VALUES.get(flag, _TEXT)))
    )
    argv = [subcommand]
    for flag, declared in flags.items():
        # Required flags are given most of the time.
        if declared is not None and declared.required and draw(st.integers(0, 5)):
            argv += [flag, draw(st.sampled_from(_VALUES.get(flag, _TEXT)))]
    for pair in draw(st.lists(pairs, max_size=4)):
        argv += pair
    for item in draw(st.lists(_items(flags), max_size=2)):
        at = 1 + 2 * draw(st.integers(0, (len(argv) - 1) // 2))
        argv[at:at] = item
    return argv


@settings(max_examples=500, deadline=None)
@given(_argv())
@example(["paths", "--graph", "a", "--graph", "b"])
@example(["paths", "--fact-budget", "x", "--fact-budget", "0", "--graph", "g"])
@example(["paths", "--fact-budget", "0", "--fact-budget", "x", "--graph", "g"])
@example(["paths", "--fact-budget", "0", "--format", "xml", "--graph", "g"])
@example(["paths", "--fact-budget", "0", "--bogus", "x", "--graph", "g"])
@example(["paths", "--fact-budget", "0"])
@example(["paths", "--graph", ""])
@example(["paths", "--graph", "-x"])
@example(["oracle", "--seed", "-3"])
@example(["intersect", "--target", "t", "--protected", ",", "--subset-cap", "0"])
@example(["if", "--target", "t", "--protected", "a,b", "--epsilon", "x"])
def test_the_table_reads_a_line_as_argparse_does(argv):
    # The table declines the line, or it reads the namespace argparse
    # gives, or both raise the same InputError.
    try:
        ours = read_command_line(argv)
    except InputError as exc:
        with pytest.raises(InputError) as theirs:
            build_parser().parse_args(argv)
        assert (type(theirs.value), str(theirs.value)) == (type(exc), str(exc))
        return
    if ours is not None:
        assert vars(ours) == vars(build_parser().parse_args(argv))


def test_every_golden_command_is_read_from_the_table(data_dir):
    for _, argv_builder in GOLDEN_COMMANDS:
        argv = argv_builder(data_dir)
        assert read_command_line(argv) is not None, argv


@pytest.mark.parametrize("workload", ["graph-requests", "graph-intersect", "data-audit",
                                      "oracle-sweep"])
def test_every_benchmark_request_is_read_from_the_table(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from workloads import WORKLOADS

    for request in itertools.islice(WORKLOADS[workload](1, tmp_path), 40):
        assert read_command_line(request.argv) is not None, request.argv


# --- what argparse answers ----------------------------------------------------------


@pytest.mark.parametrize("argv", [["--help"], *([s, "--help"] for s in SUBCOMMANDS)],
                         ids=lambda argv: " ".join(argv))
def test_help_is_argparses(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fairgate")


@pytest.mark.parametrize("flag", [["--grap", "{}"], ["--graph={}"]], ids=["abbreviated", "equals"])
def test_argparse_reads_the_forms_the_table_declines(capsys, data_dir, golden_dir, flag):
    argv = ["paths", *(token.format(data_dir / "loan.cg") for token in flag)]
    assert read_command_line(argv) is None
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (golden_dir / "paths_loan.json").read_text(encoding="utf-8")
