"""Command-line front end.

Subcommands: paths, weaken, if, intersect, oracle, demo-table1.
Exit codes: 0 pass/admissible, 1 fail/inadmissible, 2 input error,
3 resource limit, 4 internal error.  Reports go to standard output
(JSON by default), error text to standard error.  JSON output is
byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import codecs
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from types import SimpleNamespace
from typing import NamedTuple

from .closure import close, closure_dump, mediate_text, path_fact_text, resolve_fact_budget
from .errors import InputError, ResourceLimit
from .fairness import (
    DEFAULT_SUBSET_CAP,
    check_audit,
    check_if,
    check_intersectionality,
    empirical_probability,
    fairness_report_to_json,
    fraction_str,
    generate_table1,
    if_result_to_json,
    Dataset,
    Value,
)
from .graph import load_graph
from .judgments import (
    MAX_RATIONAL_DIGITS,
    Context,
    load_context,
    load_judgment,
    parse_attribution,
    parse_context,
    serialize_judgment,
)
from .sweep import (
    DEFAULT_EDGE_PROB,
    DEFAULT_EXHAUSTIVE_NODES,
    DEFAULT_RANDOM_NODES,
    DEFAULT_SEED,
    EXHAUSTIVE_MAX_NODES,
    RANDOM_MAX_NODES,
    RANDOM_MIN_NODES,
    exhaustive_sweep,
    random_sweep,
    sweep_report_to_json,
)
from .weakening import apply_weakening, check_variables, check_weakening, verdict_to_json

__all__ = ["main"]


# Bound on the --epsilon exponent, checked before Fraction() is built
# (along with MAX_RATIONAL_DIGITS): a 1e-5000 would print a denominator
# past Python's int-to-str digit limit, and 1e-10000000 alone takes
# seconds to parse.
EPSILON_MAX_EXPONENT = 100


def _parse_epsilon(text: str) -> Fraction:
    if sum(ch.isdigit() for ch in text) > MAX_RATIONAL_DIGITS:
        raise InputError(f"epsilon may have at most {MAX_RATIONAL_DIGITS} digits")
    _, has_exponent, exponent = text.lower().partition("e")
    try:
        if has_exponent and abs(int(exponent)) > EPSILON_MAX_EXPONENT:
            raise InputError(f"epsilon exponent must be within ±{EPSILON_MAX_EXPONENT}, got {text}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"epsilon must be a rational like 1/20 or 0.05, got {text!r}") from None
    if value < 0:
        raise InputError(f"epsilon must be nonnegative, got {text}")
    return value


def _typed(convert, check):
    """``convert``, then ``check``, as an argparse ``type``.  It is named after
    ``convert``, so a text ``convert`` refuses still reads "invalid int value: 'x'"."""

    def parse(text):
        value = convert(text)
        check(value)
        return value

    parse.__name__ = convert.__name__
    return parse


def _at_least_one(flag: str):
    def check(value: int) -> None:
        if value < 1:
            raise InputError(f"{flag} must be at least 1, got {value}")

    return _typed(int, check)


def _unit_interval(value: float) -> None:
    # NaN fails both comparisons, infinities the range.
    if not 0 <= value <= 1:
        raise InputError(f"--edge-prob must be a number in [0, 1], got {value}")


def _protected_names(text: str) -> list[str]:
    """``--protected``: comma-separated names, each stripped; at least one."""
    names = [name for name in map(str.strip, text.split(",")) if name]
    if not names:
        raise InputError("at least one protected attribute is required")
    return names


def _single_attribute(text: str) -> str:
    if "," in text:
        raise InputError("if takes a single protected attribute; use intersect for sets")
    (name,) = _protected_names(text)
    return name


_is_str = str.__instancecheck__


def _json_pieces(value) -> list[str]:
    """The text of ``json.dumps(value, indent=2, ensure_ascii=False)``, byte
    for byte, as a list of pieces, in order: the one JSON emitter.

    With ``indent`` the stdlib leaves its C encoder and runs one Python
    generator per nesting level; this writes the same text into one list
    of pieces.  Strings go through the stdlib's own ``encode_basestring``
    and other scalars through ``json.dumps``, so numbers print as the
    stdlib prints them and an unsupported type raises ``TypeError``.  Dict
    keys must be ``str``.

    A list object met again at the same depth (a report shares its
    repeated verdict parts) is not rendered again: its first repeat joins
    the pieces of its first rendering into one string, and that repeat and
    every later one append that same string object, so the pieces hold
    each repeated list's text once.  A list met at another depth is
    rendered again.  Every object met is reachable from ``value``, so no
    id seen here is reused during the call.  A dict met again is rendered
    again: a memo for dicts costs more than it saves on the reports this
    renders.
    """
    pieces = []
    put = pieces.append
    # (id(list), newline) -> its text once joined, or the (first piece, end
    # piece) of its first rendering until then.
    seen = {}

    def emit(o, newline):
        if isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for key, item in o.items():
                head = separator + encode_basestring(key) + ": "
                if type(item) is str:
                    put(head + encode_basestring(item))
                elif item is None:
                    put(head + "null")
                elif item is True:
                    put(head + "true")
                elif item is False:
                    put(head + "false")
                else:
                    put(head)
                    emit(item, inner)
                separator = "," + inner
            put(newline + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = newline + "  "
            if all(map(_is_str, o)):
                put("[" + inner + ("," + inner).join(map(encode_basestring, o)) + newline + "]")
                return
            key = (id(o), newline)
            known = seen.get(key)
            if known is not None:
                if type(known) is tuple:
                    known = seen[key] = "".join(pieces[known[0]:known[1]])
                put(known)
                return
            start = len(pieces)
            separator = "[" + inner
            for item in o:
                put(separator)
                emit(item, inner)
                separator = "," + inner
            put(newline + "]")
            seen[key] = (start, len(pieces))
        elif isinstance(o, str):
            put(encode_basestring(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        else:
            put(json.dumps(o))

    emit(value, "\n")
    return pieces


def _frac_text(s: str) -> str:
    return f"{s} (~{float(Fraction(s)):.4f})"


# --- paths -----------------------------------------------------------------


def _paths_text(payload: dict) -> str:
    lines = [f"mediate facts: {len(payload['mediate'])}"]
    for m in payload["mediate"]:
        lines.append("  " + mediate_text(m["source"], m["target"], m["intermediates"]))
    lines.append(f"path facts: {len(payload['paths'])}")
    for p in payload["paths"]:
        text = path_fact_text(p["left"], p["right"], p["noncolliders"], p["colliderSets"])
        lines.append(f"  {text}  via {'-'.join(p['certifyingPath'])}")
    lines.append(f"rule firings: {len(payload['trace'])}")
    return "\n".join(lines)


def _cmd_paths(args) -> tuple[dict, bool]:
    g = load_graph(args.graph)
    closure = close(g, fact_budget=args.fact_budget)
    return closure_dump(closure), True


# --- weaken ----------------------------------------------------------------


def _weaken_text(payload: dict) -> str:
    lines = [
        f"subject: {payload['subject']}",
        f"target: {payload['target']}",
        f"context: {', '.join(payload['context']) or '(empty)'}",
        f"admissible: {'yes' if payload['admissible'] else 'no'}",
    ]
    if payload["failedCondition"]:
        lines.append(f"failed: {payload['failedCondition']}")
    w = payload["witness"]
    if w is not None:
        if w["kind"] == "edge":
            lines.append(f"witness: edge {w['source']} -> {w['target']}")
        else:
            lines.append(f"witness: open path fact between {w['endpoints'][0]} and {w['endpoints'][1]}")
    for f in payload["facts"]:
        reason = f["blockedBy"]
        if reason is None:
            status = "OPEN"
        else:
            status = f"blocked by {reason['kind']} {{{','.join(reason['nodes'])}}}"
        text = path_fact_text(*f["endpoints"], f["noncolliders"], f["colliderSets"])
        lines.append(f"  fact {text}: {status}")
    if "weakened" in payload and payload["weakened"] is not None:
        lines.append(f"weakened judgment: {payload['weakened']}")
    return "\n".join(lines)


def _cmd_weaken(args) -> tuple[dict, bool]:
    g = load_graph(args.graph)
    judgment = load_judgment(args.judgment, g)
    attr = parse_attribution(args.attr, g)
    check_variables(g, attr.variable, judgment.target, judgment.context.variables())
    closure = close(g, fact_budget=args.fact_budget, pairs=[(attr.variable, judgment.target)])
    verdict = check_weakening(closure, judgment, attr)
    payload = verdict_to_json(verdict)
    if verdict.admissible:
        payload["weakened"] = serialize_judgment(apply_weakening(judgment, attr, verdict))
    else:
        payload["weakened"] = None
    return payload, verdict.admissible


# --- if --------------------------------------------------------------------


def _if_text(payload: dict) -> str:
    lines = [
        f"protected: {payload['protected']}",
        f"target: {payload['target']}",
        f"context: {', '.join(payload['context']) or '(empty)'}",
        f"mode: {payload['mode']}",
        f"passed: {'yes' if payload['passed'] else 'no'}",
    ]
    if payload["graphical"] is not None:
        v = payload["graphical"]
        state = "admissible" if v["admissible"] else f"inadmissible ({v['failedCondition']})"
        lines.append(f"graphical: {state}")
    if payload["empirical"] is not None:
        ci = payload["empirical"]
        lines.append(
            f"empirical: {'pass' if ci['passed'] else 'fail'},"
            f" max delta {_frac_text(ci['maxDelta'])} at epsilon {ci['epsilon']}"
        )
        if ci["witness"] is not None:
            lines.append(
                f"  witness: value {ci['witness']['value']}, outcome {ci['witness']['outcome']}"
            )
    if payload["agreement"] is not None:
        lines.append(f"routes agree: {'yes' if payload['agreement'] else 'no'}")
    return "\n".join(lines)


def _audit_inputs(args, protected, subset_cap=DEFAULT_SUBSET_CAP):
    """Closure, dataset, context and epsilon of ``if`` or ``intersect``: the
    inputs given are the routes run, and only a dataset reads an epsilon.
    Every file given is read and checked, and the request is checked before
    the graph is closed, for the (protected, target) pairs the verdicts read."""
    if args.context is not None and args.context_inline:
        raise InputError("pass either --context or --context-inline, not both")
    if args.epsilon is not None and args.dataset is None:
        raise InputError("--epsilon needs --dataset (only the empirical check has a tolerance)")
    g = None if args.graph is None else load_graph(args.graph)
    dataset = None if args.dataset is None else Dataset.from_csv(args.dataset, args.target)
    if args.context is not None:
        ctx = load_context(args.context, g)
    else:
        ctx = parse_context(args.context_inline, g)
    check_audit(g, dataset, ctx, args.target, protected, subset_cap)
    closure = None
    if g is not None:
        pairs = [(p, args.target) for p in protected]
        closure = close(g, fact_budget=args.fact_budget, pairs=pairs)
    return closure, dataset, ctx, args.epsilon or Fraction(0)


def _cmd_if(args) -> tuple[dict, bool]:
    closure, dataset, ctx, epsilon = _audit_inputs(args, [args.protected])
    result = check_if(closure, dataset, ctx, args.target, args.protected, epsilon=epsilon)
    return if_result_to_json(result), result.passed


# --- intersect ---------------------------------------------------------------


def _intersect_text(payload: dict) -> str:
    lines = [
        f"protected set: {', '.join(payload['protectedAttrs'])}",
        f"target: {payload['target']}",
        f"context: {', '.join(payload['context']) or '(empty)'}",
        f"mode: {payload['mode']}, threshold {payload['threshold']}",
        f"passed: {'yes' if payload['passed'] else 'no'}",
    ]
    if payload["maxDelta"] is not None:
        lines.append(f"max delta: {_frac_text(payload['maxDelta'])}")
    for s in payload["subsets"]:
        lines.append(f"subset {{{', '.join(s['subset'])}}}: {'pass' if s['passed'] else 'FAIL'}")
        for d in s["decompositions"]:
            rest = ", ".join(d["rest"]) or "(none)"
            detail = []
            if d["graphical"] is not None:
                detail.append(
                    "graphical "
                    + ("admissible" if d["graphical"]["admissible"] else "inadmissible")
                )
            if d["maxDelta"] is not None:
                detail.append(f"max delta {d['maxDelta']}")
            lines.append(
                f"  test {d['attr']} given rest {{{rest}}}:"
                f" {'pass' if d['passed'] else 'FAIL'} ({'; '.join(detail)})"
            )
    return "\n".join(lines)


def _cmd_intersect(args) -> tuple[dict, bool]:
    closure, dataset, ctx, epsilon = _audit_inputs(args, args.protected, args.subset_cap)
    report = check_intersectionality(
        closure, dataset, ctx, args.target, args.protected,
        epsilon=epsilon, subset_cap=args.subset_cap,
    )
    return fairness_report_to_json(report), report.passed


# --- oracle ------------------------------------------------------------------


def _oracle_text(payload: dict) -> str:
    lines = [
        f"mode: {payload['mode']}",
        f"graphs checked: {payload['graphsChecked']}",
        f"checks run: {payload['checksRun']}",
        f"discrepancies: {len(payload['discrepancies'])}",
        f"passed: {'yes' if payload['passed'] else 'no'}",
    ]
    for d in payload["discrepancies"]:
        edges = ", ".join("->".join(e) for e in d["edges"])
        lines.append(
            f"  DISAGREE on [{edges}] x={d['x']} y={d['y']}"
            f" given {{{','.join(d['conditioning'])}}}:"
            f" rules={d['byRules']} oracle={d['byOracle']}"
        )
    return "\n".join(lines)


def _cmd_oracle(args) -> tuple[dict, bool]:
    if args.trials is None:
        max_nodes = DEFAULT_EXHAUSTIVE_NODES if args.max_nodes is None else args.max_nodes
        if max_nodes > EXHAUSTIVE_MAX_NODES:
            raise InputError(
                f"--max-nodes must be at most {EXHAUSTIVE_MAX_NODES} without --trials"
                " (the exhaustive sweep scans all 2^(n(n-1)/2) edge masks:"
                f" 243,668 classes at n=7), got {max_nodes}"
            )
        for flag, given in (("--seed", args.seed), ("--edge-prob", args.edge_prob)):
            if given is not None:
                raise InputError(f"{flag} needs --trials (the exhaustive sweep draws no random graphs)")
        report = exhaustive_sweep(max_nodes=max_nodes, fact_budget=args.fact_budget)
    else:
        max_nodes = DEFAULT_RANDOM_NODES if args.max_nodes is None else args.max_nodes
        if not RANDOM_MIN_NODES <= max_nodes <= RANDOM_MAX_NODES:
            raise InputError(
                f"--max-nodes must be at least {RANDOM_MIN_NODES} with --trials and at most"
                f" {RANDOM_MAX_NODES} (random graphs have {RANDOM_MIN_NODES} or more nodes, and"
                f" each node pair is checked under all 2^(n-2) conditioning sets), got {max_nodes}"
            )
        report = random_sweep(
            trials=args.trials,
            max_nodes=max_nodes,
            seed=DEFAULT_SEED if args.seed is None else args.seed,
            edge_prob=DEFAULT_EDGE_PROB if args.edge_prob is None else args.edge_prob,
            fact_budget=args.fact_budget,
        )
    return sweep_report_to_json(report), report.passed


# --- demo-table1 -------------------------------------------------------------


def _demo_text(payload: dict) -> str:
    lines = [
        f"rows: {payload['rowCount']}",
        "joint cells P(t=β | a1, a2):",
    ]
    for cell in payload["cells"]:
        lines.append(f"  a1={cell['a1']}, a2={cell['a2']}: {_frac_text(cell['probability'])}")
    lines.append("marginals P(t=β | one attribute):")
    for m in payload["marginals"]:
        lines.append(f"  {m['attr']}={m['value']}: {_frac_text(m['probability'])}")
    lines.append(f"overall P(t=β): {_frac_text(payload['overall'])}")
    lines.append(_intersect_text(payload["intersectionality"]))
    return "\n".join(lines)


def _cmd_demo_table1(args) -> tuple[dict, bool]:
    dataset = generate_table1()
    beta = Value.atomic("β")
    cells = []
    for a1, a2 in (("v11", "v21"), ("v11", "v22"), ("v12", "v21"), ("v12", "v22")):
        ctx = parse_context(f"a1={a1}, a2={a2}", None)
        cells.append(
            {"a1": a1, "a2": a2, "probability": fraction_str(empirical_probability(dataset, ctx, beta))}
        )
    marginals = []
    for attr, values in (("a1", ("v11", "v12")), ("a2", ("v21", "v22"))):
        for value in values:
            ctx = parse_context(f"{attr}={value}", None)
            marginals.append(
                {
                    "attr": attr,
                    "value": value,
                    "probability": fraction_str(empirical_probability(dataset, ctx, beta)),
                }
            )
    overall = fraction_str(empirical_probability(dataset, Context(()), beta))
    report = check_intersectionality(None, dataset, Context(()), "t", ["a1", "a2"])
    payload = {
        "rowCount": len(dataset.rows),
        "target": "t",
        "cells": cells,
        "marginals": marginals,
        "overall": overall,
        "intersectionality": fairness_report_to_json(report),
    }
    return payload, report.passed


# --- command line ------------------------------------------------------------


class Flag(NamedTuple):
    """One flag of a subcommand: the keywords argparse's ``add_argument`` gets."""

    dest: str
    type: object = None  # converter from the flag's text; None keeps the text
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None


class Command(NamedTuple):
    """One subcommand: its handler, text renderer, help and flags in order."""

    handler: object
    text: object
    help: str
    flags: dict[str, Flag]


_COMMON = {
    "--format": Flag("format", default="json", help="output format (default: json)",
                     choices=("json", "text")),
    "--fact-budget": Flag("fact_budget", _typed(int, resolve_fact_budget),
                          help="cap on derived facts (default 10^6; FAIRGATE_FACT_BUDGET overrides)"),
}

_GRAPH = Flag("graph", required=True, help="causal graph file (.cg)")

_AUDIT = {
    **_COMMON,
    "--graph": _GRAPH._replace(required=False),
    "--dataset": Flag("dataset", help="CSV dataset with a header row"),
    "--context": Flag("context", help="context file (.ctx), one Var=value list"),
    "--context-inline": Flag("context_inline", default="",
                             help="context given directly, e.g. 'Age=27, GAI=40K'"),
    "--target": Flag("target", required=True, help="target variable / column"),
    "--epsilon": Flag("epsilon", _parse_epsilon,
                      help="tolerance as a rational (default 0; needs --dataset)"),
}

# Every subcommand and its flags, in the order argparse lists them.
COMMANDS = {
    "paths": Command(
        _cmd_paths, _paths_text, "derive and dump all mediate and path facts",
        {**_COMMON, "--graph": _GRAPH},
    ),
    "weaken": Command(
        _cmd_weaken, _weaken_text, "check one judgment weakening",
        {
            **_COMMON,
            "--graph": _GRAPH,
            "--judgment": Flag("judgment", required=True, help="judgment file (.jdg)"),
            "--attr": Flag("attr", required=True, help="new attribution, e.g. MS=married"),
        },
    ),
    "if": Command(
        _cmd_if, _if_text, "individual-fairness check for one attribute",
        {
            **_AUDIT,
            "--protected": Flag("protected", _single_attribute, required=True,
                                help="protected attribute"),
        },
    ),
    "intersect": Command(
        _cmd_intersect, _intersect_text, "intersectional check over attribute subsets",
        {
            **_AUDIT,
            "--protected": Flag("protected", _protected_names, required=True,
                                help="comma-separated protected attributes"),
            "--subset-cap": Flag("subset_cap", _at_least_one("--subset-cap"), DEFAULT_SUBSET_CAP,
                                 help=f"max protected attributes (default {DEFAULT_SUBSET_CAP})"),
        },
    ),
    "oracle": Command(
        _cmd_oracle, _oracle_text, "rule closure vs d-separation agreement sweep",
        {
            **_COMMON,
            "--trials": Flag("trials", _at_least_one("--trials"),
                             help="random graphs to test; omit for the exhaustive sweep"),
            "--max-nodes": Flag("max_nodes", _at_least_one("--max-nodes"),
                                help=f"node cap (default {DEFAULT_EXHAUSTIVE_NODES} exhaustive,"
                                     f" {DEFAULT_RANDOM_NODES} random)"),
            "--seed": Flag("seed", int, help="RNG seed for random sweeps"
                                             f" (default {DEFAULT_SEED}; needs --trials)"),
            "--edge-prob": Flag("edge_prob", _typed(float, _unit_interval),
                                help="edge probability for random graphs"
                                     f" (default {DEFAULT_EDGE_PROB}; needs --trials)"),
        },
    ),
    "demo-table1": Command(
        _cmd_demo_table1, _demo_text, "generate the two-attribute counterexample", _COMMON,
    ),
}


def read_command_line(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives, read from ``COMMANDS``,
    or None when ``argv`` is not of the one shape read here.

    That shape is ``SUBCOMMAND (--flag VALUE)*``: every flag declared for
    the subcommand and spelled in full, every value present and not
    starting with "-", every value of a flag with choices one of them, and
    every required flag given.  The whole line is checked before any value
    is converted, as argparse classifies every token before it converts
    any.  Values are then converted left to right by the flags' converters,
    and a repeated flag keeps its last value.  An ``InputError`` from a
    converter propagates, as it does through argparse; a ``ValueError`` or
    ``TypeError`` returns None, so that argparse words the usage error.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    flags = command.flags
    names, texts = argv[1::2], argv[2::2]
    for name, text in zip(names, texts):
        flag = flags.get(name)
        if flag is None or text.startswith("-") or flag.choices and text not in flag.choices:
            return None
    if any(flag.required and name not in names for name, flag in flags.items()):
        return None
    values = {flag.dest: flag.default for flag in flags.values()}
    try:
        for name, text in zip(names, texts):
            flag = flags[name]
            values[flag.dest] = text if flag.type is None else flag.type(text)
    except (ValueError, TypeError):
        return None
    return SimpleNamespace(subcommand=argv[0], **values, handler=command.handler, text=command.text)


def build_parser():
    """The argparse parser of ``COMMANDS``.  It answers every command line
    ``read_command_line`` declines: help, usage errors and the forms argparse
    reads besides (abbreviated flags, ``--flag=value``, negative numbers)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fairgate",
        description="Causal-graph fairness checks with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in command.flags.items():
            p.add_argument(flag, **keywords._asdict())
        p.set_defaults(handler=command.handler, text=command.text)
    return parser


# Pieces of a JSON report joined per write to standard output.
WRITE_CHUNK_PIECES = 1024


def _write_pieces(pieces: list[str]) -> None:
    """Write the pieces and a final newline to standard output, joining
    ``WRITE_CHUNK_PIECES`` at a time, so no copy of the whole text is made.

    A stream that does not encode UTF-8 may refuse some text (a name
    outside its charset), so there every chunk is encoded once before any
    is written: a refused report leaves nothing on standard output.
    """
    stream = sys.stdout
    step = WRITE_CHUNK_PIECES
    starts = range(0, len(pieces), step)
    encoding = getattr(stream, "encoding", None)
    if encoding and codecs.lookup(encoding).name != "utf-8":
        errors = getattr(stream, "errors", None) or "strict"
        for start in starts:
            "".join(pieces[start:start + step]).encode(encoding, errors)
    for start in starts:
        stream.write("".join(pieces[start:start + step]))
    stream.write("\n")


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = read_command_line(argv)
        if args is None:
            args = build_parser().parse_args(argv)
        payload, passed = args.handler(args)
        # A report is rendered in full before any of it is written, so a
        # crash while rendering leaves standard output empty.
        if args.format == "json":
            _write_pieces(_json_pieces(payload))
        else:
            print(args.text(payload))
        return 0 if passed else 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a verdict (0 or 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
