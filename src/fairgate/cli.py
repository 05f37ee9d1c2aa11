"""Command-line front end.

Subcommands: paths, weaken, if, intersect, oracle, demo-table1.
Exit codes: 0 pass/admissible, 1 fail/inadmissible, 2 input error,
3 resource limit, 4 internal error.  Reports go to standard output
(JSON by default), error text to standard error.  JSON output is
byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from .closure import close, closure_dump, resolve_fact_budget
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


def _single_attribute(text: str) -> str:
    if "," in text:
        raise InputError("if takes a single protected attribute; use intersect for sets")
    return text


def render_json(value) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, byte for byte.

    With ``indent`` the stdlib leaves its C encoder and runs one Python
    generator per nesting level; this writes the same text into one list
    of pieces, joined once.  Strings go through the stdlib's own
    ``encode_basestring`` and other scalars through ``json.dumps``, so
    numbers print as the stdlib prints them and an unsupported type
    raises ``TypeError``.  Dict keys must be ``str``.
    """
    pieces = []
    put = pieces.append

    def emit(o, newline):
        if isinstance(o, str):
            put(encode_basestring(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for key, item in o.items():
                put(separator + encode_basestring(key) + ": ")
                emit(item, inner)
                separator = "," + inner
            put(newline + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = newline + "  "
            if all(isinstance(item, str) for item in o):
                put("[" + inner + ("," + inner).join(map(encode_basestring, o)) + newline + "]")
                return
            separator = "[" + inner
            for item in o:
                put(separator)
                emit(item, inner)
                separator = "," + inner
            put(newline + "]")
        else:
            put(json.dumps(o))

    emit(value, "\n")
    return "".join(pieces)


def _frac_text(s: str) -> str:
    return f"{s} (~{float(Fraction(s)):.4f})"


# --- paths -----------------------------------------------------------------


def _paths_text(payload: dict) -> str:
    lines = [f"mediate facts: {len(payload['mediate'])}"]
    for m in payload["mediate"]:
        joined = ",".join(m["intermediates"])
        lines.append(f"  {m['source']} |>^{{{joined}}} {m['target']}")
    lines.append(f"path facts: {len(payload['paths'])}")
    for p in payload["paths"]:
        sets = ",".join("{" + ",".join(s) + "}" for s in p["colliderSets"])
        lines.append(
            f"  {p['left']} <>^{{{','.join(p['noncolliders'])}}}_{{{sets}}} {p['right']}"
            f"  via {'-'.join(p['certifyingPath'])}"
        )
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
        sets = ",".join("{" + ",".join(s) + "}" for s in f["colliderSets"])
        lines.append(
            f"  fact {f['endpoints'][0]} <>^{{{','.join(f['noncolliders'])}}}_{{{sets}}}"
            f" {f['endpoints'][1]}: {status}"
        )
    if "weakened" in payload and payload["weakened"] is not None:
        lines.append(f"weakened judgment: {payload['weakened']}")
    return "\n".join(lines)


def _cmd_weaken(args) -> tuple[dict, bool]:
    g = load_graph(args.graph)
    judgment = load_judgment(args.judgment, g)
    attr = parse_attribution(args.attr, g)
    check_variables(g, attr.variable, judgment.target, judgment.context.variables())
    verdict = check_weakening(close(g, fact_budget=args.fact_budget), judgment, attr)
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
    """Closure, dataset and context of ``if`` or ``intersect``.  ``--mode`` is
    checked against the inputs before any file is read; every file given is
    read and checked, then the input ``--mode`` leaves out is dropped, and
    the request is checked before the graph is closed."""
    if args.context and args.context_inline:
        raise InputError("pass either --context or --context-inline, not both")
    if args.mode in ("graphical", "both") and not args.graph:
        raise InputError("graphical mode requires a graph")
    if args.mode in ("empirical", "both") and not args.dataset:
        raise InputError("empirical mode requires a dataset")
    g = load_graph(args.graph) if args.graph else None
    dataset = Dataset.from_csv(args.dataset, args.target) if args.dataset else None
    if args.context:
        ctx = load_context(args.context, g)
    else:
        ctx = parse_context(args.context_inline, g)
    if args.mode == "empirical":
        g = None
    elif args.mode == "graphical":
        dataset = None
    check_audit(g, dataset, ctx, args.target, protected, subset_cap)
    closure = None if g is None else close(g, fact_budget=args.fact_budget)
    return closure, dataset, ctx


def _cmd_if(args) -> tuple[dict, bool]:
    closure, dataset, ctx = _audit_inputs(args, [args.protected])
    result = check_if(closure, dataset, ctx, args.target, args.protected, epsilon=args.epsilon)
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
    protected = [p.strip() for p in args.protected.split(",") if p.strip()]
    closure, dataset, ctx = _audit_inputs(args, protected, args.subset_cap)
    report = check_intersectionality(
        closure, dataset, ctx, args.target, protected,
        epsilon=args.epsilon, subset_cap=args.subset_cap,
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
                " (the exhaustive sweep canonicalizes all 2^(n(n-1)/2) edge masks:"
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


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format (default: json)")
    common.add_argument("--fact-budget", type=_typed(int, resolve_fact_budget), default=None,
                        help="cap on derived facts (default 10^6; FAIRGATE_FACT_BUDGET overrides)")

    audit = argparse.ArgumentParser(add_help=False)
    audit.add_argument("--graph", help="causal graph file (.cg)")
    audit.add_argument("--dataset", help="CSV dataset with a header row")
    audit.add_argument("--context", help="context file (.ctx), one Var=value list")
    audit.add_argument("--context-inline", default="",
                       help="context given directly, e.g. 'Age=27, GAI=40K'")
    audit.add_argument("--target", required=True, help="target variable / column")
    audit.add_argument("--epsilon", type=_parse_epsilon, default=Fraction(0),
                       help="tolerance as a rational (default 0)")
    audit.add_argument("--mode", choices=("graphical", "empirical", "both"), default=None,
                       help="default: both when graph and dataset are given")

    parser = argparse.ArgumentParser(
        prog="fairgate",
        description="Causal-graph fairness checks with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("paths", parents=[common], help="derive and dump all mediate and path facts")
    p.add_argument("--graph", required=True, help="causal graph file (.cg)")
    p.set_defaults(handler=_cmd_paths, text=_paths_text)

    p = sub.add_parser("weaken", parents=[common], help="check one judgment weakening")
    p.add_argument("--graph", required=True, help="causal graph file (.cg)")
    p.add_argument("--judgment", required=True, help="judgment file (.jdg)")
    p.add_argument("--attr", required=True, help="new attribution, e.g. MS=married")
    p.set_defaults(handler=_cmd_weaken, text=_weaken_text)

    p = sub.add_parser("if", parents=[common, audit],
                       help="individual-fairness check for one attribute")
    p.add_argument("--protected", type=_single_attribute, required=True, help="protected attribute")
    p.set_defaults(handler=_cmd_if, text=_if_text)

    p = sub.add_parser("intersect", parents=[common, audit],
                       help="intersectional check over attribute subsets")
    p.add_argument("--protected", required=True, help="comma-separated protected attributes")
    p.add_argument("--subset-cap", type=_at_least_one("--subset-cap"), default=DEFAULT_SUBSET_CAP,
                   help=f"max protected attributes (default {DEFAULT_SUBSET_CAP})")
    p.set_defaults(handler=_cmd_intersect, text=_intersect_text)

    p = sub.add_parser("oracle", parents=[common],
                       help="rule closure vs d-separation agreement sweep")
    p.add_argument("--trials", type=_at_least_one("--trials"), default=None,
                   help="random graphs to test; omit for the exhaustive sweep")
    p.add_argument("--max-nodes", type=_at_least_one("--max-nodes"), default=None,
                   help=f"node cap (default {DEFAULT_EXHAUSTIVE_NODES} exhaustive,"
                        f" {DEFAULT_RANDOM_NODES} random)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed for random sweeps (default {DEFAULT_SEED}; needs --trials)")
    p.add_argument("--edge-prob", type=_typed(float, _unit_interval), default=None,
                   help=f"edge probability for random graphs (default {DEFAULT_EDGE_PROB};"
                        " needs --trials)")
    p.set_defaults(handler=_cmd_oracle, text=_oracle_text)

    p = sub.add_parser("demo-table1", parents=[common],
                       help="generate the two-attribute counterexample")
    p.set_defaults(handler=_cmd_demo_table1, text=_demo_text)

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        payload, passed = args.handler(args)
        print(render_json(payload) if args.format == "json" else args.text(payload))
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
