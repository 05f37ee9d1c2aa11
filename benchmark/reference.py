"""Independent references that every benchmark request is checked against.

Nothing here imports fairgate: a change under ``src/`` cannot move these
answers.  Each ``check_*`` function returns a list of problems; an empty
list means the output is correct.

* ``d_separated`` is the linear-time Reachable algorithm (Koller &
  Friedman 2009, Alg. 3.1).  A graphical verdict must be admissible iff
  there is no edge either way and the pair is d-separated.
* ``ContingencyTable`` recounts empirical checks exactly with
  ``Counter`` and ``Fraction``, sum and complement contexts included.
* Oracle sweeps are checked against known counts.
* ``SchemaValidator`` interprets the schemas fairgate ships, for the
  keywords they use, and refuses any keyword it does not know.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# The exhaustive sweep over every DAG with at most 4 nodes, up to
# isomorphism: 1 + 2 + 6 + 31 graphs, and one check per (pair,
# conditioning subset) of each graph.
EXHAUSTIVE_COUNTS = {4: (40, 782)}


# --- graphs -------------------------------------------------------------------


class Dag:
    """Adjacency of a generated DAG, built from the benchmark's own edge list."""

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        self.edges = frozenset(tuple(e) for e in edges)
        self.parents = {v: [] for v in self.nodes}
        self.children = {v: [] for v in self.nodes}
        for a, b in self.edges:
            self.children[a].append(b)
            self.parents[b].append(a)

    def adjacent(self, x, y) -> bool:
        return (x, y) in self.edges or (y, x) in self.edges

    def descendants(self, x) -> set:
        seen, stack = set(), list(self.children[x])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self.children[v])
        return seen

    def directed_path_count(self) -> int:
        """Directed paths with at least one edge, summed over all start nodes."""
        memo = {}

        def from_node(v):
            if v not in memo:
                memo[v] = sum(1 + from_node(c) for c in self.children[v])
            return memo[v]

        return sum(from_node(v) for v in self.nodes)


def d_separated(dag: Dag, x: str, y: str, given) -> bool:
    """Reachable: is y unreachable from x along active trails given ``given``?"""
    z = frozenset(given)
    ancestors, stack = set(), list(z)
    while stack:
        v = stack.pop()
        if v not in ancestors:
            ancestors.add(v)
            stack.extend(dag.parents[v])
    visited = set()
    frontier = [(x, "up")]
    while frontier:
        v, direction = frontier.pop()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if v == y and v not in z:
            return False
        if direction == "up" and v not in z:
            frontier.extend((p, "up") for p in dag.parents[v])
            frontier.extend((c, "down") for c in dag.children[v])
        elif direction == "down":
            if v not in z:
                frontier.extend((c, "down") for c in dag.children[v])
            if v in ancestors:
                frontier.extend((p, "up") for p in dag.parents[v])
    return True


def _check_verdict(dag: Dag, v: dict, subject, target, context, where) -> list:
    problems = []
    if v["subject"] != subject or v["target"] != target or set(v["context"]) != set(context):
        problems.append(f"{where}: verdict is for {v['subject']}/{v['target']}/{v['context']}")
        return problems
    edge = dag.adjacent(subject, target)
    expected = not edge and d_separated(dag, subject, target, context)
    if v["admissible"] != expected:
        problems.append(f"{where}: admissible={v['admissible']}, reference says {expected}")
    want_failed = None if expected else ("Condition1" if edge else "Condition2")
    if v["failedCondition"] != want_failed:
        problems.append(f"{where}: failedCondition={v['failedCondition']}, expected {want_failed}")
    w = v["witness"]
    if edge and (w is None or w["kind"] != "edge" or (w["source"], w["target"]) not in dag.edges):
        problems.append(f"{where}: witness {w} is not an edge between {subject} and {target}")
    return problems


def check_weaken(dag: Dag, payload: dict, code: int, case: dict) -> list:
    problems = _check_verdict(dag, payload, case["subject"], case["target"], case["context"], "weaken")
    admissible = payload["admissible"]
    want = case["weakened"] if admissible else None
    if payload["weakened"] != want:
        problems.append(f"weaken: weakened={payload['weakened']!r}, expected {want!r}")
    problems += _exit_code(code, admissible)
    return problems


def check_if_graph(dag: Dag, payload: dict, code: int, case: dict) -> list:
    problems = []
    if payload["mode"] != "graphical" or payload["empirical"] is not None:
        problems.append(f"if: expected a graphical-only report, got mode {payload['mode']}")
        return problems
    verdict = payload["graphical"]
    problems += _check_verdict(dag, verdict, case["protected"], case["target"], case["context"], "if")
    if payload["passed"] != verdict["admissible"]:
        problems.append("if: passed differs from the graphical verdict")
    problems += _exit_code(code, payload["passed"])
    return problems


def check_intersect_graph(dag: Dag, payload: dict, code: int, case: dict) -> list:
    problems = []
    protected = sorted(case["protected"])
    want_subsets = [
        list(s) for k in range(1, len(protected) + 1) for s in combinations(protected, k)
    ]
    if [s["subset"] for s in payload["subsets"]] != want_subsets:
        return ["intersect: subsets differ from every non-empty subset in order"]
    if payload["maxDelta"] is not None:
        problems.append("intersect: graphical-only report carries a maxDelta")
    all_passed = True
    for s in payload["subsets"]:
        subset_passed = True
        if [d["attr"] for d in s["decompositions"]] != s["subset"]:
            problems.append(f"intersect: decompositions of {s['subset']} are incomplete")
        for d in s["decompositions"]:
            rest = [a for a in s["subset"] if a != d["attr"]]
            given = set(case["context"]) | set(rest)
            where = f"intersect {d['attr']} | {sorted(given)}"
            problems += _check_verdict(dag, d["graphical"], d["attr"], case["target"], given, where)
            if d["passed"] != d["graphical"]["admissible"]:
                problems.append(f"{where}: passed differs from the verdict")
            subset_passed = subset_passed and d["graphical"]["admissible"]
        if s["passed"] != subset_passed:
            problems.append(f"intersect: subset {s['subset']} passed={s['passed']}")
        all_passed = all_passed and subset_passed
    if payload["passed"] != all_passed:
        problems.append(f"intersect: passed={payload['passed']}, reference says {all_passed}")
    problems += _exit_code(code, all_passed)
    return problems


def check_paths(dag: Dag, payload: dict, code: int, case: dict) -> list:
    """Structural checks on a closure dump that need no rule engine."""
    problems = []
    want_mediate = len(dag.nodes) + dag.directed_path_count()
    if len(payload["mediate"]) != want_mediate:
        problems.append(f"paths: {len(payload['mediate'])} mediate facts, expected {want_mediate}")
    for fact in payload["paths"]:
        path = fact["certifyingPath"]
        ends = {fact["left"], fact["right"]}
        if len(set(path)) != len(path) or {path[0], path[-1]} != ends:
            problems.append(f"paths: certifying path {path} is not simple between {sorted(ends)}")
            continue
        if not all(dag.adjacent(a, b) for a, b in zip(path, path[1:])):
            problems.append(f"paths: certifying path {path} leaves the graph")
            continue
        colliders = {
            node for prev, node, nxt in zip(path, path[1:], path[2:])
            if (prev, node) in dag.edges and (nxt, node) in dag.edges
        }
        if set(fact["noncolliders"]) != set(path[1:-1]) - colliders:
            problems.append(f"paths: noncolliders of {path} are wrong")
        sets = [set(s) for s in fact["colliderSets"]]
        if len(sets) != len(colliders) or not all(any(c in s for s in sets) for c in colliders):
            problems.append(f"paths: collider sets of {path} do not match its colliders")
        for s in sets:
            if not any(s - {c} <= dag.descendants(c) for c in s & colliders):
                problems.append(f"paths: collider set {sorted(s)} is not a chain below a collider")
    problems += _exit_code(code, True)
    return problems


# --- datasets -----------------------------------------------------------------


def value_matches(text: str, observed: str) -> bool:
    """Context value semantics: atom, sum ``a+b`` or open-world complement ``a^~``."""
    if text.endswith("^~"):
        return observed != text[:-2]
    return observed in text.split("+")


class ContingencyTable:
    """Exact counts over the protected columns and the target, for one context."""

    def __init__(self, columns, rows, target, protected, context):
        idx = {name: i for i, name in enumerate(columns)}
        tests = [(idx[var], text) for var, text in context]
        self.protected = tuple(protected)
        keep = [idx[p] for p in self.protected] + [idx[target]]
        self.cells = Counter(
            tuple(row[i] for i in keep)
            for row in rows
            if all(value_matches(text, row[i]) for i, text in tests)
        )

    def ci(self, attr: str, fixed: dict, epsilon: Fraction):
        """(max delta, passed) of attr vs the target among rows with the fixed values."""
        a = self.protected.index(attr)
        pos = [(self.protected.index(var), val) for var, val in fixed.items()]
        joint, by_value, by_outcome = Counter(), Counter(), Counter()
        for key, count in self.cells.items():
            if all(key[i] == val for i, val in pos):
                joint[key[a], key[-1]] += count
                by_value[key[a]] += count
                by_outcome[key[-1]] += count
        total = sum(by_value.values())
        max_delta = max(
            abs(Fraction(joint[alpha, beta], by_value[alpha]) - Fraction(by_outcome[beta], total))
            for alpha in by_value
            for beta in by_outcome
        )
        return max_delta, max_delta <= epsilon

    def rest_combos(self, rest) -> list:
        pos = [self.protected.index(v) for v in rest]
        return sorted({tuple(key[i] for i in pos) for key in self.cells})


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_if_data(table: ContingencyTable, payload: dict, code: int, case: dict) -> list:
    problems = []
    ci = payload["empirical"]
    if payload["mode"] != "empirical" or ci is None or payload["graphical"] is not None:
        return [f"if: expected an empirical-only report, got mode {payload['mode']}"]
    max_delta, passed = table.ci(case["protected"], {}, case["epsilon"])
    if _frac(ci["maxDelta"]) != max_delta or ci["passed"] != passed:
        problems.append(
            f"if {case['protected']}: maxDelta {ci['maxDelta']} passed {ci['passed']},"
            f" recount gives {max_delta} {passed}"
        )
    if payload["passed"] != passed:
        problems.append(f"if {case['protected']}: passed={payload['passed']}, expected {passed}")
    problems += _exit_code(code, passed)
    return problems


def check_intersect_data(table: ContingencyTable, payload: dict, code: int, case: dict) -> list:
    problems = []
    protected = sorted(case["protected"])
    want_subsets = [
        list(s) for k in range(1, len(protected) + 1) for s in combinations(protected, k)
    ]
    if [s["subset"] for s in payload["subsets"]] != want_subsets:
        return ["intersect: subsets differ from every non-empty subset in order"]
    overall_max = Fraction(0)
    all_passed = True
    for s in payload["subsets"]:
        subset_passed = True
        for d in s["decompositions"]:
            rest = [a for a in s["subset"] if a != d["attr"]]
            combos = table.rest_combos(rest)
            got = [tuple(e["restValues"][v] for v in rest) for e in d["empirical"]]
            if got != combos:
                problems.append(f"intersect {d['attr']} | {rest}: value combinations differ")
                continue
            decomp_max, decomp_passed = Fraction(0), True
            for combo, entry in zip(combos, d["empirical"]):
                max_delta, passed = table.ci(d["attr"], dict(zip(rest, combo)), case["epsilon"])
                ci = entry["ci"]
                if _frac(ci["maxDelta"]) != max_delta or ci["passed"] != passed:
                    problems.append(
                        f"intersect {d['attr']} | {dict(zip(rest, combo))}: maxDelta"
                        f" {ci['maxDelta']} passed {ci['passed']}, recount gives {max_delta} {passed}"
                    )
                decomp_max = max(decomp_max, max_delta)
                decomp_passed = decomp_passed and passed
            if _frac(d["maxDelta"]) != decomp_max or d["passed"] != decomp_passed:
                problems.append(f"intersect {d['attr']} | {rest}: decomposition summary is wrong")
            overall_max = max(overall_max, decomp_max)
            subset_passed = subset_passed and decomp_passed
        if s["passed"] != subset_passed:
            problems.append(f"intersect: subset {s['subset']} passed={s['passed']}")
        all_passed = all_passed and subset_passed
    if _frac(payload["maxDelta"]) != overall_max or payload["passed"] != all_passed:
        problems.append(
            f"intersect: maxDelta {payload['maxDelta']} passed {payload['passed']},"
            f" recount gives {overall_max} {all_passed}"
        )
    problems += _exit_code(code, all_passed)
    return problems


# --- oracle sweeps --------------------------------------------------------------


def check_oracle(_subject, payload: dict, code: int, case: dict) -> list:
    problems = []
    if case["trials"] is None:
        graphs, checks = EXHAUSTIVE_COUNTS[case["max_nodes"]]
        if (payload["graphsChecked"], payload["checksRun"]) != (graphs, checks):
            problems.append(
                f"oracle: {payload['graphsChecked']} graphs / {payload['checksRun']} checks,"
                f" expected {graphs} / {checks}"
            )
    elif payload["graphsChecked"] != case["trials"]:
        problems.append(f"oracle: {payload['graphsChecked']} graphs, expected {case['trials']}")
    if not payload["passed"] or payload["discrepancies"]:
        problems.append(f"oracle: {len(payload['discrepancies'])} discrepancies")
    problems += _exit_code(code, True)
    return problems


def _exit_code(code: int, passed: bool) -> list:
    want = 0 if passed else 1
    return [] if code == want else [f"exit code {code}, expected {want}"]


# --- schemas --------------------------------------------------------------------

_IGNORED = {"$schema", "$id", "$defs", "title"}
_PY_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "null": type(None), "integer": int, "number": (int, float),
}


def _type_test(types):
    names = [types] if isinstance(types, str) else list(types)
    pytypes = []
    for name in names:
        t = _PY_TYPES[name]
        pytypes.extend(t if isinstance(t, tuple) else (t,))
    pytypes = tuple(pytypes)
    if "boolean" in names:
        return names, lambda x: isinstance(x, pytypes)
    # bool is a subclass of int, but JSON true is neither integer nor number.
    return names, lambda x: isinstance(x, pytypes) and not isinstance(x, bool)


def _json_equal(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    return a == b


def _where(at) -> str:
    parts = []
    while at is not None:
        at, key = at
        parts.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return "$" + "".join(reversed(parts))


class SchemaValidator:
    """A JSON Schema (2020-12) validator for the keywords fairgate's schemas use.

    Each schema node compiles once into a function ``check(x, at, out)``
    that appends (location, message) pairs to ``out``.  A keyword outside
    the supported set raises ValueError, so a schema change is never
    silently ignored.
    """

    def __init__(self, path: Path):
        self.root = json.loads(path.read_text(encoding="utf-8"))
        self._compiled = {}
        self._check = self._compile(self.root)

    def errors(self, instance) -> list:
        out = []
        self._check(instance, None, out)
        return [f"{_where(at)}: {message}" for at, message in out]

    def _compile(self, schema):
        key = id(schema)
        if key in self._compiled:
            return self._compiled[key]
        cell = []
        self._compiled[key] = lambda x, at, out: cell[0](x, at, out)
        checks = []
        for kw, arg in schema.items():
            if kw in _IGNORED:
                continue
            maker = getattr(self, "_kw_" + kw.lstrip("$"), None)
            if maker is None:
                raise ValueError(f"unsupported schema keyword {kw!r}")
            checks.append(maker(arg, schema))
        if len(checks) == 1:
            (run,) = checks
        else:
            def run(x, at, out):
                for check in checks:
                    check(x, at, out)
        cell.append(run)
        self._compiled[key] = run
        return run

    def _kw_ref(self, ref, _schema):
        if not ref.startswith("#/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        node = self.root
        for part in ref[2:].split("/"):
            node = node[part]
        return self._compile(node)

    def _kw_type(self, types, _schema):
        names, test = _type_test(types)

        def check(x, at, out):
            if not test(x):
                out.append((at, f"not of type {names}"))

        return check

    def _kw_properties(self, props, _schema):
        compiled = [(name, self._compile(sub)) for name, sub in props.items()]

        def check(x, at, out):
            if isinstance(x, dict):
                for name, sub in compiled:
                    if name in x:
                        sub(x[name], (at, name), out)

        return check

    def _kw_additionalProperties(self, extra, schema):
        known = set(schema.get("properties", {}))
        sub = None if isinstance(extra, bool) else self._compile(extra)

        def check(x, at, out):
            if not isinstance(x, dict):
                return
            for name, value in x.items():
                if name in known:
                    continue
                if sub is not None:
                    sub(value, (at, name), out)
                elif not extra:
                    out.append((at, f"unexpected property {name!r}"))

        return check

    def _kw_required(self, names, _schema):
        def check(x, at, out):
            if isinstance(x, dict):
                out.extend((at, f"missing {n!r}") for n in names if n not in x)

        return check

    def _kw_items(self, items, _schema):
        sub = self._compile(items)
        fast = None
        if set(items) - _IGNORED == {"type"}:
            fast = _type_test(items["type"])[1]

        def check(x, at, out):
            if not isinstance(x, list):
                return
            if fast is not None and all(map(fast, x)):
                return
            for i, item in enumerate(x):
                sub(item, (at, i), out)

        return check

    def _kw_minItems(self, n, _schema):
        def check(x, at, out):
            if isinstance(x, list) and len(x) < n:
                out.append((at, f"fewer than {n} items"))

        return check

    def _kw_maxItems(self, n, _schema):
        def check(x, at, out):
            if isinstance(x, list) and len(x) > n:
                out.append((at, f"more than {n} items"))

        return check

    def _kw_minimum(self, n, _schema):
        is_number = _type_test("number")[1]

        def check(x, at, out):
            if is_number(x) and x < n:
                out.append((at, f"below {n}"))

        return check

    def _kw_maximum(self, n, _schema):
        is_number = _type_test("number")[1]

        def check(x, at, out):
            if is_number(x) and x > n:
                out.append((at, f"above {n}"))

        return check

    def _kw_pattern(self, pattern, _schema):
        regex = re.compile(pattern)

        def check(x, at, out):
            if isinstance(x, str) and not regex.search(x):
                out.append((at, f"{x!r} does not match {pattern}"))

        return check

    def _kw_enum(self, values, _schema):
        def check(x, at, out):
            if not any(_json_equal(x, v) for v in values):
                out.append((at, f"{x!r} not in {values}"))

        return check

    def _kw_const(self, value, _schema):
        def check(x, at, out):
            if not _json_equal(x, value):
                out.append((at, f"{x!r} is not {value!r}"))

        return check

    def _kw_allOf(self, subs, _schema):
        compiled = [self._compile(s) for s in subs]

        def check(x, at, out):
            for sub in compiled:
                sub(x, at, out)

        return check

    def _kw_oneOf(self, subs, _schema):
        compiled = [self._compile(s) for s in subs]

        def check(x, at, out):
            matched = 0
            for sub in compiled:
                errs = []
                sub(x, at, errs)
                matched += not errs
            if matched != 1:
                out.append((at, f"matches {matched} of oneOf, expected exactly 1"))

        return check
