"""Per-layer spans and counts, installed around fairgate's public functions.

Nothing under ``src/`` is edited: ``install`` replaces each traced
function by a wrapper in every ``fairgate`` module that imported it, and
on the class for methods.  Spans nest on one stack; a layer's self time
is its span's duration minus the time its child spans cover.  Counts are
derived from call arguments and results, after the span has closed, and
the time spent deriving them is charged to ``trace.overhead`` rather
than to the enclosing span.

Calls made tens of thousands of times per request (``path_is_active``,
``independent_by_rules``) carry no span; their work is counted from the
outputs of the functions that drive them.
"""

from __future__ import annotations

import builtins
import json
import sys
import time
from collections import Counter

# Closure.trace rule names and the per-layer count each one feeds.
FIRING_NAMES = {
    "Reflexive cause": "closure.firings.reflexive_cause",
    "Transitive cause": "closure.firings.transitive_cause",
    "Chain": "closure.firings.chain",
    "Fork": "closure.firings.fork",
    "Collider": "closure.firings.collider",
    "Transitivity*": "closure.firings.transitivity_star",
}


class Tracer:
    """Span stack plus accumulated self times (ns) and counts for one request."""

    def __init__(self):
        self.self_ns = Counter()
        self.counts = Counter()
        self._children = []  # child time (ns) accumulated by each open span
        self._last_closure = None

    def reset(self):
        self.self_ns.clear()
        self.counts.clear()

    def wrap(self, layer, fn, count=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            start = clock()
            self._children.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.self_ns[layer] += duration - self._children.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
                spent = clock() - start - duration
                self.self_ns["trace.overhead"] += spent
                duration += spent
            if self._children:
                self._children[-1] += duration
            return result

        traced.__wrapped__ = fn
        return traced

    def run_root(self, fn, *args):
        """Run a request under the root span ``cli.main``."""
        return self.wrap("cli.main", fn)(*args)

    # -- counts derived from outputs ------------------------------------------

    def _count_close(self, counts, args, kwargs, closure):
        self._last_closure = closure
        counts["closure.close_calls"] += 1
        counts["closure.mediate_facts"] += len(closure.mediate)
        counts["closure.path_facts"] += len(closure.paths)
        counts["closure.derivations"] += len(closure.derivations())
        counts["closure.trace_records"] += len(closure.trace)
        for rule, n in Counter(r.rule for r in closure.trace).items():
            counts[FIRING_NAMES[rule]] += n

    def _count_evaluate(self, counts, args, kwargs, verdict):
        closure = kwargs.get("closure") or self._last_closure
        counts["weakening.evaluate_calls"] += 1
        counts["weakening.facts_examined"] += len(verdict.blocked_facts)
        counts["weakening.trace_records_scanned"] += len(closure.trace)


def _count_load_graph(counts, args, kwargs, graph):
    counts["graph.load_calls"] += 1


def _count_from_csv(counts, args, kwargs, dataset):
    counts["fairness.rows_loaded"] += len(dataset.rows)


def _count_match(counts, args, kwargs, rows):
    dataset = args[0]
    counts["fairness.match_calls"] += 1
    counts["fairness.rows_scanned"] += len(dataset.rows)
    counts["fairness.rows_matched"] += len(rows)


def _count_ci(counts, args, kwargs, ci):
    counts["fairness.ci_calls"] += 1
    counts["fairness.ci_cells"] += sum(len(row) for row in ci.conditional.values())


def _count_agreement(counts, args, kwargs, result):
    counts["sweep.graphs"] += 1
    counts["sweep.checks"] += result[1]


def _count_paths(counts, args, kwargs, paths):
    counts["sweep.paths_enumerated"] += len(paths)


class _TracedJson:
    """Stands in for the ``json`` module inside ``fairgate.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every loaded fairgate module."""
    import fairgate.cli  # noqa: F401  (loads every module that gets wrapped)
    from fairgate import closure, fairness, graph, judgments, sweep, weakening

    functions = [
        (graph, "load_graph", "graph.load", _count_load_graph),
        (judgments, "load_judgment", "judgments.parse", None),
        (judgments, "load_context", "judgments.parse", None),
        (judgments, "parse_context", "judgments.parse", None),
        (judgments, "parse_attribution", "judgments.parse", None),
        (judgments, "parse_judgment", "judgments.parse", None),
        (judgments, "serialize_judgment", "judgments.serialize", None),
        (closure, "close", "closure.close", tracer._count_close),
        (closure, "closure_dump", "closure.dump", None),
        (weakening, "evaluate_conditions", "weakening.evaluate", tracer._count_evaluate),
        (weakening, "verdict_to_json", "weakening.to_json", None),
        (fairness, "empirical_ci", "fairness.ci", _count_ci),
        (fairness, "check_intersectionality", "fairness.intersect", None),
        (fairness, "fairness_report_to_json", "fairness.to_json", None),
        (fairness, "if_result_to_json", "fairness.to_json", None),
        (sweep, "check_graph_agreement", "sweep.agreement", _count_agreement),
        (sweep, "enumerate_dags", "sweep.enumerate_dags", None),
    ]
    modules = [m for name, m in sys.modules.items() if name.startswith("fairgate")]
    for home, name, layer, count in functions:
        original = getattr(home, name)
        traced = tracer.wrap(layer, original, count)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, traced)

    # The path-enumeration oracle is only traced where the sweep calls it,
    # once per node pair.
    sweep.enumerate_classified_paths = tracer.wrap(
        "sweep.oracle", sweep.enumerate_classified_paths, _count_paths
    )

    Dataset = fairness.Dataset
    from_csv = Dataset.from_csv.__func__
    Dataset.from_csv = classmethod(tracer.wrap("fairness.load", from_csv, _count_from_csv))
    Dataset.matching_rows = tracer.wrap("fairness.match", Dataset.matching_rows, _count_match)

    cli = sys.modules["fairgate.cli"]
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.argparse", parser.parse_args)
        return parser

    cli.build_parser = tracer.wrap("cli.argparse", traced_build_parser)
    cli.json = _TracedJson(tracer.wrap("cli.render", json.dumps))
    cli.print = tracer.wrap("cli.print", builtins.print)
