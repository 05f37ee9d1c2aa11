"""Admissibility of adding one attribution to a judgment's context.

A weakening keeps the stated probability exactly when the new variable
cannot carry information about the target given what the context already
fixes.  Two graph-side conditions decide that:

* Condition 1: the new variable is not an immediate cause of the target
  and the target is not an immediate cause of it.
* Condition 2: every derived path fact between the new variable and the
  target is blocked by the context variables.

The checker always evaluates both so a verdict can report the full fact
scan even when an edge already settles the answer.  Values play no role
here; only variable positions in the graph matter.
"""

from __future__ import annotations

from typing import NamedTuple

from .closure import (
    BlockReason,
    Closure,
    PathFact,
    TraceRecord,
    sorted_collider_sets,
    trace_record_json,
)
from .errors import (
    InadmissibleWeakening,
    VariableAlreadyInContext,
    WeakeningTargetIsGoal,
)
from .graph import CausalGraph
from .judgments import Attribution, Judgment

__all__ = [
    "Verdict",
    "check_condition1",
    "check_condition2",
    "check_variables",
    "evaluate_conditions",
    "check_weakening",
    "apply_weakening",
    "verdict_to_json",
]


class Verdict(NamedTuple):
    """Outcome of one admissibility check, with its full audit trail.

    ``blocked_facts`` pairs every examined path fact with its blocking
    reason (None when the fact transmits).  ``witness_edge`` or
    ``witness_fact`` is set when the matching condition failed;
    ``failed_condition`` names the first failure in condition order.
    """

    admissible: bool
    failed_condition: str | None  # "Condition1", "Condition2" or None
    witness_edge: tuple[str, str] | None
    witness_fact: PathFact | None
    blocked_facts: tuple[tuple[PathFact, BlockReason | None], ...]
    rule_trace: tuple[TraceRecord, ...]
    subject: str
    target: str
    context_vars: frozenset[str]


def check_condition1(g: CausalGraph, subject: str, target: str):
    """No immediate edge either way between subject and target.

    Returns (ok, offending edge or None), from ``CausalGraph.edge_between``,
    which the agreement sweep reads by node index.  ``CausalGraph.pair_index``
    checks the pair, as it does for every pair read.
    """
    edge = g.edge_between(*g.pair_index(subject, target))
    return edge is None, edge


def check_condition2(closure: Closure, subject: str, target: str, context_vars):
    """Every path fact between subject and target is blocked by the context.

    The context becomes a node mask once.  ``Closure.audit`` pairs each fact
    with its block, from the same mask test the agreement sweep applies to
    the pair's record; the witness is the first fact the audit leaves
    unblocked, so a verdict reads its node pair once.

    Returns (ok, examined facts with reasons, first transmitting fact or None).
    """
    audit = closure.audit(subject, target, closure.graph.node_mask(context_vars))
    open_fact = next((fact for fact, reason in audit if reason is None), None)
    return open_fact is None, audit, open_fact


def check_variables(g: CausalGraph, subject: str, target: str, context_vars) -> None:
    """A verdict's name and role checks.  They read only the graph, so a caller
    may run them before it closes ``g`` and refuse bad input whatever the budget."""
    nodes = g.nodes
    if not (subject in nodes and target in nodes and nodes.issuperset(context_vars)):
        # Some name is unknown: report the first one in this order.
        for name in (subject, target, *sorted(context_vars)):
            g.require_node(name)
    if subject == target:
        raise WeakeningTargetIsGoal(f"cannot weaken with the judgment's own target {target!r}")
    if subject in context_vars:
        raise VariableAlreadyInContext(f"variable {subject!r} is already in the context")


def evaluate_conditions(closure: Closure, subject: str, target: str, context_vars) -> Verdict:
    """Run both admissibility conditions for a bare variable configuration.

    This is the value-free core shared by judgment weakening and the
    fairness checks.  Both conditions read ``closure.graph``, so the
    edges and the path facts always come from the same graph.
    """
    g = closure.graph
    context_vars = frozenset(context_vars)
    check_variables(g, subject, target, context_vars)
    ok1, edge = check_condition1(g, subject, target)
    ok2, examined, open_fact = check_condition2(closure, subject, target, context_vars)

    if not ok1:
        failed = "Condition1"
    elif not ok2:
        failed = "Condition2"
    else:
        failed = None

    return Verdict(
        admissible=ok1 and ok2,
        failed_condition=failed,
        witness_edge=edge if failed == "Condition1" else None,
        witness_fact=open_fact if failed == "Condition2" else None,
        blocked_facts=examined,
        rule_trace=closure.trace_between(subject, target),
        subject=subject,
        target=target,
        context_vars=context_vars,
    )


def check_weakening(closure: Closure, judgment: Judgment, new_attr: Attribution) -> Verdict:
    """Decide whether extending the judgment's context with new_attr is admissible.

    Only the new attribution's variable matters; its value plays no role
    in either condition.
    """
    return evaluate_conditions(
        closure, new_attr.variable, judgment.target, judgment.context.variables()
    )


def apply_weakening(judgment: Judgment, new_attr: Attribution, verdict: Verdict) -> Judgment:
    """Extend the context, keeping the probability bit-for-bit.

    Refuses unless the verdict is admissible and was issued for exactly
    this judgment and attribution.
    """
    if not verdict.admissible:
        raise InadmissibleWeakening(
            f"adding {new_attr.variable!r} to the context is not admissible"
            f" (failed {verdict.failed_condition})"
        )
    if (
        verdict.subject != new_attr.variable
        or verdict.target != judgment.target
        or verdict.context_vars != judgment.context.variables()
    ):
        raise InadmissibleWeakening("verdict was issued for a different weakening")
    return Judgment(
        context=judgment.context.extended(new_attr),
        target=judgment.target,
        outcome=judgment.outcome,
        probability=judgment.probability,
    )


def _fact_json(fact: PathFact) -> dict:
    return {
        "endpoints": [fact.left, fact.right],
        "noncolliders": sorted(fact.noncolliders),
        "colliderSets": sorted_collider_sets(fact.collider_sets),
    }


def _once(memo: dict, kind: str, obj, build):
    """``build(obj)``, made once per memo for each object of a kind.  Keyed by
    identity, with ``obj`` kept in the entry so its id is not reused."""
    key = (kind, id(obj))
    found = memo.get(key)
    if found is None:
        found = memo[key] = (obj, build(obj))
    return found[1]


def _witness_json(fact: PathFact) -> dict:
    return {"kind": "pathFact", **_fact_json(fact)}


def _entry_json(entry: tuple[PathFact, BlockReason | None]) -> dict:
    fact, reason = entry
    blocked_by = None if reason is None else {"kind": reason.kind, "nodes": sorted(reason.nodes)}
    return {**_fact_json(fact), "blockedBy": blocked_by}


def _trace_json(trace: tuple[TraceRecord, ...]) -> list:
    return [trace_record_json(r) for r in trace]


def verdict_to_json(verdict: Verdict, memo: dict | None = None) -> dict:
    """JSON-ready verdict with the blocked-fact audit and rule trace.

    ``memo`` is one dict shared by the verdicts of one report.  Through it,
    each ``blocked_facts`` tuple (``Closure.audit`` returns one per distinct
    audit), each of its (fact, reason) pairs, each ``pathFact`` witness and
    each ``rule_trace`` tuple (one per node pair of a closure) is turned
    into JSON once, keyed by identity, and the verdicts share the result.
    Without it every list and dict is new.
    """
    if memo is None:
        memo = {}
    if verdict.witness_edge is not None:
        witness = {
            "kind": "edge",
            "source": verdict.witness_edge[0],
            "target": verdict.witness_edge[1],
        }
    elif verdict.witness_fact is not None:
        witness = _once(memo, "witness", verdict.witness_fact, _witness_json)
    else:
        witness = None
    facts = _once(
        memo, "facts", verdict.blocked_facts,
        lambda audit: [_once(memo, "entry", entry, _entry_json) for entry in audit],
    )
    return {
        "subject": verdict.subject,
        "target": verdict.target,
        "context": sorted(verdict.context_vars),
        "admissible": verdict.admissible,
        "failedCondition": verdict.failed_condition,
        "witness": witness,
        "facts": facts,
        "ruleTrace": _once(memo, "trace", verdict.rule_trace, _trace_json),
    }
