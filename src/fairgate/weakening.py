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

from dataclasses import dataclass

from .closure import (
    BlockReason,
    Closure,
    PathFact,
    TraceRecord,
    blocking_reason,
    sorted_collider_sets,
    trace_record_json,
)
from .errors import (
    InadmissibleWeakening,
    UnknownVariable,
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


@dataclass(frozen=True)
class Verdict:
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

    Returns (ok, offending edge or None).
    """
    for name in (subject, target):
        if name not in g.nodes:
            raise UnknownVariable(f"variable {name!r} is not a node of the graph")
    if (subject, target) in g.edges:
        return False, (subject, target)
    if (target, subject) in g.edges:
        return False, (target, subject)
    return True, None


def check_condition2(closure: Closure, subject: str, target: str, context_vars):
    """Every path fact between subject and target is blocked by the context.

    Returns (ok, examined facts with reasons, first transmitting fact or None).
    """
    cond = frozenset(context_vars)
    examined = []
    first_open: PathFact | None = None
    for fact in closure.facts_between(subject, target):
        reason = blocking_reason(fact, cond)
        examined.append((fact, reason))
        if reason is None and first_open is None:
            first_open = fact
    return first_open is None, tuple(examined), first_open


def check_variables(g: CausalGraph, subject: str, target: str, context_vars) -> None:
    """A verdict's name and role checks.  They read only the graph, so a caller
    may run them before it closes ``g`` and refuse bad input whatever the budget."""
    for name in (subject, target, *sorted(context_vars)):
        if name not in g.nodes:
            raise UnknownVariable(f"variable {name!r} is not a node of the graph")
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
        rule_trace=closure.trace_of(fact for fact, _ in examined),
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


def verdict_to_json(verdict: Verdict) -> dict:
    """JSON-ready verdict with the blocked-fact audit and rule trace."""
    if verdict.witness_edge is not None:
        witness = {
            "kind": "edge",
            "source": verdict.witness_edge[0],
            "target": verdict.witness_edge[1],
        }
    elif verdict.witness_fact is not None:
        witness = {"kind": "pathFact", **_fact_json(verdict.witness_fact)}
    else:
        witness = None
    facts = []
    for fact, reason in verdict.blocked_facts:
        entry = _fact_json(fact)
        if reason is None:
            entry["blockedBy"] = None
        else:
            entry["blockedBy"] = {"kind": reason.kind, "nodes": sorted(reason.nodes)}
        facts.append(entry)
    return {
        "subject": verdict.subject,
        "target": verdict.target,
        "context": sorted(verdict.context_vars),
        "admissible": verdict.admissible,
        "failedCondition": verdict.failed_condition,
        "witness": witness,
        "facts": facts,
        "ruleTrace": [trace_record_json(r) for r in verdict.rule_trace],
    }
