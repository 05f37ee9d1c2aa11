import itertools
import json
import random
from fractions import Fraction

import pytest

from fairgate.closure import _block, close, trace_record_json
from fairgate.errors import (
    InadmissibleWeakening,
    UnknownVariable,
    VariableAlreadyInContext,
    WeakeningTargetIsGoal,
)
from fairgate.graph import CausalGraph
from fairgate.judgments import Attribution, Value, parse_judgment, serialize_judgment
from fairgate.sweep import dsep_oracle, enumerate_dags, random_dag
from fairgate.weakening import (
    apply_weakening,
    check_condition1,
    check_condition2,
    check_weakening,
    evaluate_conditions,
    verdict_to_json,
)

from _blocking import blocking_reason
from _graphs import pair_facts, pair_rows


def test_condition1_checks_only_immediate_edges(loan_graph):
    ok, edge = check_condition1(loan_graph, "MS", "Loan")
    assert ok and edge is None
    ok, edge = check_condition1(loan_graph, "GAI", "Loan")
    assert not ok and edge == ("GAI", "Loan")
    ok, edge = check_condition1(loan_graph, "Loan", "GAI")
    assert not ok and edge == ("GAI", "Loan")
    with pytest.raises(UnknownVariable):
        check_condition1(loan_graph, "GAI", "Zzz")


def test_condition2_on_loan(loan_graph, loan_closure):
    ok, examined, open_fact = check_condition2(
        loan_closure, "MS", "Loan", frozenset(["Age", "GAI"])
    )
    assert ok and open_fact is None
    assert len(examined) == 2
    assert all(reason is not None for _, reason in examined)
    assert all(
        reason.kind == "noncollider" and "Age" in reason.nodes
        for _, reason in examined
    )

    ok, examined, open_fact = check_condition2(loan_closure, "MS", "Loan", frozenset())
    assert not ok
    assert open_fact is examined[0][0]
    assert open_fact.noncolliders == frozenset(["Age"])


def test_condition2_collider_is_blocked_unconditionally():
    g = CausalGraph(["A", "B", "C"], [("A", "B"), ("C", "B")])
    closure = close(g)
    ok, examined, open_fact = check_condition2(closure, "A", "C", frozenset())
    assert ok and open_fact is None
    assert examined[0][1].kind == "collider-set"
    ok, _, open_fact = check_condition2(closure, "A", "C", frozenset(["B"]))
    assert not ok and open_fact is not None


def test_condition2_refuses_a_non_node_and_a_node_with_itself(loan_graph):
    # An answer would read as "no path facts", so "Condition 2 holds".
    closure = close(loan_graph)
    with pytest.raises(UnknownVariable, match="Zzz"):
        check_condition2(closure, "Zzz", "Loan", ())
    with pytest.raises(ValueError, match="must differ"):
        check_condition2(closure, "Loan", "Loan", ())


def test_condition2_isolated_nodes():
    g = CausalGraph(["A", "B"], [])
    ok, examined, open_fact = check_condition2(close(g), "A", "B", frozenset())
    assert ok and examined == () and open_fact is None


def test_evaluate_conditions_validation(loan_graph):
    with pytest.raises(UnknownVariable):
        evaluate_conditions(close(loan_graph), "Zzz", "Loan", frozenset())
    with pytest.raises(UnknownVariable):
        evaluate_conditions(close(loan_graph), "MS", "Loan", frozenset(["Zzz"]))
    with pytest.raises(WeakeningTargetIsGoal):
        evaluate_conditions(close(loan_graph), "Loan", "Loan", frozenset())
    with pytest.raises(VariableAlreadyInContext):
        evaluate_conditions(close(loan_graph), "MS", "Loan", frozenset(["MS"]))


def test_verdict_structure_on_admissible_case(loan_closure):
    verdict = evaluate_conditions(loan_closure, "MS", "Loan", frozenset(["Age", "GAI"]))
    assert verdict.admissible
    assert verdict.failed_condition is None
    assert verdict.witness_edge is None and verdict.witness_fact is None
    assert verdict.subject == "MS" and verdict.target == "Loan"
    assert verdict.context_vars == frozenset(["Age", "GAI"])
    assert len(verdict.blocked_facts) == 2
    conclusions = {r.conclusion.text for r in verdict.rule_trace}
    assert conclusions == {
        "Loan <>^{Age}_{} MS",
        "Loan <>^{Age,GAI}_{} MS",
    }
    rules = {r.rule for r in verdict.rule_trace}
    assert rules == {"Fork", "Transitivity*"}


def test_verdict_witness_is_first_failed_condition(loan_closure):
    verdict = evaluate_conditions(loan_closure, "GAI", "Loan", frozenset(["Age"]))
    assert not verdict.admissible
    assert verdict.failed_condition == "Condition1"
    assert verdict.witness_edge == ("GAI", "Loan")
    assert verdict.witness_fact is None

    verdict = evaluate_conditions(loan_closure, "MS", "Loan", frozenset())
    assert verdict.failed_condition == "Condition2"
    assert verdict.witness_edge is None
    assert verdict.witness_fact.noncolliders == frozenset(["Age"])


def test_check_weakening_loan_example(loan_graph, loan_closure):
    judgment = parse_judgment("Age=27, GAI=40K => Loan=yes @ 0.60", loan_graph)
    attr = Attribution("MS", Value.atomic("married"))
    verdict = check_weakening(loan_closure, judgment, attr)
    assert verdict.admissible
    weakened = apply_weakening(judgment, attr, verdict)
    assert weakened.probability == Fraction(3, 5)
    assert weakened.outcome == judgment.outcome
    assert (
        serialize_judgment(weakened)
        == "Age=27, GAI=40K, MS=married => Loan=yes @ 3/5"
    )


def test_check_weakening_rejects_open_fact(loan_graph, loan_closure):
    judgment = parse_judgment("GAI=40K => Loan=yes @ 0.60", loan_graph)
    attr = Attribution("MS", Value.atomic("married"))
    verdict = check_weakening(loan_closure, judgment, attr)
    assert not verdict.admissible
    assert verdict.failed_condition == "Condition2"
    with pytest.raises(InadmissibleWeakening):
        apply_weakening(judgment, attr, verdict)


def test_apply_weakening_rejects_mismatched_verdict(loan_graph, loan_closure):
    judgment = parse_judgment("Age=27, GAI=40K => Loan=yes @ 0.60", loan_graph)
    other = parse_judgment("Age=27 => Loan=yes @ 0.60", loan_graph)
    attr = Attribution("MS", Value.atomic("married"))
    verdict = check_weakening(loan_closure, other, attr)
    with pytest.raises(InadmissibleWeakening, match="different weakening"):
        apply_weakening(judgment, attr, verdict)


def test_chained_weakenings_preserve_probability(loan_graph):
    g = CausalGraph(
        list(loan_graph.nodes) + ["Etn"],
        list(loan_graph.edges),
    )
    judgment = parse_judgment("Age=27, GAI=40K => Loan=yes @ 0.60", g)
    closure = close(g)
    for variable, value in (("MS", "married"), ("Etn", "white")):
        attr = Attribution(variable, Value.atomic(value))
        verdict = check_weakening(closure, judgment, attr)
        assert verdict.admissible
        judgment = apply_weakening(judgment, attr, verdict)
    assert judgment.probability == Fraction(3, 5)
    assert judgment.context.variables() == {"Age", "GAI", "MS", "Etn"}


def test_conditioning_can_cut_both_ways():
    mediated = CausalGraph(["a", "m", "t"], [("a", "m"), ("m", "t")])
    assert not evaluate_conditions(close(mediated), "a", "t", frozenset()).admissible
    assert evaluate_conditions(close(mediated), "a", "t", frozenset(["m"])).admissible

    collider = CausalGraph(["a", "c", "t"], [("a", "c"), ("t", "c")])
    assert evaluate_conditions(close(collider), "a", "t", frozenset()).admissible
    assert not evaluate_conditions(close(collider), "a", "t", frozenset(["c"])).admissible


def test_verdict_witnesses_replay(loan_closure):
    for ctx in (frozenset(), frozenset(["Age"]), frozenset(["GAI"])):
        verdict = evaluate_conditions(loan_closure, "MS", "Loan", ctx)
        assert len(verdict.blocked_facts) == len(
            pair_facts(loan_closure, "MS", "Loan")
        )
        if verdict.witness_fact is not None:
            assert blocking_reason(verdict.witness_fact, ctx) is None


def _canonical(keys):
    """Path fact keys in the canonical order an audit lists their facts in:
    endpoints, noncolliders, then the collider sets, each as ascending node
    indices."""

    def indices(mask):
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    return sorted(keys, key=lambda k: (k[0], k[1], indices(k[2]), [indices(c) for c in k[3]]))


def test_verdicts_agree_with_oracle_on_exhaustive_family():
    for n in range(2, 5):
        for g in enumerate_dags(n):
            closure = close(g)
            nodes = sorted(g.nodes)
            for subject, target in itertools.permutations(nodes, 2):
                rest = [v for v in nodes if v not in (subject, target)]
                for r in range(len(rest) + 1):
                    for ctx in itertools.combinations(rest, r):
                        verdict = evaluate_conditions(closure, subject, target, frozenset(ctx))
                        # The audit a verdict decides by and the sweep's scan
                        # of the pair's record leave the same facts open; the
                        # record is unsorted, the audit in canonical order.
                        keys = _canonical(
                            closure.pair_record(*sorted([g.index[subject], g.index[target]]))[0]
                        )
                        mask = g.node_mask(ctx)
                        assert [reason is None for _, reason in verdict.blocked_facts] == [
                            _block(key, mask) is None for key in keys
                        ]
                        no_edge = (subject, target) not in g.edges and (
                            target,
                            subject,
                        ) not in g.edges
                        separated = dsep_oracle(pair_rows(g, subject, target), g.node_mask(ctx))
                        assert verdict.admissible == (no_edge and separated), (
                            g.edges,
                            subject,
                            target,
                            ctx,
                        )


def test_verdict_to_json_shape(loan_closure):
    verdict = evaluate_conditions(loan_closure, "MS", "Loan", frozenset(["GAI"]))
    payload = verdict_to_json(verdict)
    assert payload["admissible"] is False
    assert payload["failedCondition"] == "Condition2"
    assert payload["witness"]["kind"] == "pathFact"
    assert payload["witness"]["endpoints"] == ["Loan", "MS"]
    assert payload["subject"] == "MS"
    assert payload["context"] == ["GAI"]
    facts = payload["facts"]
    assert [f["endpoints"] for f in facts] == [["Loan", "MS"], ["Loan", "MS"]]
    assert facts[0]["blockedBy"] is None
    assert facts[1]["blockedBy"] == {"kind": "noncollider", "nodes": ["GAI"]}
    json.dumps(payload)

    ok = evaluate_conditions(loan_closure, "MS", "Loan", frozenset(["Age"]))
    ok_payload = verdict_to_json(ok)
    assert ok_payload["admissible"] is True
    assert ok_payload["failedCondition"] is None
    assert ok_payload["witness"] is None

    edge_case = evaluate_conditions(loan_closure, "GAI", "Loan", frozenset())
    edge_payload = verdict_to_json(edge_case)
    assert edge_payload["witness"] == {
        "kind": "edge",
        "source": "GAI",
        "target": "Loan",
    }


def reference_rule_trace(records, verdict):
    """The lookup verdicts made before ``Closure.trace_between``: of the rendered
    trace records, those whose conclusion is the text of an examined fact."""
    examined = {fact.text for fact, _ in verdict.blocked_facts}
    return [r for r in records if r["conclusion"] in examined]


def test_rule_trace_equals_the_text_lookup():
    rng = random.Random(31)
    graphs = [g for n in range(1, 5) for g in enumerate_dags(n)]
    graphs += [random_dag(rng, max_nodes=8) for _ in range(50)]
    nonempty = 0
    for g in graphs:
        closure = close(g)
        records = [trace_record_json(r) for r in closure.trace]
        nodes = sorted(g.nodes)
        for subject, target in itertools.combinations(nodes, 2):
            rest = [v for v in nodes if v not in (subject, target)]
            for ctx in [(), *((v,) for v in rest)]:
                verdict = evaluate_conditions(closure, subject, target, ctx)
                expected = reference_rule_trace(records, verdict)
                assert [trace_record_json(r) for r in verdict.rule_trace] == expected, (
                    sorted(g.edges), subject, target, ctx
                )
                nonempty += bool(expected)
    assert nonempty > 1000
