"""End-to-end acceptance gate.

Each test covers one headline guarantee and prints a single
``ACCEPTANCE <name>: PASS`` or ``... FAIL`` line, so a plain
``pytest tests/test_acceptance.py -s`` doubles as a checklist.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import fairgate
from fairgate.closure import close
from fairgate.fairness import empirical_ci, empirical_probability, generate_table1
from fairgate.graph import CausalGraph
from fairgate.judgments import (
    Attribution,
    Context,
    Judgment,
    Value,
    parse_judgment,
    serialize_judgment,
)
from fairgate.sweep import (
    dsep_oracle,
    enumerate_dags,
    exhaustive_sweep,
    random_dag,
    random_sweep,
    sweep_report_to_json,
)
from fairgate.weakening import apply_weakening, check_weakening, evaluate_conditions

from _blocking import blocking_reason
from _graphs import pair_facts, pair_rows
from _saturation import saturation_gap

SCHEMA_DIR = Path(fairgate.__file__).parent / "schemas"


@contextmanager
def criterion(name, budget_seconds=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.monotonic() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"ACCEPTANCE {name}: FAIL (took {elapsed:.1f}s)")
        raise AssertionError(
            f"{name} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
        )
    print(f"ACCEPTANCE {name}: PASS")


def ctx_of(**kwargs):
    return Context(tuple(Attribution(k, Value.atomic(v)) for k, v in kwargs.items()))


def test_table1_exact_reproduction():
    with criterion("table1-exact", budget_seconds=1.0):
        ds = generate_table1()
        beta = Value.atomic("β")
        assert len(ds.rows) == 680
        cells = {
            ("v11", "v21"): Fraction(9, 10),
            ("v11", "v22"): Fraction(3, 4),
            ("v12", "v21"): Fraction(3, 4),
            ("v12", "v22"): Fraction(9, 10),
        }
        for (a1, a2), want in cells.items():
            got = empirical_probability(ds, ctx_of(a1=a1, a2=a2), beta)
            assert got == want, (a1, a2, got)
        for var, value in (("a1", "v11"), ("a1", "v12"), ("a2", "v21"), ("a2", "v22")):
            ctx = Context((Attribution(var, Value.atomic(value)),))
            assert empirical_probability(ds, ctx, beta) == Fraction(27, 34)
        assert empirical_probability(ds, Context(()), beta) == Fraction(27, 34)


def test_single_attributes_pass_while_pair_fails():
    with criterion("singletons-vs-pair", budget_seconds=1.0):
        ds = generate_table1()
        for attr in ("a1", "a2"):
            single = empirical_ci(ds, attr, "t", Context(()), Fraction(0))
            assert single.passed and single.max_delta == 0

        joint = empirical_ci(ds, "a1", "t", ctx_of(a2="v21"), Fraction(0))
        assert not joint.passed
        assert joint.max_delta == Fraction(9, 85)
        assert joint.witness == ("v11", "β")
        assert joint.conditional["v11"]["β"] == Fraction(9, 10)
        assert joint.conditional["v12"]["β"] == Fraction(3, 4)
        assert joint.conditional["v11"]["β"] - joint.conditional["v12"]["β"] == Fraction(3, 20)


def test_loan_weakening_golden_cases():
    with criterion("loan-weakening", budget_seconds=1.0):
        g = CausalGraph(
            ["Age", "MS", "GAI", "Loan"],
            [("Age", "MS"), ("Age", "GAI"), ("Age", "Loan"), ("GAI", "Loan")],
        )
        closure = close(g)

        good = evaluate_conditions(closure, "MS", "Loan", frozenset(["Age", "GAI"]))
        assert good.admissible

        bad = evaluate_conditions(closure, "MS", "Loan", frozenset(["GAI"]))
        assert not bad.admissible
        assert bad.failed_condition == "Condition2"
        assert bad.witness_fact.noncolliders == frozenset(["Age"])
        assert bad.witness_fact.collider_sets == frozenset()
        witness_render = bad.witness_fact.text
        fork_records = [
            r for r in bad.rule_trace
            if r.conclusion.text == witness_render and r.rule == "Fork"
        ]
        assert fork_records, [r.rule for r in bad.rule_trace]

        ms_loan = pair_rows(g, "MS", "Loan")
        assert dsep_oracle(ms_loan, g.node_mask(["Age", "GAI"]))
        assert not dsep_oracle(ms_loan, g.node_mask(["GAI"]))


def test_triplet_verdicts_on_both_routes():
    with criterion("triplet-shapes", budget_seconds=1.0):
        chain = CausalGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
        fork = CausalGraph(["A", "B", "C"], [("B", "A"), ("B", "C")])
        collider = CausalGraph(["A", "B", "C", "D"], [("A", "B"), ("C", "B"), ("B", "D")])

        cases = [
            (chain, frozenset(), False),
            (chain, frozenset(["B"]), True),
            (fork, frozenset(), False),
            (fork, frozenset(["B"]), True),
            (collider, frozenset(), True),
            (collider, frozenset(["B"]), False),
            (collider, frozenset(["D"]), False),
        ]
        for g, conditioning, expected in cases:
            closure = close(g)
            by_rules = evaluate_conditions(closure, "A", "C", conditioning).admissible
            rows = pair_rows(g, "A", "C")
            by_oracle = dsep_oracle(rows, g.node_mask(conditioning))
            assert by_rules is expected, (g.edges, conditioning)
            assert by_oracle is expected, (g.edges, conditioning)


def test_rules_and_oracle_agree_everywhere():
    with criterion("oracle-equivalence", budget_seconds=300.0):
        exhaustive = exhaustive_sweep(max_nodes=5)
        assert exhaustive.passed, exhaustive.discrepancies
        assert exhaustive.graphs_checked == 342
        assert exhaustive.checks_run == 24_942

        randomized = random_sweep(trials=500, max_nodes=8, seed=0)
        assert randomized.passed, randomized.discrepancies
        assert randomized.graphs_checked == 500
        assert randomized.checks_run == 272_968

        small = exhaustive_sweep(max_nodes=4)
        assert (small.graphs_checked, small.checks_run) == (40, 782)

        # Imported here, so that the other tests of this file run where
        # jsonschema's compiled dependencies do not import.
        from jsonschema import Draft202012Validator

        schema = json.loads((SCHEMA_DIR / "oracle.schema.json").read_text("utf-8"))
        validator = Draft202012Validator(schema)
        for report in (exhaustive, randomized):
            validator.validate(sweep_report_to_json(report))


def test_thousand_weakenings_preserve_probability():
    with criterion("probability-preservation", budget_seconds=300.0):
        rng = random.Random(424242)
        produced = 0
        attempts = 0
        while produced < 1000:
            attempts += 1
            assert attempts < 20_000, "instance generator stalled"
            g = random_dag(rng, max_nodes=6, min_nodes=3, edge_prob=0.35)
            closure = close(g)
            nodes = sorted(g.nodes)
            candidates = []
            for subject, target in itertools.permutations(nodes, 2):
                if (subject, target) in g.edges or (target, subject) in g.edges:
                    continue
                rest = [n for n in nodes if n not in (subject, target)]
                for r in range(len(rest) + 1):
                    for ctx_vars in itertools.combinations(rest, r):
                        facts = pair_facts(closure, subject, target)
                        if all(blocking_reason(f, frozenset(ctx_vars)) is not None for f in facts):
                            candidates.append((subject, target, ctx_vars))
            if not candidates:
                continue
            subject, target, ctx_vars = rng.choice(candidates)
            denominator = rng.randint(1, 997)
            probability = Fraction(rng.randint(0, denominator), denominator)
            judgment = Judgment(
                Context(
                    tuple(
                        Attribution(v, Value.atomic(f"x{rng.randint(0, 9)}"))
                        for v in ctx_vars
                    )
                ),
                target,
                Value.atomic("yes"),
                probability,
            )
            attr = Attribution(subject, Value.atomic("new"))
            verdict = check_weakening(closure, judgment, attr)
            assert verdict.admissible, (g.edges, subject, target, ctx_vars)
            weakened = apply_weakening(judgment, attr, verdict)
            assert weakened.probability == probability
            assert isinstance(weakened.probability, Fraction)
            assert weakened.context.variables() == set(ctx_vars) | {subject}
            produced += 1
        assert produced == 1000


def test_thousand_judgments_round_trip():
    with criterion("parser-roundtrip", budget_seconds=60.0):
        rng = random.Random(97)
        atoms = ["yes", "no", "27", "40K", "married", "β", "β′", "x_1", "v-2"]
        names = ["Age", "MS", "GAI", "Loan", "Gen", "Etn", "T", "Z9"]
        kinds_seen = set()
        for _ in range(1000):
            def random_value():
                kind = rng.choice(("atomic", "sum", "complement"))
                kinds_seen.add(kind)
                if kind == "atomic":
                    return Value.atomic(rng.choice(atoms))
                if kind == "sum":
                    return Value.sum_of(rng.sample(atoms, rng.randint(2, 4)))
                return Value.complement(rng.choice(atoms))

            ctx_vars = rng.sample(names, rng.randint(0, len(names) - 1))
            target = rng.choice([n for n in names if n not in ctx_vars])
            denominator = rng.randint(1, 10_000)
            judgment = Judgment(
                Context(tuple(Attribution(v, random_value()) for v in ctx_vars)),
                target,
                Value.atomic(rng.choice(atoms)),
                Fraction(rng.randint(0, denominator), denominator),
            )
            text = serialize_judgment(judgment)
            parsed = parse_judgment(text, None)
            assert parsed == judgment, text
            assert serialize_judgment(parsed) == text
        assert kinds_seen == {"atomic", "sum", "complement"}


def test_closure_is_idempotent_on_small_family():
    with criterion("closure-idempotence", budget_seconds=300.0):
        graphs = 0
        for n in range(1, 6):
            for g in enumerate_dags(n):
                closure = close(g)
                assert saturation_gap(closure, g) == 0, g.edges
                graphs += 1
        assert graphs == 342
