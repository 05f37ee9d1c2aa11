import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fairgate.closure import (
    DEFAULT_FACT_BUDGET,
    FACT_BUDGET_ENV_VAR,
    BlockReason,
    MediateCauseFact,
    PathFact,
    blocking_reason,
    close,
    closure_dump,
    dsep_oracle,
    enumerate_classified_paths,
    render_path_fact,
    resolve_fact_budget,
)
from fairgate.errors import InputError, ResourceLimit, UnknownVariable
from fairgate.graph import CausalGraph
from fairgate.sweep import Discrepancy, check_graph_agreement, enumerate_dags, random_dag
from fairgate.weakening import evaluate_conditions

from _graphs import topological_order
from _saturation import saturation_gap

RULE_NAMES = {
    "Reflexive cause",
    "Transitive cause",
    "Chain",
    "Fork",
    "Collider",
    "Transitivity*",
}


def chain_graph():
    return CausalGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])


def fork_graph():
    return CausalGraph(["A", "B", "C"], [("B", "A"), ("B", "C")])


def collider_graph(with_descendant=False):
    edges = [("A", "B"), ("C", "B")]
    nodes = ["A", "B", "C"]
    if with_descendant:
        nodes.append("D")
        edges.append(("B", "D"))
    return CausalGraph(nodes, edges)


# --- ground truth built directly from path enumeration ---------------------


def directed_path_sets(g, start):
    """Node sets of every directed path leaving ``start`` (itself included)."""
    sets = set()
    path = [start]

    def walk(node):
        sets.add(frozenset(path))
        for child in g.children(node):
            path.append(child)
            walk(child)
            path.pop()

    walk(start)
    return sets


def expected_facts(g):
    """Every path fact the engine should reach, straight from the paths."""
    facts = set()
    nodes = sorted(g.nodes)
    for x, y in itertools.combinations(nodes, 2):
        for path, noncolliders, colliders in enumerate_classified_paths(g, x, y):
            if len(path) == 2:
                continue
            choices = [
                [s for s in directed_path_sets(g, c) if x not in s and y not in s]
                for c in colliders
            ]
            for combo in itertools.product(*choices):
                facts.add(PathFact(x, y, noncolliders, frozenset(combo)))
    return facts


# --- fact value objects -----------------------------------------------------


def test_mediate_fact_invariants():
    MediateCauseFact("A", "A", frozenset(["A"]))
    MediateCauseFact("A", "C", frozenset(["A", "B", "C"]))
    with pytest.raises(ValueError):
        MediateCauseFact("A", "A", frozenset(["A", "B"]))
    with pytest.raises(ValueError):
        MediateCauseFact("A", "C", frozenset(["A", "B"]))


def test_path_fact_invariants():
    PathFact("A", "C", frozenset(["B"]), frozenset())
    with pytest.raises(ValueError):
        PathFact("A", "A", frozenset(), frozenset())
    with pytest.raises(ValueError):
        PathFact("A", "C", frozenset(["A"]), frozenset())
    with pytest.raises(ValueError):
        PathFact("A", "C", frozenset(), frozenset([frozenset()]))
    with pytest.raises(ValueError):
        PathFact("A", "C", frozenset(), frozenset([frozenset(["C"])]))


def test_render_path_fact_sorts_contents():
    fact = PathFact(
        "A", "Z", frozenset(["M", "B"]), frozenset([frozenset(["D", "C"])])
    )
    assert render_path_fact(fact) == "A <>^{B,M}_{{C,D}} Z"


# --- small shapes ------------------------------------------------------------


def test_chain_and_fork_yield_one_noncollider_fact():
    for g in (chain_graph(), fork_graph()):
        closure = close(g)
        facts = closure.facts_between("A", "C")
        assert len(facts) == 1
        fact = facts[0]
        assert fact.noncolliders == frozenset(["B"])
        assert fact.collider_sets == frozenset()


def test_collider_yields_one_set_per_descendant_chain():
    closure = close(collider_graph(with_descendant=True))
    facts = closure.facts_between("A", "C")
    families = {fact.collider_sets for fact in facts}
    assert families == {
        frozenset([frozenset(["B"])]),
        frozenset([frozenset(["B", "D"])]),
    }
    assert all(fact.noncolliders == frozenset() for fact in facts)


def test_triplet_verdicts_match_oracle_on_both_routes():
    cases = [
        (chain_graph(), frozenset(), False),
        (chain_graph(), frozenset(["B"]), True),
        (fork_graph(), frozenset(), False),
        (fork_graph(), frozenset(["B"]), True),
        (collider_graph(), frozenset(), True),
        (collider_graph(), frozenset(["B"]), False),
        (collider_graph(True), frozenset(["D"]), False),
    ]
    for g, cond, want in cases:
        closure = close(g)
        assert evaluate_conditions(closure, "A", "C", cond).admissible is want
        assert dsep_oracle(g, enumerate_classified_paths(g, "A", "C"), cond) is want


def test_loan_facts_between_ms_and_loan(loan_graph, loan_closure):
    facts = loan_closure.facts_between("MS", "Loan")
    assert [render_path_fact(f) for f in facts] == [
        "Loan <>^{Age}_{} MS",
        "Loan <>^{Age,GAI}_{} MS",
    ]
    assert loan_closure.certifying_path(facts[0]) == ("Loan", "Age", "MS")
    assert loan_closure.certifying_path(facts[1]) == ("Loan", "GAI", "Age", "MS")


def test_loan_closure_shape(loan_closure):
    assert len(loan_closure.mediate) == 9
    assert len(loan_closure.paths) == 7
    assert len(loan_closure.trace) == 16


# --- trace discipline --------------------------------------------------------


def test_trace_names_and_productivity(loan_closure):
    conclusions = [record.conclusion for record in loan_closure.trace]
    assert len(conclusions) == len(set(conclusions))
    assert {record.rule for record in loan_closure.trace} <= RULE_NAMES
    first_rules = [r.rule for r in loan_closure.trace[: len(loan_closure.mediate)]]
    assert first_rules[0] == "Reflexive cause"


# --- budgets -----------------------------------------------------------------


def test_tiny_budget_raises_resource_limit(loan_graph):
    with pytest.raises(ResourceLimit, match="fact budget of 3"):
        close(loan_graph, fact_budget=3)


def test_budget_resolution(monkeypatch):
    monkeypatch.delenv(FACT_BUDGET_ENV_VAR, raising=False)
    assert resolve_fact_budget(None) == DEFAULT_FACT_BUDGET
    assert resolve_fact_budget(42) == 42
    monkeypatch.setenv(FACT_BUDGET_ENV_VAR, "17")
    assert resolve_fact_budget(None) == 17
    assert resolve_fact_budget(42) == 42
    monkeypatch.setenv(FACT_BUDGET_ENV_VAR, "zero")
    with pytest.raises(InputError):
        resolve_fact_budget(None)
    monkeypatch.setenv(FACT_BUDGET_ENV_VAR, "0")
    with pytest.raises(InputError):
        resolve_fact_budget(None)
    for bad in (0, -5):
        with pytest.raises(InputError, match="must be positive"):
            resolve_fact_budget(bad)


def test_env_budget_limits_closure(monkeypatch, loan_graph):
    monkeypatch.setenv(FACT_BUDGET_ENV_VAR, "2")
    with pytest.raises(ResourceLimit):
        close(loan_graph)
    close(loan_graph, fact_budget=10_000)


# --- blocking ----------------------------------------------------------------


def test_is_fact_blocked():
    noncollider = PathFact("A", "C", frozenset(["B"]), frozenset())
    assert blocking_reason(noncollider, frozenset(["B"])) is not None
    assert blocking_reason(noncollider, frozenset(["B", "Z"])) is not None
    assert blocking_reason(noncollider, frozenset()) is None
    assert blocking_reason(noncollider, frozenset(["Z"])) is None

    collider = PathFact("A", "C", frozenset(), frozenset([frozenset(["B", "D"])]))
    assert blocking_reason(collider, frozenset()) is not None
    assert blocking_reason(collider, frozenset(["Z"])) is not None
    assert blocking_reason(collider, frozenset(["D"])) is None
    assert blocking_reason(collider, frozenset(["B"])) is None

    mixed = PathFact(
        "A", "D", frozenset(["M"]), frozenset([frozenset(["B"]), frozenset(["C"])])
    )
    assert blocking_reason(mixed, frozenset(["M", "B", "C"])) is not None
    assert blocking_reason(mixed, frozenset(["B"])) is not None
    assert blocking_reason(mixed, frozenset(["B", "C"])) is None


def test_blocking_reason_prefers_noncolliders_then_least_set():
    mixed = PathFact(
        "A", "D", frozenset(["M"]), frozenset([frozenset(["C"]), frozenset(["B"])])
    )
    hit = blocking_reason(mixed, frozenset(["M", "Z"]))
    assert hit == BlockReason("noncollider", frozenset(["M"]))
    dark = blocking_reason(mixed, frozenset())
    assert dark == BlockReason("collider-set", frozenset(["B"]))
    assert blocking_reason(mixed, frozenset(["B", "C"])) is None


# --- path enumeration and the oracle -----------------------------------------


def test_enumerate_classified_paths_validates():
    g = chain_graph()
    with pytest.raises(UnknownVariable):
        enumerate_classified_paths(g, "A", "Z")
    with pytest.raises(ValueError):
        enumerate_classified_paths(g, "A", "A")


def test_enumerate_classified_paths_contents():
    g = collider_graph(with_descendant=True)
    paths = enumerate_classified_paths(g, "A", "C")
    assert paths == ((("A", "B", "C"), frozenset(), ("B",)),)
    direct = enumerate_classified_paths(g, "A", "B")
    assert (("A", "B"), frozenset(), ()) in direct


def test_dsep_oracle_validates_nodes():
    g = chain_graph()
    with pytest.raises(UnknownVariable):
        dsep_oracle(g, enumerate_classified_paths(g, "A", "Z"), frozenset())


def test_dsep_on_disconnected_nodes():
    g = CausalGraph(["A", "B"], [])
    assert dsep_oracle(g, enumerate_classified_paths(g, "A", "B"), frozenset())
    closure = close(g)
    assert evaluate_conditions(closure, "A", "B", frozenset()).admissible


def test_sweep_records_each_disagreement(all_facts_open):
    # Conditioning on B blocks the chain's one path; the patched rules
    # still call it open, so the routes disagree there and only there.
    discrepancies, checks = check_graph_agreement(chain_graph())
    assert checks == 6
    assert discrepancies == [
        Discrepancy(
            nodes=("A", "B", "C"),
            edges=(("A", "B"), ("B", "C")),
            x="A",
            y="C",
            conditioning=("B",),
            by_rules=False,
            by_oracle=True,
        )
    ]


# --- engine equals ground truth ----------------------------------------------


def test_extensional_equality_on_exhaustive_small_family():
    for n in range(1, 5):
        for g in enumerate_dags(n):
            closure = close(g)
            assert closure.paths == expected_facts(g), g.edges


def test_extensional_equality_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        g = random_dag(rng, max_nodes=6, edge_prob=0.4)
        closure = close(g)
        assert closure.paths == expected_facts(g), g.edges


def test_saturation_gap_is_zero_on_random_graphs():
    rng = random.Random(11)
    for _ in range(25):
        g = random_dag(rng, max_nodes=6, edge_prob=0.35)
        assert saturation_gap(close(g), g) == 0


def test_every_interior_node_of_a_certifying_path_is_classified():
    # close() glues Transitivity* premises without testing the junction
    # condition; this invariant is what makes that test redundant.
    rng = random.Random(13)
    graphs = [g for n in range(1, 5) for g in enumerate_dags(n)]
    graphs += [random_dag(rng, max_nodes=8) for _ in range(150)]
    checked = 0
    for g in graphs:
        for fact, path in close(g).derivations():
            classified = fact.noncolliders.union(*fact.collider_sets)
            assert set(path[1:-1]) <= classified, (sorted(g.edges), fact, path)
            checked += 1
    assert checked > 5000


def test_adding_an_edge_never_removes_facts():
    rng = random.Random(3)
    for _ in range(20):
        g = random_dag(rng, max_nodes=6, edge_prob=0.3)
        order = topological_order(g)
        missing = [
            (a, b)
            for i, a in enumerate(order)
            for b in order[i + 1 :]
            if (a, b) not in g.edges
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        bigger = CausalGraph(g.nodes, list(g.edges) + [extra])
        assert close(g).paths <= close(bigger).paths


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.data())
def test_independence_is_symmetric(seed, data):
    g = random_dag(random.Random(seed), max_nodes=6, edge_prob=0.35)
    closure = close(g)
    nodes = sorted(g.nodes)
    x = data.draw(st.sampled_from(nodes))
    y = data.draw(st.sampled_from([n for n in nodes if n != x]))
    rest = [n for n in nodes if n not in (x, y)]
    cond = frozenset(data.draw(st.sets(st.sampled_from(rest)))) if rest else frozenset()
    assert (
        evaluate_conditions(closure, x, y, cond).admissible
        == evaluate_conditions(closure, y, x, cond).admissible
    )


# --- dump determinism ---------------------------------------------------------


def test_closure_dump_is_deterministic(loan_graph):
    first = json.dumps(closure_dump(close(loan_graph)), indent=2, ensure_ascii=False)
    second = json.dumps(closure_dump(close(loan_graph)), indent=2, ensure_ascii=False)
    assert first == second


def test_closure_dump_shape(loan_closure):
    dump = closure_dump(loan_closure)
    assert set(dump) == {"mediate", "paths", "trace"}
    sources = [(m["source"], m["target"]) for m in dump["mediate"]]
    assert sources == sorted(sources)
    keys = [
        (p["left"], p["right"], p["noncolliders"], p["colliderSets"])
        for p in dump["paths"]
    ]
    assert keys == sorted(keys)
    for p in dump["paths"]:
        assert p["certifyingPath"][0] == p["left"]
        assert p["certifyingPath"][-1] == p["right"]
    for record in dump["trace"]:
        assert set(record) == {"rule", "premises", "conclusion"}
        assert record["rule"] in RULE_NAMES
