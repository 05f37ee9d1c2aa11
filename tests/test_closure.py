import gc
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fairgate import closure as closure_module
from fairgate.closure import (
    DEFAULT_FACT_BUDGET,
    FACT_BUDGET_ENV_VAR,
    BlockReason,
    MediateCauseFact,
    PathFact,
    TraceRecord,
    close,
    closure_dump,
    dsep_oracle,
    enumerate_classified_paths,
    oracle_rows,
    oracle_rows_by_pair,
    render_path_fact,
    resolve_fact_budget,
)
from fairgate.errors import InputError, ResourceLimit, UnknownVariable
from fairgate.graph import CausalGraph
from fairgate.sweep import Discrepancy, check_graph_agreement, enumerate_dags, random_dag
from fairgate.weakening import evaluate_conditions

from _blocking import blocking_reason
from _graphs import topological_order
from _saturation import saturation_gap
from test_closure_bytes import DENSE_N10

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
        rows = oracle_rows(g, "A", "C")
        assert dsep_oracle(rows, g.node_mask(cond)) is want


def test_loan_facts_between_ms_and_loan(loan_graph, loan_closure):
    facts = loan_closure.facts_between("MS", "Loan")
    assert [render_path_fact(f) for f in facts] == [
        "Loan <>^{Age}_{} MS",
        "Loan <>^{Age,GAI}_{} MS",
    ]
    certifying = [
        tuple(p["certifyingPath"])
        for p in closure_dump(loan_closure)["paths"]
        if (p["left"], p["right"]) == ("Loan", "MS")
    ]
    assert certifying == [("Loan", "Age", "MS"), ("Loan", "GAI", "Age", "MS")]


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


def test_audit_pairs_each_fact_with_its_blocking_reason_and_shares_equal_ones():
    rng = random.Random(19)
    graphs = [g for n in range(1, 6) for g in enumerate_dags(n)]
    graphs += [random_dag(rng, max_nodes=8) for _ in range(100)]
    audits_checked = 0
    for g in graphs:
        closure = close(g)
        names = sorted(g.nodes)
        audits, entries = {}, {}
        for (i, x), (j, y) in itertools.combinations(enumerate(names), 2):
            facts = closure.facts_between(x, y)
            others = [k for k in range(len(names)) if k not in (i, j)]
            for size in range(len(others) + 1):
                for chosen in itertools.combinations(others, size):
                    mask = sum(1 << k for k in chosen)
                    conditioning = [names[k] for k in chosen]
                    audit = closure.audit(x, y, mask)
                    assert audit == tuple((f, blocking_reason(f, conditioning)) for f in facts)
                    assert audits.setdefault(audit, audit) is audit
                    for entry in audit:
                        assert entries.setdefault(entry, entry) is entry
                    audits_checked += 1
    assert audits_checked > 50_000


def test_audit_words_the_least_unmet_collider_set_by_name():
    # X -> B <- M -> C <- Y, and B -> Z: an X-Y fact carries the collider
    # sets {B,Z} and {C}.  {B,Z} comes first by name, though its node mask
    # (bits 0 and 5) is the larger int.
    g = CausalGraph([], [("X", "B"), ("M", "B"), ("M", "C"), ("Y", "C"), ("B", "Z")])
    closure = close(g)
    fact = PathFact("X", "Y", ["M"], [["B", "Z"], ["C"]])
    for conditioning, reason in [
        ([], BlockReason("collider-set", frozenset(["B", "Z"]))),
        (["Z"], BlockReason("collider-set", frozenset(["C"]))),
        (["M", "Z"], BlockReason("noncollider", frozenset(["M"]))),
        (["C", "Z"], None),
    ]:
        audit = dict(closure.audit("X", "Y", g.node_mask(conditioning)))
        assert audit[fact] == reason == blocking_reason(fact, conditioning), conditioning


def _assert_collider_sets_in_canonical_order(closure):
    """Each path fact key and each derivation holds its collider-set masks
    strictly ascending by node-index tuple, one mask per named set."""
    names, bits = closure.graph.names, closure._bits
    keys = [(key, key[3]) for key in closure._certifying]
    keys += [((path[0], path[-1], nc, cs), cs) for path, nc, cs in closure._derived]
    for key, sets in keys:
        order = [bits[s] for s in sets]
        assert all(a < b for a, b in zip(order, order[1:])), order
        named = [frozenset(names[i] for i in index) for index in order]
        assert len(named) == len(closure._named[key].collider_sets)
        assert frozenset(named) == closure._named[key].collider_sets


def test_collider_sets_are_kept_in_canonical_order_inside_each_key():
    rng = random.Random(23)
    graphs = [g for n in range(1, 5) for g in enumerate_dags(n)]
    graphs += [_dense(spec) for spec in DENSE_N10]
    graphs += [random_dag(rng, max_nodes=8, edge_prob=0.35) for _ in range(50)]
    for g in graphs:
        *protected, target = g.names
        _assert_collider_sets_in_canonical_order(close(g))
        _assert_collider_sets_in_canonical_order(
            close(g, pairs=[(p, target) for p in protected])
        )


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
        oracle_rows(g, "A", "Z")


def test_dsep_on_disconnected_nodes():
    g = CausalGraph(["A", "B"], [])
    assert dsep_oracle(oracle_rows(g, "A", "B"), 0)
    closure = close(g)
    assert evaluate_conditions(closure, "A", "B", frozenset()).admissible


def test_rows_by_pair_equal_the_rows_of_each_pair():
    # The sweep reads every pair's rows from one walk per node; a pair's own
    # walk stops at its second node, and walked the other way round it
    # meets the same paths with their colliders in reverse.
    rng = random.Random(13)
    graphs = [g for n in range(1, 6) for g in enumerate_dags(n)]
    graphs += [random_dag(rng, max_nodes=9, min_nodes=6, edge_prob=0.3) for _ in range(30)]
    for g in graphs:
        table = oracle_rows_by_pair(g)
        assert list(table) == list(itertools.combinations(g.names, 2))
        for (x, y), rows in table.items():
            assert rows == oracle_rows(g, x, y), (sorted(g.edges), x, y)
            backward = {(nc, colliders[::-1]) for nc, colliders in oracle_rows(g, y, x)}
            assert set(rows) == backward, (sorted(g.edges), x, y)


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


# --- naming on read -------------------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts each PathFact, MediateCauseFact and TraceRecord constructed."""
    counts = Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)

        return counted

    for cls in (PathFact, MediateCauseFact, TraceRecord):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return counts


def _dense(spec):
    names = [chr(ord("A") + i) for i in range(10)]
    return CausalGraph(names, [tuple(edge.split(">")) for edge in spec.split()])


def _dense_n10():
    return _dense(DENSE_N10[0])


def test_close_builds_no_named_fact_or_trace_record(built, loan_graph, monkeypatch):
    rendered = Counter()

    def counting(name):
        render = getattr(closure_module, name)

        def counted(*args):
            rendered[name] += 1
            return render(*args)

        return counted

    for name in ("_render_edge", "mediate_text", "path_fact_text"):
        monkeypatch.setattr(closure_module, name, counting(name))
    for g in (loan_graph, _dense_n10()):
        closure = close(g)
        # close renders no edge and no fact: its trace premises are int keys.
        assert not rendered, sorted(g.edges)
        closure.read_mask(*sorted(g.nodes)[:2])
        # The paths report renders every fact's text from the keys alone.
        closure_dump(closure)
        assert not built, sorted(g.edges)
        assert closure.paths and closure.trace
        assert set(rendered) == {"_render_edge", "mediate_text", "path_fact_text"}
        rendered.clear()
        built.clear()


def test_facts_between_builds_exactly_that_pairs_facts(built, loan_graph):
    for g, (x, y) in ((loan_graph, ("MS", "Loan")), (_dense_n10(), ("J", "A"))):
        closure = close(g)
        facts = closure.facts_between(x, y)
        assert facts and built == {"PathFact": len(facts)}
        assert closure.facts_between(y, x) is facts
        # The first transmitting fact is one already named.
        assert closure.first_open(x, y, 0) is facts[0]
        assert built == {"PathFact": len(facts)}
        built.clear()


def test_first_open_names_only_the_fact_it_returns(built):
    closure = close(_dense_n10())
    assert closure.first_open("A", "J", 0) is not None
    assert built == {"PathFact": 1}


READ_FIRST = {
    "trace": lambda closure, pairs: closure.trace,
    "paths": lambda closure, pairs: closure.paths,
    "facts_between": lambda closure, pairs: [closure.facts_between(x, y) for x, y in pairs],
    "closure_dump": lambda closure, pairs: closure_dump(closure),
}


def _naming_family():
    rng = random.Random(41)
    yield from (g for n in range(1, 5) for g in enumerate_dags(n))
    yield from (random_dag(rng, max_nodes=7) for _ in range(50))


def test_every_read_order_gives_one_dump_and_one_object_per_fact():
    for g in _naming_family():
        names = sorted(g.nodes)
        pairs = list(itertools.combinations(names, 2))
        masks = (0, (1 << len(names)) - 1, *(1 << i for i in range(len(names))))
        want = closure_dump(close(g))
        for first, read in READ_FIRST.items():
            closure = close(g)
            read(closure, pairs)
            assert closure_dump(closure) == want, (first, sorted(g.edges))
            seen = {}

            def one(fact):
                assert seen.setdefault(fact, fact) is fact, (first, fact)

            for fact in (*closure.paths, *closure.mediate):
                one(fact)
            for record in closure.trace:
                one(record.conclusion)
                for premise in record.premises:
                    if not isinstance(premise, str):
                        one(premise)
            for x, y in pairs:
                for fact in closure.facts_between(y, x):
                    one(fact)
                for mask in masks:
                    fact = closure.first_open(x, y, mask)
                    if fact is not None:
                        one(fact)
                    for fact, _ in closure.audit(x, y, mask):
                        one(fact)
                for record in closure.trace_between(x, y):
                    one(record.conclusion)
            for fact, _ in closure.derivations():
                one(fact)
            assert set(seen) == closure.paths | closure.mediate


def test_a_fully_read_closure_is_freed_by_reference_counting(loan_graph):
    # Each memo's build reads the closure's data and the other memos, never
    # the closure, so dropping the closure leaves no cycle to collect.
    for g in (loan_graph, _dense_n10()):
        gc.collect()
        # The memos are built with the closure, read or not.
        closure = close(g)
        del closure
        assert gc.collect() == 0, sorted(g.edges)
        closure = close(g)
        closure_dump(closure)
        closure.derivations()
        assert closure.mediate and closure.trace
        names = g.names
        for x, y in itertools.permutations(names, 2):
            closure.trace_between(x, y)
            for mask in (0, (1 << len(names)) - 1):
                closure.first_open(x, y, mask)
                closure.audit(x, y, mask)
        del closure
        assert gc.collect() == 0, sorted(g.edges)
