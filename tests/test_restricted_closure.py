"""A closure restricted to node pairs.

``close(g, pairs=...)`` derives only what those pairs can read.  Its pair
reads must equal the whole closure's, its derivations must be exactly the
whole closure's relevant ones, and it must refuse every other pair and
the whole-closure dump.  The span it keeps a pair's derivations inside
must be the nodes of the pair's simple paths, as the oracle lists them.
"""

import itertools
import random

import pytest

from fairgate.closure import (
    _span,
    close,
    closure_dump,
    trace_record_json,
)
from fairgate.errors import ResourceLimit, UnknownVariable
from fairgate.graph import parse_graph
from fairgate.sweep import enumerate_classified_paths, enumerate_dags, random_dag

from _graphs import pair_facts

# Graphs whose blocks the span must follow: two triangles and a pendant
# edge on a chain of cut vertices, two components, and an isolated node.
SHAPES = [
    "A -> B\nA -> C\nB -> C\nC -> D\nC -> E\nD -> E\nE -> F\nnode G",
    "A -> B\nC -> B\nD -> E\nD -> F\nE -> F",
    "A -> B\nB -> C\nA -> C\nnode D",
]


def _family():
    """The ``SHAPES``, every DAG on 2-4 nodes, then 50 random DAGs on 6-8 nodes."""
    rng = random.Random(7)
    yield from map(parse_graph, SHAPES)
    yield from (g for n in range(2, 5) for g in enumerate_dags(n))
    yield from (random_dag(rng, max_nodes=8, min_nodes=6, edge_prob=0.3) for _ in range(50))


def _joined(rng):
    """Two random DAGs on 2-5 nodes each, joined at one node, which is then
    a cut vertex, or (one time in four) left apart, plus an isolated node."""
    left = random_dag(rng, max_nodes=5, min_nodes=2, edge_prob=0.5)
    right = random_dag(rng, max_nodes=5, min_nodes=2, edge_prob=0.5)
    rename = {v: v.lower() for v in right.names}
    if rng.random() < 0.75:
        rename[rng.choice(right.names)] = rng.choice(left.names)
    lines = [f"{s} -> {t}" for s, t in left.edges]
    lines += [f"{rename[s]} -> {rename[t]}" for s, t in right.edges]
    lines += [f"node {v}" for v in (*left.names, *rename.values(), "Z")]
    return parse_graph("\n".join(lines))


def _path_nodes(g, x, y):
    """Every node of a simple x-y path, read from the oracle's path enumeration."""
    return {v for path, _, _ in enumerate_classified_paths(g, x, y) for v in path}


def test_the_span_is_every_node_of_the_pairs_simple_paths():
    rng = random.Random(11)
    graphs = [g for n in range(2, 6) for g in enumerate_dags(n)]
    graphs += [_joined(rng) for _ in range(100)]
    for g in graphs:
        index = g.index
        for x, y in itertools.permutations(g.names, 2):
            want = g.node_mask(_path_nodes(g, x, y))
            assert _span(g.neighbors, index[x], index[y]) == want, (x, y, sorted(g.edges))


def test_a_pair_with_no_path_closes_to_its_mediate_facts_alone():
    # Dense: 12 nodes, 24 edges; its whole closure takes tens of seconds.
    # I has no edge, so no I-C or I-H path exists and no derivation is kept.
    g = random_dag(random.Random(5), max_nodes=12, min_nodes=12, edge_prob=0.3)
    assert g.neighbors[g.index["I"]] == ()
    mediate = 73
    for pair in [("I", "C"), ("I", "H")]:
        closure = close(g, fact_budget=mediate, pairs=[pair])
        assert pair_facts(closure, *pair) == ()
        assert len(closure.mediate) == mediate
    with pytest.raises(ResourceLimit, match=f"fact budget of {mediate} exceeded"):
        close(g, fact_budget=mediate)


def _wide_family():
    """Every DAG on 2-5 nodes, then 150 random DAGs on 6-9 nodes, each with
    an edge probability drawn from [0.2, 0.4]: 491 graphs."""
    rng = random.Random(31)
    yield from (g for n in range(2, 6) for g in enumerate_dags(n))
    for _ in range(150):
        yield random_dag(rng, max_nodes=9, min_nodes=6, edge_prob=rng.uniform(0.2, 0.4))


def _requests(g):
    """The pair lists the commands close for: one pair, as ``weaken`` and
    ``if`` do, for every pair, then every other node against the last one,
    as ``intersect`` does for its protected names against its target."""
    *protected, target = g.names
    yield from ([pair] for pair in itertools.combinations(g.names, 2))
    yield [(p, target) for p in protected]


def _reads(closure, x, y, masks):
    return (
        pair_facts(closure, x, y),
        [trace_record_json(record) for record in closure.trace_between(x, y)],
        [closure.audit(x, y, mask) for mask in masks],
    )


def check_reads(graphs) -> int:
    """Compare every request's pair reads with the whole closure's; return
    the number of (pair, mask) audits compared."""
    audits = 0
    for g in graphs:
        whole = close(g)
        for pairs in _requests(g):
            # The pairs are given target first, and read the other way round.
            restricted = close(g, pairs=[(y, x) for x, y in pairs])
            for x, y in pairs:
                # Every conditioning mask that leaves out the pair.
                pair = g.node_mask((x, y))
                masks = [mask for mask in range(1 << len(g.names)) if not mask & pair]
                got = _reads(restricted, x, y, masks)
                assert got == _reads(whole, x, y, masks), (pairs, (x, y), sorted(g.edges))
                audits += len(masks)
    return audits


def test_a_restricted_closure_reads_its_pairs_as_the_whole_closure_does():
    check_reads(_family())


def _relevant(derivation, spans):
    """The relevance test, restated on names: for some pair, the derivation's
    path interior and collider-set nodes miss both ends, and every node of
    its path lies on a simple path between them."""
    fact, path = derivation
    inside = set(path[1:-1]).union(*fact.collider_sets)
    return any(inside.isdisjoint(pair) and span.issuperset(path) for pair, span in spans)


def test_a_restricted_closure_derives_the_relevant_part_of_the_whole_closure():
    for g in _family():
        whole = close(g)
        derivations = whole.derivations()
        for pairs in _requests(g):
            restricted = close(g, pairs=pairs)
            spans = [(pair, _path_nodes(g, *pair)) for pair in pairs]
            want = frozenset(d for d in derivations if _relevant(d, spans))
            assert restricted.derivations() == want, (pairs, sorted(g.edges))
            assert restricted.paths == frozenset(fact for fact, _ in want)
            # Mediate facts are not restricted.
            assert restricted.mediate == whole.mediate


PAIR_READS = ["trace_between", "audit"]


def _read_args(read):
    return (0,) if read == "audit" else ()


@pytest.mark.parametrize("read", PAIR_READS)
def test_a_restricted_closure_refuses_every_other_pair(loan_graph, read):
    closure = close(loan_graph, pairs=[("MS", "Loan"), ("Age", "Loan")])
    args = _read_args(read)
    for x, y in itertools.permutations(loan_graph.names, 2):
        if y == "Loan" and x in ("MS", "Age") or x == "Loan" and y in ("MS", "Age"):
            getattr(closure, read)(x, y, *args)
        else:
            with pytest.raises(ValueError, match="restricted"):
                getattr(closure, read)(x, y, *args)


@pytest.mark.parametrize("pairs", [None, [("MS", "Loan")]], ids=["whole", "restricted"])
@pytest.mark.parametrize("read", PAIR_READS)
def test_a_pair_read_refuses_a_non_node_and_a_node_with_itself(loan_graph, read, pairs):
    # An answer here would read as "no path facts", which Condition 2 and
    # the agreement sweep take for "blocked".
    closure = close(loan_graph, pairs=pairs)
    args = _read_args(read)
    # Worded as CausalGraph.require_node, which every command's check calls, words it.
    for x, y in [("Zzz", "Loan"), ("MS", "Zzz"), ("Zzz", "Zzz")]:
        with pytest.raises(UnknownVariable, match="^variable 'Zzz' is not a node of the graph$"):
            getattr(closure, read)(x, y, *args)
    for v in loan_graph.names:
        with pytest.raises(ValueError, match="must differ"):
            getattr(closure, read)(v, v, *args)


def test_closure_dump_refuses_a_restricted_closure(loan_graph):
    every_pair = list(itertools.combinations(loan_graph.names, 2))
    for pairs in ([("MS", "Loan")], every_pair, []):
        with pytest.raises(ValueError, match="restricted"):
            closure_dump(close(loan_graph, pairs=pairs))


def test_pairs_must_name_graph_nodes(loan_graph):
    with pytest.raises(UnknownVariable, match="Zzz"):
        close(loan_graph, pairs=[("MS", "Zzz")])


def test_pairs_must_name_two_nodes(loan_graph):
    # Every pair read refuses a node paired with itself, so a closure for
    # one could answer nothing; close refuses it in the pair reads' words.
    for pairs in ([("MS", "MS")], [("MS", "Loan"), ("Loan", "Loan")]):
        with pytest.raises(ValueError, match="path endpoints must differ"):
            close(loan_graph, pairs=pairs)


if __name__ == "__main__":
    # The wide run, too slow for tier-1:
    # PYTHONPATH=src python tests/test_restricted_closure.py
    print(f"{check_reads(_wide_family())} audits equal on 491 graphs")
