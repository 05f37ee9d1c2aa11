"""A closure restricted to node pairs.

``close(g, pairs=...)`` derives only what those pairs can read.  Its pair
reads must equal the whole closure's, its derivations must be exactly the
whole closure's relevant ones, and it must refuse every other pair and
the whole-closure dump.
"""

import itertools
import random

import pytest

from fairgate.closure import close, closure_dump, trace_record_json
from fairgate.errors import UnknownVariable
from fairgate.sweep import enumerate_dags, random_dag


def _family():
    """Every DAG on 2-4 nodes, then 50 random DAGs on 6-8 nodes."""
    rng = random.Random(7)
    yield from (g for n in range(2, 5) for g in enumerate_dags(n))
    yield from (random_dag(rng, max_nodes=8, min_nodes=6, edge_prob=0.3) for _ in range(50))


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
        closure.facts_between(x, y),
        [trace_record_json(record) for record in closure.trace_between(x, y)],
        [closure.audit(x, y, mask) for mask in masks],
        [closure.first_open(x, y, mask) for mask in masks],
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


def _relevant(derivation, pairs):
    """The relevance test, restated on names: some pair misses both the
    derivation's path interior and its collider-set nodes."""
    fact, path = derivation
    inside = set(path[1:-1]).union(*fact.collider_sets)
    return any(inside.isdisjoint(pair) for pair in pairs)


def test_a_restricted_closure_derives_the_relevant_part_of_the_whole_closure():
    for g in _family():
        whole = close(g)
        derivations = whole.derivations()
        for pairs in _requests(g):
            restricted = close(g, pairs=pairs)
            want = frozenset(d for d in derivations if _relevant(d, pairs))
            assert restricted.derivations() == want, (pairs, sorted(g.edges))
            assert restricted.paths == frozenset(fact for fact, _ in want)
            # Mediate facts are not restricted.
            assert restricted.mediate == whole.mediate


@pytest.mark.parametrize(
    "read", ["facts_between", "trace_between", "first_open", "audit", "read_mask"]
)
def test_a_restricted_closure_refuses_every_other_pair(loan_graph, read):
    closure = close(loan_graph, pairs=[("MS", "Loan"), ("Age", "Loan")])
    args = (0,) if read in ("first_open", "audit") else ()
    for x, y in itertools.permutations(loan_graph.names, 2):
        if y == "Loan" and x in ("MS", "Age") or x == "Loan" and y in ("MS", "Age"):
            getattr(closure, read)(x, y, *args)
        else:
            with pytest.raises(ValueError, match="restricted"):
                getattr(closure, read)(x, y, *args)


def test_closure_dump_refuses_a_restricted_closure(loan_graph):
    every_pair = list(itertools.combinations(loan_graph.names, 2))
    for pairs in ([("MS", "Loan")], every_pair, []):
        with pytest.raises(ValueError, match="restricted"):
            closure_dump(close(loan_graph, pairs=pairs))


def test_pairs_must_name_graph_nodes(loan_graph):
    with pytest.raises(UnknownVariable, match="Zzz"):
        close(loan_graph, pairs=[("MS", "Zzz")])


if __name__ == "__main__":
    # The wide run, too slow for tier-1:
    # PYTHONPATH=src python tests/test_restricted_closure.py
    print(f"{check_reads(_wide_family())} audits equal on 491 graphs")
