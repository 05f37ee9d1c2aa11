"""The agreement sweep's int-mask kernels against their set-based meaning.

Condition 2 is decided by one scan of the closure's mask rows
(``Closure.first_open``) and d-separation by ``dsep_oracle`` over
``oracle_rows``.  Both are compared here, decision by decision, with the
set-based statements they replace: ``blocking_reason`` over every fact of
the pair, and d-separation restated on frozensets of names.
"""

import random
from itertools import combinations

import pytest

from fairgate.closure import (
    blocking_reason,
    close,
    dsep_oracle,
    enumerate_classified_paths,
    oracle_rows,
)
from fairgate.errors import UnknownVariable
from fairgate.graph import CausalGraph
from fairgate.sweep import check_graph_agreement, enumerate_dags, random_dag


def separated_by_sets(g, paths, conditioning):
    """d-separation on names: every path has a conditioned noncollider or a
    collider with neither itself nor a descendant conditioned on."""
    return all(
        noncolliders & conditioning
        or any(c not in conditioning and not g.descendants(c) & conditioning for c in colliders)
        for _, noncolliders, colliders in paths
    )


def _random_family():
    rng = random.Random(11)
    return [random_dag(rng, max_nodes=8, min_nodes=5, edge_prob=0.35) for _ in range(40)]


FAMILIES = {
    "exhaustive-2-to-5": lambda: [g for n in range(2, 6) for g in enumerate_dags(n)],
    "random-seed-11": _random_family,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mask_decisions_equal_set_decisions(family):
    for g in FAMILIES[family]():
        closure = close(g)
        nodes = sorted(g.nodes)
        for x, y in combinations(nodes, 2):
            facts = closure.facts_between(x, y)
            paths = enumerate_classified_paths(g, x, y)
            rows = oracle_rows(g, paths)
            rest = [v for v in nodes if v != x and v != y]
            for r in range(len(rest) + 1):
                for picked in combinations(rest, r):
                    conditioning = frozenset(picked)
                    mask = g.node_mask(conditioning)
                    where = (sorted(g.edges), x, y, picked)
                    open_facts = [f for f in facts if blocking_reason(f, conditioning) is None]
                    first = closure.first_open(x, y, mask)
                    assert first == (open_facts[0] if open_facts else None), where
                    assert dsep_oracle(rows, mask) == separated_by_sets(g, paths, conditioning), where


def test_conditioning_sets_are_walked_in_ascending_subset_order(all_facts_open):
    # Every pair of a path graph has one path fact, which the patched rules
    # call open, so the routes disagree exactly where the oracle separates.
    g = CausalGraph("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
    found, checks = check_graph_agreement(g)
    expected = []
    nodes = sorted(g.nodes)
    for x, y in combinations(nodes, 2):
        paths = enumerate_classified_paths(g, x, y)
        rest = [v for v in nodes if v != x and v != y]
        for mask in range(1 << len(rest)):
            picked = tuple(v for k, v in enumerate(rest) if mask >> k & 1)
            if separated_by_sets(g, paths, frozenset(picked)):
                expected.append((x, y, picked))
    assert checks == 10 * 8
    assert [(d.x, d.y, d.conditioning) for d in found] == expected
    assert all(d.by_oracle and not d.by_rules for d in found)


def test_node_masks_number_the_nodes_in_sorted_order():
    g = random_dag(random.Random(3), max_nodes=6, min_nodes=6)
    for i, v in enumerate(sorted(g.nodes)):
        assert g.node_mask([v]) == 1 << i
    assert g.node_mask(g.nodes) == (1 << len(g.nodes)) - 1
    assert g.node_mask(()) == 0
    with pytest.raises(UnknownVariable):
        g.node_mask(["A", "Z"])


def test_dag_classes_match_oeis_a003087():
    # Unlabeled DAGs on n nodes: 1, 2, 6, 31, 302, 5984 (Robinson 1973).
    assert [len(enumerate_dags(n)) for n in range(1, 7)] == [1, 2, 6, 31, 302, 5984]
