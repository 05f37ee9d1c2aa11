"""The agreement sweep's int-mask kernels against their set-based meaning.

Condition 2 is decided by one scan of the closure's mask rows
(``Closure.first_open``) and d-separation by ``dsep_oracle`` over
``oracle_rows_by_pair``.  Both are compared here, decision by decision, with the
set-based statements they replace: ``blocking_reason`` over every fact of
the pair, and d-separation restated on frozensets of names.  The sweep
decides each pair once per subset of the nodes both decisions read; it is
compared with the per-triple loop it replaces, also under faulty rules.
"""

import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from fairgate.closure import (
    Closure,
    close,
    dsep_oracle,
    enumerate_classified_paths,
    oracle_rows_by_pair,
)
from fairgate.errors import UnknownVariable
from fairgate import sweep
from fairgate.graph import CausalGraph
from fairgate.sweep import Discrepancy, check_graph_agreement, enumerate_dags, random_dag
from fairgate.weakening import check_condition1

from _blocking import blocking_reason
from _graphs import pair_facts, pair_rows


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
            facts = pair_facts(closure, x, y)
            paths = enumerate_classified_paths(g, x, y)
            rows = pair_rows(g, x, y)
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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decisions_read_the_conditioning_set_only_through_the_read_masks(family):
    # The sweep decides each pair once per subset of these masks: the
    # projection is exact only if neither decision reads another bit.
    for g in FAMILIES[family]():
        closure = close(g)
        for x, y in combinations(sorted(g.nodes), 2):
            rows = pair_rows(g, x, y)
            facts_read = closure.read_mask(x, y)
            rows_read = reduce(or_, (reduce(or_, cs, nc) for nc, cs in rows), 0)
            for c in range(1 << len(g.nodes)):
                where = (sorted(g.edges), x, y, c)
                assert closure.first_open(x, y, c) == closure.first_open(x, y, c & facts_read), where
                assert dsep_oracle(rows, c) == dsep_oracle(rows, c & rows_read), where


def reference_agreement(g, closure, table):
    """``check_graph_agreement`` as one decision per (pair, conditioning set)
    triple, walked in ascending mask order: the loop the projection replaces.
    ``closure`` is ``close(g)`` and ``table`` is ``oracle_rows_by_pair(g)``."""
    nodes = sorted(g.nodes)
    everything = g.node_mask(nodes)
    discrepancies = []
    checks = 0
    for x, y in combinations(nodes, 2):
        rows = table[x, y]
        nonadjacent = check_condition1(g, x, y)[0]
        rest = everything & ~g.node_mask((x, y))
        cond = 0
        while True:
            by_rules = nonadjacent and closure.first_open(x, y, cond) is None
            by_oracle = dsep_oracle(rows, cond)
            checks += 1
            if by_rules != by_oracle:
                discrepancies.append(
                    Discrepancy(
                        nodes=tuple(nodes),
                        edges=tuple(sorted(g.edges)),
                        x=x,
                        y=y,
                        conditioning=tuple(v for i, v in enumerate(nodes) if cond >> i & 1),
                        by_rules=by_rules,
                        by_oracle=by_oracle,
                    )
                )
            cond = (cond - rest) & rest
            if not cond:
                break
    return discrepancies, checks


def _collider_sets_count_as_met(closure, x, y, conditioning):
    mask = closure.graph.node_mask
    for fact in pair_facts(closure, x, y):
        if not mask(fact.noncolliders) & conditioning:
            return fact
    return None


def _one_noncollider_facts_never_open(closure, x, y, conditioning):
    mask = closure.graph.node_mask
    for fact in pair_facts(closure, x, y):
        if len(fact.noncolliders) == 1 and not fact.collider_sets:
            continue
        if not mask(fact.noncolliders) & conditioning and all(
            mask(s) & conditioning for s in fact.collider_sets
        ):
            return fact
    return None


@pytest.fixture(scope="module")
def agreement_graphs():
    """Every DAG with at most 5 nodes and 150 random ones, each with its
    closure and its oracle rows per pair, so that each fault below re-runs
    only the two loops under comparison."""
    rng = random.Random(29)
    graphs = [g for n in range(1, 6) for g in enumerate_dags(n)] + [
        random_dag(rng, max_nodes=9, min_nodes=4, edge_prob=rng.uniform(0.2, 0.45))
        for _ in range(150)
    ]
    return [
        (
            g,
            close(g),
            oracle_rows_by_pair(g),
        )
        for g in graphs
    ]


def _without_collider_facts(closure, x, y):
    return [f for f in pair_facts(closure, x, y) if not f.collider_sets]


def _first_open_without_collider_facts(closure, x, y, conditioning):
    mask = closure.graph.node_mask
    for fact in _without_collider_facts(closure, x, y):
        if not mask(fact.noncolliders) & conditioning:
            return fact
    return None


def _read_mask_without_collider_facts(closure, x, y):
    mask = closure.graph.node_mask
    return reduce(or_, (mask(f.noncolliders) for f in _without_collider_facts(closure, x, y)), 0)


FIRST_OPEN, READ_MASK = Closure.first_open, Closure.read_mask


def _stray(closure, x, y):
    """The last node other than x and y, as a mask: 0 below three nodes."""
    return closure.graph.node_mask(sorted(closure.graph.nodes - {x, y})[-1:])


def _first_open_with_stray_noncollider(closure, x, y, conditioning):
    if conditioning & _stray(closure, x, y):
        return None
    return FIRST_OPEN(closure, x, y, conditioning)


def _read_mask_with_stray_noncollider(closure, x, y):
    return READ_MASK(closure, x, y) | _stray(closure, x, y)


# Closure methods replaced by each fault.  The last two model a wrong
# closure, so read_mask changes with first_open: one loses every fact with
# a collider (the oracle then reads nodes the facts do not), the other
# adds a noncollider to every fact that no path of the pair holds.
FAULTS = {
    "none": {},
    "all_facts_open": None,  # the conftest fixture
    "collider_sets_count_as_met": {"first_open": _collider_sets_count_as_met},
    "one_noncollider_never_open": {"first_open": _one_noncollider_facts_never_open},
    "collider_facts_lost": {
        "first_open": _first_open_without_collider_facts,
        "read_mask": _read_mask_without_collider_facts,
    },
    "stray_noncollider": {
        "first_open": _first_open_with_stray_noncollider,
        "read_mask": _read_mask_with_stray_noncollider,
    },
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_projected_sweep_equals_the_per_triple_loop(fault, agreement_graphs, request, monkeypatch):
    if FAULTS[fault] is None:
        request.getfixturevalue(fault)
    else:
        for name, method in FAULTS[fault].items():
            monkeypatch.setattr(Closure, name, method)
    found = 0
    for g, closure, table in agreement_graphs:
        monkeypatch.setattr(sweep, "close", lambda _, fact_budget: closure)
        monkeypatch.setattr(sweep, "oracle_rows_by_pair", lambda _: table)
        expected = reference_agreement(g, closure, table)
        assert check_graph_agreement(g) == expected, sorted(g.edges)
        found += len(expected[0])
    # Each fault shows as discrepancies, so the lists compared are not all empty.
    assert (found == 0) == (fault == "none"), found


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
