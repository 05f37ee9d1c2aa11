"""networkx as a third route to d-separation, shared with no fairgate code.

``networkx.is_d_separator`` decides every (pair, conditioning set) triple
of every DAG on 2-5 nodes and of 30 seeded random DAGs on 6-7 nodes, and
must agree with both of fairgate's routes, which read one graph adjacency:
``dsep_oracle`` over the sweep's rows (``_rows``, one walk per source
node) and the rules' decision a verdict makes (``check_condition1`` and
``check_condition2``, whose audit applies Condition 2's mask test).
The oracle's walk is checked against ``networkx.all_simple_paths`` on the
skeleton, and its rows against rows built from those paths with
``networkx.descendants``.  networkx is a test dependency only.
"""

import random
from itertools import combinations

import pytest

from fairgate.closure import close
from fairgate.sweep import (
    _rows,
    _skeleton,
    dsep_oracle,
    enumerate_classified_paths,
    enumerate_dags,
    random_dag,
)
from fairgate.weakening import check_condition1, check_condition2

nx = pytest.importorskip("networkx")


def _digraph(g):
    d = nx.DiGraph()
    d.add_nodes_from(g.names)
    d.add_edges_from(g.edges)
    return d


def _sweep_rows(g):
    """(x, y) -> the rows the sweep reads for that pair, x before y in
    ``g.names``: one walk per source node."""
    skeleton = _skeleton(g)
    table = {}
    for i, x in enumerate(g.names):
        found = _rows(skeleton, i)
        for y in g.names[i + 1:]:
            table[x, y] = tuple(found.get(g.index[y], ()))
    return table


def _small_dags():
    return [g for n in range(2, 6) for g in enumerate_dags(n)]


def _agreement_checks(graphs) -> int:
    """How many (pair, conditioning set) triples networkx, the oracle and the
    rules decided alike, over every pair and conditioning set of each graph."""
    checks = 0
    for g in graphs:
        d = _digraph(g)
        closure = close(g)
        table = _sweep_rows(g)
        for x, y in combinations(g.names, 2):
            rows = table[x, y]
            nonadjacent = check_condition1(g, x, y)[0]
            rest = [v for v in g.names if v != x and v != y]
            for r in range(len(rest) + 1):
                for picked in combinations(rest, r):
                    mask = g.node_mask(picked)
                    by_networkx = nx.is_d_separator(d, {x}, {y}, set(picked))
                    by_rules = nonadjacent and check_condition2(closure, x, y, picked)[0]
                    where = (sorted(g.edges), x, y, picked)
                    assert dsep_oracle(rows, mask) == by_networkx, where
                    assert by_rules == by_networkx, where
                    checks += 1
    return checks


def test_networkx_agrees_with_both_routes_on_every_dag_up_to_5_nodes():
    assert _agreement_checks(_small_dags()) == 24942


def test_networkx_agrees_with_both_routes_on_random_dags_of_6_and_7_nodes():
    # Both of fairgate's routes read one adjacency; networkx reads the edges.
    rng = random.Random(23)
    graphs = [random_dag(rng, max_nodes=7, min_nodes=6, edge_prob=0.35) for _ in range(30)]
    assert _agreement_checks(graphs) == 14112


def _networkx_rows(d, g, x, y):
    """The rows of the x-y paths, built from networkx's paths and descendants."""
    rows = set()
    for path in nx.all_simple_paths(d.to_undirected(as_view=True), x, y):
        noncolliders, colliders = 0, []
        for prev, v, nxt in zip(path, path[1:], path[2:]):
            if d.has_edge(prev, v) and d.has_edge(nxt, v):
                colliders.append(g.node_mask({v} | nx.descendants(d, v)))
            else:
                noncolliders |= g.node_mask([v])
        rows.add((noncolliders, tuple(colliders)))
    return rows


def test_the_walk_finds_the_simple_paths_networkx_finds():
    rng = random.Random(7)
    graphs = _small_dags() + [
        random_dag(rng, max_nodes=8, min_nodes=6, edge_prob=rng.uniform(0.2, 0.35))
        for _ in range(20)
    ]
    for g in graphs:
        d = _digraph(g)
        skeleton = d.to_undirected(as_view=True)
        table = _sweep_rows(g)
        for x, y in combinations(g.names, 2):
            where = (sorted(g.edges), x, y)
            walked = [path for path, _, _ in enumerate_classified_paths(g, x, y)]
            assert sorted(walked) == sorted(map(tuple, nx.all_simple_paths(skeleton, x, y))), where
            assert len(set(walked)) == len(walked), where
            assert set(table[x, y]) == _networkx_rows(d, g, x, y), where
