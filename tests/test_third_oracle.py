"""networkx as a third route to d-separation, shared with no fairgate code.

``networkx.is_d_separator`` decides every (pair, conditioning set) triple
of every DAG on 2-5 nodes, and must agree with both of fairgate's routes:
``dsep_oracle`` over the sweep's rows (``oracle_rows_by_pair``) and the
rules' decision the sweep makes (Condition 1 and ``Closure.first_open``).
The oracle's walk is checked against ``networkx.all_simple_paths`` on the
skeleton, and its rows against rows built from those paths with
``networkx.descendants``.  networkx is a test dependency only.
"""

import random
from itertools import combinations

import pytest

from fairgate.closure import close, dsep_oracle, enumerate_classified_paths, oracle_rows_by_pair
from fairgate.sweep import enumerate_dags, random_dag
from fairgate.weakening import check_condition1

nx = pytest.importorskip("networkx")


def _digraph(g):
    d = nx.DiGraph()
    d.add_nodes_from(g.names)
    d.add_edges_from(g.edges)
    return d


def _small_dags():
    return [g for n in range(2, 6) for g in enumerate_dags(n)]


def test_networkx_agrees_with_both_routes_on_every_dag_up_to_5_nodes():
    checks = 0
    for g in _small_dags():
        d = _digraph(g)
        closure = close(g)
        table = oracle_rows_by_pair(g)
        for x, y in combinations(g.names, 2):
            rows = table[x, y]
            nonadjacent = check_condition1(g, x, y)[0]
            rest = [v for v in g.names if v != x and v != y]
            for r in range(len(rest) + 1):
                for picked in combinations(rest, r):
                    mask = g.node_mask(picked)
                    by_networkx = nx.is_d_separator(d, {x}, {y}, set(picked))
                    by_rules = nonadjacent and closure.first_open(x, y, mask) is None
                    where = (sorted(g.edges), x, y, picked)
                    assert dsep_oracle(rows, mask) == by_networkx, where
                    assert by_rules == by_networkx, where
                    checks += 1
    assert checks == 24942


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
        table = oracle_rows_by_pair(g)
        for x, y in combinations(g.names, 2):
            where = (sorted(g.edges), x, y)
            walked = [path for path, _, _ in enumerate_classified_paths(g, x, y)]
            assert sorted(walked) == sorted(map(tuple, nx.all_simple_paths(skeleton, x, y))), where
            assert len(set(walked)) == len(walked), where
            assert set(table[x, y]) == _networkx_rows(d, g, x, y), where
