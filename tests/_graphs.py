"""Graph and closure helpers that only the tests need, built from public names."""

from __future__ import annotations

import heapq

from fairgate.closure import enumerate_classified_paths
from fairgate.graph import CausalGraph


def pair_facts(closure, x: str, y: str) -> tuple:
    """Every path fact with endpoints {x, y}, in canonical order: the facts
    of ``closure.audit(x, y, 0)``."""
    return tuple(fact for fact, _ in closure.audit(x, y, 0))


def pair_rows(g: CausalGraph, x: str, y: str) -> tuple:
    """The oracle's rows of the x-y paths, read from ``g`` alone: per path,
    its noncolliders' node mask and, per collider in path order, the mask of
    the collider and its descendants.  Paths with equal masks give one row,
    in the order of their first path."""
    return tuple(dict.fromkeys(
        (g.node_mask(nc), tuple(g.node_mask([c, *g.descendants(c)]) for c in cols))
        for _, nc, cols in enumerate_classified_paths(g, x, y)
    ))


def topological_order(g: CausalGraph) -> tuple[str, ...]:
    """A topological order of the nodes, ties broken by name (Kahn's algorithm)."""
    indegree = {v: len(g.parents(v)) for v in g.nodes}
    ready = [v for v, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in g.children(node):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return tuple(order)
