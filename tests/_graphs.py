"""Graph and closure helpers that only the tests need, built from public names.

The name views of a graph's adjacency (``parents_of``, ``children_of``,
``descendants_of``) read ``CausalGraph.edges`` alone, not the index
adjacency that the rule engine and the oracle share, so a reference built
on them stays independent of what it checks."""

from __future__ import annotations

import heapq

from fairgate.graph import CausalGraph
from fairgate.sweep import enumerate_classified_paths


def parents_of(g: CausalGraph, v: str) -> tuple[str, ...]:
    """v's parents by name, sorted, read from ``g.edges`` alone."""
    return tuple(sorted(a for a, b in g.edges if b == v))


def children_of(g: CausalGraph, v: str) -> tuple[str, ...]:
    """v's children by name, sorted, read from ``g.edges`` alone."""
    return tuple(sorted(b for a, b in g.edges if a == v))


def descendants_of(g: CausalGraph, v: str) -> frozenset[str]:
    """Every node a directed path from v reaches, v excluded, read from
    ``g.edges`` alone."""
    seen: set[str] = set()
    frontier = [v]
    while frontier:
        for child in children_of(g, frontier.pop()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return frozenset(seen)


def pair_facts(closure, x: str, y: str) -> tuple:
    """Every path fact with endpoints {x, y}, in canonical order: the facts
    of ``closure.audit(x, y, 0)``."""
    return tuple(fact for fact, _ in closure.audit(x, y, 0))


def pair_rows(g: CausalGraph, x: str, y: str) -> tuple:
    """The oracle's rows of the x-y paths, read from ``g`` alone: per path,
    its noncolliders' node mask and, per collider in path order, the mask of
    the collider and its descendants (``descendants_of``).  Paths with equal
    masks give one row, in the order of their first path."""
    return tuple(dict.fromkeys(
        (g.node_mask(nc), tuple(g.node_mask([c, *descendants_of(g, c)]) for c in cols))
        for _, nc, cols in enumerate_classified_paths(g, x, y)
    ))


def topological_order(g: CausalGraph) -> tuple[str, ...]:
    """A topological order of the nodes, ties broken by name (Kahn's
    algorithm), read from ``g.edges`` alone."""
    indegree = {v: len(parents_of(g, v)) for v in g.nodes}
    ready = [v for v, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in children_of(g, node):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return tuple(order)
