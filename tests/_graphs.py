"""Graph helpers that only the tests need."""

from __future__ import annotations

import heapq

from fairgate.graph import CausalGraph


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
