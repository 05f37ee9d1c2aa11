"""A frozenset restatement of the rules, used to check that a closure is saturated.

``close`` works on node bitmasks.  ``_window_facts`` and ``_try_glue``
state the Chain, Fork, Collider and Transitivity* rules directly on
PathFact frozensets and certifying paths, and ``_oriented`` reads a fact
off a path, so ``saturation_gap`` checks the engine against an
independent reading of the rules rather than against itself.  Only the
engine's public names are imported, and the graph is read by name from
its edges (``_graphs``), not from the index adjacency ``close`` reads.
"""

from __future__ import annotations

from itertools import combinations

from fairgate.closure import Closure, MediateCauseFact, PathFact
from fairgate.graph import CausalGraph

from _graphs import children_of, parents_of


def _oriented(noncolliders, collider_sets, path) -> PathFact:
    """The fact a path certifies, its ends ordered by name."""
    left, right = sorted((path[0], path[-1]))
    return PathFact(left, right, frozenset(noncolliders), frozenset(collider_sets))


def _window_facts(g: CausalGraph, mediate):
    """Chain (x -> y -> z), Fork (x <- y -> z) and Collider (x -> y <- z) facts.

    A collider's set is the node set of one mediate fact from y that
    avoids both ends.
    """
    for y in g.nodes:
        parents, children = parents_of(g, y), children_of(g, y)
        for x in parents:
            for z in children:
                yield _oriented({y}, (), (x, y, z))
        for x, z in combinations(children, 2):
            yield _oriented({y}, (), (x, y, z))
        for x, z in combinations(parents, 2):
            for fact in mediate:
                if fact.source == y and not {x, z} & fact.intermediates:
                    yield _oriented((), {fact.intermediates}, (x, y, z))


def _try_glue(fact1: PathFact, p1, fact2: PathFact, p2):
    """Transitivity* on certified views.

    ``p1`` must end with the two nodes that start ``p2``; the junction
    condition requires p1's far endpoint to be interior to fact2 and
    p2's near endpoint interior to fact1.  Conclusions whose collider
    sets would contain the new endpoints are not generated (they are
    unreachable in any query, since conditioning sets exclude the tested
    endpoints).
    """
    if p1[-2:] != p2[:2]:
        return None
    glued = p1 + p2[2:]
    if len(set(glued)) != len(glued):
        return None
    i, j = p1[-1], p2[0]
    if not (i in fact2.noncolliders or any(i in s for s in fact2.collider_sets)):
        return None
    if not (j in fact1.noncolliders or any(j in s for s in fact1.collider_sets)):
        return None
    noncolliders = fact1.noncolliders | fact2.noncolliders
    collider_sets = fact1.collider_sets | fact2.collider_sets
    x, y = glued[0], glued[-1]
    if any(x in s or y in s for s in collider_sets):
        return None
    return noncolliders, collider_sets, glued


def saturation_gap(closure: Closure, g: CausalGraph) -> int:
    """How many new facts one more pass of every rule would add (0 when closed)."""
    mediate = set(closure.mediate)
    missing_mediate: set[MediateCauseFact] = set()
    for x in g.nodes:
        fact = MediateCauseFact(x, x, frozenset([x]))
        if fact not in mediate:
            missing_mediate.add(fact)
    for fact in mediate:
        for k in children_of(g, fact.target):
            new = MediateCauseFact(fact.source, k, fact.intermediates | {k})
            if new not in mediate:
                missing_mediate.add(new)

    have = set(closure.paths)
    missing_paths = set(_window_facts(g, mediate)) - have

    views = []
    for fact, path in closure.derivations():
        views.append((fact, path))
        views.append((fact, path[::-1]))
    for fact1, p1 in views:
        for fact2, p2 in views:
            glued = _try_glue(fact1, p1, fact2, p2)
            if glued is not None:
                new_fact = _oriented(*glued)
                if new_fact not in have:
                    missing_paths.add(new_fact)

    return len(missing_mediate) + len(missing_paths)
