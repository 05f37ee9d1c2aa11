"""Derived cause and path relations over a causal graph.

Two independent routes to conditional independence live here and are
deliberately kept separate:

* a fixpoint engine that closes the graph's immediate-cause edges under
  six derivation rules (Reflexive cause, Transitive cause, Chain, Fork,
  Collider, Transitivity*), producing mediate-cause facts and path facts
  whose blocking status decides independence, and
* a textbook d-separation oracle that enumerates simple undirected paths
  directly and never looks at derived facts.

Cross-checking the two is part of the test contract; nothing in this
module shares state between them.

Every path fact is certified by a concrete simple undirected path.
Transitivity* is applied only to certified paths that overlap in exactly
two nodes, which keeps each interior node classified by exactly one
premise and therefore keeps one collider-descendant set per collider.
The engine tracks (fact, certifying path) pairs so that a fact reachable
along several paths can keep feeding compositions through each of them.
Transitivity* is decided on int node bitmasks, and a derivation already
made is dropped before its PathFact is built (see ``close``).
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .errors import InputError, ResourceLimit, UnknownVariable
from .graph import CausalGraph

__all__ = [
    "DEFAULT_FACT_BUDGET",
    "FACT_BUDGET_ENV_VAR",
    "MediateCauseFact",
    "PathFact",
    "TraceRecord",
    "BlockReason",
    "Closure",
    "close",
    "resolve_fact_budget",
    "blocking_reason",
    "dsep_oracle",
    "enumerate_classified_paths",
    "closure_dump",
    "render_mediate",
    "render_path_fact",
    "render_edge",
]

DEFAULT_FACT_BUDGET = 10**6
FACT_BUDGET_ENV_VAR = "FAIRGATE_FACT_BUDGET"


def resolve_fact_budget(explicit: int | None) -> int:
    """Explicit argument wins, then the environment variable, then the default."""
    if explicit is not None:
        if explicit <= 0:
            raise InputError(f"the fact budget must be positive, got {explicit}")
        return explicit
    raw = os.environ.get(FACT_BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_FACT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{FACT_BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise InputError(f"{FACT_BUDGET_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class MediateCauseFact:
    """``source`` causes ``target`` through the given intermediate nodes.

    The intermediates are the nodes of one directed path from source to
    target, both ends included; a reflexive fact has intermediates equal
    to ``{source}``.
    """

    source: str
    target: str
    intermediates: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "intermediates", frozenset(self.intermediates))
        if self.source == self.target:
            if self.intermediates != frozenset([self.source]):
                raise ValueError("reflexive facts carry exactly their own node")
        elif self.target not in self.intermediates:
            raise ValueError("intermediates must contain the target")


@dataclass(frozen=True)
class PathFact:
    """A potential dependence channel between two distinct variables.

    ``noncolliders`` holds the interior path nodes that transmit unless
    conditioned on.  ``collider_sets`` holds one set per collider on the
    path: the collider plus the nodes of one directed chain to a chosen
    descendant; the path transmits through the collider only when the
    chosen set meets the conditioning set.  Endpoints never appear in
    either field.
    """

    left: str
    right: str
    noncolliders: frozenset[str]
    collider_sets: frozenset[frozenset[str]]

    def __post_init__(self):
        object.__setattr__(self, "noncolliders", frozenset(self.noncolliders))
        object.__setattr__(
            self, "collider_sets", frozenset(frozenset(s) for s in self.collider_sets)
        )
        if self.left == self.right:
            raise ValueError("path facts relate two distinct variables")
        ends = {self.left, self.right}
        if self.noncolliders & ends:
            raise ValueError("endpoints cannot be noncolliders of their own fact")
        for group in self.collider_sets:
            if not group:
                raise ValueError("collider sets are non-empty")
            if group & ends:
                raise ValueError("endpoints cannot appear in a collider set")


@dataclass(frozen=True)
class TraceRecord:
    """One productive rule firing: premises and conclusion in display form."""

    rule: str
    premises: tuple[str, ...]
    conclusion: str


class BlockReason(NamedTuple):
    """Why a fact is blocked: a conditioned noncollider or an unmet collider set."""

    kind: str  # "noncollider" or "collider-set"
    nodes: frozenset[str]


def render_edge(source: str, target: str) -> str:
    return f"{source} -> {target}"


def _render_set(nodes) -> str:
    return "{" + ",".join(sorted(nodes)) + "}"


def _render_family(sets) -> str:
    return "{" + ",".join(_render_set(s) for s in sorted(sets, key=lambda s: tuple(sorted(s)))) + "}"


def render_mediate(fact: MediateCauseFact) -> str:
    return f"{fact.source} |>^{_render_set(fact.intermediates)} {fact.target}"


def render_path_fact(fact: PathFact) -> str:
    return (
        f"{fact.left} <>^{_render_set(fact.noncolliders)}"
        f"_{_render_family(fact.collider_sets)} {fact.right}"
    )


def _mediate_sort_key(fact: MediateCauseFact):
    return (fact.source, fact.target, tuple(sorted(fact.intermediates)))


def _fact_sort_key(fact: PathFact):
    return (
        fact.left,
        fact.right,
        tuple(sorted(fact.noncolliders)),
        tuple(sorted(tuple(sorted(s)) for s in fact.collider_sets)),
    )


class Closure:
    """The fixpoint of the six derivation rules over ``graph``, the graph it closes."""

    __slots__ = ("graph", "mediate", "paths", "trace", "_certifying", "_derivations", "_by_pair")

    def __init__(self, graph, mediate, certifying, derivations, trace):
        self.graph: CausalGraph = graph
        self.mediate: frozenset[MediateCauseFact] = frozenset(mediate)
        self.paths: frozenset[PathFact] = frozenset(certifying)
        self.trace: tuple[TraceRecord, ...] = tuple(trace)
        self._certifying: dict[PathFact, tuple[str, ...]] = dict(certifying)
        self._derivations: frozenset[tuple[PathFact, tuple[str, ...]]] = frozenset(derivations)
        by_pair: dict[tuple[str, str], list[PathFact]] = defaultdict(list)
        for fact in self.paths:
            by_pair[(fact.left, fact.right)].append(fact)
        self._by_pair = {
            pair: tuple(sorted(facts, key=_fact_sort_key)) for pair, facts in by_pair.items()
        }

    def certifying_path(self, fact: PathFact) -> tuple[str, ...]:
        """The first simple path that certified the fact, left to right."""
        return self._certifying[fact]

    def facts_between(self, x: str, y: str) -> tuple[PathFact, ...]:
        """All path facts with endpoints {x, y}, in canonical order."""
        key = (x, y) if x <= y else (y, x)
        return self._by_pair.get(key, ())

    def derivations(self) -> frozenset[tuple[PathFact, tuple[str, ...]]]:
        """Every recorded (fact, certifying path) pair."""
        return self._derivations


def _canonical(noncolliders, collider_sets, path):
    if path[0] <= path[-1]:
        left, right, stored = path[0], path[-1], tuple(path)
    else:
        left, right, stored = path[-1], path[0], tuple(reversed(path))
    fact = PathFact(left, right, frozenset(noncolliders), frozenset(collider_sets))
    return fact, stored


def _iter_window_conclusions(g: CausalGraph, mediate_by_source):
    """Chain, Fork and Collider conclusions for every 3-node window."""
    for y in sorted(g.nodes):
        parent_list = g.parents(y)
        child_list = g.children(y)
        for x in parent_list:
            for z in child_list:
                if x == z:
                    continue
                fact, path = _canonical({y}, frozenset(), (x, y, z))
                yield fact, path, "Chain", (render_edge(x, y), render_edge(y, z))
        for x, z in combinations(child_list, 2):
            fact, path = _canonical({y}, frozenset(), (x, y, z))
            yield fact, path, "Fork", (render_edge(y, x), render_edge(y, z))
        for x, z in combinations(parent_list, 2):
            for mf in mediate_by_source.get(y, ()):
                chain = mf.intermediates
                if x in chain or z in chain:
                    continue
                fact, path = _canonical(frozenset(), {chain}, (x, y, z))
                yield fact, path, "Collider", (
                    render_edge(x, y),
                    render_edge(z, y),
                    render_mediate(mf),
                )


def close(g: CausalGraph, *, fact_budget: int | None = None, record_trace: bool = True) -> Closure:
    """Close the graph under all six rules and return the least fixpoint.

    Deterministic: seeds and rule applications run in sorted order, so
    identical graphs yield identical closures, traces included.  Raises
    ResourceLimit once more than ``fact_budget`` facts (counting each
    certifying-path variant) have been derived: one unit per new mediate
    fact and per new (path fact, certifying path) pair; rejected and
    repeated Transitivity* attempts are not charged.

    Transitivity* is decided on int node bitmasks (bit i for the i-th
    node in sorted order).  Each derivation has a forward and a backward
    view, one per direction of its path, and one index keys every view
    by its path's first two nodes.  A popped derivation is extended once
    at each end: its forward view glues to the indexed views that start
    with its last two nodes, and its backward view does the same, which
    extends the path at its left end.  Two views glue into a simple path
    iff their node masks meet in exactly the two junction bits.  The
    rule's junction condition needs no test: the index key makes each
    junction node an interior node of both premises' paths, and every
    interior node of a certified path is a noncollider or lies in a
    collider set.  The endpoint exclusion is one AND against the views'
    collider-set masks.  A conclusion is keyed by (canonical path,
    noncollider mask, collider-set masks), and a repeated key is dropped
    before its PathFact is built; premises are rendered only when a
    trace record is written.
    """
    budget = resolve_fact_budget(fact_budget)
    count = 0
    trace: list[TraceRecord] = []

    def note(rule, premises, conclusion):
        if record_trace:
            trace.append(TraceRecord(rule, tuple(premises), conclusion))

    def spend():
        nonlocal count
        count += 1
        if count > budget:
            raise ResourceLimit(f"fact budget of {budget} exceeded while closing the graph")

    mediate: dict[MediateCauseFact, None] = {}
    by_source: dict[str, list[MediateCauseFact]] = defaultdict(list)
    mqueue: deque[MediateCauseFact] = deque()

    def add_mediate(fact, rule, premises):
        if fact in mediate:
            return
        spend()
        mediate[fact] = None
        by_source[fact.source].append(fact)
        note(rule, premises, render_mediate(fact))
        mqueue.append(fact)

    for x in sorted(g.nodes):
        add_mediate(MediateCauseFact(x, x, frozenset([x])), "Reflexive cause", ())
    while mqueue:
        fact = mqueue.popleft()
        for k in g.children(fact.target):
            add_mediate(
                MediateCauseFact(fact.source, k, fact.intermediates | {k}),
                "Transitive cause",
                (render_mediate(fact), render_edge(fact.target, k)),
            )

    # Nodes are numbered in sorted order, so comparing indices compares names.
    names = sorted(g.nodes)
    index = {v: i for i, v in enumerate(names)}
    bit = [1 << i for i in range(len(names))]
    node_sets: dict[int, frozenset[str]] = {}

    def nodes_of(mask):
        found = node_sets.get(mask)
        if found is None:
            found = node_sets[mask] = frozenset(v for i, v in enumerate(names) if mask >> i & 1)
        return found

    def mask_of(nodes):
        mask = 0
        for v in nodes:
            mask |= bit[index[v]]
        return mask

    certifying: dict[PathFact, tuple[str, ...]] = {}
    rendered: dict[PathFact, str] = {}
    derivations: list[tuple[PathFact, tuple[str, ...]]] = []
    seen: set[tuple] = set()
    # A view is one direction of a derivation's path:
    # (fact, path, path mask, noncollider mask, collider-set masks,
    #  union of the collider-set masks).
    by_first2: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    pqueue: deque[tuple[tuple, tuple]] = deque()

    def add_path_fact(fact, path, mask, nc, cs, rule, premises):
        spend()
        stored = tuple(names[i] for i in path)
        derivations.append((fact, stored))
        if fact not in certifying:
            certifying[fact] = stored
            if record_trace:
                rendered[fact] = render_path_fact(fact)
                note(rule, premises(), rendered[fact])
        in_sets = 0
        for s in cs:
            in_sets |= s
        forward = (fact, path, mask, nc, cs, in_sets)
        backward = (fact, path[::-1]) + forward[2:]
        by_first2[path[0], path[1]].append(forward)
        by_first2[path[-1], path[-2]].append(backward)
        pqueue.append((forward, backward))

    # Window conclusions never repeat: a 3-node path is a chain, a fork or a
    # collider, and distinct mediate facts carry distinct node sets.  Glued
    # paths have four nodes or more, so ``seen`` only holds their keys.
    for fact, path, rule, premises in _iter_window_conclusions(g, by_source):
        add_path_fact(
            fact, tuple(index[v] for v in path), mask_of(path), mask_of(fact.noncolliders),
            frozenset(mask_of(s) for s in fact.collider_sets), rule, lambda p=premises: p,
        )

    def glue(view1, view2, is_backward):
        """Transitivity* on two views whose paths already meet only at the junction.

        On a backward view1 the premises are listed as (view2's fact,
        view1's fact), the order of the same glue read left to right.
        """
        fact1, p1, mask1, nc1, cs1, in_sets1 = view1
        fact2, p2, mask2, nc2, cs2, in_sets2 = view2
        # No junction test: the bucket key makes p1[-1] == p2[1] and
        # p2[0] == p1[-2], interior nodes of certified paths, and each such
        # node is a noncollider or lies in a collider set of its fact.
        # Conclusions whose collider sets would contain the new endpoints are
        # not generated: conditioning sets exclude the tested endpoints.
        if (in_sets1 | in_sets2) & (bit[p1[0]] | bit[p2[-1]]):
            return
        glued = p1 + p2[2:]
        if glued[0] > glued[-1]:
            glued = glued[::-1]
        nc = nc1 | nc2
        cs = cs1 | cs2
        key = (glued, nc, cs)
        if key in seen:
            return
        seen.add(key)
        fact = PathFact(
            names[glued[0]], names[glued[-1]], nodes_of(nc), frozenset(nodes_of(s) for s in cs)
        )
        first, second = (fact2, fact1) if is_backward else (fact1, fact2)
        add_path_fact(
            fact, glued, mask1 | mask2, nc, cs, "Transitivity*",
            lambda: (rendered[first], rendered[second]),
        )

    while pqueue:
        forward, backward = pqueue.popleft()
        for view, is_backward in ((forward, False), (backward, True)):
            path, mask = view[1], view[2]
            # The bucket is read as it stands before the view's glues run; a
            # partner is kept only when the glued path stays simple.
            junction = bit[path[-2]] | bit[path[-1]]
            bucket = by_first2.get((path[-2], path[-1]), ())
            for other in [o for o in bucket if o[2] & mask == junction]:
                glue(view, other, is_backward)

    return Closure(g, mediate, certifying, derivations, trace)


def blocking_reason(fact: PathFact, conditioning) -> BlockReason | None:
    """The deterministic reason a fact is blocked, or None when it transmits.

    Of several unmet collider sets, the least by sorted node names is reported.
    """
    cond = frozenset(conditioning)
    hit = fact.noncolliders & cond
    if hit:
        return BlockReason("noncollider", frozenset(hit))
    unmet = [s for s in fact.collider_sets if not (s & cond)]
    if unmet:
        return BlockReason("collider-set", min(unmet, key=sorted))
    return None


# --- Independent textbook oracle -----------------------------------------


def enumerate_classified_paths(g: CausalGraph, x: str, y: str):
    """Every simple undirected path x..y with its interior classification.

    Returns tuples (path, noncolliders, colliders) in a deterministic
    order.  A direct edge contributes a path with no interior nodes.
    """
    if x not in g.nodes or y not in g.nodes:
        raise UnknownVariable(f"both path endpoints must be graph nodes: {x!r}, {y!r}")
    if x == y:
        raise ValueError("path endpoints must differ")
    results = []
    path = [x]
    seen = {x}

    def classify(nodes):
        noncolliders = []
        colliders = []
        for prev, node, nxt in zip(nodes, nodes[1:], nodes[2:]):
            if (prev, node) in g.edges and (nxt, node) in g.edges:
                colliders.append(node)
            else:
                noncolliders.append(node)
        return frozenset(noncolliders), tuple(colliders)

    def walk(node):
        if node == y:
            nodes = tuple(path)
            noncolliders, colliders = classify(nodes)
            results.append((nodes, noncolliders, colliders))
            return
        for nxt in g.undirected_neighbors(node):
            if nxt in seen:
                continue
            seen.add(nxt)
            path.append(nxt)
            walk(nxt)
            path.pop()
            seen.remove(nxt)

    walk(x)
    return tuple(results)


def dsep_oracle(g: CausalGraph, paths, conditioning) -> bool:
    """d-separation over the output of ``enumerate_classified_paths``.

    True iff every path is blocked by the conditioning set: a noncollider
    is conditioned on, or some collider has neither itself nor a
    descendant conditioned on.  This route never consults derived facts.
    """
    cond = frozenset(conditioning)
    for _, noncolliders, colliders in paths:
        if not noncolliders & cond and all(
            c in cond or g.descendants(c) & cond for c in colliders
        ):
            return False
    return True


# --- Reporting -----------------------------------------------------------


def closure_dump(closure: Closure) -> dict:
    """JSON-ready closure listing with a deterministic order throughout."""
    mediate = [
        {
            "source": f.source,
            "target": f.target,
            "intermediates": sorted(f.intermediates),
        }
        for f in sorted(closure.mediate, key=_mediate_sort_key)
    ]
    paths = [
        {
            "left": f.left,
            "right": f.right,
            "noncolliders": sorted(f.noncolliders),
            "colliderSets": sorted(
                (sorted(s) for s in f.collider_sets), key=lambda s: tuple(s)
            ),
            "certifyingPath": list(closure.certifying_path(f)),
        }
        for f in sorted(closure.paths, key=_fact_sort_key)
    ]
    trace = [
        {"rule": r.rule, "premises": list(r.premises), "conclusion": r.conclusion}
        for r in closure.trace
    ]
    return {"mediate": mediate, "paths": paths, "trace": trace}
