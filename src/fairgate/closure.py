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
module shares state between them.  Each decides on int node masks (bit i
for the i-th node in sorted order, ``CausalGraph.node_mask``) with its own
scan: ``Closure.first_open`` over the facts' masks, ``dsep_oracle`` over
``oracle_rows``, which are read from the graph alone.

Every path fact is certified by a concrete simple undirected path.
Transitivity* is applied only to certified paths that overlap in exactly
two nodes, which keeps each interior node classified by exactly one
premise and therefore keeps one collider-descendant set per collider.
The engine tracks (fact, certifying path) pairs so that a fact reachable
along several paths can keep feeding compositions through each of them.
Path facts are worked on int node bitmasks, and one step of ``close``,
``derive``, makes each of them, whether a window or Transitivity*
concludes it, and keeps one record per derivation.
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
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
    "oracle_rows",
    "closure_dump",
    "trace_record_json",
    "sorted_collider_sets",
    "render_path_fact",
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

    @cached_property
    def text(self) -> str:
        """``_render_mediate(self)``, rendered on first use."""
        return _render_mediate(self)


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

    @cached_property
    def text(self) -> str:
        """``render_path_fact(self)``, rendered on first use."""
        return render_path_fact(self)


@dataclass(frozen=True)
class TraceRecord:
    """One productive rule firing: the new fact, its premise facts and, for the rules
    that read edges, the edges as ``"X -> Y"``; ``trace_record_json`` renders it."""

    rule: str
    premises: tuple[str | MediateCauseFact | PathFact, ...]
    conclusion: MediateCauseFact | PathFact


class BlockReason(NamedTuple):
    """Why a fact is blocked: a conditioned noncollider or an unmet collider set."""

    kind: str  # "noncollider" or "collider-set"
    nodes: frozenset[str]


def _render_edge(source: str, target: str) -> str:
    return f"{source} -> {target}"


def _render_set(nodes) -> str:
    return "{" + ",".join(sorted(nodes)) + "}"


def sorted_collider_sets(sets) -> list[list[str]]:
    """A fact's collider sets as sorted name lists, in their one canonical order."""
    return sorted(sorted(s) for s in sets)


def _render_family(sets) -> str:
    return "{" + ",".join(map(_render_set, sorted_collider_sets(sets))) + "}"


def _render_mediate(fact: MediateCauseFact) -> str:
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
        sorted_collider_sets(fact.collider_sets),
    )


class Closure:
    """The fixpoint of the six derivation rules over ``graph``, the graph it closes.

    Each node pair's path facts are kept in canonical order for
    ``facts_between``.  ``first_open``, the one Condition 2 scan, reads them
    as int mask rows (noncollider mask, collider-set masks, fact), built
    from ``close``'s masks on the pair's first scan.  Bit i of a mask is the
    i-th graph node in sorted order, as in ``CausalGraph.node_mask``, and
    ``read_mask`` is the union of a pair's rows.  ``audit`` pairs the same
    facts with their ``blocking_reason``s, each distinct pair and each
    distinct audit built once per closure.
    """

    __slots__ = (
        "graph", "mediate", "paths", "trace", "_certifying", "_derived", "_by_pair", "_rows",
        "_traces", "_audits", "_entries", "_consed",
    )

    def __init__(self, graph, mediate, certifying, derived, trace):
        self.graph: CausalGraph = graph
        self.mediate: frozenset[MediateCauseFact] = frozenset(mediate)
        self.paths: frozenset[PathFact] = frozenset(certifying)
        self.trace: tuple[TraceRecord, ...] = tuple(trace)
        # fact -> (first certifying path, position of the fact's trace record,
        #          noncollider mask, collider-set masks)
        self._certifying: dict[PathFact, tuple] = dict(certifying)
        # (node-index path, noncollider mask, collider-set masks) -> fact, one
        # entry per derivation; node i is the i-th graph node in sorted order.
        self._derived: dict[tuple, PathFact] = derived
        by_pair: dict[tuple[str, str], list[PathFact]] = defaultdict(list)
        for fact in self.paths:
            by_pair[(fact.left, fact.right)].append(fact)
        self._by_pair = {
            pair: tuple(sorted(facts, key=_fact_sort_key)) for pair, facts in by_pair.items()
        }
        # (x, y) -> the mask rows of facts_between(x, y), built on a pair's first scan.
        self._rows: dict[tuple[str, str], tuple[tuple[int, frozenset[int], PathFact], ...]] = {}
        # (x, y) -> the trace records of facts_between(x, y), built on the pair's first call.
        self._traces: dict[tuple[str, str], tuple[TraceRecord, ...]] = {}
        # (x, y) -> (union of the read masks, per fact of facts_between(x, y) the
        # mask of the nodes its reason reads, {conditioning & union: audit}).
        self._audits: dict[tuple[str, str], tuple[int, tuple[int, ...], dict]] = {}
        # ((x, y), fact position, conditioning & its read mask) -> (fact, reason).
        self._entries: dict[tuple, tuple[PathFact, BlockReason | None]] = {}
        # Hash-consing table: an entry or an audit -> the one equal object kept.
        self._consed: dict[tuple, tuple] = {}

    def certifying_path(self, fact: PathFact) -> tuple[str, ...]:
        """The first simple path that certified the fact, left to right."""
        return self._certifying[fact][0]

    def trace_between(self, x: str, y: str) -> tuple[TraceRecord, ...]:
        """The records that derived ``facts_between(x, y)``, in trace order.

        Built on the pair's first call, so every verdict of a pair shares one tuple.
        """
        key = (x, y) if x <= y else (y, x)
        trace = self._traces.get(key)
        if trace is None:
            certifying = self._certifying
            trace = self._traces[key] = tuple(
                self.trace[i] for i in sorted(certifying[f][1] for f in self._by_pair.get(key, ()))
            )
        return trace

    def facts_between(self, x: str, y: str) -> tuple[PathFact, ...]:
        """All path facts with endpoints {x, y}, in canonical order."""
        key = (x, y) if x <= y else (y, x)
        return self._by_pair.get(key, ())

    def first_open(self, x: str, y: str, conditioning: int) -> PathFact | None:
        """The first fact of ``facts_between(x, y)`` that transmits given the
        conditioning node mask, or None when every one is blocked.

        A fact transmits when no noncollider is conditioned on and every
        collider set meets the conditioning set.  This is the one Condition 2
        decision: verdicts and the agreement sweep both call it.
        """
        key = (x, y) if x <= y else (y, x)
        rows = self._rows.get(key)
        if rows is None:
            certifying = self._certifying
            rows = self._rows[key] = tuple(
                [(*certifying[f][2:], f) for f in self._by_pair.get(key, ())]
            )
        met = conditioning.__and__
        for noncolliders, collider_sets, fact in rows:
            if not noncolliders & conditioning and all(map(met, collider_sets)):
                return fact
        return None

    def read_mask(self, x: str, y: str) -> int:
        """The node mask of every noncollider and collider-set node of
        ``facts_between(x, y)``: ``first_open(x, y, c)`` and ``audit(x, y, c)``
        read ``c`` only through its AND with this mask."""
        return self._reads((x, y) if x <= y else (y, x))[0]

    def _reads(self, key: tuple[str, str]) -> tuple[int, tuple[int, ...], dict]:
        """The pair's ``_audits`` entry, built on its first call."""
        found = self._audits.get(key)
        if found is None:
            certifying = self._certifying
            reads = tuple(
                reduce(or_, certifying[f][3], certifying[f][2]) for f in self._by_pair.get(key, ())
            )
            found = self._audits[key] = (reduce(or_, reads, 0), reads, {})
        return found

    def audit(
        self, x: str, y: str, conditioning: int
    ) -> tuple[tuple[PathFact, BlockReason | None], ...]:
        """``facts_between(x, y)``, each fact paired with its ``blocking_reason``
        given the conditioning node mask: the audit a verdict prints.

        A reason reads only the conditioning nodes among its fact's
        noncolliders and collider sets.  So a (fact, reason) pair is keyed
        by the fact's position and the conditioning mask ANDed with those
        nodes, and ``blocking_reason`` runs only when that key is new; an
        audit is keyed by the mask ANDed with every fact's nodes.  Equal
        pairs, and equal audits, are one object per closure.
        """
        key = (x, y) if x <= y else (y, x)
        read_all, reads, audits = self._reads(key)
        audit = audits.get(conditioning & read_all)
        if audit is None:
            names = sorted(self.graph.nodes)
            entries, consed = self._entries, self._consed
            pairs = []
            for i, (fact, read) in enumerate(zip(self._by_pair.get(key, ()), reads)):
                seen = conditioning & read
                pair = entries.get((key, i, seen))
                if pair is None:
                    nodes = [v for j, v in enumerate(names) if seen >> j & 1]
                    pair = (fact, blocking_reason(fact, nodes))
                    pair = entries[key, i, seen] = consed.setdefault(pair, pair)
                pairs.append(pair)
            audit = tuple(pairs)
            audit = audits[conditioning & read_all] = consed.setdefault(audit, audit)
        return audit

    def derivations(self) -> frozenset[tuple[PathFact, tuple[str, ...]]]:
        """Every recorded (fact, certifying path) pair."""
        names = sorted(self.graph.nodes)
        return frozenset(
            (fact, tuple(names[i] for i in key[0])) for key, fact in self._derived.items()
        )


def close(g: CausalGraph, *, fact_budget: int | None = None) -> Closure:
    """Close the graph under all six rules and return the least fixpoint.

    Deterministic: seeds and rule applications run in sorted order, so
    identical graphs yield identical closures, traces included.  Raises
    ResourceLimit once more than ``fact_budget`` facts (counting each
    certifying-path variant) have been derived: one unit per new mediate
    fact and per new (path fact, certifying path) pair; rejected and
    repeated Transitivity* attempts are not charged.

    Path facts are worked on int node bitmasks (bit i for the i-th node in
    sorted order).  One inner step, ``derive``, makes every path fact: it
    orients a node-index path, drops a repeated (path, noncollider mask,
    collider-set masks) key, charges the budget, builds the PathFact,
    records a new fact's TraceRecord and indexes the derivation's two
    views, one per direction of its path, by the path's first two nodes.
    The Chain, Fork and Collider windows call it with 3-node paths, the
    ``while pqueue`` loop with Transitivity* conclusions: each view of a
    popped derivation glues to the indexed views that start with its last
    two nodes and meet its node mask in exactly those two junction bits.
    The rule's junction condition needs no test: the index key makes each
    junction node an interior node of both premises' paths, and every
    interior node of a certified path is a noncollider or lies in a
    collider set.  The endpoint exclusion is one AND against the views'
    collider-set masks.  A fact is rendered to text only where it is printed.
    """
    budget = resolve_fact_budget(fact_budget)
    count = 0
    trace: list[TraceRecord] = []

    def spend():
        nonlocal count
        count += 1
        if count > budget:
            raise ResourceLimit(f"fact budget of {budget} exceeded while closing the graph")

    # Nodes are numbered in sorted order, so comparing indices compares names.
    names = sorted(g.nodes)
    index = {v: i for i, v in enumerate(names)}
    bit = [1 << i for i in range(len(names))]

    # Each mediate fact maps to the node mask of its intermediates.
    mediate: dict[MediateCauseFact, int] = {}
    by_source: dict[str, list[MediateCauseFact]] = defaultdict(list)
    mqueue: deque[MediateCauseFact] = deque()

    def add_mediate(fact, mask, rule, premises):
        if fact in mediate:
            return
        spend()
        mediate[fact] = mask
        by_source[fact.source].append(fact)
        trace.append(TraceRecord(rule, premises, fact))
        mqueue.append(fact)

    for i, x in enumerate(names):
        add_mediate(MediateCauseFact(x, x, frozenset([x])), bit[i], "Reflexive cause", ())
    while mqueue:
        fact = mqueue.popleft()
        for k in g.children(fact.target):
            add_mediate(
                MediateCauseFact(fact.source, k, fact.intermediates | {k}),
                mediate[fact] | bit[index[k]],
                "Transitive cause",
                (fact, _render_edge(fact.target, k)),
            )

    node_sets: dict[int, frozenset[str]] = {}

    def nodes_of(mask):
        found = node_sets.get(mask)
        if found is None:
            found = node_sets[mask] = frozenset(v for i, v in enumerate(names) if mask >> i & 1)
        return found

    # fact -> (first certifying path, position of its trace record, and the
    # noncollider and collider-set masks every derivation of it shares).
    certifying: dict[PathFact, tuple] = {}
    # One entry per derivation: (oriented path, noncollider mask,
    # collider-set masks) -> its PathFact.
    derived: dict[tuple, PathFact] = {}
    # A view is one direction of a derivation's path:
    # (fact, path, path mask, noncollider mask, collider-set masks,
    #  union of the collider-set masks).
    by_first2: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    pqueue: deque[tuple[tuple, tuple]] = deque()

    def derive(path, mask, nc, cs, rule, premises):
        if path[0] > path[-1]:
            path = path[::-1]
        key = (path, nc, cs)
        if key in derived:
            return
        spend()
        fact = derived[key] = PathFact(
            names[path[0]], names[path[-1]], nodes_of(nc), frozenset(nodes_of(s) for s in cs)
        )
        if fact not in certifying:
            certifying[fact] = (tuple(names[i] for i in path), len(trace), nc, cs)
            trace.append(TraceRecord(rule, premises, fact))
        in_sets = 0
        for s in cs:
            in_sets |= s
        forward = (fact, path, mask, nc, cs, in_sets)
        backward = (fact, path[::-1], mask, nc, cs, in_sets)
        by_first2[path[0], path[1]].append(forward)
        by_first2[path[-1], path[-2]].append(backward)
        pqueue.append((forward, backward))

    # The windows: a 3-node path is a chain, a fork or a collider, and
    # distinct mediate facts carry distinct node sets, so none repeats.
    for y, v in enumerate(names):
        parents = [index[p] for p in g.parents(v)]
        children = [index[c] for c in g.children(v)]
        for x in parents:
            for z in children:
                derive((x, y, z), bit[x] | bit[y] | bit[z], bit[y], frozenset(), "Chain",
                       (_render_edge(names[x], v), _render_edge(v, names[z])))
        for x, z in combinations(children, 2):
            derive((x, y, z), bit[x] | bit[y] | bit[z], bit[y], frozenset(), "Fork",
                   (_render_edge(v, names[x]), _render_edge(v, names[z])))
        for x, z in combinations(parents, 2):
            for chain in by_source.get(v, ()):
                if mediate[chain] & (bit[x] | bit[z]):
                    continue
                derive((x, y, z), bit[x] | bit[y] | bit[z], 0, frozenset([mediate[chain]]),
                       "Collider", (_render_edge(names[x], v), _render_edge(names[z], v), chain))

    while pqueue:
        forward, backward = pqueue.popleft()
        # On the backward view the premises are listed as (partner, fact),
        # the order of the same glue read left to right.
        for (fact1, p1, mask1, nc1, cs1, in_sets1), is_backward in (
            (forward, False), (backward, True)
        ):
            # The bucket is read as it stands before the view's glues run; a
            # partner is kept only when the glued path stays simple.
            junction = bit[p1[-2]] | bit[p1[-1]]
            bucket = by_first2.get((p1[-2], p1[-1]), ())
            partners = [o for o in bucket if o[2] & mask1 == junction]
            for fact2, p2, mask2, nc2, cs2, in_sets2 in partners:
                # Conclusions whose collider sets would contain the new
                # endpoints are not generated: conditioning sets exclude the
                # tested endpoints.
                if (in_sets1 | in_sets2) & (bit[p1[0]] | bit[p2[-1]]):
                    continue
                derive(p1 + p2[2:], mask1 | mask2, nc1 | nc2, cs1 | cs2, "Transitivity*",
                       (fact2, fact1) if is_backward else (fact1, fact2))

    return Closure(g, mediate, certifying, derived, trace)


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


def oracle_rows(g: CausalGraph, paths) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The output of ``enumerate_classified_paths`` as int node masks, read from
    ``g`` alone: per path, its noncolliders' mask and, per collider, the mask
    of the collider and its descendants (``CausalGraph.node_mask`` numbering).
    Paths with equal masks give one row."""
    reach: dict[str, int] = {}
    rows = {}
    for _, noncolliders, colliders in paths:
        for c in colliders:
            if c not in reach:
                reach[c] = g.node_mask((c, *g.descendants(c)))
        rows[g.node_mask(noncolliders), tuple(reach[c] for c in colliders)] = None
    return tuple(rows)


def dsep_oracle(rows, conditioning: int) -> bool:
    """d-separation over the rows ``oracle_rows`` builds, given a conditioning
    node mask.

    True iff every path is blocked: a noncollider is conditioned on, or some
    collider has neither itself nor a descendant conditioned on.  This route
    never consults derived facts.  A named conditioning set enters through
    ``CausalGraph.node_mask``.
    """
    for noncolliders, colliders in rows:
        if not noncolliders & conditioning and all(c & conditioning for c in colliders):
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
            "colliderSets": sorted_collider_sets(f.collider_sets),
            "certifyingPath": list(closure.certifying_path(f)),
        }
        for f in sorted(closure.paths, key=_fact_sort_key)
    ]
    trace = [trace_record_json(r) for r in closure.trace]
    return {"mediate": mediate, "paths": paths, "trace": trace}


def trace_record_json(record: TraceRecord) -> dict:
    """JSON-ready trace record: premises and conclusion in display form."""
    return {
        "rule": record.rule,
        "premises": [p if isinstance(p, str) else p.text for p in record.premises],
        "conclusion": record.conclusion.text,
    }
