"""Derived cause and path relations over a causal graph.

Two independent routes to conditional independence live here and are
deliberately kept separate:

* a fixpoint engine that closes the graph's immediate-cause edges under
  six derivation rules (Reflexive cause, Transitive cause, Chain, Fork,
  Collider, Transitivity*), producing mediate-cause facts and path facts
  whose blocking status decides independence, and
* a textbook d-separation oracle that enumerates simple undirected paths
  directly and never looks at derived facts: one depth-first walk per
  source node, on node indices, classifies each path as it extends it.

Cross-checking the two is part of the test contract; nothing in this
module shares state between them.  Each decides on int node masks (bit i
for ``CausalGraph.names[i]``, ``CausalGraph.node_mask``) with its own
test: Condition 2 has one, ``_block``, on a fact's masks, which both
``Closure.first_open`` (the sweep's decision) and ``Closure.audit`` (a
verdict's decision and printed reasons) read; ``dsep_oracle`` scans a
pair's rows, which the walk reads from the graph alone: ``oracle_rows``
for one pair, ``oracle_rows_by_pair`` (the sweep's) for every pair from
one walk per node.  ``enumerate_classified_paths`` is the same walk's
paths by name.

Every path fact is certified by a concrete simple undirected path.
Transitivity* is applied only to certified paths that overlap in exactly
two nodes, which keeps each interior node classified by exactly one
premise and therefore keeps one collider-descendant set per collider.
The engine tracks (fact, certifying path) pairs so that a fact reachable
along several paths can keep feeding compositions through each of them.
``close`` works on int keys only and renders no text: nodes are indices,
a fact is its endpoints and node masks, and a trace entry names its rule,
its premises (a premise is an edge (source, target) or a fact key) and its
conclusion key.  One step of ``close``, ``derive``, makes each path fact,
whether a window or Transitivity* concludes it, and keeps one key per
derivation.  ``Closure`` builds its memos when it is built, and they name
each fact, edge and trace record once, on its first read, so a verdict
names only the node pair it reads.  A fact is rendered to text only where
it is printed, by ``path_fact_text`` or ``mediate_text``, the one renderer
of each notation, and an edge only where a trace is read.

``close`` can also derive only what given node pairs can read: an x-y read
uses only derivations that avoid x and y inside and whose path lies on
simple x-y paths, in the blocks ``_span`` finds.  ``weaken``
closes for its (attribute, target) pair, ``if`` and ``intersect`` for each
(protected attribute, target) pair; ``paths`` and the agreement sweep read
every pair and close the whole graph.  A restricted ``Closure`` answers
the pair reads of its own pairs exactly as the whole closure would, raises
ValueError for any other pair, and has no ``closure_dump``; its
``mediate``, ``paths``, ``trace`` and ``derivations()`` are what it
derived.
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from functools import cached_property, reduce
from itertools import combinations
from operator import or_
from typing import NamedTuple

from .errors import InputError, ResourceLimit, UnknownVariable
from .graph import CausalGraph
from .record import Record

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
    "dsep_oracle",
    "enumerate_classified_paths",
    "oracle_rows",
    "oracle_rows_by_pair",
    "closure_dump",
    "trace_record_json",
    "sorted_collider_sets",
    "render_path_fact",
    "path_fact_text",
    "mediate_text",
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


class MediateCauseFact(Record):
    """``source`` causes ``target`` through the given intermediate nodes.

    The intermediates are the nodes of one directed path from source to
    target, both ends included; a reflexive fact has intermediates equal
    to ``{source}``.
    """

    source: str
    target: str
    intermediates: frozenset[str]

    def __init__(self, source, target, intermediates):
        intermediates = frozenset(intermediates)
        if source == target:
            if intermediates != {source}:
                raise ValueError("reflexive facts carry exactly their own node")
        elif target not in intermediates:
            raise ValueError("intermediates must contain the target")
        self.__dict__.update(source=source, target=target, intermediates=intermediates)

    @cached_property
    def text(self) -> str:
        """The fact's ``mediate_text``, rendered on first use."""
        return mediate_text(self.source, self.target, sorted(self.intermediates))


class PathFact(Record):
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

    def __init__(self, left, right, noncolliders, collider_sets):
        noncolliders = frozenset(noncolliders)
        collider_sets = frozenset(map(frozenset, collider_sets))
        if left == right:
            raise ValueError("path facts relate two distinct variables")
        ends = {left, right}
        if noncolliders & ends:
            raise ValueError("endpoints cannot be noncolliders of their own fact")
        for group in collider_sets:
            if not group:
                raise ValueError("collider sets are non-empty")
            if group & ends:
                raise ValueError("endpoints cannot appear in a collider set")
        self.__dict__.update(
            left=left, right=right, noncolliders=noncolliders, collider_sets=collider_sets
        )

    @cached_property
    def text(self) -> str:
        """``render_path_fact(self)``, rendered on first use."""
        return render_path_fact(self)


class TraceRecord(Record):
    """One productive rule firing: the new fact, its premise facts and, for the rules
    that read edges, the edges as ``"X -> Y"``; ``trace_record_json`` renders it."""

    rule: str
    premises: tuple[str | MediateCauseFact | PathFact, ...]
    conclusion: MediateCauseFact | PathFact

    def __init__(self, rule, premises, conclusion):
        self.__dict__.update(rule=rule, premises=premises, conclusion=conclusion)


class BlockReason(NamedTuple):
    """Why a fact is blocked: a conditioned noncollider or an unmet collider set."""

    kind: str  # "noncollider" or "collider-set"
    nodes: frozenset[str]


def _render_edge(source: str, target: str) -> str:
    return f"{source} -> {target}"


def sorted_collider_sets(sets) -> list[list[str]]:
    """A fact's collider sets as sorted name lists, in their one canonical order."""
    return sorted(sorted(s) for s in sets)


def mediate_text(source: str, target: str, intermediates) -> str:
    """The notation ``X |>^{I} Y`` of a mediate fact, from its sorted name list."""
    return f"{source} |>^{{{','.join(intermediates)}}} {target}"


def path_fact_text(left: str, right: str, noncolliders, collider_sets) -> str:
    """The notation ``X <>^{N}_{C} Y`` of a path fact, from its sorted name
    list and its collider sets as ``sorted_collider_sets`` orders them."""
    sets = ",".join(["{" + ",".join(s) + "}" for s in collider_sets])
    return f"{left} <>^{{{','.join(noncolliders)}}}_{{{sets}}} {right}"


def render_path_fact(fact: PathFact) -> str:
    return path_fact_text(
        fact.left, fact.right, sorted(fact.noncolliders), sorted_collider_sets(fact.collider_sets)
    )


class _Memo(dict):
    """A dict that builds, stores and returns ``build(key)`` for a missing key."""

    __slots__ = ("build",)

    def __init__(self, build):
        # dict.__new__ has made the empty dict; dict.__init__ would add nothing.
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _pair(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x <= y else (y, x)


class Closure:
    """The fixpoint of the six derivation rules over ``graph``, the graph it
    closes, or, for a closure restricted to node ``pairs``, the part of it
    those pairs can read.

    ``close`` leaves every fact as an int key: a mediate fact as (source,
    target, intermediates mask), a path fact as (left, right, noncollider
    mask, collider-set masks), with node i ``graph.names[i]``, as in
    ``CausalGraph.node_mask``; a trace premise is an edge (source, target)
    or a fact key.  ``close`` keeps a key's collider-set masks in canonical
    order and hands over its ``bits`` memo, so no read sorts them again.
    The memos are built with the closure, as slots, and each names a key
    once, on its first read: one ``_Memo`` names every premise key, an edge
    as its text and a fact as its one ``PathFact`` or
    ``MediateCauseFact``, and another each trace position as its one
    ``TraceRecord``, whichever of ``facts_between``, ``first_open``,
    ``audit``, ``trace_between``, ``derivations``, ``mediate``, ``paths``
    or ``trace`` reads it first.  A memo's build reads the closure's data
    and the other memos, never the closure, so no reference cycle keeps a
    dropped closure alive.  A node pair's record is built on the pair's
    first read from the pair's fact keys, which ``close`` groups by
    endpoints: the keys in canonical order (index order is name order, so
    the ints sort as the names do), ``read_mask``, the union of their
    masks, and its audit tables.  Condition 2 is one mask test,
    ``_block``: ``first_open`` returns the first key it leaves unblocked
    and names only that fact, and ``audit`` words each key's block as a
    ``BlockReason``.  Every pair read raises UnknownVariable for a name
    that is not a node and ValueError for a node paired with itself.  A
    fact is rendered to text only where it is printed.

    ``pairs`` is None for a whole closure, which ``paths`` and the agreement
    sweep read.  A restricted closure, which ``weaken``, ``if`` and
    ``intersect`` read, holds its requested pairs, each as (x, y) with
    x <= y: its pair reads
    (``facts_between``, ``trace_between``, ``first_open``, ``audit``,
    ``read_mask``) answer those pairs exactly as the whole closure would,
    and raise ValueError for any other pair; ``closure_dump`` refuses it.
    ``mediate``, ``paths``, ``trace`` and ``derivations()`` report what this
    closure derived, built on each read: every mediate fact, but only the
    path facts, trace records and derivations its pairs can read.
    """

    __slots__ = (
        "graph", "pairs", "_mediate", "_certifying", "_derived", "_trace", "_bits", "_named",
        "_records", "_by_pair", "_between", "_traces",
    )

    def __init__(self, graph, mediate, certifying, derived, trace, groups, bits, pairs=None):
        self.graph: CausalGraph = graph
        names, index = graph.names, graph.index
        # None, or the frozenset of (x, y), x <= y, the pair reads answer.
        self.pairs: frozenset[tuple[str, str]] | None = pairs
        # Mediate fact keys, in derivation order.
        self._mediate: dict[tuple[int, int, int], None] = mediate
        # Path fact key -> (its first certifying node-index path, position of
        # its trace record).
        self._certifying: dict[tuple, tuple[tuple[int, ...], int]] = certifying
        # (node-index path, noncollider mask, collider-set masks), one per derivation.
        self._derived: set[tuple] = derived
        # (rule, premises, conclusion key) per record; a premise is an edge
        # (source, target) or a fact key.
        self._trace: list[tuple] = trace

        # Node mask -> its bit indices ascending (``close``'s), and -> its names.
        self._bits = bits
        nodes = _Memo(lambda mask: frozenset([names[i] for i in bits[mask]]))

        def name(key):
            if len(key) == 2:
                return _render_edge(names[key[0]], names[key[1]])
            if len(key) == 3:
                return MediateCauseFact(names[key[0]], names[key[1]], nodes[key[2]])
            return PathFact(
                names[key[0]], names[key[1]], nodes[key[2]], frozenset([nodes[s] for s in key[3]])
            )

        # Premise key -> an edge's text or its one named fact; trace position
        # -> its one TraceRecord.
        named = self._named = _Memo(name)
        fact = named.__getitem__

        def name_record(position):
            rule, premises, key = trace[position]
            return TraceRecord(rule, tuple(map(fact, premises)), fact(key))

        records = self._records = _Memo(name_record)
        record = records.__getitem__

        def name_entry(entry):
            key, block = entry
            if block is None:
                return fact(key), None
            # A collider set holds its collider, which is no noncollider of
            # the fact, so only a noncollider block lies inside the noncolliders.
            kind = "collider-set" if block & ~key[2] else "noncollider"
            return fact(key), BlockReason(kind, nodes[block])

        # The rest are keyed by a node pair (x, y) with x <= y.
        order = _order(bits)

        def read_pair(pair):
            x, y = map(index.get, pair)
            if x is None or y is None:
                raise UnknownVariable(f"path endpoints must be graph nodes, got {pair}")
            if x == y:
                raise ValueError("path endpoints must differ")
            if pairs is not None and pair not in pairs:
                raise ValueError(
                    f"this closure was restricted to the node pairs {sorted(pairs)};"
                    f" it cannot read {pair}"
                )
            found = groups.get((x, y), ())
            keys = tuple(sorted(found, key=order))
            read = reduce(or_, [reduce(or_, key[3], key[2]) for key in keys], 0)
            return keys, read, {}, _Memo(name_entry)

        # Pair -> (the fact keys of facts_between(x, y) in canonical order, the
        # union of their noncollider and collider-set masks, {conditioning &
        # that union, or the tuple of the keys' blocks: audit}, (key, block) ->
        # (fact, reason)).  An int key never equals a tuple key.
        by_pair = self._by_pair = _Memo(read_pair)
        self._between = _Memo(lambda pair: tuple(map(fact, by_pair[pair][0])))
        self._traces = _Memo(
            lambda pair: tuple(map(record, sorted([certifying[k][1] for k in by_pair[pair][0]])))
        )

    @property
    def mediate(self) -> frozenset[MediateCauseFact]:
        """Every mediate fact: no closure restricts them."""
        return frozenset(map(self._named.__getitem__, self._mediate))

    @property
    def paths(self) -> frozenset[PathFact]:
        """Every path fact this closure derived."""
        return frozenset(map(self._named.__getitem__, self._certifying))

    @property
    def trace(self) -> tuple[TraceRecord, ...]:
        """Every productive rule firing of this closure, in derivation order."""
        return tuple(map(self._records.__getitem__, range(len(self._trace))))

    # -- one node pair ----------------------------------------------------------

    def trace_between(self, x: str, y: str) -> tuple[TraceRecord, ...]:
        """The records that derived ``facts_between(x, y)``, in trace order.

        Built on the pair's first call, so every verdict of a pair shares one tuple.
        """
        return self._traces[_pair(x, y)]

    def facts_between(self, x: str, y: str) -> tuple[PathFact, ...]:
        """All path facts with endpoints {x, y}, in canonical order."""
        return self._between[_pair(x, y)]

    def first_open(self, x: str, y: str, conditioning: int) -> PathFact | None:
        """The first fact of ``facts_between(x, y)`` that transmits given the
        conditioning node mask, or None when every one is blocked.

        A fact transmits when ``_block`` finds no block.  The agreement sweep
        decides Condition 2 by this scan, which names only the fact it returns.
        """
        for key in self._by_pair[_pair(x, y)][0]:
            if _block(key, conditioning) is None:
                return self._named[key]
        return None

    def read_mask(self, x: str, y: str) -> int:
        """The node mask of every noncollider and collider-set node of
        ``facts_between(x, y)``: ``first_open(x, y, c)`` and ``audit(x, y, c)``
        read ``c`` only through its AND with this mask."""
        return self._by_pair[_pair(x, y)][1]

    def audit(
        self, x: str, y: str, conditioning: int
    ) -> tuple[tuple[PathFact, BlockReason | None], ...]:
        """``facts_between(x, y)``, each fact paired with its ``_block`` given
        the conditioning node mask, worded as a ``BlockReason`` (None when the
        fact transmits): the audit a verdict prints and decides by.

        Kept in the pair's record under the mask ANDed with ``read_mask`` and,
        on a miss, under the facts' blocks; each (fact, block) entry is built
        once, so equal audits and equal entries are one object.
        """
        keys, read, audits, entries = self._by_pair[_pair(x, y)]
        audit = audits.get(conditioning & read)
        if audit is None:
            blocks = tuple([_block(key, conditioning) for key in keys])
            audit = audits.get(blocks)
            if audit is None:
                audit = audits[blocks] = tuple(map(entries.__getitem__, zip(keys, blocks)))
            audits[conditioning & read] = audit
        return audit

    def derivations(self) -> frozenset[tuple[PathFact, tuple[str, ...]]]:
        """Every (fact, certifying path) pair this closure derived."""
        names, named = self.graph.names, self._named
        return frozenset(
            (named[path[0], path[-1], nc, cs], tuple([names[i] for i in path]))
            for path, nc, cs in self._derived
        )


def _order(bits: _Memo):
    """A path fact key's canonical sort key: endpoints, noncolliders, then the
    collider sets, each as ascending node indices (``bits`` of a mask); the
    key already holds its collider sets in that order."""
    return lambda key: (key[0], key[1], bits[key[2]], [bits[s] for s in key[3]])


def _block(key: tuple, conditioning: int) -> int | None:
    """Condition 2 on one path fact key: the mask of its conditioned
    noncolliders, else its first collider-set mask that misses the conditioning
    mask, the least by name as ``close`` orders them, else None: it transmits."""
    hit = key[2] & conditioning
    if hit:
        return hit
    for s in key[3]:
        if not s & conditioning:
            return s
    return None


def _span(neighbors: list[list[int]], x: int, y: int) -> int:
    """The node mask of every simple x-y path of the skeleton (node i's
    ``neighbors[i]``), or 0 when y is not reachable from x: the blocks on
    the block-cut-tree path from x to y (Hopcroft & Tarjan, CACM 1973).  A
    tree edge (p, w) of the depth-first search from x starts a block when
    no edge from w's subtree reaches above p: ``low[w] >= pre[p]``."""
    pre, low, parent = {x: 0}, {x: 0}, {x: x}
    stack = [(x, iter(neighbors[x]))]
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if w not in pre:
                pre[w] = low[w] = len(pre)
                parent[w] = v
                stack.append((w, iter(neighbors[w])))
                break
            low[v] = min(low[v], pre[w])
        else:
            stack.pop()
            low[parent[v]] = min(low[parent[v]], low[v])
    if y not in pre:
        return 0
    # top[w]: the node whose tree edge starts the block of w's tree edge, set
    # in preorder, which reaches a parent before its children.
    top = {}
    for w in list(pre)[1:]:
        top[w] = w if low[w] >= pre[parent[w]] else top[parent[w]]
    # The blocks of the path: y's, then that of its block's head, up to x.
    tops = set()
    while y != x:
        tops.add(top[y])
        y = parent[top[y]]
    return reduce(or_, [1 << w for w, t in top.items() if t in tops], 1 << x)


def close(g: CausalGraph, *, fact_budget: int | None = None, pairs=None) -> Closure:
    """Close the graph under all six rules and return the least fixpoint,
    or, given node ``pairs``, the part of it that those pairs can read.

    Deterministic: seeds and rule applications run in sorted order, so
    identical graphs yield identical closures, traces included.  Raises
    ResourceLimit once more than ``fact_budget`` facts (counting each
    certifying-path variant) have been derived: one unit per new mediate
    fact and per new (path fact, certifying path) pair; rejected and
    repeated Transitivity* attempts are not charged.

    ``pairs``, an iterable of (x, y) node names, restricts the path facts
    to those an x-y read can use: ``weaken`` closes for its (attribute,
    target) pair, ``if`` and ``intersect`` for (protected, target) per
    protected name, while ``paths`` and the agreement sweep close the
    whole graph.  A derivation is dropped, and costs no budget, when for
    every requested pair (x, y) its noncolliders or collider sets
    (``nc | in_sets``, which covers its path interior) hold x or y, or its
    path leaves the pair's ``_span``, the nodes of the simple x-y paths
    (none when x and y lie in different components).  The drop is sound
    because a Transitivity* premise's path is a sub-path of its
    conclusion's, collider sets only grow, and the endpoint exclusion
    keeps x and y out of an x-y fact's collider sets: so every premise of
    a kept derivation is kept, the queue, buckets and dedup set meet the
    kept derivations in their whole-closure order, and each x-y fact keeps
    its first derivation and its place among the pair's trace records.
    Mediate facts are not restricted.  The returned ``Closure`` answers
    pair reads for the requested pairs only.

    Nodes are ints (node i is ``g.names[i]``) and every fact is an int key:
    a mediate fact (source, target, intermediates mask), a path fact (left,
    right, noncollider mask, collider-set masks), the last a tuple in
    canonical order: ascending node-index tuples (``bits``), which is name
    order.  Chain and Fork make ``()``, Collider ``(chain mask,)``, and
    Transitivity* sorts its premises' two tuples together only when both
    are non-empty; they share no set, since each junction node is interior
    to one premise and a collider set holds its collider.  A trace entry is
    (rule, premises, conclusion key), where a premise is an edge (source,
    target) or a fact key.  No text, named fact or ``TraceRecord`` is built
    here; ``Closure`` builds each on first read.  One inner step, ``derive``,
    makes every path fact: it orients a node-index path, drops a repeated
    (path, noncollider mask, collider-set masks) key, charges the budget,
    records a new fact's trace entry and appends its key to the fact's
    (left, right) group, and indexes the derivation's two views, one per
    direction of its path, by the path's first two nodes.  The Chain, Fork
    and Collider windows call it with 3-node paths, the ``while pqueue``
    loop with Transitivity* conclusions: each view of a popped derivation
    glues to the indexed views that start with its last two nodes and meet
    its node mask in exactly those two junction bits.  The rule's junction
    condition needs no test: the index key makes each junction node an
    interior node of both premises' paths, and every interior node of a
    certified path is a noncollider or lies in a collider set.  The endpoint
    exclusion is one AND against the views' collider-set masks.
    """
    budget = resolve_fact_budget(fact_budget)
    count = 0
    trace: list[tuple] = []

    def spend():
        nonlocal count
        count += 1
        if count > budget:
            raise ResourceLimit(f"fact budget of {budget} exceeded while closing the graph")

    # Nodes are numbered in sorted order, so comparing indices compares names.
    names, index = g.names, g.index
    bit = [1 << i for i in range(len(names))]
    # Node mask -> its bit indices ascending, by which collider sets are ordered.
    bits = _Memo(lambda mask: tuple([i for i in range(mask.bit_length()) if mask >> i & 1]))
    rank = bits.__getitem__
    parents = [[index[p] for p in g.parents(v)] for v in names]
    children = [[index[c] for c in g.children(v)] for v in names]
    if pairs is not None:
        pairs = frozenset([_pair(x, y) for x, y in pairs])
        # Per requested pair, its node mask and the complement of its span.
        neighbors = [p + c for p, c in zip(parents, children)]
        targets = [(g.node_mask(p), ~_span(neighbors, index[p[0]], index[p[1]])) for p in pairs]

    # Mediate fact keys (source, target, intermediates mask), in derivation order.
    mediate: dict[tuple[int, int, int], None] = {}
    by_source: list[list[tuple[int, int, int]]] = [[] for _ in names]
    mqueue: deque[tuple[int, int, int]] = deque()

    def add_mediate(key, rule, premises):
        # No key repeats: in a DAG a directed path is fixed by its source and node set.
        spend()
        mediate[key] = None
        by_source[key[0]].append(key)
        trace.append((rule, premises, key))
        mqueue.append(key)

    for i in range(len(names)):
        add_mediate((i, i, bit[i]), "Reflexive cause", ())
    while mqueue:
        chain = mqueue.popleft()
        source, target, mask = chain
        for k in children[target]:
            add_mediate((source, k, mask | bit[k]), "Transitive cause", (chain, (target, k)))

    # Path fact key -> (first certifying path, position of its trace entry).
    certifying: dict[tuple, tuple[tuple[int, ...], int]] = {}
    # (left, right) -> its path fact keys, in derivation order.
    groups: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    # One key per derivation: (oriented path, noncollider mask, collider-set masks).
    derived: set[tuple] = set()
    # A view is one direction of a derivation's path:
    # (fact key, path, path mask, noncollider mask, collider-set masks,
    #  union of the collider-set masks).
    by_first2: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    pqueue: deque[tuple[tuple, tuple]] = deque()

    def derive(path, mask, nc, cs, rule, premises):
        if path[0] > path[-1]:
            path = path[::-1]
        key = (path, nc, cs)
        if key in derived:
            return
        in_sets = 0
        for s in cs:
            in_sets |= s
        if pairs is not None:
            inside = nc | in_sets
            if all([inside & t or mask & outside for t, outside in targets]):
                return
        spend()
        derived.add(key)
        fact = (path[0], path[-1], nc, cs)
        if fact not in certifying:
            certifying[fact] = (path, len(trace))
            groups[path[0], path[-1]].append(fact)
            trace.append((rule, premises, fact))
        forward = (fact, path, mask, nc, cs, in_sets)
        backward = (fact, path[::-1], mask, nc, cs, in_sets)
        by_first2[path[0], path[1]].append(forward)
        by_first2[path[-1], path[-2]].append(backward)
        pqueue.append((forward, backward))

    # The windows: a 3-node path is a chain, a fork or a collider, and
    # distinct mediate facts carry distinct node sets, so none repeats.
    for y in range(len(names)):
        for x in parents[y]:
            for z in children[y]:
                derive((x, y, z), bit[x] | bit[y] | bit[z], bit[y], (), "Chain",
                       ((x, y), (y, z)))
        for x, z in combinations(children[y], 2):
            derive((x, y, z), bit[x] | bit[y] | bit[z], bit[y], (), "Fork",
                   ((y, x), (y, z)))
        for x, z in combinations(parents[y], 2):
            # No chain from y holds x or z, a parent of y: that would close a cycle.
            for chain in by_source[y]:
                derive((x, y, z), bit[x] | bit[y] | bit[z], 0, (chain[2],),
                       "Collider", ((x, y), (z, y), chain))

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
                cs = tuple(sorted(cs1 + cs2, key=rank)) if cs1 and cs2 else cs1 or cs2
                derive(p1 + p2[2:], mask1 | mask2, nc1 | nc2, cs, "Transitivity*",
                       (fact2, fact1) if is_backward else (fact1, fact2))

    return Closure(g, mediate, certifying, derived, trace, groups, bits, pairs)


# --- Independent textbook oracle -----------------------------------------


def _skeleton(g: CausalGraph):
    """The graph as the oracle's walk reads it, on node indices (node i is
    ``g.names[i]``): each node's sorted undirected neighbours, each node's
    parents as a mask, and ``reach``, the mask of a node and its
    descendants, built for a node on its first read.  Read from ``g``
    alone; ``close`` keeps its own adjacency."""
    names, index = g.names, g.index
    neighbors = [[index[w] for w in g.undirected_neighbors(v)] for v in names]
    parents = [0] * len(names)
    for source, target in g.edges:
        parents[index[target]] |= 1 << index[source]
    reach = _Memo(lambda v: g.node_mask((names[v], *g.descendants(names[v]))))
    return neighbors, parents, reach


def _walk(skeleton, x: int, y: int = -1):
    """Every simple undirected path from node x, classified: yields
    (path, noncollider mask, collider reaches) as each path is reached, where
    ``path`` is the walk's own list of node indices, valid until the next
    step, and the reaches are those of the interior colliders in path order.

    One depth-first walk in sorted-neighbour order extends a path one edge
    at a time, so the paths ending at any one node come in the order that a
    walk stopping there finds them; given y, the walk does not go past y.
    Leaving a node makes it interior, and it is a collider iff both of its
    path neighbours are its parents.
    """
    neighbors, parents, reach = skeleton
    path = [x]
    on_path = 1 << x
    # Per path node: its neighbours not yet tried, the path's noncolliders
    # and collider reaches up to it, the noncolliders if it leaves as one (x
    # is no interior node), and its parents if the path entered it from one.
    frames = [(iter(neighbors[x]), 0, 0, (), 0)]
    while frames:
        rest, nc, nc_after, colliders, into = frames[-1]
        v = path[-1]
        for w in rest:
            if on_path >> w & 1:
                continue
            if into >> w & 1:
                w_nc, w_colliders = nc, colliders + (reach[v],)
            else:
                w_nc, w_colliders = nc_after, colliders
            path.append(w)
            yield path, w_nc, w_colliders
            if w == y:
                path.pop()
                continue
            on_path |= 1 << w
            w_into = parents[w] if parents[w] >> v & 1 else 0
            frames.append((iter(neighbors[w]), w_nc, w_nc | 1 << w, w_colliders, w_into))
            break
        else:
            frames.pop()
            path.pop()
            on_path ^= 1 << v


def _rows(skeleton, x: int, y: int = -1) -> defaultdict:
    """Node w -> the rows of pair (x, w), for every w above x, or for y alone
    when given: a row is a walked path's noncollider mask and collider
    reaches, and rows keep the order of their first path."""
    keep = 1 << y if y >= 0 else -2 << x
    found = defaultdict(dict)
    for path, nc, colliders in _walk(skeleton, x, y):
        if keep >> path[-1] & 1:
            found[path[-1]][nc, colliders] = None
    return found


def _endpoints(g: CausalGraph, x: str, y: str) -> tuple[int, int]:
    if x not in g.nodes or y not in g.nodes:
        raise UnknownVariable(f"both path endpoints must be graph nodes: {x!r}, {y!r}")
    if x == y:
        raise ValueError("path endpoints must differ")
    return g.index[x], g.index[y]


def enumerate_classified_paths(g: CausalGraph, x: str, y: str):
    """Every simple undirected path x..y with its interior classification,
    the name view of the oracle's walk.

    Returns tuples (path, noncolliders, colliders) in a deterministic
    order.  A direct edge contributes a path with no interior nodes.
    """
    i, j = _endpoints(g, x, y)
    names = g.names
    return tuple(
        (
            tuple([names[v] for v in path]),
            frozenset([names[v] for v in path if nc >> v & 1]),
            tuple([names[v] for v in path[1:-1] if not nc >> v & 1]),
        )
        for path, nc, _ in _walk(_skeleton(g), i, j)
        if path[-1] == j
    )


def oracle_rows(g: CausalGraph, x: str, y: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The x-y paths as int node masks (``CausalGraph.node_mask`` numbering),
    read from ``g`` alone: per path, its noncolliders' mask and, per collider
    in path order, the mask of the collider and its descendants.  Paths with
    equal masks give one row."""
    i, j = _endpoints(g, x, y)
    return tuple(_rows(_skeleton(g), i, j)[j])


def oracle_rows_by_pair(g: CausalGraph) -> dict[tuple[str, str], tuple]:
    """``oracle_rows(g, x, y)`` for every pair x < y of ``g.names``, from one
    walk per node but the last: each walk gives the rows of its node and
    every node above."""
    skeleton = _skeleton(g)
    names = g.names
    table = {}
    for i in range(len(names) - 1):
        found = _rows(skeleton, i)
        for j in range(i + 1, len(names)):
            table[names[i], names[j]] = tuple(found[j])
    return table


def dsep_oracle(rows, conditioning: int) -> bool:
    """d-separation over one pair's rows, from ``oracle_rows`` or
    ``oracle_rows_by_pair``, given a conditioning node mask.

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
    """JSON-ready closure listing with a deterministic order throughout.

    Only a whole closure has one; a closure restricted to node pairs
    raises ValueError.

    Read from the closure's int keys: the keys are sorted on indices, which
    sort as the names do, and collider sets are listed in the order they
    are kept in; each mask's name list, each collider-set family's and each
    fact's text are built once and shared.  No named fact or ``TraceRecord``
    is built.
    """
    if closure.pairs is not None:
        raise ValueError("closure_dump lists a whole closure, not one restricted to node pairs")
    names, bits = closure.graph.names, closure._bits
    named = _Memo(lambda mask: [names[i] for i in bits[mask]])
    family = _Memo(lambda sets: [named[s] for s in sets])

    def premise_text(key):
        if len(key) == 2:
            return _render_edge(names[key[0]], names[key[1]])
        if len(key) == 3:
            return mediate_text(names[key[0]], names[key[1]], named[key[2]])
        return path_fact_text(names[key[0]], names[key[1]], named[key[2]], family[key[3]])

    text = _Memo(premise_text)
    mediate = [
        {"source": names[source], "target": names[target], "intermediates": named[mask]}
        for source, target, mask in sorted(
            closure._mediate, key=lambda key: (key[0], key[1], bits[key[2]])
        )
    ]
    certifying = closure._certifying
    paths = [
        {
            "left": names[key[0]],
            "right": names[key[1]],
            "noncolliders": named[key[2]],
            "colliderSets": family[key[3]],
            "certifyingPath": [names[i] for i in certifying[key][0]],
        }
        for key in sorted(certifying, key=_order(bits))
    ]
    trace = [
        {
            "rule": rule,
            "premises": [text[p] for p in premises],
            "conclusion": text[key],
        }
        for rule, premises, key in closure._trace
    ]
    return {"mediate": mediate, "paths": paths, "trace": trace}


def trace_record_json(record: TraceRecord) -> dict:
    """JSON-ready trace record: premises and conclusion in display form."""
    return {
        "rule": record.rule,
        "premises": [p if isinstance(p, str) else p.text for p in record.premises],
        "conclusion": record.conclusion.text,
    }
