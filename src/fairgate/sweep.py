"""The d-separation oracle, and agreement sweeps between it and the rule closure.

The two independence routes are developed separately on purpose.  The
oracle lives here, apart from the engine it checks: it reads the graph
alone, never a derived fact, and takes only the generic ``_Memo`` from
``fairgate.closure``.  One depth-first walk per source node classifies
each simple undirected path as it extends it, and gives the rows of every
pair from that node; ``dsep_oracle`` scans a pair's rows.

The sweeps drive the two routes against each other over whole graph
families: every DAG up to isomorphism for small sizes, and seeded random
DAGs for larger ones.  Every (pair, conditioning set) triple is checked,
each distinct projection of the conditioning set decided once, and any
mismatch is captured as a structured discrepancy rather than a bare
failure.  Per graph, the rules side is one ``close``, read through
``_block``, and the oracle side one walk per source node.  Both
sides are read on node indices: a pair is (i, j), i < j, a conditioning
set a node mask, and names are built only for a discrepancy.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Iterator
from functools import reduce
from operator import or_
from typing import NamedTuple

from .closure import _block, _Memo, close
from .graph import CausalGraph

__all__ = [
    "EXHAUSTIVE_MAX_NODES",
    "DEFAULT_EXHAUSTIVE_NODES",
    "RANDOM_MIN_NODES",
    "RANDOM_MAX_NODES",
    "DEFAULT_RANDOM_NODES",
    "DEFAULT_SEED",
    "DEFAULT_EDGE_PROB",
    "Discrepancy",
    "SweepReport",
    "enumerate_dags",
    "random_dag",
    "dsep_oracle",
    "enumerate_classified_paths",
    "check_graph_agreement",
    "exhaustive_sweep",
    "random_sweep",
    "sweep_report_to_json",
]


# The most nodes an exhaustive sweep may enumerate: enumerate_dags(n)
# scans 2^(n(n-1)/2) edge masks, marking each class whole, and the sweep
# checks every class (5,984 at n=6; 243,668 classes of 2^21 masks at n=7),
# and no budget bounds them.
EXHAUSTIVE_MAX_NODES = 6
DEFAULT_EXHAUSTIVE_NODES = 5

# The fewest nodes a random sweep's graphs have.
RANDOM_MIN_NODES = 4

# The most nodes a random sweep may draw: each node pair counts a check for
# each of its 2^(n-2) conditioning sets (67,584 per graph at n=12) and is
# decided once per subset of the nodes its facts and paths read, up to
# 2^(n-2) times; no budget bounds those decisions.
RANDOM_MAX_NODES = 12
DEFAULT_RANDOM_NODES = 8
DEFAULT_SEED = 0
DEFAULT_EDGE_PROB = 0.3


class Discrepancy(NamedTuple):
    """One triple where the two routes disagreed, with the full graph."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    x: str
    y: str
    conditioning: tuple[str, ...]
    by_rules: bool
    by_oracle: bool


class SweepReport(NamedTuple):
    mode: str  # "exhaustive" or "random"
    max_nodes: int
    trials: int | None
    seed: int | None
    edge_prob: float | None
    graphs_checked: int
    checks_run: int
    discrepancies: tuple[Discrepancy, ...]

    @property
    def passed(self) -> bool:
        return not self.discrepancies


def _mark_class(n: int, edges, bit, marked: bytearray) -> None:
    """Mark in ``marked`` every upper-triangular edge mask of the n-node
    DAG's isomorphism class, ``bit[a][b]`` being edge (a, b)'s, a < b.

    Each topological order relabels the DAG, its k-th node as k, into one
    mask whose edges point forward, and every mask of the class arises so.
    Twins, nodes with equal parents and equal children, are placed in index
    order, which skips orders that give a mask already marked.
    """
    parents = [[] for _ in range(n)]
    children = [0] * n
    for i, j in edges:
        parents[j].append(i)
        children[i] |= 1 << j
    # A node is placed only after its parents and its lower-indexed twins.
    need = [
        sum([1 << p for p in parents[v]])
        | sum([1 << u for u in range(v) if parents[u] == parents[v] and children[u] == children[v]])
        for v in range(n)
    ]
    position = [0] * n
    full = (1 << n) - 1

    def place(placed, k, mask):
        if placed == full:
            marked[mask] = 1
            return
        for v in range(n):
            if not (placed >> v & 1 or need[v] & ~placed):
                position[v] = k
                place(placed | 1 << v, k + 1, mask | sum([bit[position[p]][k] for p in parents[v]]))

    place(0, 0, 0)


def enumerate_dags(n: int) -> Iterator[CausalGraph]:
    """All DAGs on n nodes, yielded one per isomorphism class.

    Every DAG relabels into one whose edges respect a fixed node order,
    so scanning the upper-triangular edge masks in ascending order covers
    every class.  The first mask of each class is yielded as a graph, and
    ``_mark_class`` then marks the whole class in a table of 2^(n(n-1)/2)
    bytes, which the scan skips with ``bytearray.find``.  The table caps n
    at 7 (2 MiB; 8 nodes would take 256 MiB): a larger n, or one below 1,
    raises ValueError at the call, before the table is allocated.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n > 7:
        raise ValueError(f"enumerate_dags takes at most 7 nodes, not {n}")
    names = [chr(ord("A") + i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bit = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        bit[i][j] = 1 << k

    def scan():
        marked = bytearray(1 << len(pairs))
        mask = 0
        while mask >= 0:
            edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
            _mark_class(n, edges, bit, marked)
            yield CausalGraph(names, [(names[i], names[j]) for i, j in edges])
            mask = marked.find(0, mask + 1)

    return scan()


def random_dag(
    rng: random.Random,
    max_nodes: int = DEFAULT_RANDOM_NODES,
    min_nodes: int = RANDOM_MIN_NODES,
    edge_prob: float = DEFAULT_EDGE_PROB,
) -> CausalGraph:
    """A seeded random DAG: random topological order, independent edge coin flips."""
    n = rng.randint(min_nodes, max_nodes)
    names = [chr(ord("A") + i) for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    edges = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return CausalGraph(names, edges)


# --- Independent textbook oracle -----------------------------------------


def _skeleton(g: CausalGraph):
    """The graph as the oracle's walk reads it, on node indices (node i is
    ``g.names[i]``): each node's sorted undirected neighbours,
    ``g.neighbors``; each node's parents as a mask; and ``reach``, the mask
    of a node and its descendants, found on a node's first read by a walk
    over ``g.children``.  Read from the graph's adjacency alone, never
    from a derived fact or any other part of the engine."""
    children = g.children

    def reach_of(v):
        seen = 1 << v
        stack = [v]
        while stack:
            for c in children[stack.pop()]:
                if not seen >> c & 1:
                    seen |= 1 << c
                    stack.append(c)
        return seen

    parents = [sum([1 << p for p in ps]) for ps in g.parents]
    return g.neighbors, parents, _Memo(reach_of)


def _walk(skeleton, x: int):
    """Every simple undirected path from node x, classified: yields
    (path, noncollider mask, collider reaches) as each path is reached, where
    ``path`` is the walk's own list of node indices, valid until the next
    step, and the reaches are those of the interior colliders in path order.

    One depth-first walk in sorted-neighbour order extends a path one edge
    at a time.  Leaving a node makes it interior, and it is a collider iff
    both of its path neighbours are its parents.
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
            on_path |= 1 << w
            w_into = parents[w] if parents[w] >> v & 1 else 0
            frames.append((iter(neighbors[w]), w_nc, w_nc | 1 << w, w_colliders, w_into))
            break
        else:
            frames.pop()
            path.pop()
            on_path ^= 1 << v


def _rows(skeleton, x: int) -> defaultdict:
    """Node w -> the oracle's rows of pair (x, w), for every w above x that
    a path reaches, read from the graph alone by one walk from x.  A row is
    one x-w path as int node masks (``CausalGraph.node_mask`` numbering):
    its noncolliders' mask and, per collider in path order, the mask of the
    collider and its descendants.  Paths with equal masks give one row, in
    the order of their first path, as the keys of the pair's dict.  The
    agreement sweep reads one source node's rows at a time."""
    found = defaultdict(dict)
    for path, nc, colliders in _walk(skeleton, x):
        if path[-1] > x:
            found[path[-1]][nc, colliders] = None
    return found


def enumerate_classified_paths(g: CausalGraph, x: str, y: str):
    """Every simple undirected path x..y with its interior classification,
    the name view of the oracle's walk: the walk from x, kept where it ends
    at y.

    Returns tuples (path, noncolliders, colliders) in a deterministic
    order.  A direct edge contributes a path with no interior nodes.
    Raises UnknownVariable for a name that is not a node and ValueError
    for a node paired with itself.
    """
    g.require_node(x)
    g.require_node(y)
    if x == y:
        raise ValueError("path endpoints must differ")
    j = g.index[y]
    names = g.names
    return tuple(
        (
            tuple([names[v] for v in path]),
            frozenset([names[v] for v in path if nc >> v & 1]),
            tuple([names[v] for v in path[1:-1] if not nc >> v & 1]),
        )
        for path, nc, _ in _walk(_skeleton(g), g.index[x])
        if path[-1] == j
    )


def dsep_oracle(rows, conditioning: int) -> bool:
    """d-separation over one pair's rows, from ``_rows``, given a
    conditioning node mask.

    True iff every path is blocked: a noncollider is conditioned on, or some
    collider has neither itself nor a descendant conditioned on.  This route
    never consults derived facts.  A named conditioning set enters through
    ``CausalGraph.node_mask``.
    """
    for noncolliders, colliders in rows:
        if not noncolliders & conditioning and all(c & conditioning for c in colliders):
            return False
    return True


def check_graph_agreement(g: CausalGraph, fact_budget: int | None = None):
    """Compare both routes on every pair and every conditioning set of g.

    Returns (discrepancies, checks run).  Both routes work on node indices
    (node i is ``g.names[i]``) and conditioning sets are int node masks.
    The rules side is Condition 1, ``CausalGraph.edge_between``, and
    Condition 2, ``_block`` over the keys of ``Closure.pair_record``: the
    one mask test that a weakening verdict's ``Closure.audit`` also reads,
    with no fact named, on the record's unsorted keys: the decision asks
    only whether some key is open.  The oracle side, defined above in this
    module, is ``dsep_oracle`` over the rows ``_rows`` gives: one walk per
    source node gives the rows of every pair from that node to a node above
    it, each row a noncollider mask and the collider reaches, unpacked here.

    Both decisions read a conditioning mask only through its AND with the
    pair's ``read`` nodes: the record's read mask and the rows' masks.  So
    each is made once per subset of ``read``, and a conditioning set takes
    the decisions of its projection onto ``read``.  A pair with no path
    fact and no row (so no edge) is independent by both routes under every
    conditioning set and takes no decision.  The checks run still count
    every (pair, conditioning set) triple.  Only a pair with a disagreeing
    subset walks its conditioning sets in ascending order, to report each
    whose projection disagreed; names are built only then.
    """
    closure = close(g, fact_budget=fact_budget)
    skeleton = _skeleton(g)
    n = len(g.names)
    everything = (1 << n) - 1
    discrepancies = []
    checks = 0
    for i in range(n - 1):
        rows_from = _rows(skeleton, i)
        for j in range(i + 1, n):
            keys, read = closure.pair_record(i, j)
            rows = rows_from.get(j, ())
            rest = everything & ~(1 << i | 1 << j)
            checks += 1 << rest.bit_count()
            if not (keys or rows):
                continue
            nonadjacent = g.edge_between(i, j) is None
            for noncolliders, colliders in rows:
                read |= reduce(or_, colliders, noncolliders)
            read &= rest
            # The subsets of read whose decisions disagree, each mapped to by_rules.
            disagreeing = {}
            cond = 0
            while True:
                by_rules = nonadjacent
                if nonadjacent:
                    for key in keys:
                        if _block(key, cond) is None:
                            by_rules = False
                            break
                if by_rules != dsep_oracle(rows, cond):
                    disagreeing[cond] = by_rules
                # The next subset in ascending order; 0 once all are done.
                cond = (cond - read) & read
                if not cond:
                    break
            if not disagreeing:
                continue
            # cond is 0 again: every subset of rest, in ascending order.
            nodes = g.names
            while True:
                by_rules = disagreeing.get(cond & read)
                if by_rules is not None:
                    discrepancies.append(
                        Discrepancy(
                            nodes=nodes,
                            edges=tuple(sorted(g.edges)),
                            x=nodes[i],
                            y=nodes[j],
                            conditioning=tuple(v for k, v in enumerate(nodes) if cond >> k & 1),
                            by_rules=by_rules,
                            by_oracle=not by_rules,
                        )
                    )
                cond = (cond - rest) & rest
                if not cond:
                    break
    return discrepancies, checks


def _sweep(graphs, fact_budget: int | None, **settings) -> SweepReport:
    """Agreement over each graph in turn, reported with the sweep's settings."""
    discrepancies, count, checks = [], 0, 0
    for count, g in enumerate(graphs, 1):
        found, ran = check_graph_agreement(g, fact_budget=fact_budget)
        discrepancies.extend(found)
        checks += ran
    return SweepReport(
        graphs_checked=count, checks_run=checks, discrepancies=tuple(discrepancies), **settings
    )


def exhaustive_sweep(
    max_nodes: int = DEFAULT_EXHAUSTIVE_NODES, fact_budget: int | None = None
) -> SweepReport:
    """Agreement over every DAG with up to max_nodes nodes, up to isomorphism."""
    graphs = (g for n in range(1, max_nodes + 1) for g in enumerate_dags(n))
    return _sweep(
        graphs, fact_budget, mode="exhaustive", max_nodes=max_nodes, trials=None, seed=None,
        edge_prob=None,
    )


def random_sweep(
    trials: int = 500,
    max_nodes: int = DEFAULT_RANDOM_NODES,
    seed: int = DEFAULT_SEED,
    edge_prob: float = DEFAULT_EDGE_PROB,
    fact_budget: int | None = None,
) -> SweepReport:
    """Agreement over seeded random DAGs; identical seeds give identical reports."""
    rng = random.Random(seed)
    graphs = (random_dag(rng, max_nodes=max_nodes, edge_prob=edge_prob) for _ in range(trials))
    return _sweep(
        graphs, fact_budget, mode="random", max_nodes=max_nodes, trials=trials, seed=seed,
        edge_prob=edge_prob,
    )


def sweep_report_to_json(report: SweepReport) -> dict:
    return {
        "mode": report.mode,
        "maxNodes": report.max_nodes,
        "trials": report.trials,
        "seed": report.seed,
        "edgeProb": report.edge_prob,
        "graphsChecked": report.graphs_checked,
        "checksRun": report.checks_run,
        "passed": report.passed,
        "discrepancies": [
            {
                "nodes": list(d.nodes),
                "edges": [list(e) for e in d.edges],
                "x": d.x,
                "y": d.y,
                "conditioning": list(d.conditioning),
                "byRules": d.by_rules,
                "byOracle": d.by_oracle,
            }
            for d in report.discrepancies
        ],
    }
