"""Agreement sweeps between the rule closure and the d-separation oracle.

The two independence routes are developed separately on purpose; this
module drives them against each other over whole graph families: every
DAG up to isomorphism for small sizes, and seeded random DAGs for larger
ones.  Every (pair, conditioning set) triple is checked, each distinct
projection of the conditioning set decided once, and any mismatch is
captured as a structured discrepancy rather than a bare failure.  Per
graph, the rules side is one ``close`` and the oracle side one path walk
per node, which gives the rows of every pair at once.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, groupby, permutations, product
from operator import or_
from typing import NamedTuple

from .closure import close, dsep_oracle, oracle_rows_by_pair

# Not called here: benchmark/spans.py wraps sweep.enumerate_classified_paths
# for its sweep.oracle span, so the name stays importable from this module.
from .closure import enumerate_classified_paths  # noqa: F401
from .graph import CausalGraph
from .weakening import check_condition1

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
    "check_graph_agreement",
    "exhaustive_sweep",
    "random_sweep",
    "sweep_report_to_json",
]


# The most nodes an exhaustive sweep may enumerate: enumerate_dags(n)
# canonicalizes 2^(n(n-1)/2) edge masks and the sweep checks every class
# (5,984 at n=6; 243,668 classes of 2^21 masks at n=7), and no budget
# bounds them.
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


def _canonical_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The least sorted edge list over the relabelings of an n-node DAG that
    respect its node classes; isomorphic DAGs, and only they, share it.

    A node's class is its (in-degree, out-degree) with the sorted degrees of
    its parents and of its children, which no isomorphism changes.  Classes
    take consecutive labels in invariant order, so only permutations inside
    each class are tried.
    """
    parents = [[] for _ in range(n)]
    children = [[] for _ in range(n)]
    for i, j in edges:
        children[i].append(j)
        parents[j].append(i)
    degree = [(len(parents[v]), len(children[v])) for v in range(n)]
    invariant = [
        (degree[v], sorted(degree[p] for p in parents[v]), sorted(degree[c] for c in children[v]))
        for v in range(n)
    ]
    order = sorted(range(n), key=invariant.__getitem__)
    classes = [tuple(members) for _, members in groupby(order, key=invariant.__getitem__)]
    label = [0] * n
    best = None
    for choice in product(*map(permutations, classes)):
        k = 0
        for members in choice:
            for v in members:
                label[v] = k
                k += 1
        key = tuple(sorted((label[i], label[j]) for i, j in edges))
        if best is None or key < best:
            best = key
    return best


def enumerate_dags(n: int) -> list[CausalGraph]:
    """All DAGs on n nodes, one representative per isomorphism class.

    Every DAG relabels into one whose edges respect a fixed node order,
    so scanning the upper-triangular edge masks covers every class;
    the first mask of each class, by ``_canonical_edges``, is kept.
    """
    if n < 1:
        raise ValueError("need at least one node")
    names = [chr(ord("A") + i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        key = _canonical_edges(n, edges)
        if key in seen:
            continue
        seen.add(key)
        out.append(CausalGraph(names, [(names[i], names[j]) for i, j in edges]))
    return out


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


def check_graph_agreement(g: CausalGraph, fact_budget: int | None = None):
    """Compare both routes on every pair and every conditioning set of g.

    Returns (discrepancies, checks run).  The rules side is Condition 1 and
    ``Closure.first_open``, a scan by the one Condition 2 mask test that a
    weakening verdict's ``Closure.audit`` also reads, without wording the
    reasons a verdict prints; the oracle side is ``dsep_oracle`` over the
    rows of ``oracle_rows_by_pair``: one walk per node, on node indices,
    gives the rows of every pair from that node to a node above it.

    Conditioning sets range over all subsets of the other nodes, as int
    node masks.  Both decisions read a mask only through its AND with the
    pair's ``read`` nodes: the rows' masks and ``Closure.read_mask``.  So
    each is made once per subset of ``read``, and a conditioning set takes
    the decisions of its projection onto ``read``.  The checks run still
    count every (pair, conditioning set) triple.  Only a pair with a
    disagreeing subset walks its conditioning sets in ascending order, to
    report each whose projection disagreed; names are built only then.
    """
    closure = close(g, fact_budget=fact_budget)
    table = oracle_rows_by_pair(g)
    nodes = g.names
    everything = (1 << len(nodes)) - 1
    discrepancies = []
    checks = 0
    for x, y in combinations(nodes, 2):
        rows = table[x, y]
        nonadjacent = check_condition1(g, x, y)[0]
        rest = everything & ~g.node_mask((x, y))
        read = closure.read_mask(x, y)
        for noncolliders, colliders in rows:
            read |= reduce(or_, colliders, noncolliders)
        read &= rest
        checks += 1 << rest.bit_count()
        # The subsets of read whose decisions disagree, each mapped to by_rules.
        disagreeing = {}
        cond = 0
        while True:
            by_rules = nonadjacent and closure.first_open(x, y, cond) is None
            if by_rules != dsep_oracle(rows, cond):
                disagreeing[cond] = by_rules
            # The next subset in ascending order; 0 once all are done.
            cond = (cond - read) & read
            if not cond:
                break
        if not disagreeing:
            continue
        # cond is 0 again: every subset of rest, in ascending order.
        while True:
            by_rules = disagreeing.get(cond & read)
            if by_rules is not None:
                discrepancies.append(
                    Discrepancy(
                        nodes=nodes,
                        edges=tuple(sorted(g.edges)),
                        x=x,
                        y=y,
                        conditioning=tuple(v for i, v in enumerate(nodes) if cond >> i & 1),
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
