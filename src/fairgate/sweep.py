"""Agreement sweeps between the rule closure and the d-separation oracle.

The two independence routes are developed separately on purpose; this
module drives them against each other over whole graph families: every
DAG up to isomorphism for small sizes, and seeded random DAGs for larger
ones.  Every (pair, conditioning set) triple is checked and any mismatch
is captured as a structured discrepancy rather than a bare failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from .closure import close, dsep_oracle, enumerate_classified_paths
from .graph import CausalGraph
from .weakening import check_condition1, check_condition2

__all__ = [
    "RANDOM_MIN_NODES",
    "RANDOM_MAX_NODES",
    "Discrepancy",
    "SweepReport",
    "enumerate_dags",
    "random_dag",
    "check_graph_agreement",
    "exhaustive_sweep",
    "random_sweep",
    "sweep_report_to_json",
]


# The fewest nodes a random sweep's graphs have.
RANDOM_MIN_NODES = 4

# The most nodes a random sweep may draw: each node pair is checked under
# all 2^(n-2) conditioning sets (67,584 checks per graph at n=12), and no
# budget bounds those checks.
RANDOM_MAX_NODES = 12


@dataclass(frozen=True)
class Discrepancy:
    """One triple where the two routes disagreed, with the full graph."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    x: str
    y: str
    conditioning: tuple[str, ...]
    by_rules: bool
    by_oracle: bool


@dataclass(frozen=True)
class SweepReport:
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


def enumerate_dags(n: int) -> list[CausalGraph]:
    """All DAGs on n nodes, one representative per isomorphism class.

    Every DAG relabels into one whose edges respect a fixed node order,
    so scanning the upper-triangular edge masks covers every class;
    classes are deduplicated by the minimal edge set over all node
    permutations.
    """
    if n < 1:
        raise ValueError("need at least one node")
    names = [chr(ord("A") + i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        key = min(
            tuple(sorted((perm[i], perm[j]) for i, j in edges)) for perm in perms
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(CausalGraph(names, [(names[i], names[j]) for i, j in edges]))
    return out


def random_dag(
    rng: random.Random,
    max_nodes: int = 8,
    min_nodes: int = RANDOM_MIN_NODES,
    edge_prob: float = 0.3,
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

    Returns (discrepancies, checks run).  The rules side is Conditions 1
    and 2 exactly as a weakening verdict decides them; the oracle side is
    ``dsep_oracle`` over paths classified once per pair.  Conditioning
    sets range over all subsets of the other nodes.
    """
    closure = close(g, fact_budget=fact_budget, record_trace=False)
    nodes = sorted(g.nodes)
    discrepancies = []
    checks = 0
    for x, y in combinations(nodes, 2):
        classified = enumerate_classified_paths(g, x, y)
        nonadjacent = check_condition1(g, x, y)[0]
        rest = [v for v in nodes if v != x and v != y]
        for mask in range(1 << len(rest)):
            cond = frozenset(rest[k] for k in range(len(rest)) if mask >> k & 1)
            by_rules = nonadjacent and check_condition2(closure, x, y, cond)[0]
            by_oracle = dsep_oracle(g, classified, cond)
            checks += 1
            if by_rules != by_oracle:
                discrepancies.append(
                    Discrepancy(
                        nodes=tuple(nodes),
                        edges=tuple(sorted(g.edges)),
                        x=x,
                        y=y,
                        conditioning=tuple(sorted(cond)),
                        by_rules=by_rules,
                        by_oracle=by_oracle,
                    )
                )
    return discrepancies, checks


def exhaustive_sweep(max_nodes: int = 5, fact_budget: int | None = None) -> SweepReport:
    """Agreement over every DAG with up to max_nodes nodes, up to isomorphism."""
    discrepancies = []
    graphs = 0
    checks = 0
    for n in range(1, max_nodes + 1):
        for g in enumerate_dags(n):
            found, ran = check_graph_agreement(g, fact_budget=fact_budget)
            discrepancies.extend(found)
            graphs += 1
            checks += ran
    return SweepReport(
        mode="exhaustive",
        max_nodes=max_nodes,
        trials=None,
        seed=None,
        edge_prob=None,
        graphs_checked=graphs,
        checks_run=checks,
        discrepancies=tuple(discrepancies),
    )


def random_sweep(
    trials: int = 500,
    max_nodes: int = 8,
    seed: int = 0,
    edge_prob: float = 0.3,
    fact_budget: int | None = None,
) -> SweepReport:
    """Agreement over seeded random DAGs; identical seeds give identical reports."""
    rng = random.Random(seed)
    discrepancies = []
    checks = 0
    for _ in range(trials):
        g = random_dag(rng, max_nodes=max_nodes, edge_prob=edge_prob)
        found, ran = check_graph_agreement(g, fact_budget=fact_budget)
        discrepancies.extend(found)
        checks += ran
    return SweepReport(
        mode="random",
        max_nodes=max_nodes,
        trials=trials,
        seed=seed,
        edge_prob=edge_prob,
        graphs_checked=trials,
        checks_run=checks,
        discrepancies=tuple(discrepancies),
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
