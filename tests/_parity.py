"""A parity digest: one sha256 per section over fixed, seeded graph families.

    python tests/_parity.py [--quick] TREE

imports ``fairgate`` from ``TREE/src`` and prints one line per section,
its name, what it covered and the sha256 of everything it read.  Run it
on a copy of the parent commit and on the change: a refactor that keeps
every answer prints the same lines on both.  It reads public names only.

- ``closures``: each graph closed whole, read through ``closure_dump``,
  ``derivations()``, ``trace``, and every pair's ``trace_between`` and
  ``audit`` under the conditioning masks 0, every node and each single
  node; then closed for up to 7 seeded pair sets (single pairs,
  intersect-style sets, every pair), each read the same way on its own
  pairs.
- ``budgets``: the outcome, success or the ``ResourceLimit`` message, of
  closing at the exact budget each of those closures needs, at exact - 1
  and at half, each where it is positive.
- ``graphs``: each graph's names, edges and index adjacency, and the
  error class and message, or the adjacency, for seeded faulty inputs.
- ``oracle``: each graph's ``check_graph_agreement``, its discrepancies
  and checks, and every pair's ``pair_record`` of its whole closure, the
  keys sorted; then the ``sweep_report_to_json`` of ``exhaustive_sweep(4)``
  and of a 32-trial ``random_sweep`` on up to 7 nodes at edge probability
  0.2 for seeds 1, 2 and 3.

The family is every DAG on at most 5 nodes, 120 seeded random DAGs on
6-9 nodes and three dense 10-node DAGs; ``--quick`` keeps the DAGs on at
most 4 nodes and 8 random ones on 6-7 nodes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the small family only")
    parser.add_argument("tree", help="a source tree holding src/fairgate")
    ARGS = parser.parse_args()
    sys.path.insert(0, str(Path(ARGS.tree, "src").resolve()))

from fairgate.closure import close, closure_dump, trace_record_json  # noqa: E402
from fairgate.errors import FairgateError, ResourceLimit  # noqa: E402
from fairgate.graph import CausalGraph  # noqa: E402
from fairgate.sweep import (  # noqa: E402
    check_graph_agreement,
    enumerate_dags,
    exhaustive_sweep,
    random_sweep,
    sweep_report_to_json,
)

# The dense 10-node DAGs of tests/test_closure_bytes.py.
DENSE_N10 = [
    "B>A B>G C>B D>A D>B D>H E>A E>C E>H F>B I>B I>D I>F J>C J>H J>I",
    "A>J B>A B>I B>J C>A C>J F>C F>I G>J H>A H>C I>D I>E J>E",
    "B>C B>D B>I C>A C>J E>D E>H E>J F>C F>D F>E F>H F>I G>A G>C G>I",
]


def _names(n: int) -> list[str]:
    return [chr(ord("A") + i) for i in range(n)]


def _random_edges(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """Edges of a random DAG on ``_names(n)``, in a random order, at most
    2n - 3 of them: denser 9-node graphs take a minute to close."""
    order = _names(n)
    rng.shuffle(order)
    p = rng.choice([0.2, 0.3, 0.4])
    edges = [(order[i], order[j]) for i, j in combinations(range(n), 2) if rng.random() < p]
    rng.shuffle(edges)
    return edges[: 2 * n - 3]


def family(quick: bool) -> list[CausalGraph]:
    graphs = [g for n in range(1, 5 if quick else 6) for g in enumerate_dags(n)]
    rng = random.Random(13)
    for _ in range(8 if quick else 120):
        n = rng.randint(6, 7 if quick else 9)
        graphs.append(CausalGraph(_names(n), _random_edges(rng, n)))
    if not quick:
        for spec in DENSE_N10:
            graphs.append(CausalGraph(_names(10), [tuple(e.split(">")) for e in spec.split()]))
    return graphs


def pair_sets(g: CausalGraph, seed: int) -> list[list[tuple[str, str]]]:
    """Up to 7 seeded pair sets: up to 4 single pairs, intersect-style sets
    of 2 and 3 protected names with one target, and every pair."""
    rng = random.Random(seed)
    names = list(g.names)
    pairs = list(combinations(names, 2))
    sets = [[p] for p in rng.sample(pairs, min(4, len(pairs)))]
    for k in (2, 3):
        if len(names) > k:
            target, *protected = rng.sample(names, k + 1)
            sets.append([(p, target) for p in protected])
    if pairs:
        sets.append(pairs)
    return sets[:7]


def _audit_json(audit) -> list:
    return [
        [fact.text, None if reason is None else [reason.kind, sorted(reason.nodes)]]
        for fact, reason in audit
    ]


def read_closure(g: CausalGraph, closure, pairs) -> dict:
    """What the closure answers: its derivations, trace and pair reads."""
    masks = [0, g.node_mask(g.names), *[g.node_mask([v]) for v in g.names]]
    return {
        "derivations": sorted((fact.text, list(path)) for fact, path in closure.derivations()),
        "trace": [trace_record_json(r) for r in closure.trace],
        "pairs": [
            [x, y, [trace_record_json(r) for r in closure.trace_between(x, y)],
             [_audit_json(closure.audit(x, y, m)) for m in masks]]
            for x, y in pairs
        ],
    }


def pair_records(g: CausalGraph, closure) -> list:
    """Every pair's record of a whole closure, its keys sorted."""
    return [
        [i, j, sorted(keys), read]
        for (i, j) in combinations(range(len(g.names)), 2)
        for keys, read in [closure.pair_record(i, j)]
    ]


def outcome(g: CausalGraph, budget: int, pairs) -> str:
    try:
        closure = close(g, fact_budget=budget, pairs=pairs)
    except ResourceLimit as exc:
        return f"ResourceLimit: {exc}"
    return f"ok: {len(closure.mediate)} mediate, {len(closure.derivations())} derivations"


def adjacency(g: CausalGraph) -> list:
    return [list(g.names), sorted(g.edges), g.parents, g.children, g.neighbors]


def faulty_inputs(count: int):
    """Seeded edge lists with self-loops, duplicate edges, reversed edges
    (cycles) and malformed names put in at random positions, so the order
    of the checks shows."""
    rng = random.Random(29)
    bad_names = ["", "a b", "x->y", "p:q", "#", 7, None]
    for _ in range(count):
        n = rng.randint(3, 7)
        names = _names(n)
        edges = _random_edges(rng, n)
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(["loop", "duplicate", "reverse", "name"])
            if kind == "loop":
                v = rng.choice(names)
                edge = (v, v)
            elif kind == "name":
                edge = (rng.choice(names), rng.choice(bad_names))[:: rng.choice([1, -1])]
            elif edges:
                source, target = rng.choice(edges)
                edge = (source, target) if kind == "duplicate" else (target, source)
            else:
                continue
            edges.insert(rng.randint(0, len(edges)), edge)
        yield names, edges


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(quick: bool) -> None:
    graphs = family(quick)
    closures, budgets, oracle = [], [], []
    for seed, g in enumerate(graphs):
        for pairs in [None, *pair_sets(g, seed)]:
            closure = close(g, pairs=pairs)
            if pairs is None:
                read = read_closure(g, closure, combinations(g.names, 2))
                closures.append([closure_dump(closure), read])
                oracle.append([check_graph_agreement(g), pair_records(g, closure)])
            else:
                closures.append([pairs, read_closure(g, closure, pairs)])
            need = len(closure.mediate) + len(closure.derivations())
            budgets.append([pairs, [outcome(g, b, pairs) for b in (need, need - 1, need // 2) if b]])
    faults = []
    for names, edges in faulty_inputs(24 if quick else 60):
        try:
            faults.append(adjacency(CausalGraph(names, edges)))
        except FairgateError as exc:
            faults.append([type(exc).__name__, str(exc)])
    print(f"closures {len(graphs)} graphs, {len(closures)} closures: {digest(closures)}")
    print(f"budgets  {len(budgets)} closures at exact, exact - 1 and half: {digest(budgets)}")
    print(f"graphs   {len(graphs)} graphs, {len(faults)} faulty inputs: "
          f"{digest([*map(adjacency, graphs), *faults])}")
    sweeps = [exhaustive_sweep(4), *(random_sweep(32, 7, seed, 0.2) for seed in (1, 2, 3))]
    oracle.extend(map(sweep_report_to_json, sweeps))
    print(f"oracle   {len(graphs)} graphs, {len(sweeps)} sweeps: {digest(oracle)}")


if __name__ == "__main__":
    main(ARGS.quick)
