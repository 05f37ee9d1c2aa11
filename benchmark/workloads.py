"""Seeded inputs and request streams for the four benchmark workloads.

A stream is an endless sequence of ``Request`` objects.  Request ``i`` of
a workload is a pure function of (workload, seed, i): its input files are
written on demand into the run's work directory, outside any timed
region, and the same seed always gives byte-identical files and argv.

DAGs are drawn with a fixed node count and a fixed edge count (a random
topological order, then ``m`` distinct forward pairs), so edge density,
the property closure cost depends on, is set on purpose.  Edge counts
and request kinds cycle in a fixed order, so every run of a workload
holds the same mix whatever its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from reference import ContingencyTable, Dag


@dataclass
class Request:
    """One CLI call and what its checker needs to know about its inputs."""

    argv: list
    kind: str  # checker to apply, see run.CHECKERS
    schema: str
    case: dict = field(default_factory=dict)
    subject: object = None  # Dag or ContingencyTable the reference works on


def _rng(workload: str, seed: int, i) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def fixed_size_dag(rng: random.Random, n: int, m: int) -> Dag:
    names = [chr(ord("A") + k) for k in range(n)]
    order = names[:]
    rng.shuffle(order)
    forward = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    return Dag(names, sorted(rng.sample(forward, m)))


def write_graph(path: Path, dag: Dag) -> str:
    lines = [f"node {v}" for v in dag.nodes] + [f"{a} -> {b}" for a, b in sorted(dag.edges)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _context_text(items) -> str:
    return ", ".join(f"{var}={val}" for var, val in items)


def _graph_context(rng, variables):
    """Context items for graph-only checks; values vary in form but play no role."""
    forms = ("v0", "v1+v2", "v3^~")
    return [(v, rng.choice(forms)) for v in variables]


# --- graph-requests -------------------------------------------------------------

GRAPH_REQUESTS = {"nodes": 10, "edges": (9, 10, 11, 12, 13), "kinds": ("paths", "weaken", "if")}


def graph_requests(seed: int, workdir: Path):
    """paths, weaken and if --graph round-robin, each on its own n=10 DAG."""
    kinds, edge_counts = GRAPH_REQUESTS["kinds"], GRAPH_REQUESTS["edges"]
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        m = edge_counts[(i // len(kinds)) % len(edge_counts)]
        rng = _rng("graph-requests", seed, i)
        dag = fixed_size_dag(rng, GRAPH_REQUESTS["nodes"], m)
        graph = write_graph(workdir / f"g{i}.cg", dag)
        if kind == "paths":
            yield Request(["paths", "--graph", graph], "paths", "paths.schema.json", {}, dag)
        else:
            target, subject, *others = rng.sample(dag.nodes, len(dag.nodes))
            context = sorted(rng.sample(others, rng.randint(0, 3)))
            if kind == "weaken":
                p = Fraction(rng.randint(0, 12), 12)
                values = [(v, rng.choice(("v0", "v1"))) for v in context]
                judgment = workdir / f"j{i}.jdg"
                judgment.write_text(
                    f"{_context_text(values)} => {target}=yes @ {p.numerator}/{p.denominator}\n",
                    encoding="utf-8",
                )
                weakened = sorted(values + [(subject, "v1")])
                case = {
                    "subject": subject,
                    "target": target,
                    "context": context,
                    "weakened": f"{_context_text(weakened)} => {target}=yes"
                    f" @ {p.numerator}/{p.denominator}",
                }
                argv = ["weaken", "--graph", graph, "--judgment", str(judgment),
                        "--attr", f"{subject}=v1"]
                yield Request(argv, "weaken", "weaken.schema.json", case, dag)
            else:
                argv = ["if", "--graph", graph, "--target", target, "--protected", subject]
                if context:
                    argv += ["--context-inline", _context_text(_graph_context(rng, context))]
                case = {"protected": subject, "target": target, "context": context}
                yield Request(argv, "if-graph", "if.schema.json", case, dag)
        i += 1


# --- graph-intersect ------------------------------------------------------------

GRAPH_INTERSECT = {"nodes": 9, "edges": (9, 10, 11), "protected": 6}


def graph_intersect(seed: int, workdir: Path):
    """intersect --graph over 6 protected attributes; every other request adds a context."""
    edge_counts = GRAPH_INTERSECT["edges"]
    i = 0
    while True:
        rng = _rng("graph-intersect", seed, i)
        dag = fixed_size_dag(rng, GRAPH_INTERSECT["nodes"], edge_counts[i % len(edge_counts)])
        graph = write_graph(workdir / f"g{i}.cg", dag)
        target, *others = rng.sample(dag.nodes, len(dag.nodes))
        protected = sorted(others[: GRAPH_INTERSECT["protected"]])
        context = others[GRAPH_INTERSECT["protected"]:][: i % 2]
        argv = ["intersect", "--graph", graph, "--target", target,
                "--protected", ",".join(protected)]
        if context:
            argv += ["--context-inline", _context_text(_graph_context(rng, context))]
        case = {"protected": protected, "target": target, "context": context}
        yield Request(argv, "intersect-graph", "intersect.schema.json", case, dag)
        i += 1


# --- data-audit -----------------------------------------------------------------

DATA_AUDIT = {
    "rows": 1200,
    "protected": {"p1": 2, "p2": 3, "p3": 3, "p4": 4},
    "regions": ("north", "south", "east", "west"),
    "epsilon": Fraction(1, 10),
}
# Region restrictions of the if requests, one per group of four requests:
# none, atomic, sum and complement.  intersect requests always audit the
# whole table, so their cost does not fall into one cluster per context.
_REGION_CONTEXTS = (None, "north", "north+south", "east^~")


def write_dataset(rng: random.Random, path: Path):
    """CSV with the stated cardinalities; the target leans on p1 and region only."""
    spec = DATA_AUDIT["protected"]
    columns = list(spec) + ["region", "y"]
    rows = []
    for _ in range(DATA_AUDIT["rows"]):
        values = [f"{name}v{rng.randrange(k)}" for name, k in spec.items()]
        region = rng.choice(DATA_AUDIT["regions"])
        lean = 0.3 + 0.25 * (values[0] == "p1v1") + 0.1 * (region == "north")
        rows.append(values + [region, "yes" if rng.random() < lean else "no"])
    text = "\n".join(",".join(r) for r in [columns] + rows) + "\n"
    path.write_text(text, encoding="utf-8")
    return columns, rows


def data_audit(seed: int, workdir: Path):
    """Three if --dataset to one intersect --dataset, over one seeded CSV."""
    columns, rows = write_dataset(_rng("data-audit", seed, "csv"), workdir / "audit.csv")
    dataset = str(workdir / "audit.csv")
    protected = list(DATA_AUDIT["protected"])
    eps = DATA_AUDIT["epsilon"]
    eps_text = f"{eps.numerator}/{eps.denominator}"
    i = 0
    while True:
        rng = _rng("data-audit", seed, i)
        form = _REGION_CONTEXTS[(i // 4) % len(_REGION_CONTEXTS)]
        base = ["--dataset", dataset, "--target", "y", "--epsilon", eps_text]
        if i % 4 == 3:
            context = []
            argv = ["intersect", *base, "--protected", ",".join(protected)]
            kind, schema, attrs = "intersect-data", "intersect.schema.json", protected
        else:
            attr, other = rng.sample(protected, 2)
            k = DATA_AUDIT["protected"][other]
            context = [("region", form)] if form else []
            if i % 2:
                context.append((other, f"{other}v{rng.randrange(k)}^~"))
            argv = ["if", *base, "--protected", attr]
            if context:
                argv += ["--context-inline", _context_text(context)]
            kind, schema, attrs = "if-data", "if.schema.json", [attr]
        table = ContingencyTable(columns, rows, "y", attrs, context)
        case = {"protected": attrs if kind == "intersect-data" else attrs[0], "epsilon": eps}
        yield Request(argv, kind, schema, case, table)
        i += 1


# --- oracle-sweep ---------------------------------------------------------------

ORACLE_SWEEP = {"exhaustive_max_nodes": 4, "trials": 32, "random_max_nodes": 7, "edge_prob": "0.2"}


def oracle_sweep(seed: int, workdir: Path):
    """One exhaustive n <= 4 sweep to two seeded random sweeps of up to 8 nodes.

    Random sweeps are the majority, so the median falls inside one kind
    of request rather than on the border between the two.
    """
    i = 0
    while True:
        if i % 3 == 0:
            n = ORACLE_SWEEP["exhaustive_max_nodes"]
            argv = ["oracle", "--max-nodes", str(n)]
            case = {"trials": None, "max_nodes": n}
        else:
            sweep_seed = _rng("oracle-sweep", seed, i).randrange(2**31)
            trials = ORACLE_SWEEP["trials"]
            argv = ["oracle", "--trials", str(trials), "--max-nodes",
                    str(ORACLE_SWEEP["random_max_nodes"]), "--edge-prob",
                    ORACLE_SWEEP["edge_prob"], "--seed", str(sweep_seed)]
            case = {"trials": trials, "max_nodes": ORACLE_SWEEP["random_max_nodes"]}
        yield Request(argv, "oracle", "oracle.schema.json", case)
        i += 1


WORKLOADS = {
    "graph-requests": graph_requests,
    "graph-intersect": graph_intersect,
    "data-audit": data_audit,
    "oracle-sweep": oracle_sweep,
}
