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
- ``reports``: ``fairgate.cli.main`` run in process, its standard output
  and error captured, on the golden commands (over a copy of
  ``tests/data``), seeded ``paths``, ``weaken``, ``if --graph`` and
  ``intersect --graph`` command lines on graphs of the family written to
  files, two ``oracle`` sweeps, one call that exits 2 and one that exits
  3: each command line, exit code, standard output and standard error.
- ``datasets``: ``Dataset.from_csv`` over seeded CSV texts (repeated rows,
  CRLF line ends, quoted fields, a field spanning two lines, a byte-order
  mark, blank and whitespace-only lines, a lone carriage return, ragged
  rows, reserved characters, invalid UTF-8, an empty file): the columns,
  rows and target, or the error class and message.

The family is every DAG on at most 5 nodes, 120 seeded random DAGs on
6-9 nodes and three dense 10-node DAGs; ``--quick`` keeps the DAGs on at
most 4 nodes and 8 random ones on 6-7 nodes, and fewer report commands
and dataset texts.  The temporary directory the files are written to is
replaced by a fixed token wherever it is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from _golden import GOLDEN_COMMANDS

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="the small family only")
    parser.add_argument("tree", help="a source tree holding src/fairgate")
    ARGS = parser.parse_args()
    sys.path.insert(0, str(Path(ARGS.tree, "src").resolve()))

from fairgate.cli import main as fairgate_main  # noqa: E402
from fairgate.closure import close, closure_dump, trace_record_json  # noqa: E402
from fairgate.errors import FairgateError, ResourceLimit  # noqa: E402
from fairgate.fairness import Dataset  # noqa: E402
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


DATA = Path(__file__).resolve().parent / "data"
# What the temporary directory is printed as.
TMP = "<tmp>"


def graph_text(g: CausalGraph) -> str:
    """The graph in the plain-text format: every node, then every edge."""
    return "".join([f"node {v}\n" for v in g.names] + [f"{s} -> {t}\n" for s, t in sorted(g.edges)])


def report_argvs(graphs: list[CausalGraph], tmp: Path, quick: bool) -> list[list[str]]:
    """The golden commands over a copy of the data directory, four seeded
    graph commands per sampled graph of the family, two oracle sweeps, a
    ``weaken`` whose attribution names the target (exit 2) and a ``paths``
    over its fact budget (exit 3)."""
    data = tmp / "data"
    shutil.copytree(DATA, data)
    argvs = [build(data) for _, build in GOLDEN_COMMANDS]
    rng = random.Random(37)
    for k, g in enumerate(rng.sample([g for g in graphs if len(g.names) >= 4], 4 if quick else 24)):
        cg, jdg = tmp / f"g{k}.cg", tmp / f"g{k}.jdg"
        cg.write_text(graph_text(g), encoding="utf-8")
        target, subject, *rest = rng.sample(g.names, len(g.names))
        items = ", ".join(f"{v}=v{rng.randint(0, 2)}" for v in rest[: rng.randint(0, 2)])
        jdg.write_text(f"{items} => {target}=yes @ 0.{rng.randint(10, 99)}\n", encoding="utf-8")
        protected = ",".join([subject, *rest[: rng.randint(1, 2)]])
        form = ["--format", rng.choice(["json", "text"])]
        cg, jdg = str(cg), str(jdg)
        argvs += [
            ["paths", "--graph", cg, *form],
            ["weaken", "--graph", cg, "--judgment", jdg, "--attr", f"{subject}=v1", *form],
            ["if", "--graph", cg, "--target", target, "--protected", subject, *form],
            ["intersect", "--graph", cg, "--target", target, "--protected", protected, *form],
        ]
    loan, judgment = str(data / "loan.cg"), str(data / "loan.jdg")
    return argvs + [
        ["oracle", "--max-nodes", "3"],
        ["oracle", "--trials", "8", "--max-nodes", "6", "--seed", "5"],
        ["weaken", "--graph", loan, "--judgment", judgment, "--attr", "Loan=yes"],
        ["paths", "--graph", loan, "--fact-budget", "1"],
    ]


def run_report(argv: list[str], tmp: Path) -> list:
    """One command run in process: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fairgate_main(argv)
    return [[a.replace(str(tmp), TMP) for a in argv], code,
            out.getvalue().replace(str(tmp), TMP), err.getvalue().replace(str(tmp), TMP)]


def dataset_texts(seed: int) -> list[tuple[str, bytes]]:
    """Seeded CSV texts of one small table, each spelled one way."""
    rng = random.Random(seed)
    columns = [f"a{i}" for i in range(1, rng.randint(2, 4))] + ["t"]
    distinct = [[f"v{rng.randint(0, 3)}" for _ in columns] for _ in range(rng.randint(1, 4))]
    rows = [rng.choice(distinct) for _ in range(rng.randint(1, 12))]
    lines = [",".join(columns), *map(",".join, rows)]

    def text(lines, end="\n"):
        return end.join(lines) + end

    def quoted(cells):
        return ",".join(f'"{c}"' for c in cells)

    def inserted(lines, extra):
        lines = list(lines)
        for line in extra:
            lines.insert(rng.randint(1, len(lines)), line)
        return lines

    blanks = [rng.choice(["", " ", "\t "]) for _ in range(3)]
    qlines = [quoted(columns), *map(quoted, rows)]
    cell = rng.randrange(len(columns))
    # The first data row's chosen cell holds a line break inside its quotes.
    first = [c + "\n" if i == cell else c for i, c in enumerate(rows[0])]
    spanning = [qlines[0], quoted(first), *qlines[2:]]
    reserved = [list(r) for r in rows]
    reserved[rng.randrange(len(rows))][cell] = rng.choice(["x=1", "a:b", "p@q", "u+v"])
    ragged = [list(r) for r in rows]
    if rng.random() < 0.5:
        ragged[rng.randrange(len(rows))].append("v9")
    else:
        ragged[-1].pop()
    spaced = [",".join(f" {c} " for c in r) for r in rows]
    body = text(lines).encode()
    at = rng.randint(len(lines[0]) + 1, len(body))
    texts = [
        ("unquoted", text(lines)),
        ("no final line end", "\n".join(lines)),
        ("crlf", text(lines, "\r\n")),
        ("quoted", text(qlines)),
        ("quoted crlf", text(qlines, "\r\n")),
        ("spanning", text(spanning)),
        ("bom", "\ufeff" + text(lines, rng.choice(["\n", "\r\n"]))),
        ("blank lines", text(inserted(lines, blanks))),
        ("blank lines quoted", text(inserted(qlines, blanks))),
        ("padded cells", text([lines[0], *spaced])),
        ("lone carriage return", text(lines[:1]) + "\r".join(lines[1:]) + "\n"),
        ("ragged", text([lines[0], *map(",".join, ragged)])),
        ("reserved", text([lines[0], *map(",".join, reserved)])),
        ("no target column", text([",".join(columns[:-1]), *(",".join(r[:-1]) for r in rows)])),
        ("whitespace only", text(blanks)),
        ("empty", ""),
    ]
    encoded = [(kind, t.encode("utf-8")) for kind, t in texts]
    return [*encoded, ("undecodable", body[:at] + b"\xff" + body[at:])]


def load_datasets(tmp: Path, quick: bool) -> list:
    """Each text loaded by ``Dataset.from_csv`` with target ``t``: its columns,
    rows and target, or its error class and message."""
    loaded = []
    path = tmp / "table.csv"
    for seed in range(2 if quick else 12):
        for kind, body in dataset_texts(seed):
            path.write_bytes(body)
            try:
                d = Dataset.from_csv(path, "t")
                loaded.append([seed, kind, d.columns, d.rows, d.target_column])
            except FairgateError as exc:
                loaded.append([seed, kind, type(exc).__name__, str(exc).replace(str(tmp), TMP)])
    return loaded


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
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        reports = [run_report(argv, tmp) for argv in report_argvs(graphs, tmp, quick)]
        codes = "/".join(str(sum(r[1] == c for r in reports)) for c in range(5))
        print(f"reports  {len(reports)} commands, exit 0/1/2/3/4 {codes}: {digest(reports)}")
        datasets = load_datasets(tmp, quick)
        failed = sum(len(d) == 4 for d in datasets)
        print(f"datasets {len(datasets)} texts, {failed} refused: {digest(datasets)}")


if __name__ == "__main__":
    main(ARGS.quick)
