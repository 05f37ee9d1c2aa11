"""The bytes of ``intersect --graph`` reports, pinned.

Twelve seeded requests over 9-node DAGs with 9-11 edges, six protected
attributes and a one-variable context on every other request: 192
verdicts each, whose rule traces and fact audits repeat across the
report.  Each digest is the sha256 of the request's stdout followed by
its exit code.  They were recorded before the report builder and the
renderer shared repeated parts, so they pin that sharing to the bytes
every verdict printed in full gave.
"""

import hashlib
import random

from fairgate.cli import main

PINNED = [
    "3ec3ec5d28159dbc3aaf9d0bf93f905eed2ee01f95a3c4b48b4e12114ac885ea",
    "1d44755aac1227ba718cb3abd1e602ae8ebbfa4cb6d186036c605c6611d14b2a",
    "a84d591dd61f6da046598176d13177da3ed9b55004c617a7d2cb753012612abf",
    "dd1d9b5767a8f7eb78868da7e99a083191deadbdc66733a184452c9a5bfcd4d6",
    "3ef08792f29415032ca5e07d45b54e9f887425e3c4c2b49b16f6da7196ef5c5e",
    "4e1298d01983893e112c2ac1b5ff9503a567ece07512428656ce64b359f3410b",
    "7c503f9b1c6f1a831ce3256fa433bd6ef132d91293c1e46df22ced4e9e805420",
    "67fa22c24f8730d75a00fb68ae05a8a9be20d957d0e1a97fecc90cbd9e7af07f",
    "b3cd2e1f2daac734131ffa1a64d1ae3c15f0f98219c808eef0ccf51e7a5225fb",
    "319ca3c9991f0afc01a741d9c3ed7bf13c9ccee1442709a457253cb8bad0a447",
    "ee6a332e2571a4f429c2711d4355b0d8eeb3b37772b1a0d3e339a19e85c1da8d",
    "c31de1a31554ffad6cab58959eac1cdc4c43d7239c452203c4321d323a70c894",
]


def _request(i: int, tmp_path) -> list[str]:
    rng = random.Random(f"intersect-bytes:{i}")
    names = [chr(ord("A") + k) for k in range(9)]
    order = rng.sample(names, len(names))
    forward = [(order[a], order[b]) for a in range(9) for b in range(a + 1, 9)]
    edges = sorted(rng.sample(forward, 9 + i % 3))
    graph = tmp_path / f"g{i}.cg"
    graph.write_text(
        "".join(f"node {v}\n" for v in names) + "".join(f"{a} -> {b}\n" for a, b in edges),
        encoding="utf-8",
    )
    target, *others = rng.sample(names, len(names))
    argv = ["intersect", "--graph", str(graph), "--target", target,
            "--protected", ",".join(sorted(others[:6]))]
    if i % 2:
        argv += ["--context-inline", f"{others[6]}=v{i}"]
    return argv


def _digest(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{out}{code}".encode()).hexdigest()


def test_intersect_graph_reports_match_the_pinned_digests(capsys, tmp_path):
    digests = [_digest(capsys, _request(i, tmp_path)) for i in range(len(PINNED))]
    assert digests == PINNED
