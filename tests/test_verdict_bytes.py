"""The bytes of ``paths``, ``weaken`` and ``if --graph`` reports, pinned.

Twenty-four seeded requests, round-robin over the three subcommands, each
on its own 10-node DAG with 9-13 edges; ``weaken`` and ``if`` carry zero to
three context variables.  A ``paths`` report names every fact and trace
record of the closure, a ``weaken`` or ``if`` verdict one node pair's.
Each digest is the sha256 of the request's stdout followed by its exit
code.  They were recorded while ``close`` still built every named fact and
trace record itself, so they pin the closure's on-read naming to the bytes
that engine printed.
"""

import hashlib
import random

from fairgate.cli import main

PINNED = [
    "3818602193d8e12fc0df22448241c34a162bc463692e1473e71db084320786dd",
    "4baaff33dc7b0b3e208397357d19c5cfe0ab232083f307a1642e57a3c9db49ae",
    "fcc82d03093ff73c52f0699da211b3a09d3599242c261b29930162681df2f89d",
    "b23fcb89fae0b25b6000e56084674a5ca9b57c7fc56b04dd563df12ffae39bca",
    "e6f414f2ed678452db1f93ce9702c75c7f86284e2496b93829a784c38e33691d",
    "9cfacbccdbb3f61630c9215047498523fdbf99bd4c22a8edb0f43f054b107ecf",
    "d956b597292989b79156bd93bc94ba60aef07103c3414fed3f74c17afd8da193",
    "1cf9f2f473e75d2c67ffea843d83604d65fd976dd63a0cc56c77a264f4af83c1",
    "b86ce9021a6cd65fde333597a7a561bae3906ef7f8e4d00c2a3f53e09ccbb5bc",
    "5cad18b260b11ff0e0f31164cef0aad350bfa529f375de8086d9d9513f99d620",
    "f9b40c08807161bf9feae0ce725355ff619d53b3c0ca73abf2670e7128153922",
    "e168ab7a4e6ea42a42fec011f6397cae8d317550d01be0cdb38c21f26b0b9dd2",
    "32a191533f745e6d18b7fa6af49c1e60285f176563f29582d683b006f070e95c",
    "4077ed80d60af9d92a7f8a5b147b48aa0b25a62bc1e56699e25a8b86873cf595",
    "2efe3dfd9788aad1da954948211434c8be0e673a5c3954c6e48c74567809f094",
    "6bc4658d7737f004ae12c3ae8aa0be1ce9c2cd39c52a285e58277e9514b24848",
    "e5d0765315d7bbb1e0268441879bbf38a369fa75237f923b20d3d270be043a0a",
    "416cd8d51e2b7fa9c64869b66ae9f49266e55c57eb3d4869d2863c168fc28ab7",
    "582ffe57526c421c15a0e35272fbb2019699c14ca40b2801fbf4791047aba8a2",
    "d073b9b7b2675c184e7b22d1d8e1dc789dc3d41a8d40f28ac33d05b2dcd0aa39",
    "c92ceb1263ceefc5f5bfad31a4356794472415cb3e630bdfcfb6a62c1ab97f8c",
    "b64376e603cfbf021c6ed1e67e55b118bfe685f265079905bb4e96b3eaa69e3b",
    "63918e361f21c331fc22a212621363e7bd8d0abde8fbcd4d41d42ce2c09901ae",
    "8b7869d1ac56cd8f861ff19b1ef1d1d6c490c82c34e40ef187f42b625f5ce783",
]

KINDS = ("paths", "weaken", "if")


def _request(i: int, tmp_path) -> list[str]:
    rng = random.Random(f"verdict-bytes:{i}")
    names = [chr(ord("A") + k) for k in range(10)]
    order = rng.sample(names, len(names))
    forward = [(order[a], order[b]) for a in range(10) for b in range(a + 1, 10)]
    edges = sorted(rng.sample(forward, 9 + (i // 3) % 5))
    graph = tmp_path / f"g{i}.cg"
    graph.write_text(
        "".join(f"node {v}\n" for v in names) + "".join(f"{a} -> {b}\n" for a, b in edges),
        encoding="utf-8",
    )
    kind = KINDS[i % 3]
    if kind == "paths":
        return ["paths", "--graph", str(graph)]
    target, subject, *others = rng.sample(names, len(names))
    context = sorted(others[: (i // 3) % 4])
    if kind == "weaken":
        judgment = tmp_path / f"j{i}.jdg"
        items = ", ".join(f"{v}=v{k % 2}" for k, v in enumerate(context))
        judgment.write_text(f"{items} => {target}=yes @ {i % 13}/12\n", encoding="utf-8")
        return ["weaken", "--graph", str(graph), "--judgment", str(judgment),
                "--attr", f"{subject}=v1"]
    argv = ["if", "--graph", str(graph), "--target", target, "--protected", subject]
    if context:
        argv += ["--context-inline", ", ".join(f"{v}=v0" for v in context)]
    return argv


def _digest(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{out}{code}".encode()).hexdigest()


def test_graph_verdicts_match_the_pinned_digests(capsys, tmp_path):
    digests = [_digest(capsys, _request(i, tmp_path)) for i in range(24)]
    assert digests == PINNED
