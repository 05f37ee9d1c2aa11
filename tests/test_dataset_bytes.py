"""The bytes of ``if --dataset`` and ``intersect --dataset`` reports, pinned.

Twelve seeded requests over one seeded 1,200-row CSV whose protected
columns hold 2, 3, 3 and 4 values, with a region column and a yes/no
target: three ``if`` requests to one ``intersect``.  The region
restriction cycles through none, an atom, a sum and a complement, and
odd ``if`` requests add a complement on a second protected column, so
the context filter reads two columns.  One ``intersect`` request does
the same, auditing the three protected columns left.  Each digest is the
sha256 of the request's stdout followed by its exit code.  They were
recorded before the context filter decided each distinct cell once and
before subset counts were summed from a superset's, so they pin those
to the bytes the per-row filter and per-member table walks gave.
"""

import hashlib
import random

from fairgate.cli import main

PINNED = [
    "1833dd45f1636c7ea463570663be8a4174e149a486b898c74f0f76b18da88c76",
    "fac3dd52bf048b3cba42d05a8794c9d9e4f5b40b437a2641189f54a24f7bf148",
    "dfd114645e67f846bbaea42d043703e814b898db3789b992550524a1a51dd591",
    "65a4ad63fc3b608f7005033ac0297aa8867e31540b8b89be9c4c6bec740a7b51",
    "ac03815ce386514a18081062fa30af54f127e8fe6b302654951fad4a1fedd94c",
    "96e7bbf435bb6ee0a3a8427515ba3dc2417a07337ad6e428c1320cb6422a0d4d",
    "5f141ec212c92cb2801295d7fffe0c7599bdb525574fcf00cfbd9e2f902b5a8a",
    "d705118f8a9060de4283d916e6ae847742511602a006afb4c589348cb865745b",
    "2bf8847aa0caa9e2420d3c063496cabe8948c42076b81d7dd07a4abaef3ce74f",
    "5773065625f6ec037e974bf856b0dd2343e23397586348ff880b26b9f64765ee",
    "6f62a5b983fa6fa09fe3a763858cec247d719882f4c8f70086bffd2ec4953fa9",
    "0bbf8d685de20094994f1cb60063ff7ecee7a708bff698fdfdf323bd0b86491b",
]

PROTECTED = {"p1": 2, "p2": 3, "p3": 3, "p4": 4}
REGIONS = ("north", "south", "east", "west")
# Region restrictions, indexed by (i + i // 4) % 4, so each kind of request meets each form.
FORMS = (None, "north", "north+south", "east^~")


def _write_csv(path):
    rng = random.Random("dataset-bytes:csv")
    lines = [",".join([*PROTECTED, "region", "y"])]
    for _ in range(1200):
        values = [f"{name}v{rng.randrange(k)}" for name, k in PROTECTED.items()]
        region = rng.choice(REGIONS)
        lean = 0.3 + 0.25 * (values[0] == "p1v1") + 0.1 * (region == "north")
        lines.append(",".join([*values, region, "yes" if rng.random() < lean else "no"]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _request(i: int, csv_path) -> list[str]:
    rng = random.Random(f"dataset-bytes:{i}")
    form = FORMS[(i + i // 4) % len(FORMS)]
    context = [f"region={form}"] if form else []
    argv = ["--dataset", str(csv_path), "--target", "y", "--epsilon", "1/10"]
    attr, other = rng.sample(sorted(PROTECTED), 2)
    if i % 4 == 3:
        protected = sorted(PROTECTED)
        if i % 8 == 7:
            protected.remove(other)
            context.append(f"{other}={other}v{rng.randrange(PROTECTED[other])}^~")
        argv = ["intersect", *argv, "--protected", ",".join(protected)]
    else:
        if i % 2:
            context.append(f"{other}={other}v{rng.randrange(PROTECTED[other])}^~")
        argv = ["if", *argv, "--protected", attr]
    if context:
        argv += ["--context-inline", ", ".join(context)]
    return argv


def _digest(capsys, argv) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{out}{code}".encode()).hexdigest()


def test_dataset_reports_match_the_pinned_digests(capsys, tmp_path):
    csv_path = tmp_path / "audit.csv"
    _write_csv(csv_path)
    digests = [_digest(capsys, _request(i, csv_path)) for i in range(12)]
    assert digests == PINNED
