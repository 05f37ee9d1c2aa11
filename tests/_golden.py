"""The golden commands: (golden file name, argv built from the data
directory) per file of ``tests/golden``.  Plain data, so that code which
runs without pytest can read it too."""

GOLDEN_COMMANDS = [
    (
        "weaken_loan_ms.json",
        lambda d: [
            "weaken",
            "--graph", str(d / "loan.cg"),
            "--judgment", str(d / "loan.jdg"),
            "--attr", "MS=married",
        ],
    ),
    ("paths_loan.json", lambda d: ["paths", "--graph", str(d / "loan.cg")]),
    (
        "intersect_table1.json",
        lambda d: [
            "intersect",
            "--dataset", str(d / "table1.csv"),
            "--target", "t",
            "--protected", "a1,a2",
        ],
    ),
    ("demo_table1.json", lambda d: ["demo-table1"]),
    (
        "if_loan_ms.json",
        lambda d: ["if", "--graph", str(d / "loan.cg"), "--target", "Loan", "--protected", "MS"],
    ),
    (
        "intersect_loan_ms_age.json",
        lambda d: [
            "intersect",
            "--graph", str(d / "loan.cg"),
            "--target", "Loan",
            "--protected", "MS,Age",
        ],
    ),
    (
        "oracle_random_seed1.json",
        lambda d: ["oracle", "--trials", "3", "--max-nodes", "5", "--seed", "1"],
    ),
]
# The same commands with --format text, after the JSON ones so their ids stay.
GOLDEN_COMMANDS += [
    (name.replace(".json", ".txt"), lambda d, build=build: [*build(d), "--format", "text"])
    for name, build in GOLDEN_COMMANDS
]
