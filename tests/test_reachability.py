"""Which ``src/fairgate`` functions no command reaches, pinned in a ledger.

The commands below run in process under ``sys.setprofile``: the seven
golden commands, one ``--format text`` call per subcommand, one call per
error exit (2, 3 and 4), and the first requests of each benchmark
workload's seeded stream.  Every function, method and nested ``def`` of
the package that none of them calls must be listed in ``reachability.txt``
with a reason, and every listed one must stay unreached: so a change that
adds a function no command uses says why, and a change that starts using
a listed one removes its line.  Lambdas and comprehensions count as part
of the function they are written in.

Reasons:

* ``library``: documented API that no command calls;
* ``benchmark``: read only by ``benchmark/spans.py``'s traced counts;
* ``import-time``: runs while the modules load, before any command;
* ``dunder``: a special method that no command's work calls.

``python tests/test_reachability.py`` prints the unreached functions, one
per line, without pytest.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import sys
import tempfile
from pathlib import Path

import fairgate
from fairgate import cli

from _golden import GOLDEN_COMMANDS

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"
LEDGER = TESTS / "reachability.txt"
REASONS = ("library", "benchmark", "import-time", "dunder")
# Code object names that are parts of their enclosing function.
_PARTS = {"<lambda>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def functions() -> dict:
    """(file, first line, name) of each function's code -> ``module:qualname``,
    from the package's source compiled afresh."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not hasattr(const, "co_code") or const.co_name in _PARTS:
                continue
            qualname = prefix + const.co_name
            # Function bodies get new locals; class bodies do not.
            if const.co_flags & inspect.CO_NEWLOCALS:
                key = (const.co_filename, const.co_firstlineno, const.co_name)
                found[key] = f"{module}:{qualname}"
                walk(const, module, qualname + ".<locals>.")
            else:
                walk(const, module, qualname + ".")

    for path in sorted(Path(fairgate.__file__).parent.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, f"fairgate.{path.stem}", "")
    return found


def _calls(workdir: Path):
    """(argv, stdout) of every command run; stdout None captures into a StringIO."""
    sys.path.insert(0, str(TESTS.parent / "benchmark"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(TESTS.parent / "benchmark"))

    # Each golden command in JSON and as text: every subcommand's renderer.
    for _, argv_builder in GOLDEN_COMMANDS:
        yield argv_builder(DATA), None
    graph = str(DATA / "loan.cg")
    yield ["if", "--graph", graph, "--context", str(DATA / "loan.ctx"), "--target", "Loan",
           "--protected", "MS"], None
    # Exit 2 on argparse's usage error, a cyclic graph and a malformed
    # context, exit 3, and exit 4 on a stream that cannot encode the report.
    yield ["paths", "--graph", graph, "--no-such-flag"], None
    cyclic = workdir / "cyclic.cg"
    cyclic.write_text("A -> B\nB -> A\n", encoding="utf-8")
    yield ["paths", "--graph", str(cyclic)], None
    yield ["if", "--graph", graph, "--target", "Loan", "--protected", "MS",
           "--context-inline", "Age="], None
    yield ["paths", "--graph", graph, "--fact-budget", "10"], None
    accented = workdir / "accented.cg"
    accented.write_text("A -> B\nB -> Z\u00e9\n", encoding="utf-8")
    yield ["paths", "--graph", str(accented)], io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    for name, count in [("graph-requests", 6), ("graph-intersect", 2), ("data-audit", 12),
                        ("oracle-sweep", 2)]:
        (workdir / name).mkdir()
        for request in itertools.islice(WORKLOADS[name](1, workdir / name), count):
            yield request.argv, None


def reached() -> set:
    """The code keys, as ``functions`` makes them, of every function the commands call."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as workdir:
        for argv, stdout in _calls(Path(workdir)):
            with contextlib.redirect_stdout(stdout or io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(SystemExit):
                previous = sys.getprofile()
                sys.setprofile(profile)
                try:
                    cli.main(argv)
                finally:
                    sys.setprofile(previous)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in seen}


def unreached() -> list:
    """``module:qualname`` of every package function no command calls, sorted."""
    hit = reached()
    return sorted(name for key, name in functions().items() if key not in hit)


def read_ledger() -> dict:
    """``module:qualname`` -> reason, from ``reachability.txt``."""
    ledger = {}
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason = line.split()
            ledger[name] = reason
    return ledger


def test_the_ledger_lists_exactly_the_functions_no_command_reaches():
    ledger = read_ledger()
    assert {name: reason for name, reason in ledger.items() if reason not in REASONS} == {}
    names = unreached()
    assert [name for name in names if name not in ledger] == [], "reached by no command"
    assert [name for name in ledger if name not in names] == [], "listed, yet reached or no function"


if __name__ == "__main__":
    print("\n".join(unreached()))
