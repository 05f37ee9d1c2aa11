"""Module boundaries.

Every public name lives in, and is imported from, the module that
defines it, and the verdict modules read a closure but never build one.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from functools import cached_property
from pathlib import Path

import pytest

import fairgate
from fairgate.closure import close

MODULES = [
    importlib.import_module(f"fairgate.{info.name}")
    for info in pkgutil.iter_modules(fairgate.__path__)
]

# The d-separation oracle's functions, all defined in fairgate.sweep.
ORACLE = ("_skeleton", "_walk", "_rows", "enumerate_classified_paths", "dsep_oracle")


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_are_defined_in_their_module(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name


def test_package_root_exports_only_the_version():
    public = [
        name
        for name, obj in vars(fairgate).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    ]
    assert public == []
    assert fairgate.__version__ == "0.1.0"


@pytest.mark.parametrize("name", ["fairgate.weakening", "fairgate.fairness"])
def test_verdict_modules_do_not_close_graphs(name):
    assert not hasattr(importlib.import_module(name), "close")


def test_weakening_renders_no_facts():
    # A verdict looks its trace records up by fact; text is rendered only
    # where a record is printed.
    assert not hasattr(importlib.import_module("fairgate.weakening"), "render_path_fact")


def test_closure_has_one_condition2_test():
    # Closure.audit and the agreement sweep read one mask test, and the
    # set-based blocking_reason is the tests' reference for it; closure_dump
    # is the one reader of certifying paths.
    module = importlib.import_module("fairgate.closure")
    assert not hasattr(module, "blocking_reason")
    assert not hasattr(module.Closure, "certifying_path")


def test_retired_second_readers_stay_gone():
    # Closure.audit lists a pair's facts and their blocks by name and
    # Closure.pair_record reads a pair's record by index; PathFact.text is
    # the one renderer of a named path fact; _rows gives the oracle rows of
    # every pair from one source node and _json_pieces is the one JSON emitter.
    # CausalGraph keeps one adjacency, on node indices: parents, children
    # and neighbors are tuples, and no name-keyed accessor or cache is left.
    module = importlib.import_module("fairgate.closure")
    assert not hasattr(module.Closure, "facts_between")
    assert not hasattr(module.Closure, "first_open")
    assert not hasattr(module.Closure, "read_mask")
    assert not hasattr(module, "render_path_fact")
    assert "render_path_fact" not in module.__all__
    assert not hasattr(module, "oracle_rows")
    assert not hasattr(module, "oracle_rows_by_pair")
    # The d-separation oracle lives in fairgate.sweep, its one caller.
    assert not set(ORACLE) & set(vars(module))
    assert not set(ORACLE) & set(module.__all__)
    assert not hasattr(importlib.import_module("fairgate.cli"), "render_json")
    assert not hasattr(importlib.import_module("fairgate.judgments").Context, "get")
    graph = importlib.import_module("fairgate.graph").CausalGraph
    assert not hasattr(graph, "undirected_neighbors")
    assert not hasattr(graph, "descendants")
    assert not {"_parents", "_children", "_neighbors", "_descendants"} & set(graph.__slots__)
    g = graph(["A"], [("A", "B")])
    assert (g.parents, g.children, g.neighbors) == (((), (0,)), ((1,), ()), ((1,), (0,)))


def test_the_oracle_reads_nothing_from_the_engine():
    # The oracle checks the rule engine, so it may share the generic _Memo
    # with it but must call nothing else fairgate.closure defines.
    path = Path(importlib.import_module("fairgate.sweep").__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # Every name the module binds to fairgate.closure or to one of its names.
    from_closure = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "." * node.level + (node.module or "") in (".closure", "fairgate.closure")
        or alias.name == "closure"
    }
    assert "close" in from_closure
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert set(ORACLE) <= set(functions)
    for name in ORACLE:
        read = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert read & from_closure <= {"_Memo"}, (name, sorted(read & from_closure))


def _defined(module):
    """Every function and class a module defines, and every method, property
    and cached property its classes define, by qualified name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_annotation_resolves(module):
    # The modules postpone annotations, so a name imported only inside a
    # function (argparse in fairgate.cli) would make typing.get_type_hints
    # raise NameError for any annotation that names it.
    defined = dict(_defined(module))
    assert defined
    for name, obj in defined.items():
        try:
            typing.get_type_hints(obj)
        except NameError as error:
            pytest.fail(f"{module.__name__}.{name}: {error}")


def test_benchmark_spans_find_every_name_they_wrap(tmp_path):
    # benchmark/spans.py wraps fairgate names by getattr and counts a traced
    # close through Closure.derivations; deleting or renaming one would
    # break ``benchmark/run.py --trace 1``.  An ``if`` request runs the
    # wrapped check_intersectionality, the one audit pipeline.  The traced
    # close and verdict counts read Closure.paths, trace and derivations(),
    # which are built on each read, for a whole closure (paths, oracle) and
    # for restricted ones (weaken, intersect).
    root = Path(__file__).resolve().parent.parent
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "benchmark")]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    data = root / "tests" / "data"
    dataset = data / "table1.csv"
    # table1.cg with a1 -> a2 added, so the (a1, t) pair has path facts.
    chain = tmp_path / "chain.cg"
    chain.write_text("node a1\nnode a2\nnode t\n\na1 -> a2\na1 -> t\na2 -> t\n", encoding="utf-8")
    requests = [
        (["paths", "--graph", str(data / "loan.cg")], 0),
        (["weaken", "--graph", str(data / "loan.cg"), "--judgment", str(data / "loan.jdg"),
          "--attr", "MS=married"], 0),
        (["intersect", "--graph", str(chain), "--dataset", str(dataset), "--target", "t",
          "--protected", "a1,a2"], 1),
        (["oracle", "--max-nodes", "3"], 0),
    ]
    code = (
        "import contextlib, io\n"
        "from spans import Tracer, install; tracer = Tracer(); install(tracer)\n"
        "from fairgate import cli, closure, graph\n"
        "closure.close(graph.CausalGraph('abc', [('a', 'b'), ('b', 'c')]))\n"
        f"argv = ['if', '--dataset', {str(dataset)!r}, '--target', 't', '--protected', 'a1']\n"
        "assert cli.main(argv) == 0\n"
        "assert tracer.self_ns['fairness.intersect'] > 0\n"
        f"for argv, exit_code in {requests!r}:\n"
        "    tracer.reset()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == exit_code, argv\n"
        "    for name in ('path_facts', 'trace_records', 'derivations'):\n"
        "        assert tracer.counts['closure.' + name] > 0, (argv, name)\n"
        "    if argv[0] in ('weaken', 'intersect'):\n"
        "        assert tracer.counts['weakening.evaluate_calls'] > 0, argv\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every command pays for this import first; dataclasses, with the inspect
    # it loads, would add about a third to it, and no verdict needs either.
    # argparse, with the gettext and locale its parser builds load, is
    # imported only for a command line the flag table declines.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    code = (
        "import sys, fairgate.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}"
        " & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


@pytest.mark.parametrize(
    "argv, imported",
    [(["paths", "--graph", str(Path(__file__).parent / "data" / "loan.cg")], False),
     (["paths", "--help"], True)],
    ids=["graph", "help"],
)
def test_only_a_line_the_flag_table_declines_imports_argparse(argv, imported):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    code = (
        "import contextlib, io, sys\n"
        "from fairgate.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    main({argv!r})\n"
        "print('argparse' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout) == (0, f"{imported}\n"), result.stderr


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_imports_dataclasses(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert "dataclasses" not in [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "dataclasses"


@pytest.mark.parametrize(
    "helper", ["_saturation.py", "_recount.py", "_blocking.py", "_graphs.py", "_parity.py"]
)
def test_reference_helpers_import_only_public_names(helper):
    # A reference that imported the engine's private helpers would check
    # that code against itself.
    tree = ast.parse((Path(__file__).parent / helper).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("fairgate"):
            public = importlib.import_module(node.module).__all__
            for alias in node.names:
                assert alias.name in public, f"{helper}: {node.module}.{alias.name}"


def test_a_closure_carries_the_graph_it_closes(loan_graph):
    assert close(loan_graph).graph is loan_graph


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # Reporting a failing @given example imports libcst, whose import
    # warns.  pyproject.toml ignores that one warning: as an error it stops
    # pytest with an internal error (exit 3) before the remaining tests run.
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(root), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
