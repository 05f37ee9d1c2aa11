import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from fairgate.errors import (
    CycleDetected,
    DuplicateEdge,
    DuplicateVariable,
    InputError,
    MalformedName,
    SelfLoop,
)
from fairgate.graph import (
    RESERVED_NAME_CHARS,
    CausalGraph,
    load_graph,
    parse_graph,
    validate_name,
)
from fairgate.sweep import _skeleton, random_dag

from _graphs import children_of, descendants_of, parents_of, topological_order


def test_build_collects_nodes_from_edges():
    g = CausalGraph(["C"], [("A", "B")])
    assert g.nodes == {"A", "B", "C"}
    assert g.edges == {("A", "B")}


def test_adjacency_is_sorted():
    g = CausalGraph([], [("Z", "M"), ("A", "M"), ("M", "B"), ("M", "A2")])
    assert g.names == ("A", "A2", "B", "M", "Z")
    m = g.index["M"]
    assert g.parents[m] == (0, 4)  # A, Z
    assert g.children[m] == (1, 2)  # A2, B
    assert g.neighbors[m] == (0, 1, 2, 4)  # A, A2, B, Z
    assert g.children[0] == g.children[4] == g.parents[1] == g.parents[2] == (m,)


def test_undirected_neighbors_are_the_sorted_adjacent_nodes():
    # The index adjacency is the name adjacency read from the edges alone,
    # as sorted tuples of node indices.
    rng = random.Random(4)
    for _ in range(30):
        g = random_dag(rng, max_nodes=8, edge_prob=0.4)
        for v, i in g.index.items():
            parents = tuple(g.index[p] for p in parents_of(g, v))
            children = tuple(g.index[c] for c in children_of(g, v))
            assert g.parents[i] == parents
            assert g.children[i] == children
            assert g.neighbors[i] == tuple(sorted(parents + children))
        for adjacency in (g.parents, g.children, g.neighbors):
            assert type(adjacency) is tuple and len(adjacency) == len(g.names)
            assert all(type(row) is tuple for row in adjacency)


def test_validate_name_rejects_reserved_characters():
    for ch in "->:,=@#":
        with pytest.raises(MalformedName):
            validate_name(f"a{ch}b")
    with pytest.raises(MalformedName):
        validate_name("")
    with pytest.raises(MalformedName):
        validate_name("two words")
    assert validate_name("GAI_2") == "GAI_2"


def _set_rule(name):
    """``validate_name`` without its identifier shortcut: every name goes
    through the set of its reserved and whitespace characters."""
    if not isinstance(name, str) or not name:
        raise MalformedName("variable names must be non-empty strings")
    bad = {c for c in name if c in RESERVED_NAME_CHARS or c.isspace()}
    if bad:
        shown = "".join(sorted(bad))
        raise MalformedName(f"variable name {name!r} contains reserved characters: {shown!r}")
    return name


def _outcome(rule, name):
    try:
        return rule(name)
    except MalformedName as exc:
        return str(exc)


def test_validate_name_decides_and_words_every_name_as_the_set_rule():
    # Every code point as a one-character name and after a letter, where
    # str.isidentifier reads it as a continuing character.
    for code in range(0x110000):
        c = chr(code)
        for name in (c, "A" + c):
            assert _outcome(validate_name, name) == _outcome(_set_rule, name), hex(code)
    # Each reserved or whitespace character inside longer names, alone and
    # with others, so that the message lists the set in order.
    reserved = sorted(RESERVED_NAME_CHARS) + [
        chr(code) for code in range(0x110000) if chr(code).isspace()
    ]
    for c in reserved:
        for name in (f"a{c}b", f"{c}ab", f"ab{c}", f"A_1{c}{c}", f"x{c}y z#"):
            assert _outcome(validate_name, name) == _outcome(_set_rule, name), repr(name)
    for bad in ("", None, 3, b"AB"):
        assert _outcome(validate_name, bad) == _outcome(_set_rule, bad)


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        CausalGraph([], [("A", "A")])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        CausalGraph([], [("A", "B"), ("A", "B")])


def test_cycle_detected_with_witness():
    with pytest.raises(CycleDetected) as exc_info:
        CausalGraph([], [("A", "B"), ("B", "C"), ("C", "A")])
    cycle = exc_info.value.cycle
    assert cycle[0] == cycle[-1]
    assert len(cycle) == 4
    for a, b in zip(cycle, cycle[1:]):
        assert (a, b) in {("A", "B"), ("B", "C"), ("C", "A")}
    assert "cycle detected" in str(exc_info.value)


def _cyclic_witnesses():
    """The ``CycleDetected.cycle`` witness of every cyclic digraph among 3,000
    seeded draws on 2-9 nodes, one line per graph."""
    rng = random.Random(5)
    lines = []
    for _ in range(3000):
        names = [chr(ord("A") + i) for i in range(rng.randint(2, 9))]
        edges = [(a, b) for a in names for b in names if a != b and rng.random() < 0.25]
        rng.shuffle(edges)
        try:
            CausalGraph(names, edges)
        except CycleDetected as exc:
            lines.append(" -> ".join(exc.cycle))
    return lines


def test_cycle_witnesses_are_pinned():
    # Which cycle is reported is part of the error message, so the witness
    # walk of each graph is pinned, not only its validity.
    lines = _cyclic_witnesses()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 1750
    assert digest == "b4962cfd0820e9e1072ce1f542051e7a2faa8a5330a52ccd565bf8f0f34e3ccc"


def test_two_node_cycle():
    with pytest.raises(CycleDetected):
        CausalGraph([], [("A", "B"), ("B", "A")])


def test_descendants(loan_graph):
    # The oracle's reach mask: a node and its descendants.
    reach = _skeleton(loan_graph)[2]
    index, mask = loan_graph.index, loan_graph.node_mask
    assert reach[index["Age"]] == mask({"Age", "GAI", "Loan", "MS"})
    assert reach[index["GAI"]] == mask({"GAI", "Loan"})
    assert reach[index["Loan"]] == mask({"Loan"})


def test_topological_order(loan_graph):
    order = topological_order(loan_graph)
    assert set(order) == loan_graph.nodes
    pos = {v: i for i, v in enumerate(order)}
    for a, b in loan_graph.edges:
        assert pos[a] < pos[b]
    # ties broken by name; Loan becomes ready once GAI is emitted and
    # sorts before MS
    assert order == ("Age", "GAI", "Loan", "MS")


def test_equality_and_hash():
    g1 = CausalGraph(["A", "B"], [("A", "B")])
    g2 = CausalGraph(["B", "A"], [("A", "B")])
    g3 = CausalGraph(["A", "B"], [])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3


def test_parse_graph_format():
    g = parse_graph(
        """
        # a comment line
        node Isolated
        A -> B   # trailing comment
        B -> C
        node -> X
        """
    )
    assert g.nodes == {"Isolated", "A", "B", "C", "node", "X"}
    assert g.edges == {("A", "B"), ("B", "C"), ("node", "X")}


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_graph("A -> B\nnot an edge")
    with pytest.raises(MalformedName, match="line 1"):
        parse_graph("node bad=name")
    with pytest.raises(MalformedName, match="line 3"):
        parse_graph("A -> B\n\nA -> x@y")


def test_each_distinct_name_is_validated_once_per_step(monkeypatch, data_dir):
    import fairgate.graph

    calls = []

    def counting(name):
        calls.append(name)
        return validate_name(name)

    monkeypatch.setattr(fairgate.graph, "validate_name", counting)
    g = parse_graph((data_dir / "loan.cg").read_text(encoding="utf-8"))
    # Once as parse_graph reads the lines, once as CausalGraph builds the graph.
    assert sorted(calls) == sorted(g.names * 2)


def test_the_first_invalid_name_raises():
    with pytest.raises(MalformedName, match="line 2: variable name 'x y'"):
        parse_graph("A -> B\nnode x y\nA -> x y\nnot an edge\nC -> D@")
    with pytest.raises(MalformedName, match="line 1: variable name 'A@'"):
        parse_graph("A@ -> B\nB -> A@")
    with pytest.raises(SelfLoop):
        CausalGraph([], [("A", "B"), ("A", "A"), ("B", "x y")])
    with pytest.raises(MalformedName, match="'x y'"):
        CausalGraph(["A"], [("A", "B"), ("B", "x y"), ("x y", "x y")])
    with pytest.raises(MalformedName, match="non-empty strings"):
        CausalGraph([], [(["A"], "B")])


def test_load_graph_roundtrips(loan_graph, data_dir):
    text = (data_dir / "loan.cg").read_text(encoding="utf-8")
    assert parse_graph(text) == loan_graph


def test_graph_file_cycle_is_input_error(tmp_path):
    p = tmp_path / "c.cg"
    p.write_text("A -> B\nB -> A\n", encoding="utf-8")
    with pytest.raises(CycleDetected):
        load_graph(p)


def test_graph_file_byte_order_mark_is_dropped(tmp_path):
    p = tmp_path / "bom.cg"
    p.write_bytes(b"\xef\xbb\xbfnode A\nA -> B\n")
    assert load_graph(p) == CausalGraph(["A", "B"], [("A", "B")])


@given(st.integers(min_value=0, max_value=10_000))
def test_random_dags_are_acyclic_and_consistent(seed):
    rng = random.Random(seed)
    g = random_dag(rng, max_nodes=7, min_nodes=2, edge_prob=0.5)
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    for a, b in g.edges:
        assert pos[a] < pos[b]
    # A reach mask is the node and the reach masks of its children, and
    # names the node and its descendants read from the edges alone.
    reach = _skeleton(g)[2]
    for v, i in g.index.items():
        expected = 1 << i
        for child in g.children[i]:
            expected |= reach[child]
        assert reach[i] == expected
        assert reach[i] == g.node_mask({v, *descendants_of(g, v)})
