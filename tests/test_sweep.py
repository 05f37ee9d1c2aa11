"""The agreement sweep's int-mask kernels against their set-based meaning.

Condition 2 is decided by one mask test, ``_block``, over a node pair's
record of path fact keys (``Closure.pair_record`` by index,
``Closure.audit`` by name, which ``check_condition2`` reads for a verdict)
and d-separation by ``dsep_oracle`` over the oracle's rows.  Both are
compared here, decision by decision, with the set-based statements they
replace: ``blocking_reason`` over every fact of the pair, and
d-separation restated on frozensets of names.  The sweep decides each
pair once per subset of the nodes both decisions read, on node indices;
it is compared with the name-level per-triple loop it replaces, also
under faulty rules.
"""

import hashlib
import random
import tracemalloc
from functools import cache, reduce
from itertools import combinations
from operator import or_

import pytest

from fairgate import closure as closure_module
from fairgate.closure import Closure, PathFact, close
from fairgate.errors import UnknownVariable
from fairgate import sweep
from fairgate.graph import CausalGraph
from fairgate.sweep import (
    Discrepancy,
    check_graph_agreement,
    dsep_oracle,
    enumerate_classified_paths,
    enumerate_dags,
    random_dag,
)
from fairgate.weakening import check_condition1, check_condition2

from _blocking import blocking_reason
from _graphs import descendants_of, pair_facts, pair_rows


def separated_by_sets(g, paths, conditioning):
    """d-separation on names: every path has a conditioned noncollider or a
    collider with neither itself nor a descendant conditioned on."""
    return all(
        noncolliders & conditioning
        or any(c not in conditioning and not descendants_of(g, c) & conditioning for c in colliders)
        for _, noncolliders, colliders in paths
    )


def _random_family():
    rng = random.Random(11)
    return [random_dag(rng, max_nodes=8, min_nodes=5, edge_prob=0.35) for _ in range(40)]


FAMILIES = {
    "exhaustive-2-to-5": lambda: [g for n in range(2, 6) for g in enumerate_dags(n)],
    "random-seed-11": _random_family,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_mask_decisions_equal_set_decisions(family):
    for g in FAMILIES[family]():
        closure = close(g)
        nodes = sorted(g.nodes)
        for x, y in combinations(nodes, 2):
            facts = pair_facts(closure, x, y)
            paths = enumerate_classified_paths(g, x, y)
            rows = pair_rows(g, x, y)
            rest = [v for v in nodes if v != x and v != y]
            for r in range(len(rest) + 1):
                for picked in combinations(rest, r):
                    conditioning = frozenset(picked)
                    mask = g.node_mask(conditioning)
                    where = (sorted(g.edges), x, y, picked)
                    reasons = [blocking_reason(f, conditioning) for f in facts]
                    audit = closure.audit(x, y, mask)
                    assert audit == tuple(zip(facts, reasons)), where
                    assert dsep_oracle(rows, mask) == separated_by_sets(g, paths, conditioning), where


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decisions_read_the_conditioning_set_only_through_the_read_masks(family):
    # The sweep decides each pair once per subset of these masks: the
    # projection is exact only if neither decision reads another bit.  The
    # mask test is applied to the record's keys directly, as the sweep
    # applies it: Closure.audit keeps its audits by the keys' blocks, a
    # table this test need not go through.
    block = closure_module._block
    for g in FAMILIES[family]():
        closure = close(g)
        for (i, x), (j, y) in combinations(enumerate(g.names), 2):
            rows = pair_rows(g, x, y)
            keys, facts_read = closure.pair_record(i, j)
            rows_read = reduce(or_, (reduce(or_, cs, nc) for nc, cs in rows), 0)
            for c in range(1 << len(g.nodes)):
                where = (sorted(g.edges), x, y, c)
                projected = c & facts_read
                assert [block(k, c) for k in keys] == [block(k, projected) for k in keys], where
                assert dsep_oracle(rows, c) == dsep_oracle(rows, c & rows_read), where


def reference_agreement(g, closure, table):
    """``check_graph_agreement`` as one decision per (pair, conditioning set)
    triple, walked in ascending mask order: the loop the projection replaces.
    Condition 2 is decided by ``check_condition2``, as a verdict decides it.
    ``closure`` is ``close(g)`` and ``table`` maps each pair (x, y), x < y,
    to ``pair_rows(g, x, y)``."""
    nodes = sorted(g.nodes)
    everything = g.node_mask(nodes)
    # Conditioning mask -> its names, as a verdict's context lists them.
    named = [
        tuple(v for i, v in enumerate(nodes) if cond >> i & 1) for cond in range(everything + 1)
    ]
    discrepancies = []
    checks = 0
    for x, y in combinations(nodes, 2):
        rows = table[x, y]
        nonadjacent = check_condition1(g, x, y)[0]
        rest = everything & ~g.node_mask((x, y))
        cond = 0
        while True:
            by_rules = nonadjacent and check_condition2(closure, x, y, named[cond])[0]
            by_oracle = dsep_oracle(rows, cond)
            checks += 1
            if by_rules != by_oracle:
                discrepancies.append(
                    Discrepancy(
                        nodes=tuple(nodes),
                        edges=tuple(sorted(g.edges)),
                        x=x,
                        y=y,
                        conditioning=named[cond],
                        by_rules=by_rules,
                        by_oracle=by_oracle,
                    )
                )
            cond = (cond - rest) & rest
            if not cond:
                break
    return discrepancies, checks


BLOCK, PAIR_RECORD = closure_module._block, Closure.pair_record


def _collider_sets_count_as_met(key, conditioning):
    return key[2] & conditioning or None


def _one_noncollider_facts_never_open(key, conditioning):
    if key[2].bit_count() == 1 and not key[3]:
        return key[2]
    return BLOCK(key, conditioning)


@pytest.fixture(scope="module")
def agreement_graphs():
    """Every DAG with at most 5 nodes and 150 random ones, each with its
    closure and its oracle rows per pair, so that each fault below re-runs
    only the two loops under comparison."""
    rng = random.Random(29)
    graphs = [g for n in range(1, 6) for g in enumerate_dags(n)] + [
        random_dag(rng, max_nodes=9, min_nodes=4, edge_prob=rng.uniform(0.2, 0.45))
        for _ in range(150)
    ]
    return [
        (
            g,
            close(g),
            {(x, y): pair_rows(g, x, y) for x, y in combinations(g.names, 2)},
        )
        for g in graphs
    ]


@cache
def _record_without_collider_facts(closure, i, j):
    keys = tuple(key for key in PAIR_RECORD(closure, i, j)[0] if not key[3])
    return keys, reduce(or_, [key[2] for key in keys], 0)


def _stray(closure, i, j):
    """The last node other than i and j, as a mask: 0 below three nodes."""
    others = [k for k in range(len(closure.graph.names)) if k != i and k != j]
    return 1 << others[-1] if others else 0


@cache
def _record_with_stray_noncollider(closure, i, j):
    keys, read = PAIR_RECORD(closure, i, j)
    stray = _stray(closure, i, j)
    return tuple((left, right, nc | stray, cs) for left, right, nc, cs in keys), read | stray


def _component(g, i):
    """The nodes a skeleton path joins to node i, i included, as a mask,
    read from ``g.edges`` alone."""
    seen = 1 << i
    frontier = [g.names[i]]
    while frontier:
        v = frontier.pop()
        for a, b in g.edges:
            w = b if a == v else a if b == v else None
            if w is not None and not seen >> g.index[w] & 1:
                seen |= 1 << g.index[w]
                frontier.append(w)
    return seen


@cache
def _record_with_open_fact_across_components(closure, i, j):
    if _component(closure.graph, i) >> j & 1:
        return PAIR_RECORD(closure, i, j)
    return ((i, j, 0, ()),), 0


# What each fault replaces: Condition 2's mask test, or the pair record
# that the sweep reads by index and Closure.audit by name.  The last three
# model a wrong closure, which keeps one record per pair, so the record's
# read mask changes with its keys: one loses every fact with a collider
# (the oracle then reads nodes the facts do not), one adds a noncollider
# to every fact that no path of the pair holds, and one adds an open fact
# to every pair that no path joins.
FAULTS = {
    "none": {},
    "all_facts_open": None,  # the conftest fixture
    "collider_sets_count_as_met": {"_block": _collider_sets_count_as_met},
    "one_noncollider_never_open": {"_block": _one_noncollider_facts_never_open},
    "collider_facts_lost": {"pair_record": _record_without_collider_facts},
    "stray_noncollider": {"pair_record": _record_with_stray_noncollider},
    # A wrong closure that derives one open fact, with no noncollider and no
    # collider set, for every pair that no skeleton path joins: the pairs
    # of an isolated node among them, from which the oracle walks no path.
    "open_fact_across_components": {"pair_record": _record_with_open_fact_across_components},
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_projected_sweep_equals_the_per_triple_loop(
    fault, agreement_graphs, request, monkeypatch, patch_block
):
    if FAULTS[fault] is None:
        request.getfixturevalue(fault)
    elif "_block" in FAULTS[fault]:
        patch_block(FAULTS[fault]["_block"])
    elif "pair_record" in FAULTS[fault]:
        monkeypatch.setattr(Closure, "pair_record", FAULTS[fault]["pair_record"])
    found = 0
    for g, closure, table in agreement_graphs:
        # The closures are shared by every fault, and Closure.audit keeps
        # the audits it builds: each run starts with none kept.
        closure._audits.clear()
        monkeypatch.setattr(sweep, "close", lambda _, fact_budget: closure)
        expected = reference_agreement(g, closure, table)
        assert check_graph_agreement(g) == expected, sorted(g.edges)
        found += len(expected[0])
    # Each fault shows as discrepancies, so the lists compared are not all empty.
    assert (found == 0) == (fault == "none"), found


def test_an_agreeing_sweep_names_no_fact_and_counts_every_triple(monkeypatch):
    # Both routes work on node indices: where they agree, no PathFact is
    # built, and each pair of an n-node graph counts its 2^(n-2) conditioning sets.
    built = 0
    init = PathFact.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(PathFact, "__init__", counted)
    rng = random.Random(43)
    graphs = [g for n in range(1, 6) for g in enumerate_dags(n)] + [
        random_dag(rng, max_nodes=9, min_nodes=4, edge_prob=rng.uniform(0.2, 0.45))
        for _ in range(60)
    ]
    for g in graphs:
        n = len(g.nodes)
        pairs = n * (n - 1) // 2
        assert check_graph_agreement(g) == ([], pairs * (1 << max(n - 2, 0))), sorted(g.edges)
    assert built == 0
    # The count sees a named fact: a collider's pair read names its one fact.
    g = CausalGraph("ABC", [("A", "B"), ("C", "B")])
    assert len(pair_facts(close(g), "A", "C")) == built == 1


def test_the_sweep_sorts_no_pair_record(monkeypatch):
    # The sweep asks only whether some key of a pair's record is open, so it
    # reads the keys unsorted; an audit sorts its pair's keys into canonical
    # order.  Each call of the canonical sort key is counted.
    calls = 0
    order = closure_module._order

    def counted_order(bits):
        key = order(bits)

        def counted(k):
            nonlocal calls
            calls += 1
            return key(k)

        return counted

    monkeypatch.setattr(closure_module, "_order", counted_order)
    rng = random.Random(47)
    graphs = [g for n in range(1, 6) for g in enumerate_dags(n)] + [
        random_dag(rng, max_nodes=9, min_nodes=4, edge_prob=rng.uniform(0.2, 0.45))
        for _ in range(60)
    ]
    for g in graphs:
        check_graph_agreement(g)
    assert calls == 0
    # A diamond's ends share two path facts, which an audit lists in order.
    g = CausalGraph("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    closure = close(g)
    assert len(closure.pair_record(0, 3)[0]) == 2
    closure.audit("A", "D", 0)
    assert calls > 0


def test_the_sweep_keeps_no_pair_state():
    # The sweep reads each pair's record once, by index: it names nothing and
    # fills no audit table or trace memo of the closure it reads, and a
    # record is built on each read, so none is kept to be read again.
    rng = random.Random(53)
    graphs = [g for n in range(1, 5) for g in enumerate_dags(n)] + [
        random_dag(rng, max_nodes=8, min_nodes=4, edge_prob=0.35) for _ in range(20)
    ]
    for g in graphs:
        closure = close(g)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep, "close", lambda _, fact_budget: closure)
            check_graph_agreement(g)
        memos = (closure._audits, closure._traces, closure._named, closure._records, closure._entries)
        assert not any(memos), sorted(g.edges)
    # A diamond's ends share two path facts: each read builds its own record.
    g = CausalGraph("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
    closure = close(g)
    first, second = closure.pair_record(0, 3), closure.pair_record(0, 3)
    assert len(first[0]) == 2 and first[1]
    assert first == second and first is not second and first[0] is not second[0]
    # A pair with no path fact reads no keys and no node.
    assert close(CausalGraph("AB", [("A", "B")])).pair_record(0, 1) == ((), 0)


def test_dag_classes_are_yielded_one_at_a_time():
    # Iterating holds one graph and the marking table, not the whole family.
    list(enumerate_dags(5))
    tracemalloc.start()
    try:
        family = list(enumerate_dags(5))
        held = tracemalloc.get_traced_memory()[0]
        del family
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in enumerate_dags(5):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak * 4 < held, (peak, held)


def test_conditioning_sets_are_walked_in_ascending_subset_order(all_facts_open):
    # Every pair of a path graph has one path fact, which the patched rules
    # call open, so the routes disagree exactly where the oracle separates.
    g = CausalGraph("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
    found, checks = check_graph_agreement(g)
    expected = []
    nodes = sorted(g.nodes)
    for x, y in combinations(nodes, 2):
        paths = enumerate_classified_paths(g, x, y)
        rest = [v for v in nodes if v != x and v != y]
        for mask in range(1 << len(rest)):
            picked = tuple(v for k, v in enumerate(rest) if mask >> k & 1)
            if separated_by_sets(g, paths, frozenset(picked)):
                expected.append((x, y, picked))
    assert checks == 10 * 8
    assert [(d.x, d.y, d.conditioning) for d in found] == expected
    assert all(d.by_oracle and not d.by_rules for d in found)


def test_node_masks_number_the_nodes_in_sorted_order():
    g = random_dag(random.Random(3), max_nodes=6, min_nodes=6)
    for i, v in enumerate(sorted(g.nodes)):
        assert g.node_mask([v]) == 1 << i
    assert g.node_mask(g.nodes) == (1 << len(g.nodes)) - 1
    assert g.node_mask(()) == 0
    with pytest.raises(UnknownVariable):
        g.node_mask(["A", "Z"])


def test_dag_classes_are_refused_above_seven_nodes(monkeypatch):
    # The marking table takes 2^(n(n-1)/2) bytes, 256 MiB at 8 nodes: the
    # refusal comes before anything is allocated.
    def refuse(size):
        raise AssertionError(f"allocated {size} bytes")

    monkeypatch.setattr(sweep, "bytearray", refuse, raising=False)
    for n in (8, 9, 30):
        with pytest.raises(ValueError, match="at most 7 nodes"):
            enumerate_dags(n)
    with pytest.raises(ValueError):
        enumerate_dags(0)


def _no_graph_checked(monkeypatch):
    def check(g, fact_budget=None):
        raise AssertionError(f"checked a {len(g.nodes)}-node graph")

    monkeypatch.setattr(sweep, "check_graph_agreement", check)


@pytest.mark.parametrize("max_nodes", [0, -1, 8, 9])
def test_an_exhaustive_sweep_refuses_a_size_before_its_first_graph(monkeypatch, max_nodes):
    # Unchecked, 8 nodes would sweep every class on 1-7 nodes before
    # enumerate_dags(8) refused, and 0 nodes would pass having checked nothing.
    _no_graph_checked(monkeypatch)
    with pytest.raises(ValueError, match=f"max_nodes must be between 1 and 7, got {max_nodes}"):
        sweep.exhaustive_sweep(max_nodes=max_nodes)


def test_an_exhaustive_sweep_still_takes_seven_nodes(monkeypatch):
    # The opt-in every-class run on 7 nodes passes the check and starts sweeping.
    _no_graph_checked(monkeypatch)
    with pytest.raises(AssertionError, match="checked a 1-node graph"):
        sweep.exhaustive_sweep(max_nodes=7)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"trials": 0}, "trials must be at least 1, got 0"),
        ({"trials": -3}, "trials must be at least 1, got -3"),
        ({"max_nodes": 3}, "max_nodes must be at least 4, got 3"),
        ({"edge_prob": 2.0}, r"edge_prob must be in \[0, 1\], got 2.0"),
        ({"edge_prob": -0.5}, r"edge_prob must be in \[0, 1\], got -0.5"),
        ({"edge_prob": float("nan")}, r"edge_prob must be in \[0, 1\], got nan"),
    ],
    ids=["no-trials", "negative-trials", "three-nodes", "edge-prob-2", "negative-edge-prob",
         "nan-edge-prob"],
)
def test_a_random_sweep_refuses_what_it_cannot_run_before_its_first_graph(
    monkeypatch, settings, message
):
    # Unchecked, trials=0 would pass having checked nothing, max_nodes=3
    # would leak randrange's "empty range", and edge_prob=2.0 would run.
    _no_graph_checked(monkeypatch)
    with pytest.raises(ValueError, match=message):
        sweep.random_sweep(**{"trials": 5, "max_nodes": 6, **settings})


@pytest.fixture(scope="module")
def dag_classes():
    """``enumerate_dags(n)`` for n = 1..6, by n, enumerated once for the module."""
    return {n: list(enumerate_dags(n)) for n in range(1, 7)}


def test_dag_classes_match_oeis_a003087(dag_classes):
    # Unlabeled DAGs on n nodes: 1, 2, 6, 31, 302, 5984 (Robinson 1973).
    assert [len(dag_classes[n]) for n in range(1, 7)] == [1, 2, 6, 31, 302, 5984]


# sha256 of enumerate_dags(n), each graph as its sorted edges and its node
# names, one line per graph.
DAG_CLASS_DIGESTS = {
    5: "957566e64ed7ca99121c2e788114640dafc55bb0cd9a5f1c924e6638532322f5",
    6: "164ca0fac8eddb2a9b4dddc22aced2e479136200c2bb4f0406453e57b00f5759",
}


@pytest.mark.parametrize("n", sorted(DAG_CLASS_DIGESTS))
def test_dag_class_representatives_are_pinned(dag_classes, n):
    # The same graphs in the same order, not only as many.
    text = "\n".join(
        ",".join(f"{a}>{b}" for a, b in sorted(g.edges)) + "|" + "".join(g.names)
        for g in dag_classes[n]
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DAG_CLASS_DIGESTS[n]
