import csv
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from _recount import recount_if, recount_intersectionality
from fairgate.cli import render_json
from fairgate.closure import close
from fairgate.errors import (
    EmptyConditioningSet,
    InputError,
    MalformedDataset,
    MalformedValue,
    SubsetExplosion,
    UnknownColumn,
    VariableAlreadyInContext,
    WeakeningTargetIsGoal,
)
from fairgate.fairness import (
    Dataset,
    _ci_from_counts,
    check_if,
    check_intersectionality,
    empirical_ci,
    empirical_probability,
    fairness_report_to_json,
    fraction_str,
    generate_table1,
    if_result_to_json,
)
from fairgate.graph import CausalGraph, load_graph
from fairgate.judgments import Attribution, Context, Value, parse_context

EMPTY = Context(())


def ctx_of(**kwargs):
    return Context(tuple(Attribution(k, Value.atomic(v)) for k, v in kwargs.items()))


# --- dataset container -------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(MalformedDataset, match="duplicate"):
        Dataset(columns=("a", "a"), rows=(), target_column="a")
    with pytest.raises(UnknownColumn):
        Dataset(columns=("a", "b"), rows=(), target_column="t")
    with pytest.raises(MalformedDataset, match="row 2 has 1 cells, expected 2"):
        Dataset(columns=("a", "t"), rows=(("x", "y"), ("x",)), target_column="t")
    with pytest.raises(Exception):
        Dataset(columns=("a", "t"), rows=(("x", "y+z"),), target_column="t")
    with pytest.raises(Exception):
        Dataset(columns=("a=b", "t"), rows=(), target_column="t")


def test_dataset_col():
    ds = Dataset(columns=("a", "t"), rows=(), target_column="t")
    assert ds.col("t") == 1
    with pytest.raises(UnknownColumn):
        ds.col("zzz")


def test_csv_roundtrip(tmp_path, table1):
    path = tmp_path / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table1.columns)
        writer.writerows(table1.rows)
    again = Dataset.from_csv(path, target_column="t")
    assert again == table1
    # Empty and whitespace-only lines are skipped, a row of empty cells is not.
    path.write_text("\n  \n" + path.read_text(encoding="utf-8") + "\n  \n\n", encoding="utf-8")
    assert Dataset.from_csv(path, target_column="t") == table1
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(",,\n")
    with pytest.raises(MalformedValue, match="non-empty"):
        Dataset.from_csv(path, target_column="t")


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedDataset, match="empty"):
        Dataset.from_csv(path, target_column="t")


def test_csv_byte_order_mark_is_not_part_of_the_first_column(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa1,t\nx,y\nz,w\n")
    ds = Dataset.from_csv(path, target_column="t")
    assert ds.columns == ("a1", "t")
    assert check_if(None, ds, EMPTY, "t", "a1").passed is False


def test_generate_table1_layout(table1):
    assert table1.columns == ("a1", "a2", "t")
    assert len(table1.rows) == 680
    assert table1.rows[0] == ("v11", "v21", "β")
    cell = [r for r in table1.rows if r[0] == "v11" and r[1] == "v21"]
    assert len(cell) == 100
    assert sum(1 for r in cell if r[2] == "β") == 90
    assert sum(1 for r in table1.rows if r[2] == "β") == 540
    assert generate_table1() == table1


def test_table1_graph_edges(data_dir):
    g = load_graph(data_dir / "table1.cg")
    assert g.edges == frozenset({("a1", "t"), ("a2", "t")})


# --- conditional probabilities ------------------------------------------------


def test_empirical_probability_cells(table1):
    beta = Value.atomic("β")
    assert empirical_probability(table1, ctx_of(a1="v11", a2="v21"), beta) == Fraction(9, 10)
    assert empirical_probability(table1, ctx_of(a1="v11", a2="v22"), beta) == Fraction(3, 4)
    assert empirical_probability(table1, ctx_of(a1="v12", a2="v21"), beta) == Fraction(3, 4)
    assert empirical_probability(table1, ctx_of(a1="v12", a2="v22"), beta) == Fraction(9, 10)


def test_empirical_probability_marginals(table1):
    beta = Value.atomic("β")
    for var, value in (("a1", "v11"), ("a1", "v12"), ("a2", "v21"), ("a2", "v22")):
        ctx = Context((Attribution(var, Value.atomic(value)),))
        assert empirical_probability(table1, ctx, beta) == Fraction(27, 34)
    assert empirical_probability(table1, EMPTY, beta) == Fraction(27, 34)


def test_empirical_probability_sum_and_complement(table1):
    beta = Value.atomic("β")
    both = Context((Attribution("a1", Value.sum_of(["v11", "v12"])),))
    assert empirical_probability(table1, both, beta) == Fraction(27, 34)
    other = Context((Attribution("a1", Value.complement("v11")),))
    assert empirical_probability(table1, other, beta) == Fraction(27, 34)


def test_empirical_probability_single_row():
    ds = Dataset(columns=("a", "t"), rows=(("x", "yes"), ("y", "no")), target_column="t")
    assert empirical_probability(ds, ctx_of(a="x"), Value.atomic("yes")) == Fraction(1, 1)
    assert empirical_probability(ds, ctx_of(a="y"), Value.atomic("yes")) == Fraction(0, 1)


def test_empirical_probability_no_matching_rows(table1):
    with pytest.raises(EmptyConditioningSet):
        empirical_probability(table1, ctx_of(a1="nope"), Value.atomic("β"))


# --- empirical conditional independence ----------------------------------------


def test_singletons_pass_at_zero_epsilon(table1):
    for attr in ("a1", "a2"):
        result = empirical_ci(table1, attr, "t", EMPTY, Fraction(0))
        assert result.passed
        assert result.max_delta == 0
        assert result.witness is None


def test_pair_fails_with_exact_gap(table1):
    result = empirical_ci(table1, "a1", "t", ctx_of(a2="v21"), Fraction(0))
    assert not result.passed
    assert result.max_delta == Fraction(9, 85)
    assert result.witness == ("v11", "β")
    assert result.marginal["β"] == Fraction(27, 34)
    assert result.conditional["v11"]["β"] == Fraction(9, 10)
    assert result.conditional["v12"]["β"] == Fraction(3, 4)


def test_boundary_epsilon_passes(table1):
    result = empirical_ci(table1, "a1", "t", ctx_of(a2="v21"), Fraction(9, 85))
    assert result.passed
    assert result.max_delta == Fraction(9, 85)


def test_uniform_dataset_passes():
    rows = tuple(("x" if i % 2 else "y", "yes") for i in range(10))
    ds = Dataset(columns=("a", "t"), rows=rows, target_column="t")
    assert empirical_ci(ds, "a", "t", EMPTY, Fraction(0)).passed


def test_empirical_ci_rejects_bad_inputs(table1):
    with pytest.raises(InputError, match="nonnegative"):
        empirical_ci(table1, "a1", "t", EMPTY, Fraction(-1, 2))
    with pytest.raises(WeakeningTargetIsGoal):
        empirical_ci(table1, "t", "t", EMPTY, Fraction(0))
    with pytest.raises(VariableAlreadyInContext):
        empirical_ci(table1, "a1", "t", ctx_of(a1="v11"), Fraction(0))
    with pytest.raises(UnknownColumn):
        empirical_ci(table1, "zzz", "t", EMPTY, Fraction(0))


# --- single-attribute check -----------------------------------------------------


def test_check_if_graphical_loan(loan_graph, loan_closure):
    ctx = parse_context("Age=27, GAI=40K", loan_graph)
    result = check_if(loan_closure, None, ctx, "Loan", "MS")
    assert result.passed
    assert result.mode == "graphical"
    assert result.graphical.admissible
    assert result.empirical is None and result.agreement is None
    assert result.context_vars == ("Age", "GAI")


def test_check_if_both_mode_disagreement(table1, data_dir):
    g = load_graph(data_dir / "table1.cg")
    result = check_if(close(g), table1, EMPTY, "t", "a1", Fraction(0))
    assert result.mode == "both"
    assert not result.passed
    assert result.graphical.failed_condition == "Condition1"
    assert result.empirical.passed
    assert result.agreement is False


def test_check_if_validation():
    # The name and role checks come before the missing inputs.
    with pytest.raises(WeakeningTargetIsGoal):
        check_if(None, None, EMPTY, "Loan", "Loan")
    with pytest.raises(VariableAlreadyInContext):
        check_if(None, None, ctx_of(MS="m"), "Loan", "MS")
    with pytest.raises(InputError, match="needs a graph, a dataset or both"):
        check_if(None, None, EMPTY, "Loan", "MS")
    with pytest.raises(InputError, match="needs a graph, a dataset or both"):
        check_intersectionality(None, None, EMPTY, "t", ["a1"])


def test_check_if_empirical_only(table1):
    # A dataset alone is the empirical route.
    result = check_if(None, table1, EMPTY, "t", "a1")
    assert result.passed
    assert result.mode == "empirical"
    assert result.graphical is None and result.agreement is None
    payload = if_result_to_json(result)
    assert payload["graphical"] is None
    assert payload["empirical"]["maxDelta"] == "0/1"
    json.dumps(payload)


# --- subset sweep ----------------------------------------------------------------


def test_intersectionality_table1_empirical(table1):
    report = check_intersectionality(
        None, table1, EMPTY, "t", ["a1", "a2"], Fraction(0)
    )
    assert not report.passed
    assert report.max_delta == Fraction(9, 85)
    assert report.protected_attrs == ("a1", "a2")
    by_subset = {s.subset: s for s in report.subsets}
    assert set(by_subset) == {("a1",), ("a2",), ("a1", "a2")}
    assert by_subset[("a1",)].passed
    assert by_subset[("a2",)].passed
    pair = by_subset[("a1", "a2")]
    assert not pair.passed
    for decomp in pair.decompositions:
        assert decomp.max_delta == Fraction(9, 85)
        assert len(decomp.empirical) == 2
        for fixed, ci in decomp.empirical:
            assert len(fixed) == 1
            assert not ci.passed


def test_intersectionality_loan_graphical(loan_graph, loan_closure):
    ctx = parse_context("Age=27, GAI=40K", loan_graph)
    report = check_intersectionality(
        loan_closure, None, ctx, "Loan", ["MS"]
    )
    assert report.passed
    assert report.max_delta is None
    assert report.subsets[0].decompositions[0].graphical.admissible


def test_singleton_subset_matches_check_if(table1):
    report = check_intersectionality(
        None, table1, EMPTY, "t", ["a1"], Fraction(0)
    )
    single = check_if(None, table1, EMPTY, "t", "a1", Fraction(0))
    decomp = report.subsets[0].decompositions[0]
    assert decomp.passed == single.passed
    assert decomp.max_delta == single.empirical.max_delta


def test_subset_cap(table1):
    too_many = [f"p{i}" for i in range(13)]
    with pytest.raises(SubsetExplosion):
        check_intersectionality(None, table1, EMPTY, "t", too_many)
    with pytest.raises(SubsetExplosion):
        check_intersectionality(
            None, table1, EMPTY, "t", ["a", "b", "c"], subset_cap=2
        )
    with pytest.raises(InputError, match="at least one"):
        check_intersectionality(None, table1, EMPTY, "t", [])


def routes(mode, closure, dataset):
    """The (closure, dataset) arguments that run the given mode."""
    return (None if mode == "empirical" else closure, None if mode == "graphical" else dataset)


@pytest.mark.parametrize("mode", ["graphical", "empirical", "both"])
def test_negative_epsilon_is_refused_in_every_mode(table1, mode):
    closure, dataset = routes(mode, close(CausalGraph(["a1", "a2", "t"], [("a1", "t")])), table1)
    eps = Fraction(-1)
    with pytest.raises(InputError, match="epsilon must be nonnegative"):
        check_if(closure, dataset, EMPTY, "t", "a1", eps)
    with pytest.raises(InputError, match="epsilon must be nonnegative"):
        check_intersectionality(closure, dataset, EMPTY, "t", ["a1", "a2"], eps)


def test_report_is_deterministic(table1):
    kwargs = dict(epsilon=Fraction(0))
    first = check_intersectionality(
        None, table1, EMPTY, "t", ["a1", "a2"], **kwargs
    )
    second = check_intersectionality(
        None, table1, EMPTY, "t", ["a2", "a1"], **kwargs
    )
    a = json.dumps(fairness_report_to_json(first), indent=2, ensure_ascii=False)
    b = json.dumps(fairness_report_to_json(second), indent=2, ensure_ascii=False)
    assert a == b


def test_report_json_shape(table1):
    report = check_intersectionality(
        None, table1, EMPTY, "t", ["a1", "a2"], Fraction(0)
    )
    payload = fairness_report_to_json(report)
    assert payload["passed"] is False
    assert payload["maxDelta"] == "9/85"
    assert payload["threshold"] == "0/1"
    assert payload["mode"] == "empirical"
    assert [s["subset"] for s in payload["subsets"]] == [["a1"], ["a2"], ["a1", "a2"]]
    json.dumps(payload)


# --- one contingency table per request ---------------------------------------------


@pytest.mark.parametrize("mode, scans", [("graphical", 0), ("empirical", 1), ("both", 1)])
def test_each_request_scans_the_rows_once(monkeypatch, table1, data_dir, mode, scans):
    calls = []
    matching_rows = Dataset.matching_rows

    def counted(self, ctx):
        calls.append(ctx)
        return matching_rows(self, ctx)

    monkeypatch.setattr(Dataset, "matching_rows", counted)
    closure, dataset = routes(mode, close(load_graph(data_dir / "table1.cg")), table1)
    check_intersectionality(closure, dataset, EMPTY, "t", ["a1", "a2"])
    assert len(calls) == scans
    check_if(closure, dataset, EMPTY, "t", "a1")
    assert len(calls) == 2 * scans


def test_unknown_protected_column_comes_before_the_context(table1):
    # The one table looks every protected column up before it matches the context.
    with pytest.raises(UnknownColumn, match="'zz'"):
        check_intersectionality(None, table1, ctx_of(a2="nope"), "t", ["a1", "zz"])


WIDE_PROTECTED = {"p1": 2, "p2": 3, "p3": 3, "p4": 4}


def wide_dataset() -> Dataset:
    """About 200 seeded rows over four protected columns, a region and a target."""
    rng = random.Random(0)
    rows = tuple(
        (*(f"{name}v{rng.randrange(k)}" for name, k in WIDE_PROTECTED.items()),
         rng.choice("uvwz"), rng.choice(("yes", "no", "maybe")))
        for _ in range(200)
    )
    return Dataset(columns=(*WIDE_PROTECTED, "x", "t"), rows=rows, target_column="t")


@pytest.mark.parametrize("mode", ["empirical", "both"])
@pytest.mark.parametrize("ctx", [
    EMPTY,
    ctx_of(x="u"),
    Context((Attribution("x", Value.sum_of(["u", "v"])),)),
    Context((Attribution("x", Value.complement("w")),)),
], ids=["none", "atomic", "sum", "complement"])
def test_wide_table_matches_row_scans(ctx, mode):
    """Each member of a four-attribute audit has up to three rest columns."""
    dataset = wide_dataset()
    g = CausalGraph([*dataset.columns], [("p1", "t"), ("x", "t"), ("p2", "p3"), ("p3", "t")])
    closure = close(g)
    args = (closure, dataset, ctx, "t")
    audit = (*routes(mode, closure, dataset), ctx, "t")
    protected = list(WIDE_PROTECTED)
    report = check_intersectionality(*audit, protected, Fraction(1, 10))
    expected = recount_intersectionality(*args, protected, Fraction(1, 10), mode)
    assert report == expected
    assert render_json(fairness_report_to_json(report)) == render_json(
        fairness_report_to_json(expected)
    )
    for attr in protected:
        result = check_if(*audit, attr, Fraction(1, 10))
        expected = recount_if(*args, attr, Fraction(1, 10), mode)
        assert result == expected
        assert render_json(if_result_to_json(result)) == render_json(if_result_to_json(expected))


def test_tied_gaps_keep_the_first_witness():
    # Every cell's gap is 1/4; the first cell in sorted order is the witness.
    counts = Counter({("a", "p"): 3, ("a", "q"): 1, ("b", "p"): 1, ("b", "q"): 3})
    ci = _ci_from_counts(counts, Fraction(0))
    assert ci.witness == ("a", "p")
    assert ci.max_delta == Fraction(1, 4)


@pytest.mark.parametrize("later_is_larger", [True, False])
def test_gaps_closer_than_a_float_can_tell(later_is_larger):
    # n(a) = A and n(b) = B with x/A − y/B = ±1/(A·B), about 1e-18: both
    # gaps are near 0.27 and round to the same float.  "c" holds the
    # marginal below both.
    big_a, big_b = 10**9, 10**9 + 7
    x = pow(big_b, -1, big_a)  # x·B ≡ 1 (mod A)
    if later_is_larger:
        x = big_a - x  # x·B ≡ −1 (mod A)
    y = (x * big_b - (-1 if later_is_larger else 1)) // big_a
    assert x * big_b - y * big_a == (-1 if later_is_larger else 1)
    counts = Counter({
        ("a", "p"): x, ("a", "q"): big_a - x,
        ("b", "p"): y, ("b", "q"): big_b - y,
        ("c", "q"): 10**10,
    })
    total = sum(counts.values())
    marginal = Fraction(x + y, total)
    gaps = {alpha: abs(Fraction(counts[alpha, "p"], n) - marginal)
            for alpha, n in (("a", big_a), ("b", big_b))}
    assert 0 < abs(gaps["a"] - gaps["b"]) < Fraction(1, 10**12)
    ci = _ci_from_counts(counts, Fraction(0))
    first = "b" if later_is_larger else "a"
    assert ci.witness == (first, "p")
    assert ci.max_delta == gaps[first]


# --- sampled data stays near the graph it came from ------------------------------


def sample_mediated_dataset(n, seed):
    """a -> m -> t with fixed conditional tables; all arithmetic on draws."""
    rng = random.Random(seed)
    p_a1 = 0.4
    p_m1 = {"a0": 0.3, "a1": 0.7}
    p_t1 = {"m0": 0.25, "m1": 0.8}
    rows = []
    for _ in range(n):
        a = "a1" if rng.random() < p_a1 else "a0"
        m = "m1" if rng.random() < p_m1[a] else "m0"
        t = "t1" if rng.random() < p_t1[m] else "t0"
        rows.append((a, m, t))
    return Dataset(columns=("a", "m", "t"), rows=tuple(rows), target_column="t")


def test_sampled_data_tracks_graphical_verdict():
    g = CausalGraph(["a", "m", "t"], [("a", "m"), ("m", "t")])
    closure = close(g)
    ds = sample_mediated_dataset(4000, seed=20240817)
    eps = Fraction(1, 10)
    for m_value in ("m0", "m1"):
        ctx = ctx_of(m=m_value)
        result = check_if(closure, ds, ctx, "t", "a", eps)
        assert result.graphical.admissible
        assert result.empirical.passed, result.empirical.max_delta
        assert result.agreement is True
    naked = check_if(closure, None, EMPTY, "t", "a", eps)
    assert not naked.passed


# --- small helpers ----------------------------------------------------------------


def test_fraction_str():
    assert fraction_str(Fraction(27, 34)) == "27/34"
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(Fraction(270, 340)) == "27/34"
