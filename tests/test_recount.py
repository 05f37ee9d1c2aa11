"""The tallied fairness routes against the row-scanning reference in _recount."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _recount import recount_ci, recount_if, recount_intersectionality
from fairgate.closure import close
from fairgate.errors import EmptyConditioningSet, InputError
from fairgate.fairness import (
    Dataset,
    check_if,
    check_intersectionality,
    ci_result_to_json,
    empirical_ci,
    fairness_report_to_json,
    fraction_str,
    if_result_to_json,
)
from fairgate.graph import CausalGraph
from fairgate.judgments import Attribution, Context, Value

PROTECTED = ("p0", "p1", "p2")
COLUMNS = (*PROTECTED, "x", "t")
ALPHABETS = {"p0": "ab", "p1": "abc", "p2": "ab", "x": "uvw", "t": ("yes", "no", "maybe")}
EMPTY = Context(())


def outcome(call, *args, **kwargs):
    """The result of a call, or the class of the error it raised."""
    try:
        return call(*args, **kwargs)
    except InputError as exc:
        return type(exc)


def dump(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


def comparisons(report):
    return [ci for s in report.subsets for d in s.decompositions for _, ci in d.empirical or ()]


def check_fraction_views(ci, expected):
    """ci's marginal and conditional are the recount's: Fractions in sorted key
    order, every row over every outcome, each summing to 1 and printed as the
    JSON prints them."""
    marginal, conditional = ci.marginal, ci.conditional
    assert marginal == expected.marginal and conditional == expected.conditional
    assert list(conditional) == sorted(conditional)
    assert list(marginal) == sorted(marginal)
    printed = ci_result_to_json(ci)
    for row, shown in ((marginal, printed["marginal"]),
                       *zip(conditional.values(), printed["conditional"].values())):
        assert list(row) == list(marginal)
        assert all(type(p) is Fraction for p in row.values())
        assert sum(row.values()) == 1
        assert shown == {beta: fraction_str(p) for beta, p in row.items()}


@st.composite
def audits(draw):
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(tuple(ALPHABETS[c])) for c in COLUMNS)),
            min_size=1,
            max_size=30,
        )
    )
    dataset = Dataset(columns=COLUMNS, rows=tuple(rows), target_column="t")
    form = draw(st.sampled_from(("none", "atomic", "sum", "complement")))
    if form == "none":
        ctx = EMPTY
    elif form == "sum":
        atoms = draw(st.lists(st.sampled_from("uvw"), min_size=2, max_size=2, unique=True))
        ctx = Context((Attribution("x", Value.sum_of(atoms)),))
    else:
        make = Value.atomic if form == "atomic" else Value.complement
        ctx = Context((Attribution("x", make(draw(st.sampled_from("uvw")))),))
    protected = draw(st.lists(st.sampled_from(PROTECTED), min_size=1, max_size=3, unique=True))
    epsilon = draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
    edges = draw(
        st.lists(
            st.sampled_from(
                [(a, b) for i, a in enumerate(COLUMNS) for b in COLUMNS[i + 1:]]
            ),
            unique=True,
            max_size=6,
        )
    )
    return dataset, ctx, protected, epsilon, CausalGraph(list(COLUMNS), edges)


@settings(max_examples=150, deadline=None)
@given(audits())
def test_tally_matches_row_scans(audit):
    dataset, ctx, protected, epsilon, g = audit
    closure = close(g)
    for attr in protected:
        ci = outcome(empirical_ci, dataset, attr, "t", ctx, epsilon)
        assert ci == outcome(recount_ci, dataset, attr, "t", ctx, epsilon)
        if not isinstance(ci, type):
            assert dump(ci_result_to_json(ci)) == dump(
                ci_result_to_json(recount_ci(dataset, attr, "t", ctx, epsilon))
            )
            check_fraction_views(ci, recount_ci(dataset, attr, "t", ctx, epsilon))
    for mode in ("empirical", "both"):
        args = (closure, dataset, ctx, "t")
        routed = (None if mode == "empirical" else closure, dataset, ctx, "t")
        for attr in protected:
            result = outcome(check_if, *routed, attr, epsilon)
            assert result == outcome(recount_if, *args, attr, epsilon, mode)
            if not isinstance(result, type):
                assert dump(if_result_to_json(result)) == dump(
                    if_result_to_json(recount_if(*args, attr, epsilon, mode))
                )
        report = outcome(check_intersectionality, *routed, protected, epsilon)
        assert report == outcome(recount_intersectionality, *args, protected, epsilon, mode)
        if not isinstance(report, type):
            assert dump(fairness_report_to_json(report)) == dump(
                fairness_report_to_json(
                    recount_intersectionality(*args, protected, epsilon, mode)
                )
            )
            expected = recount_intersectionality(*args, protected, epsilon, mode)
            for ci, expected_ci in zip(comparisons(report), comparisons(expected), strict=True):
                check_fraction_views(ci, expected_ci)


def test_negative_epsilon_in_intersectionality_is_input_error(table1):
    with pytest.raises(InputError, match="nonnegative"):
        check_intersectionality(
            None, table1, EMPTY, "t", ["a1", "a2"], Fraction(-1, 2)
        )


def test_context_matching_no_rows_is_empty_conditioning_set(table1):
    nowhere = Context((Attribution("a1", Value.atomic("nope")),))
    with pytest.raises(EmptyConditioningSet):
        check_intersectionality(
            None, table1, nowhere, "t", ["a2"], Fraction(0)
        )
    with pytest.raises(EmptyConditioningSet):
        check_if(None, table1, nowhere, "t", "a2", Fraction(0))


@pytest.mark.parametrize(
    "attrs, target, ctx, epsilon",
    [
        (["zzz"], "t", EMPTY, Fraction(0)),  # unknown protected column
        (["a1"], "zzz", EMPTY, Fraction(0)),  # unknown target column
        (["a1"], "t", Context((Attribution("zzz", Value.atomic("v")),)), Fraction(0)),
        (["a1"], "t", Context((Attribution("a2", Value.atomic("nope")),)), Fraction(0)),
        (["a1"], "t", EMPTY, Fraction(-1)),
        (["t"], "t", EMPTY, Fraction(0)),
        (["a1"], "t", Context((Attribution("a1", Value.atomic("v11")),)), Fraction(0)),
    ],
)
def test_each_bad_input_raises_what_the_row_scans_raise(table1, attrs, target, ctx, epsilon):
    args = (None, table1, ctx, target)
    expected = outcome(recount_intersectionality, *args, attrs, epsilon, "empirical")
    assert isinstance(expected, type)
    assert outcome(check_intersectionality, *args, attrs, epsilon) is expected
    (attr,) = attrs
    assert outcome(check_if, *args, attr, epsilon) is outcome(
        recount_if, *args, attr, epsilon, "empirical"
    )
    assert outcome(empirical_ci, table1, attr, target, ctx, epsilon) is outcome(
        recount_ci, table1, attr, target, ctx, epsilon
    )
