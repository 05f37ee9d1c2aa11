from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairgate.errors import (
    DuplicateVariable,
    InputError,
    JudgmentSyntaxError,
    MalformedValue,
    ProbabilityOutOfRange,
    UnknownVariable,
)
from fairgate.graph import CausalGraph
from fairgate.judgments import (
    MAX_RATIONAL_DIGITS,
    Attribution,
    Context,
    Judgment,
    Value,
    load_context,
    load_judgment,
    parse_attribution,
    parse_context,
    parse_judgment,
    serialize_context,
    serialize_judgment,
    value_matches,
    value_to_text,
)

LOAN_EXAMPLE = "Age=27, Gen=f, MS=married+divorced, Etn=white^~ => Loan=yes @ 0.60"


@pytest.fixture(scope="module")
def wide_graph():
    return CausalGraph(
        ["Age", "MS", "GAI", "Loan", "Gen", "Etn"],
        [("Age", "MS"), ("Age", "GAI"), ("Age", "Loan"), ("GAI", "Loan")],
    )


def test_parse_loan_example(wide_graph):
    j = parse_judgment(LOAN_EXAMPLE, wide_graph)
    assert len(j.context) == 4
    assert j.target == "Loan"
    assert j.outcome == Value.atomic("yes")
    assert j.probability == Fraction(3, 5)
    assert j.context.get("MS") == Value.sum_of(["married", "divorced"])
    assert j.context.get("Etn") == Value.complement("white")


def test_serialize_is_canonical(wide_graph):
    j = parse_judgment(LOAN_EXAMPLE, wide_graph)
    assert (
        serialize_judgment(j)
        == "Age=27, Etn=white^~, Gen=f, MS=divorced+married => Loan=yes @ 3/5"
    )


def test_empty_context_judgment(wide_graph):
    j = parse_judgment(" => Loan=yes @ 1", wide_graph)
    assert len(j.context) == 0
    assert j.probability == 1
    assert serialize_judgment(j) == " => Loan=yes @ 1/1"


def test_fraction_probability_is_reduced(wide_graph):
    j = parse_judgment("Age=x => Loan=b @ 270/340", wide_graph)
    assert j.probability == Fraction(27, 34)
    assert serialize_judgment(j).endswith("@ 27/34")


def test_parse_unknown_variable(wide_graph):
    with pytest.raises(UnknownVariable):
        parse_judgment("Foo=1 => Loan=yes @ 1", wide_graph)
    with pytest.raises(UnknownVariable):
        parse_judgment(" => Foo=yes @ 1", wide_graph)


def test_parse_skips_validation_without_graph():
    j = parse_judgment("Foo=1 => Bar=yes @ 1/2", None)
    assert j.target == "Bar"


def test_parse_duplicate_variable(wide_graph):
    with pytest.raises(DuplicateVariable):
        parse_judgment("Age=1, Age=2 => Loan=yes @ 1", wide_graph)
    with pytest.raises(DuplicateVariable):
        parse_judgment("Loan=no => Loan=yes @ 1", wide_graph)


def test_parse_probability_out_of_range(wide_graph):
    with pytest.raises(ProbabilityOutOfRange):
        parse_judgment(" => Loan=yes @ 3/2", wide_graph)
    with pytest.raises(ProbabilityOutOfRange):
        parse_judgment(" => Loan=yes @ 1.5", wide_graph)


def test_probability_digit_bound(wide_graph):
    at_bound = [
        ("0." + "9" * 99, Fraction(10**99 - 1, 10**99)),
        ("1" + "0" * 99 + "/" + "1" * 100, Fraction(10**99, int("1" * 100))),
    ]
    for text, value in at_bound:
        longest = max(sum(ch.isdigit() for ch in part) for part in text.split("/"))
        assert longest == MAX_RATIONAL_DIGITS
        j = parse_judgment(f" => Loan=yes @ {text}", wide_graph)
        assert j.probability == value
        assert parse_judgment(serialize_judgment(j), wide_graph) == j
    for text in ("0." + "9" * 100, "1/" + "7" * 101):
        with pytest.raises(JudgmentSyntaxError, match="more than 100 digits"):
            parse_judgment(f" => Loan=yes @ {text}", wide_graph)


def test_syntax_errors_carry_position_and_expectation(wide_graph):
    with pytest.raises(JudgmentSyntaxError) as exc_info:
        parse_judgment("Age=27 Loan=yes @ 1", wide_graph)
    err = exc_info.value
    assert err.position == 7
    assert "=>" in err.expected
    with pytest.raises(JudgmentSyntaxError, match="position"):
        parse_judgment(" => Loan=yes @ one", wide_graph)
    with pytest.raises(JudgmentSyntaxError):
        parse_judgment(" => Loan=yes @ 1/0", wide_graph)
    with pytest.raises(JudgmentSyntaxError, match="trailing"):
        parse_judgment(" => Loan=yes @ 1 extra", wide_graph)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_judgment, " => Loan=yes @ 1 extra", "trailing input after the judgment at position 17"),
        (parse_context, "Age=27 GAI=40K", "trailing input after the context at position 7"),
        (parse_attribution, "MS=married x", "trailing input after the attribution at position 11"),
    ],
)
def test_trailing_input_names_what_was_parsed(wide_graph, parse, text, message):
    with pytest.raises(JudgmentSyntaxError) as exc_info:
        parse(text, wide_graph)
    assert str(exc_info.value) == message


def test_sum_value_rules(wide_graph):
    with pytest.raises(JudgmentSyntaxError, match="duplicate atom"):
        parse_judgment("MS=a+a => Loan=yes @ 1", wide_graph)
    with pytest.raises(JudgmentSyntaxError, match="complement"):
        parse_judgment("MS=a+b^~ => Loan=yes @ 1", wide_graph)
    with pytest.raises(JudgmentSyntaxError, match="complement"):
        parse_judgment("MS=a^~+b => Loan=yes @ 1", wide_graph)


def test_outcome_must_be_atomic(wide_graph):
    with pytest.raises(JudgmentSyntaxError):
        parse_judgment(" => Loan=yes+no @ 1", wide_graph)
    with pytest.raises(JudgmentSyntaxError):
        parse_judgment(" => Loan=yes^~ @ 1", wide_graph)


def test_complement_binds_without_whitespace(wide_graph):
    with pytest.raises(JudgmentSyntaxError):
        parse_judgment("Etn=white ^~ => Loan=yes @ 1", wide_graph)


def test_float_probability_rejected():
    with pytest.raises(TypeError):
        Judgment(Context(()), "T", Value.atomic("b"), 0.6)


def test_value_matches_semantics():
    assert value_matches(Value.sum_of(["married", "divorced"]), "married")
    assert not value_matches(Value.sum_of(["married", "divorced"]), "single")
    assert not value_matches(Value.complement("white"), "white")
    assert value_matches(Value.complement("white"), "asian")
    assert value_matches(Value.atomic("yes"), "yes")
    assert not value_matches(Value.atomic("yes"), "no")


def test_value_invariants():
    with pytest.raises(MalformedValue):
        Value.sum_of(["only"])
    with pytest.raises(MalformedValue):
        Value.atomic("")
    with pytest.raises(MalformedValue):
        Value.atomic("a+b")
    with pytest.raises(MalformedValue):
        Value.atomic("a⊥b")
    with pytest.raises(MalformedValue):
        Value("mystery", frozenset(["a"]))
    with pytest.raises(MalformedValue):
        Value.sum_of(["a", "b"]).atom


def test_context_equality_ignores_order():
    a = Attribution("A", Value.atomic("1"))
    b = Attribution("B", Value.atomic("2"))
    assert Context((a, b)) == Context((b, a))
    assert hash(Context((a, b))) == hash(Context((b, a)))
    assert Context((a,)) != Context((b,))


def test_context_rejects_duplicates():
    a1 = Attribution("A", Value.atomic("1"))
    a2 = Attribution("A", Value.atomic("2"))
    with pytest.raises(DuplicateVariable):
        Context((a1, a2))


def test_parse_attribution(wide_graph):
    attr = parse_attribution("MS=married", wide_graph)
    assert attr == Attribution("MS", Value.atomic("married"))
    with pytest.raises(InputError):
        parse_attribution("MS=married, Age=3", wide_graph)
    with pytest.raises(InputError):
        parse_attribution("", wide_graph)


def test_context_files(tmp_path, wide_graph):
    p = tmp_path / "a.ctx"
    p.write_text("# just a comment\n\n", encoding="utf-8")
    assert len(load_context(p, wide_graph)) == 0
    p.write_text("Age=27, GAI=40K\n", encoding="utf-8")
    ctx = load_context(p, wide_graph)
    assert ctx.variables() == {"Age", "GAI"}
    p.write_text("Age=27\nGAI=40K\n", encoding="utf-8")
    with pytest.raises(InputError, match="single line"):
        load_context(p, wide_graph)


def test_judgment_files(tmp_path, wide_graph):
    p = tmp_path / "a.jdg"
    p.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(InputError, match="no judgment"):
        load_judgment(p, wide_graph)
    p.write_text("# note\n => Loan=yes @ 1/2\n", encoding="utf-8")
    assert load_judgment(p, wide_graph).probability == Fraction(1, 2)


# --- generated round-trips -------------------------------------------------

_names = st.text(alphabet="ABCDEFGHJKLMNPQ", min_size=1, max_size=4)
_atoms = st.text(alphabet="abcdefghk0123456789_", min_size=1, max_size=5)


def _values():
    return st.one_of(
        _atoms.map(Value.atomic),
        st.frozensets(_atoms, min_size=2, max_size=4).map(Value.sum_of),
        _atoms.map(Value.complement),
    )


@st.composite
def judgments(draw):
    names = draw(st.lists(_names, min_size=1, max_size=6, unique=True))
    target, *ctx_vars = names
    attributions = tuple(
        Attribution(v, draw(_values())) for v in ctx_vars
    )
    denominator = draw(st.integers(min_value=1, max_value=10_000))
    numerator = draw(st.integers(min_value=0, max_value=denominator))
    return Judgment(
        Context(attributions),
        target,
        Value.atomic(draw(_atoms)),
        Fraction(numerator, denominator),
    )


@given(judgments())
def test_roundtrip_parse_of_serialize(j):
    text = serialize_judgment(j)
    parsed = parse_judgment(text, None)
    assert parsed == j
    assert serialize_judgment(parsed) == text


@given(judgments())
def test_context_serialization_is_sorted(j):
    text = serialize_context(j.context)
    names = [part.split("=", 1)[0] for part in text.split(", ") if part]
    assert names == sorted(names)


@given(_values())
def test_value_text_roundtrips_through_context(value):
    ctx = Context((Attribution("V", value),))
    parsed = parse_context(serialize_context(ctx), None)
    assert parsed == ctx


def test_value_to_text_forms():
    assert value_to_text(Value.atomic("x")) == "x"
    assert value_to_text(Value.sum_of(["b", "a"])) == "a+b"
    assert value_to_text(Value.complement("x")) == "x^~"
