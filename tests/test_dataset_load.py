"""``Dataset.from_csv`` against the sequential loader of ``_recount``.

``from_csv`` reads a text with no quote character by distinct line and
any other text record by record; ``_recount.load_csv`` reads every text
record by record and checks every row and cell in row order.  Each text
must give an equal Dataset, or the same exception with the same message,
from both.
"""

import csv
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import fairgate.fairness as fairness
from _recount import load_csv
from fairgate.errors import FairgateError, MalformedDataset, MalformedValue
from fairgate.fairness import Dataset
from fairgate.graph import BOM

# One field longer than the csv module accepts.
OVERSIZED = "w" * (csv.field_size_limit() + 1)
HEADERS = ("a,t", " a , t", "a,t,b", "t")
# NUL, which some Pythons' csv refuses, and U+2028, a line boundary to
# str.splitlines but not to csv.
PLAIN = ("x", " y ", "yes", "", "  ", "a+b", "β", "\x00", "u\u2028v", OVERSIZED)
# Quoted fields, some spanning lines, and a quote inside an unquoted field.
QUOTED = ('"x"', '" y "', '"u,v"', '"z\n"', '"x\ny"', '"z\r\n"', 'p"q', '"')
LINE_ENDS = (("\n",), ("\r\n",), ("\n", "\r\n"), ("\n", "\r\n", "\r"))


def outcome(load, path):
    try:
        return load(path, "t")
    except FairgateError as exc:
        return type(exc), str(exc)


@st.composite
def csv_texts(draw):
    cells = PLAIN + (QUOTED if draw(st.booleans()) else ())
    record = st.lists(st.sampled_from(cells), min_size=1, max_size=3).map(",".join)
    # Few distinct lines, so lines repeat; blank and whitespace-only ones too.
    pool = draw(st.lists(record | st.sampled_from(("", "  ")), min_size=1, max_size=4))
    lines = [draw(st.sampled_from(HEADERS)), *draw(st.lists(st.sampled_from(pool), max_size=12))]
    ends = draw(st.sampled_from(LINE_ENDS))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]  # no final line end, or half of a CRLF
    if draw(st.booleans()):
        text = BOM + text
    return text


# csv closes a quote still open at the end of its input.  Read record by
# record, this file's third record is ['a', 'x\ny', 'b']; its distinct lines
# alone would also give three records, but mapped back to its four lines
# they give four rows, the third ['a', 'x'], and a table that loads.
OPEN_QUOTE = 'h,k\ny",b\na,"x\ny",b'


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("a,t\r\nx,y\r\nx,y\r\n")
@example("a,t\nx,y\rx,y\n")
@example("a,t\nx," + OVERSIZED + "\nx,y\n")
@example('a,t\n"x\n",y\nx,y\n')
@example(OPEN_QUOTE.replace("h,k", "a,t"))
@example('a,t\r\n"x\r\ny",y\r\n"x\ry",y\r\n')
def test_from_csv_reads_as_the_sequential_loader_does(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("load") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(Dataset.from_csv, path) == outcome(load_csv, path)


def test_an_open_quote_at_the_end_spans_lines(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(OPEN_QUOTE, encoding="utf-8", newline="")
    with pytest.raises(MalformedDataset, match=r"^row 2 has 3 cells, expected 2$"):
        Dataset.from_csv(path, "k")


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ((("x", "y"), ("x", "a+b"), ("x", "y"), ("x", "a+b")), MalformedValue,
         "row 2, column 't': atom 'a+b' contains reserved characters: '+'"),
        ((("x", "y"), ("x",), ("x", "y"), ("x",)), MalformedDataset,
         "row 2 has 1 cells, expected 2"),
        # The bad cell repeats before the short row, whose cells are also bad.
        ((("x", "y"), ("", "y"), ("", "y"), ("",)), MalformedValue,
         "row 2, column 'a': value atoms must be non-empty strings"),
        ((("x", "y"), ("x", "y", "z"), ("", "y"), ("x", "y", "z")), MalformedDataset,
         "row 2 has 3 cells, expected 2"),
    ],
    ids=["bad-cell", "short-row", "bad-cell-then-short-row", "long-row-then-bad-cell"],
)
def test_a_repeated_fault_is_reported_at_its_first_row(rows, error, message):
    with pytest.raises(error) as caught:
        Dataset(columns=("a", "t"), rows=rows, target_column="t")
    assert str(caught.value) == message


def _audit_lines(rng, line_end):
    """A table shaped as the data-audit benchmark's: 1,200 rows over columns
    of 2, 3, 3, 4 and 4 values and a two-valued target."""
    header = ("p1", "p2", "p3", "p4", "region", "y")
    cardinalities = (2, 3, 3, 4, 4, 2)
    rows = [[f"{name}v{rng.randrange(k)}" for name, k in zip(header, cardinalities)]
            for _ in range(1200)]
    return "".join(",".join(row) + line_end for row in [header, *rows])


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_each_distinct_line_is_parsed_once(tmp_path, monkeypatch, line_end):
    text = _audit_lines(random.Random(30), line_end)
    path = tmp_path / "audit.csv"
    path.write_text(text, encoding="utf-8", newline="")
    parsed = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        for record in reader(*args, **kwargs):
            parsed.append(record)
            yield record

    monkeypatch.setattr(fairness.csv, "reader", counting_reader)
    dataset = Dataset.from_csv(path, "y")
    lines = text.split(line_end)  # the last one, after the final line end, is empty
    assert len(dataset.rows) == 1200
    assert len(parsed) <= len(set(lines)) < 600
    first = {}
    for line, row in zip(lines[1:], dataset.rows):
        assert row is first.setdefault(line, row)
