"""Fairness checks: graphical, empirical over datasets, and intersectional.

The graphical route asks whether a protected attribute could be added to
a context without changing any prediction (the two admissibility
conditions over the causal graph).  The empirical route compares exact
conditional frequencies in a dataset.  Both are exact, and no float enters:
the empirical route keeps integer counts until each ratio is printed.

Intersectionality is not a separate notion here: a set of protected
attributes is checked by testing each member with the others folded into
the conditioning side, over every non-empty subset.  The bundled
two-attribute dataset generator exists to show why subsets matter: each
attribute passes alone while the pair fails.

The route is read from the inputs: a closure means the graphical route, a
dataset the empirical one, and both mean both.  ``check_if`` is the
one-member case of ``check_intersectionality``, the one audit pipeline.

Every empirical verdict of a request reads one contingency table: the
counts of (protected columns, target) over the rows that match the
context, tallied in one scan.  The context is decided once per distinct
cell of each column it names, not once per row.  Each subset's counts
are summed once, from those of a subset with one more column, and its
members' comparisons regroup them, so the rows are scanned once per
request and the table once per subset.

The table is loaded the same way: a CSV of categorical audit columns
repeats its records, so each distinct line is parsed, stripped and
checked once, and equal lines share one row tuple.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, compress, repeat
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .closure import Closure
from .errors import (
    DuplicateVariable,
    EmptyConditioningSet,
    InputError,
    MalformedDataset,
    MalformedValue,
    SubsetExplosion,
    UnknownColumn,
    VariableAlreadyInContext,
    WeakeningTargetIsGoal,
)
from .graph import read_text, validate_name
from .judgments import Context, Value, validate_atom, value_matches
from .record import Record
from .weakening import Verdict, check_variables, evaluate_conditions, verdict_to_json

__all__ = [
    "Dataset",
    "CiResult",
    "IfCheckResult",
    "Decomposition",
    "SubsetResult",
    "FairnessReport",
    "DEFAULT_SUBSET_CAP",
    "check_audit",
    "empirical_probability",
    "empirical_ci",
    "check_if",
    "check_intersectionality",
    "generate_table1",
    "fraction_str",
    "ci_result_to_json",
    "if_result_to_json",
    "fairness_report_to_json",
]

DEFAULT_SUBSET_CAP = 12


def fraction_str(q: Fraction) -> str:
    """Reduced "m/n" form; the denominator is always written."""
    return f"{q.numerator}/{q.denominator}"


def _ratio_str(m: int, n: int) -> str:
    """fraction_str(Fraction(m, n)), with one gcd."""
    return f"{m // (k := gcd(m, n))}/{n // k}"


def _shares(counts: dict, ratio) -> dict:
    """{key: ratio(count, sum of the counts)}, in the dict's key order."""
    total = sum(counts.values())
    return {key: ratio(n, total) for key, n in counts.items()}


def _stripped(records):
    """Each csv record as a tuple of its cells stripped of surrounding whitespace."""
    return map(tuple, map(map, repeat(str.strip), records))


class Dataset(Record):
    """An immutable table of atomic value strings with a designated target column."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    target_column: str

    def __init__(self, columns, rows, target_column):
        columns = tuple(columns)
        rows = tuple(map(tuple, rows))
        for name in columns:
            validate_name(name)
        if len(set(columns)) != len(columns):
            raise MalformedDataset("duplicate column names")
        if target_column not in columns:
            raise UnknownColumn(f"target column {target_column!r} is not a column")
        # Each distinct row's width and each distinct cell are checked once;
        # the rows are walked in order only to word the first fault.  A dict,
        # not a set, keeps the distinct rows in table order, which a large
        # table with few repeats reads back much faster than hash order.
        width = len(columns)
        distinct = dict.fromkeys(rows)
        faults = {}
        for cell in set(chain.from_iterable(distinct)):
            try:
                validate_atom(cell)  # what Value.atomic checks, without building the Value
            except MalformedValue as exc:
                faults[cell] = exc
        if faults or not {width}.issuperset(map(len, distinct)):
            for i, row in enumerate(rows, 1):
                if len(row) != width:
                    raise MalformedDataset(f"row {i} has {len(row)} cells, expected {width}")
                for name, cell in zip(columns, row):
                    if cell in faults:
                        raise MalformedValue(f"row {i}, column {name!r}: {faults[cell]}")
        self.__dict__.update(columns=columns, rows=rows, target_column=target_column)

    def col(self, name: str) -> int:
        """Column index, or UnknownColumn."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise UnknownColumn(f"no column named {name!r}") from None

    @classmethod
    def from_csv(cls, path, target_column: str) -> "Dataset":
        """Load a UTF-8 CSV whose first row is the column headers.

        A leading byte-order mark, as spreadsheet exports write, is
        dropped.  Cells are stripped of surrounding whitespace and must be
        atomic values.  Empty and whitespace-only lines are skipped; a row
        of empty cells such as ``,,`` is not.

        Audit tables repeat their records, so a text with no quote
        character is read by distinct line: unquoted, no record spans
        lines, so each line is one record and equal lines are equal
        records.  Each distinct line is parsed and stripped once, and
        equal lines share one row tuple.  A text with a quote, or one whose
        lines the csv module refuses one at a time (a lone carriage return
        inside a line, a field over its size limit), is read record by
        record, so its records and the line a csv error names are exact.
        """
        text = read_text(path)
        rows = None
        if '"' not in text:
            lines = text.split("\n")
            del text  # held once, as its lines
            row_of = dict.fromkeys(lines)
            try:
                # Each line's value becomes its row.  No key is added, so the
                # keys may be read while the values change.
                row_of.update(zip(row_of, _stripped(csv.reader(row_of))))
            except csv.Error:
                text = "\n".join(lines)  # read again below, record by record, to name the line
            else:
                rows = list(filter(None, map(row_of.__getitem__, lines)))
            del lines, row_of
        if rows is None:
            reader = csv.reader(io.StringIO(text, newline=""))
            try:
                rows = list(filter(None, _stripped(reader)))
            except csv.Error as exc:
                raise MalformedDataset(f"{path}: line {reader.line_num}: {exc}") from None
            del text
        # A blank line reads as no cells, which filter(None) dropped, and a
        # whitespace-only one as one blank cell.
        if ("",) in rows:
            rows = [row for row in rows if row != ("",)]
        if not rows:
            raise MalformedDataset(f"{path}: empty file")
        return cls(columns=rows[0], rows=rows[1:], target_column=target_column)

    def matching_rows(self, ctx: Context) -> tuple[tuple[str, ...], ...]:
        """Rows whose cells satisfy every attribution of the context.

        One attribution at a time: its column is pulled out of the rows
        still kept, each distinct cell is decided once, and the rows whose
        cell is allowed are kept.
        """
        rows = self.rows
        for attr in ctx:
            column = list(map(itemgetter(self.col(attr.variable)), rows))
            allowed = {cell for cell in set(column) if value_matches(attr.value, cell)}
            rows = tuple(compress(rows, map(allowed.__contains__, column)))
        return rows


def _tally(dataset: Dataset, ctx: Context, columns) -> Counter:
    """Counts of the columns' value tuples over the ctx-matching rows, in one pass.

    The only row scan, once per request: every frequency in this module is
    a sum of these counts.
    """
    getters = [itemgetter(dataset.col(name)) for name in columns]
    matching = dataset.matching_rows(ctx)
    if not matching:
        raise EmptyConditioningSet(
            "no rows match the conditioning context" if dataset.rows
            else "the dataset has no rows"
        )
    return Counter(zip(*(map(get, matching) for get in getters)))


def empirical_probability(dataset: Dataset, ctx: Context, outcome: Value) -> Fraction:
    """Exact frequency of the outcome on the target column among ctx-matching rows."""
    counts = _tally(dataset, ctx, [dataset.target_column])
    hits = sum(n for (beta,), n in counts.items() if value_matches(outcome, beta))
    return Fraction(hits, sum(counts.values()))


class CiResult(NamedTuple):
    """Exact empirical conditional-independence comparison.

    For every observed value of the tested attribute and every observed
    outcome, the conditional frequency is compared against the marginal
    one (both within the given context); passed iff the largest gap is
    at most epsilon.  The frequencies are kept as counts, each dict in
    sorted key order; ``marginal`` and ``conditional`` are Fraction views.
    """

    passed: bool
    epsilon: Fraction
    max_delta: Fraction
    witness: tuple[str, str] | None  # (attribute value, outcome value)
    outcome_counts: dict  # outcome -> rows with it
    cell_counts: dict  # attribute value -> {outcome -> rows with both}, 0s included

    @property
    def marginal(self) -> dict:  # outcome -> Fraction
        return _shares(self.outcome_counts, Fraction)

    @property
    def conditional(self) -> dict:  # attribute value -> {outcome -> Fraction}
        return {alpha: _shares(row, Fraction) for alpha, row in self.cell_counts.items()}


def _ci_from_counts(counts: dict, epsilon: Fraction) -> CiResult:
    """The CI comparison from exact (attribute value, outcome) counts.

    ``counts`` maps each observed (attribute value, outcome) cell to its
    count; a cell it lacks counts 0, and the result keeps it as 0.  The gap
    of a cell is |n(a,b)·N − n(b)·n(a)| / (n(a)·N).  Gaps are compared with
    each other and with epsilon by integer cross-multiplication, and only
    the largest one is built as a Fraction.
    """
    per_alpha: dict = {}
    per_beta: dict = {}
    for (alpha, beta), n in counts.items():
        per_alpha[alpha] = per_alpha.get(alpha, 0) + n
        per_beta[beta] = per_beta.get(beta, 0) + n
    per_beta = {beta: per_beta[beta] for beta in sorted(per_beta)}
    total = sum(per_beta.values())
    cell = counts.get
    cells = {}

    gap, scale = 0, 1  # the largest gap so far is gap / scale
    witness = None
    for alpha in sorted(per_alpha):
        n_alpha = per_alpha[alpha]
        den = n_alpha * total
        row = cells[alpha] = {}
        for beta, n_beta in per_beta.items():
            n = row[beta] = cell((alpha, beta), 0)
            num = abs(n * total - n_beta * n_alpha)
            if num * scale > gap * den:
                gap, scale = num, den
                witness = (alpha, beta)
    return CiResult(
        passed=gap * epsilon.denominator <= epsilon.numerator * scale,
        epsilon=epsilon,
        max_delta=Fraction(gap, scale),
        witness=witness,
        outcome_counts=per_beta,
        cell_counts=cells,
    )


class IfCheckResult(NamedTuple):
    """One protected attribute checked against one context."""

    protected_attr: str
    target: str
    context_vars: tuple[str, ...]
    mode: str  # "graphical", "empirical" or "both", from the inputs given
    graphical: Verdict | None
    empirical: CiResult | None
    agreement: bool | None  # both-mode only
    passed: bool


class Decomposition(NamedTuple):
    """One member of a subset checked with the rest folded into the context.

    ``empirical`` holds one CiResult per observed value combination of
    the rest, keyed by the (variable, value) pairs that were fixed.
    """

    attr: str
    rest: tuple[str, ...]
    graphical: Verdict | None
    empirical: tuple[tuple[tuple[tuple[str, str], ...], CiResult], ...] | None
    max_delta: Fraction | None
    agreement: bool | None
    passed: bool


class SubsetResult(NamedTuple):
    subset: tuple[str, ...]
    decompositions: tuple[Decomposition, ...]
    passed: bool


class FairnessReport(NamedTuple):
    """Verdicts for every non-empty subset of the protected attributes."""

    protected_attrs: tuple[str, ...]
    target: str
    context_vars: tuple[str, ...]
    mode: str
    threshold: Fraction
    subsets: tuple[SubsetResult, ...]
    max_delta: Fraction | None  # None when no empirical check ran
    passed: bool


def check_audit(
    g, dataset, ctx: Context, target: str, protected_set,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> list[str]:
    """The checks check_intersectionality makes before any verdict.

    ``g`` is the graph the graphical route reads and ``dataset`` the table
    the empirical route reads; either may be None, not both.  No closure
    is needed, so a caller may run them before it closes ``g``.  Returns
    the protected attributes in sorted order.
    """
    protected = sorted(set(protected_set))
    if not protected:
        raise InputError("at least one protected attribute is required")
    if len(protected) > subset_cap:
        raise SubsetExplosion(
            f"{len(protected)} protected attributes exceed the cap of {subset_cap}"
        )
    context_vars = ctx.variables()
    if target in context_vars:
        raise DuplicateVariable(f"target {target!r} occurs in the context")
    for attr in protected:
        if attr == target:
            raise WeakeningTargetIsGoal("protected attribute equals the target")
        if attr in context_vars:
            raise VariableAlreadyInContext(
                f"protected attribute {attr!r} is already in the context"
            )
    if g is None and dataset is None:
        raise InputError("an audit needs a graph, a dataset or both")
    if g is not None:
        # The first verdicts test each attribute alone, in this order.
        for attr in protected:
            check_variables(g, attr, target, context_vars)
    return protected


def _subset_marginals(table: Counter, columns: tuple) -> dict:
    """The counts over (subset, target) of every non-empty subset of the columns.

    ``table`` is keyed by the values of ``columns`` and then the target.
    Each subset's counts are summed once, from those of the subset with
    its first missing column added, so the larger subsets come first and
    the full table is the root.
    """
    marginals = {columns: table}
    for size in range(len(columns) - 1, 0, -1):
        for subset in combinations(columns, size):
            # Every column before the first missing one is in the subset,
            # so the missing one sits at the same position in the parent's keys.
            drop = next((i for i, (a, b) in enumerate(zip(subset, columns)) if a != b), size)
            parent = marginals[subset[:drop] + (columns[drop],) + subset[drop:]]
            keep = itemgetter(*(i for i in range(size + 2) if i != drop))
            counts: dict = {}
            for key, n in parent.items():
                key = keep(key)
                counts[key] = counts.get(key, 0) + n
            marginals[subset] = counts
    return marginals


def _check_member(
    closure, marginal: dict | None, subset: tuple, ctx: Context, target: str, attr: str,
    epsilon: Fraction,
) -> Decomposition:
    """Test attr with the rest of the subset folded into the conditioning side.

    The graphical route runs when there is a closure.  ``marginal``, when
    given, holds the counts over (subset, target), keyed by the subset's
    values in order and then the target.  The empirical route regroups
    them by the rest's values and compares within each observed
    combination of the rest; no row is read here.
    """
    i = subset.index(attr)
    rest = subset[:i] + subset[i + 1:]
    verdict = None
    per_combo = None
    max_delta = None
    if closure is not None:
        verdict = evaluate_conditions(closure, attr, target, ctx.variables() | set(rest))
    if marginal is not None:
        # (rest, attr, target) only reorders a key of the subset's counts,
        # so each cell of a group is one count, not a sum.
        cell = itemgetter(i, -1)
        groups: dict = {}
        for key, n in marginal.items():
            groups.setdefault(key[:i] + key[i + 1:-1], {})[cell(key)] = n
        per_combo = tuple(
            (tuple(zip(rest, combo)), _ci_from_counts(groups[combo], epsilon))
            for combo in sorted(groups)
        )
        max_delta = max(ci.max_delta for _, ci in per_combo)

    empirical_ok = per_combo is None or all(ci.passed for _, ci in per_combo)
    graphical_ok = verdict is None or verdict.admissible
    return Decomposition(
        attr=attr,
        rest=rest,
        graphical=verdict,
        empirical=per_combo,
        max_delta=max_delta,
        agreement=None if verdict is None or per_combo is None else verdict.admissible == empirical_ok,
        passed=graphical_ok and empirical_ok,
    )


def check_if(
    closure: Closure | None,
    dataset: Dataset | None,
    ctx: Context,
    target: str,
    protected_attr: str,
    epsilon: Fraction = Fraction(0),
) -> IfCheckResult:
    """Individual-fairness check for one protected attribute.

    With a closure it asks whether the attribute could be weakened into
    the context (values play no role); with a dataset it compares
    frequencies; with both it runs the two and reports whether they
    agree.  This is the one-member subset of check_intersectionality.
    """
    report = check_intersectionality(closure, dataset, ctx, target, [protected_attr], epsilon)
    (d,) = report.subsets[0].decompositions
    return IfCheckResult(
        protected_attr=protected_attr,
        target=target,
        context_vars=report.context_vars,
        mode=report.mode,
        graphical=d.graphical,
        empirical=None if d.empirical is None else d.empirical[0][1],
        agreement=d.agreement,
        passed=d.passed,
    )


def empirical_ci(
    dataset: Dataset, attr: str, target: str, ctx: Context, epsilon: Fraction
) -> CiResult:
    """Test whether the target is empirically independent of attr given ctx."""
    return check_if(None, dataset, ctx, target, attr, epsilon).empirical


def check_intersectionality(
    closure: Closure | None,
    dataset: Dataset | None,
    ctx: Context,
    target: str,
    protected_set,
    epsilon: Fraction = Fraction(0),
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> FairnessReport:
    """Check every non-empty subset of the protected attributes.

    The closure, when given, runs the graphical route and the dataset, when
    given, the empirical one.  Each subset is decomposed once per member:
    the member is the tested attribute, the remaining members join the
    conditioning side.  On the empirical route the rest is instantiated
    with every value combination observed among context-matching rows.
    The context-matching rows are scanned once, into one table over
    (protected, target).  Each subset's marginal of it is summed once, and
    its members' comparisons regroup that marginal.  The report never
    depends on enumeration order; everything is sorted.  ``epsilon`` is an
    int or a Fraction: a float raises TypeError, as a float judgment
    probability does.
    """
    protected = check_audit(None if closure is None else closure.graph, dataset, ctx, target,
                            protected_set, subset_cap)
    if isinstance(epsilon, float):
        raise TypeError("epsilon must be an exact rational, not a float")
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError(f"epsilon must be nonnegative, got {epsilon}")
    columns = tuple(protected)
    marginals = {}
    if dataset is not None:
        marginals = _subset_marginals(_tally(dataset, ctx, [*columns, target]), columns)

    subsets = []
    for size in range(1, len(protected) + 1):
        for subset in combinations(protected, size):
            decomps = tuple(
                _check_member(closure, marginals.get(subset), subset, ctx, target, attr, epsilon)
                for attr in subset
            )
            subsets.append(
                SubsetResult(
                    subset=subset,
                    decompositions=decomps,
                    passed=all(d.passed for d in decomps),
                )
            )

    deltas = [d.max_delta for s in subsets for d in s.decompositions if d.max_delta is not None]
    return FairnessReport(
        protected_attrs=tuple(protected),
        target=target,
        context_vars=tuple(sorted(ctx.variables())),
        mode="empirical" if closure is None else "graphical" if dataset is None else "both",
        threshold=epsilon,
        subsets=tuple(subsets),
        max_delta=max(deltas, default=None),
        passed=all(s.passed for s in subsets),
    )


# --- The two-attribute counterexample dataset -----------------------------

# Cell layout: (a1 value, a2 value, rows with t=β, rows with t=β′).
_TABLE1_CELLS = (
    ("v11", "v21", 90, 10),
    ("v11", "v22", 180, 60),
    ("v12", "v21", 180, 60),
    ("v12", "v22", 90, 10),
)


def generate_table1() -> Dataset:
    """680 deterministic rows over (a1, a2, t).

    Each attribute is marginally uninformative about t (all marginals
    equal 27/34) while the four joint cells split 9/10 against 3/4, so
    singleton checks pass and the pair check fails.
    """
    rows = []
    for a1, a2, n_pos, n_neg in _TABLE1_CELLS:
        rows.extend((a1, a2, "β") for _ in range(n_pos))
        rows.extend((a1, a2, "β′") for _ in range(n_neg))
    return Dataset(columns=("a1", "a2", "t"), rows=tuple(rows), target_column="t")


# --- JSON builders ---------------------------------------------------------


def ci_result_to_json(ci: CiResult) -> dict:
    return {
        "passed": ci.passed,
        "epsilon": fraction_str(ci.epsilon),
        "maxDelta": fraction_str(ci.max_delta),
        "witness": None
        if ci.witness is None
        else {"value": ci.witness[0], "outcome": ci.witness[1]},
        "marginal": _shares(ci.outcome_counts, _ratio_str),
        "conditional": {alpha: _shares(row, _ratio_str) for alpha, row in ci.cell_counts.items()},
    }


def if_result_to_json(result: IfCheckResult) -> dict:
    return {
        "protected": result.protected_attr,
        "target": result.target,
        "context": list(result.context_vars),
        "mode": result.mode,
        "passed": result.passed,
        "agreement": result.agreement,
        "graphical": None if result.graphical is None else verdict_to_json(result.graphical),
        "empirical": None if result.empirical is None else ci_result_to_json(result.empirical),
    }


def _decomposition_to_json(d: Decomposition, memo: dict) -> dict:
    empirical = None
    if d.empirical is not None:
        empirical = [
            {
                "restValues": {var: val for var, val in fixed},
                "ci": ci_result_to_json(ci),
            }
            for fixed, ci in d.empirical
        ]
    return {
        "attr": d.attr,
        "rest": list(d.rest),
        "passed": d.passed,
        "agreement": d.agreement,
        "maxDelta": None if d.max_delta is None else fraction_str(d.max_delta),
        "graphical": None if d.graphical is None else verdict_to_json(d.graphical, memo),
        "empirical": empirical,
    }


def fairness_report_to_json(report: FairnessReport) -> dict:
    """JSON-ready report.  Its verdicts share one ``verdict_to_json`` memo, so a
    ``facts`` or ``ruleTrace`` list that repeats is one list object."""
    memo: dict = {}
    return {
        "protectedAttrs": list(report.protected_attrs),
        "target": report.target,
        "context": list(report.context_vars),
        "mode": report.mode,
        "threshold": fraction_str(report.threshold),
        "maxDelta": None if report.max_delta is None else fraction_str(report.max_delta),
        "passed": report.passed,
        "subsets": [
            {
                "subset": list(s.subset),
                "passed": s.passed,
                "decompositions": [_decomposition_to_json(d, memo) for d in s.decompositions],
            }
            for s in report.subsets
        ],
    }
