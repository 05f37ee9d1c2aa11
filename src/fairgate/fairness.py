"""Fairness checks: graphical, empirical over datasets, and intersectional.

The graphical route asks whether a protected attribute could be added to
a context without changing any prediction (the two admissibility
conditions over the causal graph).  The empirical route compares exact
conditional frequencies in a dataset.  Both use reduced rationals end to
end; no floats enter the arithmetic.

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
context, tallied in one scan.  A member's comparison is a marginal of
that table, so the rows are scanned once per request, not once per
(subset, member).
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .closure import Closure
from .errors import (
    DuplicateVariable,
    EmptyConditioningSet,
    InputError,
    MalformedDataset,
    SubsetExplosion,
    UndecodableFile,
    UnknownColumn,
    VariableAlreadyInContext,
    WeakeningTargetIsGoal,
)
from .graph import BOM, validate_name
from .judgments import Context, Value, value_matches
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


@dataclass(frozen=True)
class Dataset:
    """An immutable table of atomic value strings with a designated target column."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    target_column: str

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        for name in self.columns:
            validate_name(name)
        if len(set(self.columns)) != len(self.columns):
            raise MalformedDataset("duplicate column names")
        if self.target_column not in self.columns:
            raise UnknownColumn(f"target column {self.target_column!r} is not a column")
        width = len(self.columns)
        checked = set()  # each distinct cell once, in first-occurrence order
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise MalformedDataset(
                    f"row {i + 1} has {len(row)} cells, expected {width}"
                )
            for cell in row:
                if cell not in checked:
                    Value.atomic(cell)
                    checked.add(cell)

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
        """
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                if fh.read(1) != BOM:
                    fh.seek(0)
                # A blank line reads as no cells, a whitespace-only one as one blank cell.
                lines = [
                    tuple(cell.strip() for cell in row)
                    for row in reader
                    if len(row) > 1 or row and row[0].strip()
                ]
            except UnicodeDecodeError:
                raise UndecodableFile(f"{path}: not valid UTF-8 text") from None
            except csv.Error as exc:
                raise MalformedDataset(f"{path}: line {reader.line_num}: {exc}") from None
        if not lines:
            raise MalformedDataset(f"{path}: empty file")
        return cls(columns=lines[0], rows=tuple(lines[1:]), target_column=target_column)

    def matching_rows(self, ctx: Context) -> tuple[tuple[str, ...], ...]:
        """Rows whose cells satisfy every attribution of the context."""
        tests = [(self.col(attr.variable), attr.value) for attr in ctx]
        return tuple(
            row
            for row in self.rows
            if all(value_matches(value, row[idx]) for idx, value in tests)
        )


def _tally(dataset: Dataset, ctx: Context, columns) -> Counter:
    """Counts of the columns' value tuples over the ctx-matching rows, in one pass.

    The only row scan, once per request: every frequency in this module is
    a sum of these counts.
    """
    idx = [dataset.col(name) for name in columns]
    matching = dataset.matching_rows(ctx)
    if not matching:
        raise EmptyConditioningSet("no rows match the conditioning context")
    return Counter(tuple(row[i] for i in idx) for row in matching)


def empirical_probability(dataset: Dataset, ctx: Context, outcome: Value) -> Fraction:
    """Exact frequency of the outcome on the target column among ctx-matching rows."""
    counts = _tally(dataset, ctx, [dataset.target_column])
    hits = sum(n for (beta,), n in counts.items() if value_matches(outcome, beta))
    return Fraction(hits, sum(counts.values()))


@dataclass(frozen=True)
class CiResult:
    """Exact empirical conditional-independence comparison.

    For every observed value of the tested attribute and every observed
    outcome, the conditional frequency is compared against the marginal
    one (both within the given context); passed iff the largest gap is
    at most epsilon.
    """

    passed: bool
    epsilon: Fraction
    max_delta: Fraction
    witness: tuple[str, str] | None  # (attribute value, outcome value)
    marginal: dict  # outcome -> Fraction
    conditional: dict  # attribute value -> {outcome -> Fraction}


def _ci_from_counts(counts: Counter, epsilon: Fraction) -> CiResult:
    """The CI comparison from exact (attribute value, outcome) counts.

    The gap of a cell is |n(a,b)·N − n(b)·n(a)| / (n(a)·N); gaps are
    compared by integer cross-multiplication, and only the largest one is
    built as a Fraction.
    """
    per_alpha: Counter = Counter()
    per_beta: Counter = Counter()
    for (alpha, beta), n in counts.items():
        per_alpha[alpha] += n
        per_beta[beta] += n
    alphas = sorted(per_alpha)
    betas = sorted(per_beta)
    total = sum(per_beta.values())
    marginal = {beta: Fraction(per_beta[beta], total) for beta in betas}
    conditional = {
        alpha: {beta: Fraction(counts[alpha, beta], per_alpha[alpha]) for beta in betas}
        for alpha in alphas
    }

    gap, scale = 0, 1  # the largest gap so far is gap / scale
    witness = None
    for alpha in alphas:
        n_alpha = per_alpha[alpha]
        den = n_alpha * total
        for beta in betas:
            num = abs(counts[alpha, beta] * total - per_beta[beta] * n_alpha)
            if num * scale > gap * den:
                gap, scale = num, den
                witness = (alpha, beta)
    max_delta = Fraction(gap, scale)
    return CiResult(
        passed=max_delta <= epsilon,
        epsilon=epsilon,
        max_delta=max_delta,
        witness=witness,
        marginal=marginal,
        conditional=conditional,
    )


@dataclass(frozen=True)
class IfCheckResult:
    """One protected attribute checked against one context."""

    protected_attr: str
    target: str
    context_vars: tuple[str, ...]
    mode: str  # "graphical", "empirical" or "both", from the inputs given
    graphical: Verdict | None
    empirical: CiResult | None
    agreement: bool | None  # both-mode only
    passed: bool


@dataclass(frozen=True)
class Decomposition:
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


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[str, ...]
    decompositions: tuple[Decomposition, ...]
    passed: bool


@dataclass(frozen=True)
class FairnessReport:
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


def _check_member(
    closure, table: Counter | None, columns: tuple, ctx: Context, target: str, attr: str,
    rest: tuple, epsilon: Fraction,
) -> Decomposition:
    """Test attr with the rest folded into the conditioning side.

    The graphical route runs when there is a closure.  ``table``, when
    given, is the request's one contingency table, keyed by the values of
    ``columns`` and then the target.  The empirical route sums its cells
    over (rest, attr, target) and compares within each observed
    combination of the rest; no row is read here.
    """
    verdict = None
    per_combo = None
    max_delta = None
    if closure is not None:
        verdict = evaluate_conditions(closure, attr, target, ctx.variables() | set(rest))
    if table is not None:
        rest_idx = [columns.index(v) for v in rest]
        attr_idx = columns.index(attr)
        groups: defaultdict[tuple, Counter] = defaultdict(Counter)
        for key, n in table.items():
            groups[tuple(key[i] for i in rest_idx)][key[attr_idx], key[-1]] += n
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
    (protected, target), and every member's comparison is a marginal of
    it.  The report never depends on enumeration order; everything is
    sorted.
    """
    protected = check_audit(None if closure is None else closure.graph, dataset, ctx, target,
                            protected_set, subset_cap)
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError(f"epsilon must be nonnegative, got {epsilon}")
    columns = tuple(protected)
    table = None if dataset is None else _tally(dataset, ctx, [*columns, target])

    subsets = []
    for size in range(1, len(protected) + 1):
        for subset in combinations(protected, size):
            decomps = tuple(
                _check_member(closure, table, columns, ctx, target, attr,
                              tuple(v for v in subset if v != attr), epsilon)
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
        "marginal": {beta: fraction_str(p) for beta, p in sorted(ci.marginal.items())},
        "conditional": {
            alpha: {beta: fraction_str(p) for beta, p in sorted(row.items())}
            for alpha, row in sorted(ci.conditional.items())
        },
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


def _decomposition_to_json(d: Decomposition) -> dict:
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
        "graphical": None if d.graphical is None else verdict_to_json(d.graphical),
        "empirical": empirical,
    }


def fairness_report_to_json(report: FairnessReport) -> dict:
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
                "decompositions": [_decomposition_to_json(d) for d in s.decompositions],
            }
            for s in report.subsets
        ],
    }
