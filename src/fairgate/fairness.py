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
from .graph import validate_name
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

        Cells are stripped of surrounding whitespace and must be atomic
        values.
        """
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
                rows = [tuple(cell.strip() for cell in row) for row in reader]
            except StopIteration:
                raise MalformedDataset(f"{path}: empty file") from None
            except UnicodeDecodeError:
                raise UndecodableFile(f"{path}: not valid UTF-8 text") from None
            except csv.Error as exc:
                raise MalformedDataset(f"{path}: line {reader.line_num}: {exc}") from None
        columns = tuple(cell.strip() for cell in header)
        return cls(columns=columns, rows=tuple(rows), target_column=target_column)

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

    The only row scan: every frequency in this module is a sum of these counts.
    """
    idx = [dataset.col(name) for name in columns]
    matching = dataset.matching_rows(ctx)
    if not matching:
        raise EmptyConditioningSet("no rows match the conditioning context")
    return Counter(tuple(row[i] for i in idx) for row in matching)


def _epsilon(epsilon) -> Fraction:
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError(f"epsilon must be nonnegative, got {epsilon}")
    return epsilon


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
    """The CI comparison from exact (attribute value, outcome) counts."""
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

    max_delta = Fraction(0)
    witness = None
    for alpha in alphas:
        for beta in betas:
            delta = abs(conditional[alpha][beta] - marginal[beta])
            if delta > max_delta:
                max_delta = delta
                witness = (alpha, beta)
    return CiResult(
        passed=max_delta <= epsilon,
        epsilon=epsilon,
        max_delta=max_delta,
        witness=witness,
        marginal=marginal,
        conditional=conditional,
    )


def empirical_ci(
    dataset: Dataset, attr: str, target: str, ctx: Context, epsilon: Fraction
) -> CiResult:
    """Test whether the target is empirically independent of attr given ctx."""
    epsilon = _epsilon(epsilon)
    if attr == target:
        raise WeakeningTargetIsGoal(f"cannot test {attr!r} against itself")
    if attr in ctx.variables():
        raise VariableAlreadyInContext(f"{attr!r} is already fixed by the context")
    return _ci_from_counts(_tally(dataset, ctx, [attr, target]), epsilon)


@dataclass(frozen=True)
class IfCheckResult:
    """One protected attribute checked against one context."""

    protected_attr: str
    target: str
    context_vars: tuple[str, ...]
    mode: str  # "graphical", "empirical" or "both"
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
    g, dataset, ctx: Context, target: str, protected_set, mode: str,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> list[str]:
    """The checks check_if and check_intersectionality make before any verdict.

    ``g`` is the graph the graphical route reads, or None.  No closure is
    needed, so a caller may run them before it closes ``g``.  Returns the
    protected attributes in sorted order.
    """
    if mode not in ("graphical", "empirical", "both"):
        raise InputError(f"mode must be graphical, empirical or both, got {mode!r}")
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
    if mode in ("graphical", "both") and g is None:
        raise InputError("graphical mode requires a graph")
    if mode in ("empirical", "both") and dataset is None:
        raise InputError("empirical mode requires a dataset")
    if mode != "empirical":
        # The first verdicts test each attribute alone, in this order.
        for attr in protected:
            check_variables(g, attr, target, context_vars)
    return protected


def _check_member(
    closure, dataset, ctx: Context, target: str, attr: str, rest: tuple, epsilon, mode: str
) -> Decomposition:
    """Test attr with the rest folded into the conditioning side.

    The empirical route tallies the ctx-matching rows once over (rest,
    attr, target) and compares within each observed combination of the rest.
    """
    verdict = None
    per_combo = None
    max_delta = None
    if mode in ("graphical", "both"):
        verdict = evaluate_conditions(closure, attr, target, ctx.variables() | set(rest))
    if mode in ("empirical", "both"):
        epsilon = _epsilon(epsilon)
        split = len(rest)
        groups: defaultdict[tuple, Counter] = defaultdict(Counter)
        for key, n in _tally(dataset, ctx, [*rest, attr, target]).items():
            groups[key[:split]][key[split:]] = n
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
        agreement=verdict.admissible == empirical_ok if mode == "both" else None,
        passed=graphical_ok and empirical_ok,
    )


def check_if(
    closure: Closure | None,
    dataset: Dataset | None,
    ctx: Context,
    target: str,
    protected_attr: str,
    epsilon: Fraction = Fraction(0),
    mode: str = "graphical",
) -> IfCheckResult:
    """Individual-fairness check for one protected attribute.

    Graphical mode asks whether the attribute could be weakened into the
    context (values play no role); empirical mode compares frequencies
    in the dataset; both runs the two and reports whether they agree.
    This is one decomposition with nothing folded into the context.
    """
    check_audit(None if closure is None else closure.graph, dataset, ctx, target,
                [protected_attr], mode)
    d = _check_member(closure, dataset, ctx, target, protected_attr, (), epsilon, mode)
    return IfCheckResult(
        protected_attr=protected_attr,
        target=target,
        context_vars=tuple(sorted(ctx.variables())),
        mode=mode,
        graphical=d.graphical,
        empirical=None if d.empirical is None else d.empirical[0][1],
        agreement=d.agreement,
        passed=d.passed,
    )


def check_intersectionality(
    closure: Closure | None,
    dataset: Dataset | None,
    ctx: Context,
    target: str,
    protected_set,
    epsilon: Fraction = Fraction(0),
    mode: str = "graphical",
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> FairnessReport:
    """Check every non-empty subset of the protected attributes.

    Each subset is decomposed once per member: the member is the tested
    attribute, the remaining members join the conditioning side.  In
    empirical modes the rest is instantiated with every value
    combination observed among context-matching rows.  The report never
    depends on enumeration order; everything is sorted.
    """
    protected = check_audit(None if closure is None else closure.graph, dataset, ctx, target,
                            protected_set, mode, subset_cap)

    subsets = []
    for size in range(1, len(protected) + 1):
        for subset in combinations(protected, size):
            decomps = tuple(
                _check_member(closure, dataset, ctx, target, attr,
                              tuple(v for v in subset if v != attr), epsilon, mode)
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
        mode=mode,
        threshold=Fraction(epsilon),
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
