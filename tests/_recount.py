"""The empirical fairness routes as first written, row scan by row scan.

``fairgate.fairness`` counts the context-matching rows once per request,
into one table, and derives every frequency from it.  The functions
here rescan the rows for every marginal and every attribute value, and
rebuild a context per value combination of the rest, so the tally can
be checked against an independent reading of the same definitions.

``load_csv`` is the CSV loader as first written: one csv record at a
time, and every row and cell checked in row order, against which
``Dataset.from_csv``'s reading by distinct line is compared.
"""

from __future__ import annotations

import csv
from fractions import Fraction
from itertools import combinations

from fairgate.errors import (
    EmptyConditioningSet,
    InputError,
    MalformedDataset,
    MalformedValue,
    SubsetExplosion,
    UndecodableFile,
    VariableAlreadyInContext,
    WeakeningTargetIsGoal,
)
from fairgate.fairness import (
    DEFAULT_SUBSET_CAP,
    CiResult,
    Dataset,
    Decomposition,
    FairnessReport,
    IfCheckResult,
    SubsetResult,
)
from fairgate.graph import BOM
from fairgate.judgments import Attribution, Value, value_matches
from fairgate.weakening import evaluate_conditions


def load_csv(path, target_column):
    """Dataset.from_csv, sequentially: the csv module reads the file record
    by record, each record is stripped and blank-filtered, and each row's
    width and then each of its cells are checked in row order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if fh.read(1) != BOM:
                fh.seek(0)
            # A blank line reads as no cells, a whitespace-only one as one blank cell.
            lines = [
                tuple(map(str.strip, row))
                for row in reader
                if len(row) > 1 or row and row[0].strip()
            ]
        except UnicodeDecodeError:
            raise UndecodableFile(f"{path}: not valid UTF-8 text") from None
        except csv.Error as exc:
            raise MalformedDataset(f"{path}: line {reader.line_num}: {exc}") from None
    if not lines:
        raise MalformedDataset(f"{path}: empty file")
    check_rows(lines[0], lines[1:], target_column)
    return Dataset(columns=lines[0], rows=tuple(lines[1:]), target_column=target_column)


def check_rows(columns, rows, target_column):
    """Dataset's checks, one row and one cell at a time: the header's first,
    then the first row whose width or one of whose cells is wrong."""
    Dataset(columns=columns, rows=(), target_column=target_column)
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise MalformedDataset(f"row {i} has {len(row)} cells, expected {len(columns)}")
        for name, cell in zip(columns, row):
            try:
                Value.atomic(cell)
            except MalformedValue as exc:
                raise MalformedValue(f"row {i}, column {name!r}: {exc}") from None


def matching_rows(dataset, ctx):
    """Rows whose cells satisfy every attribution of the context."""
    tests = [(dataset.col(attr.variable), attr.value) for attr in ctx]
    return tuple(
        row
        for row in dataset.rows
        if all(value_matches(value, row[idx]) for idx, value in tests)
    )


def recount_ci(dataset, attr, target, ctx, epsilon) -> CiResult:
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError(f"epsilon must be nonnegative, got {epsilon}")
    ai = dataset.col(attr)
    ti = dataset.col(target)
    if attr == target:
        raise WeakeningTargetIsGoal(f"cannot test {attr!r} against itself")
    if attr in ctx.variables():
        raise VariableAlreadyInContext(f"{attr!r} is already fixed by the context")
    matching = matching_rows(dataset, ctx)
    if not matching:
        raise EmptyConditioningSet("no rows match the conditioning context")

    alphas = sorted({row[ai] for row in matching})
    betas = sorted({row[ti] for row in matching})
    total = len(matching)
    marginal = {
        beta: Fraction(sum(1 for row in matching if row[ti] == beta), total)
        for beta in betas
    }
    conditional = {}
    for alpha in alphas:
        cell = [row for row in matching if row[ai] == alpha]
        conditional[alpha] = {
            beta: Fraction(sum(1 for row in cell if row[ti] == beta), len(cell))
            for beta in betas
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
        outcome_counts={
            beta: sum(1 for row in matching if row[ti] == beta) for beta in betas
        },
        cell_counts={
            alpha: {
                beta: sum(1 for row in matching if row[ai] == alpha and row[ti] == beta)
                for beta in betas
            }
            for alpha in alphas
        },
    )


def _validate_mode(mode):
    if mode not in ("graphical", "empirical", "both"):
        raise InputError(f"mode must be graphical, empirical or both, got {mode!r}")


def recount_if(closure, dataset, ctx, target, protected_attr,
               epsilon=Fraction(0), mode="graphical") -> IfCheckResult:
    _validate_mode(mode)
    if protected_attr == target:
        raise WeakeningTargetIsGoal("protected attribute equals the target")
    if protected_attr in ctx.variables():
        raise VariableAlreadyInContext(
            f"protected attribute {protected_attr!r} is already in the context"
        )
    verdict = None
    ci = None
    if mode in ("graphical", "both"):
        if closure is None:
            raise InputError("graphical mode requires a graph")
        verdict = evaluate_conditions(closure, protected_attr, target, ctx.variables())
    if mode in ("empirical", "both"):
        if dataset is None:
            raise InputError("empirical mode requires a dataset")
        ci = recount_ci(dataset, protected_attr, target, ctx, epsilon)
    agreement = None
    if mode == "both":
        agreement = verdict.admissible == ci.passed
    passed = (verdict.admissible if verdict is not None else True) and (
        ci.passed if ci is not None else True
    )
    return IfCheckResult(
        protected_attr=protected_attr,
        target=target,
        context_vars=tuple(sorted(ctx.variables())),
        mode=mode,
        graphical=verdict,
        empirical=ci,
        agreement=agreement,
        passed=passed,
    )


def recount_intersectionality(closure, dataset, ctx, target, protected_set,
                              epsilon=Fraction(0), mode="graphical",
                              subset_cap=DEFAULT_SUBSET_CAP) -> FairnessReport:
    _validate_mode(mode)
    protected = sorted(set(protected_set))
    if not protected:
        raise InputError("at least one protected attribute is required")
    if len(protected) > subset_cap:
        raise SubsetExplosion(
            f"{len(protected)} protected attributes exceed the cap of {subset_cap}"
        )
    ctx_vars = ctx.variables()
    for attr in protected:
        if attr == target:
            raise WeakeningTargetIsGoal("protected attribute equals the target")
        if attr in ctx_vars:
            raise VariableAlreadyInContext(
                f"protected attribute {attr!r} is already in the context"
            )
    if mode in ("graphical", "both") and closure is None:
        raise InputError("graphical mode requires a graph")
    if mode in ("empirical", "both") and dataset is None:
        raise InputError("empirical mode requires a dataset")

    subsets = []
    overall_max = None
    for size in range(1, len(protected) + 1):
        for subset in combinations(protected, size):
            decomps = []
            for attr in subset:
                rest = tuple(v for v in subset if v != attr)
                verdict = None
                per_combo = None
                max_delta = None
                if mode in ("graphical", "both"):
                    verdict = evaluate_conditions(closure, attr, target, ctx_vars | set(rest))
                if mode in ("empirical", "both"):
                    per_combo = []
                    max_delta = Fraction(0)
                    rest_cols = [dataset.col(v) for v in rest]
                    matching = matching_rows(dataset, ctx)
                    if not matching:
                        raise EmptyConditioningSet(
                            "no rows match the conditioning context"
                        )
                    combos = sorted({tuple(row[c] for c in rest_cols) for row in matching})
                    for combo in combos:
                        extended = ctx
                        for var, val in zip(rest, combo):
                            extended = extended.extended(
                                Attribution(var, Value.atomic(val))
                            )
                        ci = recount_ci(dataset, attr, target, extended, epsilon)
                        per_combo.append((tuple(zip(rest, combo)), ci))
                        if ci.max_delta > max_delta:
                            max_delta = ci.max_delta
                    per_combo = tuple(per_combo)
                    if overall_max is None or max_delta > overall_max:
                        overall_max = max_delta

                empirical_ok = per_combo is None or all(ci.passed for _, ci in per_combo)
                graphical_ok = verdict is None or verdict.admissible
                agreement = None
                if mode == "both":
                    agreement = verdict.admissible == empirical_ok
                decomps.append(
                    Decomposition(
                        attr=attr,
                        rest=rest,
                        graphical=verdict,
                        empirical=per_combo,
                        max_delta=max_delta,
                        agreement=agreement,
                        passed=graphical_ok and empirical_ok,
                    )
                )
            subsets.append(
                SubsetResult(
                    subset=subset,
                    decompositions=tuple(decomps),
                    passed=all(d.passed for d in decomps),
                )
            )

    return FairnessReport(
        protected_attrs=tuple(protected),
        target=target,
        context_vars=tuple(sorted(ctx_vars)),
        mode=mode,
        threshold=Fraction(epsilon),
        subsets=tuple(subsets),
        max_delta=overall_max,
        passed=all(s.passed for s in subsets),
    )
