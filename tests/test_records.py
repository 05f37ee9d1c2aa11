"""The public value types are immutable records compared by value.

One contract over all sixteen: keyword and positional construction
agree, instances compare by value and equal hashable ones hash alike,
fields cannot be assigned or deleted, the repr is ``Name(field=...)``,
copy and pickle return equal objects, and each class that checks its
arguments refuses one bad input with its own exception.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from fairgate.closure import MediateCauseFact, PathFact, TraceRecord
from fairgate.errors import DuplicateVariable, MalformedDataset, MalformedName, MalformedValue
from fairgate.fairness import (
    CiResult,
    Dataset,
    Decomposition,
    FairnessReport,
    IfCheckResult,
    SubsetResult,
)
from fairgate.judgments import Attribution, Context, Judgment, Value, serialize_context
from fairgate.sweep import Discrepancy, SweepReport
from fairgate.weakening import Verdict

X = Value.atomic("x")
ATTR = Attribution("A", X)
MEDIATE = MediateCauseFact("A", "B", frozenset({"A", "B"}))
FACT = PathFact("A", "C", frozenset({"B"}), frozenset({frozenset({"D", "E"})}))
TRACE = TraceRecord("chain", ("A -> B", MEDIATE), FACT)
VERDICT_FIELDS = {
    "admissible": False, "failed_condition": "Condition2", "witness_edge": None,
    "witness_fact": FACT, "blocked_facts": ((FACT, None),), "rule_trace": (TRACE,),
    "subject": "A", "target": "C", "context_vars": frozenset({"B"}),
}
VERDICT = Verdict(**VERDICT_FIELDS)
CI_FIELDS = {
    "passed": True, "epsilon": Fraction(1, 10), "max_delta": Fraction(0), "witness": ("u", "v"),
    "outcome_counts": {"v": 1}, "cell_counts": {"u": {"v": 1}},
}
CI = CiResult(**CI_FIELDS)
DECOMPOSITION_FIELDS = {
    "attr": "A", "rest": ("D",), "graphical": VERDICT, "empirical": (((("D", "u"),), CI),),
    "max_delta": Fraction(0), "agreement": False, "passed": False,
}
DECOMPOSITION = Decomposition(**DECOMPOSITION_FIELDS)
SUBSET_FIELDS = {"subset": ("A", "D"), "decompositions": (DECOMPOSITION,), "passed": False}
SUBSET = SubsetResult(**SUBSET_FIELDS)
DISCREPANCY_FIELDS = {
    "nodes": ("A", "B"), "edges": (("A", "B"),), "x": "A", "y": "B", "conditioning": (),
    "by_rules": True, "by_oracle": False,
}
DISCREPANCY = Discrepancy(**DISCREPANCY_FIELDS)

# class -> (fields in constructor order, one field changed, a bad input and
# its exception, or None for a class that checks nothing).
CASES = {
    Value: (
        {"kind": "sum", "atoms": frozenset({"a", "b"})},
        {"atoms": frozenset({"a", "c"})},
        (lambda: Value("sum", {"a"}), MalformedValue),
    ),
    Attribution: (
        {"variable": "A", "value": X},
        {"value": Value.complement("x")},
        (lambda: Attribution("A B", X), MalformedName),
    ),
    Context: (
        {"attributions": (ATTR, Attribution("D", Value.complement("u")))},
        {"attributions": (ATTR,)},
        (lambda: Context([ATTR, ATTR]), DuplicateVariable),
    ),
    Judgment: (
        {"context": Context([ATTR]), "target": "C", "outcome": Value.atomic("yes"),
         "probability": Fraction(3, 5)},
        {"probability": Fraction(2, 5)},
        (lambda: Judgment(Context([ATTR]), "C", Value.atomic("yes"), 0.6), TypeError),
    ),
    Dataset: (
        {"columns": ("a", "t"), "rows": (("x", "y"), ("z", "y")), "target_column": "t"},
        {"target_column": "a"},
        (lambda: Dataset(("a", "a", "t"), (), "t"), MalformedDataset),
    ),
    MediateCauseFact: (
        {"source": "A", "target": "B", "intermediates": frozenset({"A", "B"})},
        {"intermediates": frozenset({"A", "D", "B"})},
        (lambda: MediateCauseFact("A", "B", {"A"}), ValueError),
    ),
    PathFact: (
        {"left": "A", "right": "C", "noncolliders": frozenset({"B"}),
         "collider_sets": frozenset({frozenset({"D", "E"})})},
        {"noncolliders": frozenset()},
        # An endpoint that is a noncollider of its own fact.
        (lambda: PathFact("A", "C", {"A"}, ()), ValueError),
    ),
    TraceRecord: (
        {"rule": "chain", "premises": ("A -> B", MEDIATE), "conclusion": FACT},
        {"rule": "fork"},
        None,
    ),
    Verdict: (
        VERDICT_FIELDS,
        {"admissible": True},
        None,
    ),
    CiResult: (
        CI_FIELDS,
        {"passed": False},
        None,
    ),
    IfCheckResult: (
        {"protected_attr": "A", "target": "C", "context_vars": ("B",), "mode": "both",
         "graphical": VERDICT, "empirical": CI, "agreement": False, "passed": False},
        {"agreement": True},
        None,
    ),
    Decomposition: (
        DECOMPOSITION_FIELDS,
        {"rest": ()},
        None,
    ),
    SubsetResult: (
        SUBSET_FIELDS,
        {"passed": True},
        None,
    ),
    FairnessReport: (
        {"protected_attrs": ("A", "D"), "target": "C", "context_vars": (), "mode": "both",
         "threshold": Fraction(1, 10), "subsets": (SUBSET,), "max_delta": Fraction(0),
         "passed": False},
        {"threshold": Fraction(1, 5)},
        None,
    ),
    Discrepancy: (
        DISCREPANCY_FIELDS,
        {"by_oracle": True},
        None,
    ),
    SweepReport: (
        {"mode": "random", "max_nodes": 4, "trials": 2, "seed": 0, "edge_prob": 0.3,
         "graphs_checked": 2, "checks_run": 7, "discrepancies": (DISCREPANCY,)},
        {"checks_run": 8},
        None,
    ),
}

# These hold CiResult's frequency dicts, so they have no hash.
UNHASHABLE = {CiResult, IfCheckResult, Decomposition, SubsetResult, FairnessReport}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_types_are_immutable_records(cls):
    fields, change, bad = CASES[cls]
    record = cls(*fields.values())
    assert record == cls(**fields) and not record != cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert record != cls(**{**fields, **change})

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields))

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]

    if cls is Context:
        # A context is shown, compared and hashed as its attribution set.
        assert repr(record) == f"Context({serialize_context(record)!r})"
        reordered = Context(reversed(fields["attributions"]))
        assert record == reordered and hash(record) == hash(reordered)
    else:
        shown = ", ".join(f"{key}={value!r}" for key, value in fields.items())
        assert repr(record) == f"{cls.__name__}({shown})"

    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record

    if bad is not None:
        build, error = bad
        with pytest.raises(error):
            build()
