"""Errors raised across the package.

Every error a caller is expected to handle derives from :class:`FairgateError`.
``InputError`` subclasses signal bad user input (CLI exit code 2);
``ResourceLimit`` signals an exceeded fact budget (CLI exit code 3).
"""

from __future__ import annotations

__all__ = [
    "FairgateError",
    "InputError",
    "MalformedName",
    "SelfLoop",
    "DuplicateEdge",
    "CycleDetected",
    "UnknownVariable",
    "DuplicateVariable",
    "ProbabilityOutOfRange",
    "JudgmentSyntaxError",
    "MalformedValue",
    "MalformedDataset",
    "UndecodableFile",
    "UnknownColumn",
    "EmptyConditioningSet",
    "SubsetExplosion",
    "VariableAlreadyInContext",
    "WeakeningTargetIsGoal",
    "InadmissibleWeakening",
    "ResourceLimit",
]


class FairgateError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FairgateError):
    """Invalid input: malformed names or files, unknown variables, bad values."""


class MalformedName(InputError):
    """A variable name is empty or contains a reserved character."""


class SelfLoop(InputError):
    """An edge points from a node to itself."""


class DuplicateEdge(InputError):
    """The same directed edge was given more than once."""


class CycleDetected(InputError):
    """The edge set is not acyclic. ``cycle`` holds a witness walk."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("cycle detected: " + " -> ".join(self.cycle))


class UnknownVariable(InputError):
    """A referenced variable is not a node of the graph."""


class DuplicateVariable(InputError):
    """A variable occurs twice in a context, or the target occurs in it."""


class ProbabilityOutOfRange(InputError):
    """A probability falls outside [0, 1]."""


class JudgmentSyntaxError(InputError):
    """The judgment DSL text does not parse.

    ``position`` is the 0-based character offset of the failure and
    ``expected`` names the token class the parser was looking for.
    """

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected is not None:
            detail += f" (expected {expected})"
        super().__init__(detail)


class MalformedValue(InputError):
    """A value was constructed with empty or reserved-character atoms."""


class MalformedDataset(InputError):
    """A dataset file or row set violates the tabular shape."""


class UndecodableFile(InputError):
    """A graph, judgment, context or dataset file is not valid UTF-8 text."""


class UnknownColumn(InputError):
    """A referenced column is not part of the dataset."""


class EmptyConditioningSet(InputError):
    """No dataset rows match the requested conditioning context."""


class SubsetExplosion(InputError):
    """Too many protected attributes to enumerate their subsets."""


class VariableAlreadyInContext(InputError):
    """The attribute to add already occurs in the judgment's context."""


class WeakeningTargetIsGoal(InputError):
    """The attribute to add is the judgment's own target."""


class InadmissibleWeakening(InputError):
    """apply_weakening was called without a matching admissible verdict."""


class ResourceLimit(FairgateError):
    """The configured fact budget was exceeded while closing a graph."""
