"""Judgments over attributed variables with exact rational probabilities.

A judgment states that, in the situation described by a context of
variable=value attributions, the target variable takes an outcome value
with some probability.  Probabilities are :class:`fractions.Fraction`
end to end; nothing in this module touches floats.

Text syntax::

    Age=27, GAI=40K => Loan=yes @ 0.60

The context is a comma-separated list of ``Var=value`` items and may be
empty.  A value is a single atom, a sum ``a+b``, or a complement
``atom^~`` (read: any value other than ``atom``).  The probability is a
decimal or ``m/n`` fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DuplicateVariable,
    InputError,
    JudgmentSyntaxError,
    MalformedValue,
    ProbabilityOutOfRange,
)
from .graph import CausalGraph, read_text, validate_name
from .record import Record

__all__ = [
    "MAX_RATIONAL_DIGITS",
    "RESERVED_ATOM_CHARS",
    "validate_atom",
    "Value",
    "Attribution",
    "Context",
    "Judgment",
    "value_matches",
    "value_to_text",
    "parse_judgment",
    "parse_context",
    "parse_attribution",
    "serialize_judgment",
    "serialize_context",
    "load_judgment",
    "load_context",
]

# Most digits a number read from text may have (each number of a judgment
# probability, and all of --epsilon), checked before int() or Fraction()
# runs: a longer one could print past Python's int-to-str digit limit.
MAX_RATIONAL_DIGITS = 100

# Atoms may not contain these anywhere, regardless of how they are built.
RESERVED_ATOM_CHARS = frozenset("+⊥,:=@")


def validate_atom(atom) -> str:
    """Return ``atom`` if it is a legal value atom, else raise MalformedValue."""
    if not isinstance(atom, str) or not atom:
        raise MalformedValue("value atoms must be non-empty strings")
    bad = sorted(set(atom) & RESERVED_ATOM_CHARS)
    if bad:
        raise MalformedValue(f"atom {atom!r} contains reserved characters: {''.join(bad)!r}")
    # A command-line byte that is not UTF-8 arrives as a lone surrogate,
    # which no report could print as UTF-8.
    try:
        atom.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedValue(f"atom {atom!r} is not UTF-8 text") from None
    return atom


class Value(Record):
    """An atomic value, a sum of atoms, or the complement of one atom."""

    kind: str
    atoms: frozenset[str]

    def __init__(self, kind, atoms):
        atoms = frozenset(atoms)
        for atom in atoms:
            validate_atom(atom)
        if kind in ("atomic", "complement"):
            if len(atoms) != 1:
                raise MalformedValue(f"{kind} values hold exactly one atom")
        elif kind == "sum":
            if len(atoms) < 2:
                raise MalformedValue("sum values need at least two distinct atoms")
        else:
            raise MalformedValue(f"unknown value kind {kind!r}")
        self.__dict__.update(kind=kind, atoms=atoms)

    @classmethod
    def atomic(cls, atom: str) -> "Value":
        return cls("atomic", frozenset([atom]))

    @classmethod
    def sum_of(cls, atoms) -> "Value":
        return cls("sum", frozenset(atoms))

    @classmethod
    def complement(cls, atom: str) -> "Value":
        return cls("complement", frozenset([atom]))

    @property
    def atom(self) -> str:
        if self.kind == "sum":
            raise MalformedValue("sum values have no single atom")
        (only,) = self.atoms
        return only


def value_matches(value: Value, observed: str) -> bool:
    """Does a concrete observed string satisfy the value?

    Complements are open-world: ``x^~`` matches every observed value
    other than ``x``, with no fixed universe of atoms.
    """
    if value.kind == "atomic":
        return observed == value.atom
    if value.kind == "sum":
        return observed in value.atoms
    return observed != value.atom


def value_to_text(value: Value) -> str:
    if value.kind == "atomic":
        return value.atom
    if value.kind == "sum":
        return "+".join(sorted(value.atoms))
    return value.atom + "^~"


class Attribution(Record):
    """One ``variable = value`` assignment."""

    variable: str
    value: Value

    def __init__(self, variable, value):
        validate_name(variable)
        self.__dict__.update(variable=variable, value=value)


class Context(Record):
    """An ordered list of attributions over distinct variables.

    Two contexts are equal when they hold the same attribution set; the
    stored order is presentation only.
    """

    attributions: tuple[Attribution, ...]

    def __init__(self, attributions=()):
        attributions = tuple(attributions)
        seen: set[str] = set()
        for attr in attributions:
            if attr.variable in seen:
                raise DuplicateVariable(f"variable {attr.variable!r} occurs twice in the context")
            seen.add(attr.variable)
        self.__dict__.update(attributions=attributions)

    def variables(self) -> frozenset[str]:
        return frozenset(a.variable for a in self.attributions)

    def extended(self, attr: Attribution) -> "Context":
        return Context(self.attributions + (attr,))

    def __iter__(self):
        return iter(self.attributions)

    def __len__(self) -> int:
        return len(self.attributions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return frozenset(self.attributions) == frozenset(other.attributions)

    def __hash__(self) -> int:
        return hash(frozenset(self.attributions))

    def __repr__(self) -> str:
        return f"Context({serialize_context(self)!r})"


class Judgment(Record):
    """``context => target=outcome @ probability`` with an exact probability."""

    context: Context
    target: str
    outcome: Value
    probability: Fraction

    def __init__(self, context, target, outcome, probability):
        validate_name(target)
        if outcome.kind != "atomic":
            raise MalformedValue("judgment outcomes must be atomic values")
        if isinstance(probability, float):
            raise TypeError("probability must be an exact rational, not a float")
        probability = Fraction(probability)
        if not 0 <= probability <= 1:
            raise ProbabilityOutOfRange(f"probability {probability} outside [0, 1]")
        if target in context.variables():
            raise DuplicateVariable(f"target {target!r} occurs in the context")
        self.__dict__.update(
            context=context, target=target, outcome=outcome, probability=probability
        )


# --- DSL parsing ---------------------------------------------------------

# Lexical atom class for the DSL; stricter than RESERVED_ATOM_CHARS so that
# '^~', '=>', '#' and whitespace stay unambiguous.
_ATOM_RE = re.compile(r"[^\s+,:=@^~>#⊥]+")
_PROB_RE = re.compile(r"(?P<num>\d+)\s*/\s*(?P<den>\d+)|(?P<dec>\d+(?:\.\d+)?|\.\d+)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek_lit(self, lit: str) -> bool:
        self.skip_ws()
        return self.text.startswith(lit, self.pos)

    def consume_lit(self, lit: str) -> bool:
        if self.peek_lit(lit):
            self.pos += len(lit)
            return True
        return False

    def expect_lit(self, lit: str, expected: str) -> None:
        if not self.consume_lit(lit):
            raise JudgmentSyntaxError("unexpected input", self.pos, expected=expected)

    def read_atom(self, expected: str) -> tuple[str, int]:
        self.skip_ws()
        match = _ATOM_RE.match(self.text, self.pos)
        if match is None:
            raise JudgmentSyntaxError("unexpected input", self.pos, expected=expected)
        self.pos = match.end()
        return match.group(), match.start()

    def expect_end(self, parsed: str) -> None:
        if not self.at_end():
            raise JudgmentSyntaxError(f"trailing input after the {parsed}", self.pos)


def _read_value(sc: _Scanner, *, atomic_only: bool) -> Value:
    atom, start = sc.read_atom("a value atom")
    if sc.text.startswith("^", sc.pos):
        sc.pos += 1
        if not sc.text.startswith("~", sc.pos):
            raise JudgmentSyntaxError("unexpected input", sc.pos, expected="'~' after '^'")
        sc.pos += 1
        if atomic_only:
            raise JudgmentSyntaxError("outcome values must be single atoms", start)
        if sc.peek_lit("+"):
            raise JudgmentSyntaxError("a complement cannot join a sum", sc.pos)
        return Value.complement(atom)
    atoms = [atom]
    while sc.peek_lit("+"):
        sc.consume_lit("+")
        nxt, npos = sc.read_atom("a value atom after '+'")
        if sc.text.startswith("^", sc.pos):
            raise JudgmentSyntaxError("a complement cannot join a sum", sc.pos)
        if nxt in atoms:
            raise JudgmentSyntaxError(f"duplicate atom {nxt!r} in sum", npos)
        atoms.append(nxt)
    if len(atoms) == 1:
        return Value.atomic(atom)
    if atomic_only:
        raise JudgmentSyntaxError("outcome values must be single atoms", start)
    return Value.sum_of(atoms)


def _read_items(sc: _Scanner, graph: CausalGraph | None) -> list[Attribution]:
    items: list[Attribution] = []
    seen: set[str] = set()
    if sc.at_end() or sc.peek_lit("=>"):
        return items
    while True:
        name, npos = sc.read_atom("a variable name")
        if graph is not None:
            graph.require_node(name)
        if name in seen:
            raise DuplicateVariable(f"variable {name!r} occurs twice in the context")
        seen.add(name)
        sc.expect_lit("=", "'=' after the variable name")
        value = _read_value(sc, atomic_only=False)
        items.append(Attribution(name, value))
        if sc.consume_lit(","):
            continue
        return items


def _read_probability(sc: _Scanner) -> Fraction:
    sc.skip_ws()
    match = _PROB_RE.match(sc.text, sc.pos)
    if match is None:
        raise JudgmentSyntaxError(
            "malformed probability", sc.pos,
            expected="a decimal like 0.60 or a fraction like 27/34",
        )
    # Bounded per number, so the m/n that serialize_judgment writes reads back.
    if any(sum(ch.isdigit() for ch in part) > MAX_RATIONAL_DIGITS for part in match.groups("")):
        raise JudgmentSyntaxError(
            f"probability has a number of more than {MAX_RATIONAL_DIGITS} digits", match.start()
        )
    sc.pos = match.end()
    if match.group("dec") is not None:
        return Fraction(match.group("dec"))
    den = int(match.group("den"))
    if den == 0:
        raise JudgmentSyntaxError("zero denominator in probability", match.start())
    return Fraction(int(match.group("num")), den)


def parse_judgment(text: str, graph: CausalGraph | None) -> Judgment:
    """Parse ``ctx => Var=value @ p``, validating variables against the graph.

    Pass ``graph=None`` to skip node-membership validation (callers that
    defer it, e.g. dataset-only checks).
    """
    sc = _Scanner(text)
    items = _read_items(sc, graph)
    sc.expect_lit("=>", "'=>' between context and target")
    target, tpos = sc.read_atom("the target variable")
    if graph is not None:
        graph.require_node(target)
    if any(a.variable == target for a in items):
        raise DuplicateVariable(f"target {target!r} occurs in the context")
    sc.expect_lit("=", "'=' after the target variable")
    outcome = _read_value(sc, atomic_only=True)
    sc.expect_lit("@", "'@' before the probability")
    probability = _read_probability(sc)
    sc.expect_end("judgment")
    return Judgment(Context(tuple(items)), target, outcome, probability)


def _read_context(text: str, graph: CausalGraph | None, parsed: str) -> Context:
    sc = _Scanner(text)
    items = _read_items(sc, graph)
    sc.expect_end(parsed)
    return Context(tuple(items))


def parse_context(text: str, graph: CausalGraph | None) -> Context:
    """Parse a bare comma-separated context (no ``=>`` part)."""
    return _read_context(text, graph, "context")


def parse_attribution(text: str, graph: CausalGraph | None) -> Attribution:
    """Parse a single ``Var=value`` item."""
    ctx = _read_context(text, graph, "attribution")
    if len(ctx) != 1:
        raise InputError(f"expected a single Var=value item, got {text!r}")
    return ctx.attributions[0]


def serialize_context(ctx: Context) -> str:
    ordered = sorted(ctx.attributions, key=lambda a: a.variable)
    return ", ".join(f"{a.variable}={value_to_text(a.value)}" for a in ordered)


def serialize_judgment(j: Judgment) -> str:
    """Canonical text: context sorted by variable, probability as m/n."""
    p = f"{j.probability.numerator}/{j.probability.denominator}"
    return f"{serialize_context(j.context)} => {j.target}={value_to_text(j.outcome)} @ {p}"


def _read_single_line(path) -> str:
    text = read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) > 1:
        raise InputError(f"{path}: expected a single line, found {len(lines)}")
    return lines[0] if lines else ""


def load_judgment(path, graph: CausalGraph | None) -> Judgment:
    line = _read_single_line(path)
    if not line:
        raise InputError(f"{path}: no judgment found")
    return parse_judgment(line, graph)


def load_context(path, graph: CausalGraph | None) -> Context:
    """Read a context file; an empty file denotes the empty context."""
    return parse_context(_read_single_line(path), graph)
