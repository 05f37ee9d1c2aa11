"""Condition 2 restated on frozensets of names, the reference for the closure's mask test.

``Closure.audit`` decides and words a fact's block, and the agreement sweep
decides it, from its int node masks; ``blocking_reason`` reads the named
``PathFact`` alone, so the tests compare the two rather than the masks
with themselves.
Only the engine's public names are imported.
"""

from __future__ import annotations

from fairgate.closure import BlockReason, PathFact


def blocking_reason(fact: PathFact, conditioning) -> BlockReason | None:
    """The deterministic reason a fact is blocked, or None when it transmits.

    Of several unmet collider sets, the least by sorted node names is reported.
    """
    cond = frozenset(conditioning)
    hit = fact.noncolliders & cond
    if hit:
        return BlockReason("noncollider", frozenset(hit))
    unmet = [s for s in fact.collider_sets if not (s & cond)]
    if unmet:
        return BlockReason("collider-set", min(unmet, key=sorted))
    return None
