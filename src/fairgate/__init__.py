"""Causal-graph fairness auditing with exact rational arithmetic.

The package derives cause and path relations over a DAG, decides when a
probability judgment may be weakened with a new attribute, checks
individual and intersectional fairness graphically and against datasets,
and cross-validates its rule engine with an independent d-separation
oracle.  Import names from the module that defines them
(``fairgate.graph``, ``fairgate.closure``, ...); the package root
exports only ``__version__``.
"""

__version__ = "0.1.0"
