"""Literal normalization for parameterized plan caching.

Two queries that differ only in the constants of their column–literal
comparisons (``emp.v <= 40`` vs. ``emp.v <= 45``) almost always deserve
the same plan: the optimizer's choice depends on the predicate's
*selectivity*, not its constant.  This module canonicalizes such queries
to a shared **template** in which every column–literal comparison holds
a :class:`~repro.dynamic.Parameter` placeholder instead of the literal,
plus the literal values to re-bind and a **selectivity bucket key** that
captures how selective each replaced comparison is.

The :class:`~repro.service.OptimizerService` caches plans under
``(template, bucket key)``: queries with differing literals share one
cache entry exactly when each replaced comparison lands in the same
selectivity bucket — equality predicates always do (System R estimates
``1/distinct`` regardless of the constant), range predicates do when
their constants cut the column's value range at nearby fractions.

Parameter names are assigned in pre-order traversal of the expression,
so structurally identical queries produce byte-identical templates.
Structurally *equal* comparisons occurring in several places (a
predicate duplicated by pushdown, say) share one parameter, which keeps
the original → parameterized mapping unambiguous and makes
:func:`parameterize_plan` + :func:`~repro.dynamic.bind_plan` an exact
round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Literal,
    Negation,
    Predicate,
)
from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.catalog.selectivity import SelectivityEstimator
from repro.dynamic import Parameter, bind_plan

__all__ = [
    "NormalizedQuery",
    "normalize_literals",
    "parameterize_plan",
    "bind_expression",
    "selectivity_bucket",
]


@dataclass(frozen=True)
class NormalizedQuery:
    """A query split into its parameterized template and its constants.

    ``template``
        The logical expression with every column–literal comparison
        parameterized.  Queries differing only in those literals share a
        template.
    ``bucket_key``
        One ``(parameter, op, bucket)`` triple per parameter, in
        parameter order.  Part of the cache key: two normalized queries
        are plan-compatible when their templates *and* bucket keys match.
    ``bindings``
        Parameter name → the original literal value, for re-binding a
        cached template plan to this query's constants.
    ``replacements``
        Original comparison → its parameterized form, for translating a
        freshly optimized plan into a cacheable template
        (:func:`parameterize_plan`).
    """

    template: LogicalExpression
    bucket_key: Tuple[Tuple[str, str, int], ...]
    bindings: Mapping[str, object] = field(hash=False)
    replacements: Mapping[Comparison, Comparison] = field(hash=False)

    @property
    def is_parameterized(self) -> bool:
        """Whether any literal was lifted into a parameter."""
        return bool(self.bindings)

    def bind(self, plan: PhysicalPlan) -> PhysicalPlan:
        """Substitute this query's literals into a template plan."""
        return bind_plan(plan, self.bindings)


def _column_stats(catalog: Union[Catalog, CatalogSnapshot]) -> Dict[str, object]:
    """All column statistics in the catalog, keyed by qualified name."""
    stats: Dict[str, object] = {}
    for entry in catalog.tables():
        stats.update(entry.statistics.columns)
    return stats


def selectivity_bucket(selectivity: float, buckets: int) -> int:
    """Map a selectivity in [0, 1] to one of ``buckets`` equal bins.

    The shared bucketing scheme: plan-cache keys (here) and the
    execution-feedback store (:mod:`repro.feedback`) both bin predicates
    with this function, so feedback aggregates align with the cache's
    notion of plan-compatible selectivities.
    """
    return min(buckets - 1, int(selectivity * buckets))


_bucket = selectivity_bucket

# The rewrites below are module-level functions that take their state as
# arguments: a nested function that calls itself is a function <-> cell
# cycle, left on every call for the cyclic collector to find.


def _map_comparisons(
    predicate: Predicate, rewrite: Callable[[Comparison], Predicate]
) -> Predicate:
    """``predicate`` with ``rewrite`` applied to every comparison in it."""
    if isinstance(predicate, Comparison):
        return rewrite(predicate)
    if isinstance(predicate, Conjunction):
        return Conjunction(tuple(_map_comparisons(p, rewrite) for p in predicate.parts))
    if isinstance(predicate, Disjunction):
        return Disjunction(tuple(_map_comparisons(p, rewrite) for p in predicate.parts))
    if isinstance(predicate, Negation):
        return Negation(_map_comparisons(predicate.part, rewrite))
    return predicate


def _rewrite_expression(
    node: LogicalExpression, rewrite: Callable[[Comparison], Predicate]
) -> LogicalExpression:
    """``node`` with ``rewrite`` applied to every comparison in its tree."""
    args = tuple(
        _map_comparisons(arg, rewrite) if isinstance(arg, Predicate) else arg
        for arg in node.args
    )
    inputs = tuple(_rewrite_expression(child, rewrite) for child in node.inputs)
    return LogicalExpression(node.operator, args, inputs)


def normalize_literals(
    query: LogicalExpression,
    catalog: Union[Catalog, CatalogSnapshot],
    buckets: int = 10,
    estimator: Optional[SelectivityEstimator] = None,
) -> NormalizedQuery:
    """Replace column–literal comparisons with parameters, bucketed.

    Every comparison of a column against a :class:`Literal` becomes a
    comparison against a fresh :class:`~repro.dynamic.Parameter`
    (``?p0``, ``?p1``, … in pre-order); its selectivity — estimated from
    the catalog's statistics with the System R rules — is quantized into
    ``buckets`` bins to form the bucket key.  Queries with no such
    comparisons normalize to themselves with an empty key.
    """
    estimator = estimator or SelectivityEstimator()
    column_stats = _column_stats(catalog)
    bindings: Dict[str, object] = {}
    replacements: Dict[Comparison, Comparison] = {}
    key: list = []

    def parameterize(comparison: Comparison) -> Comparison:
        if comparison.column_literal() is None:
            return comparison
        if comparison in replacements:
            return replacements[comparison]
        name = f"p{len(bindings)}"
        parameter = Parameter(name)
        if isinstance(comparison.right, Literal):
            value = comparison.right.value
            replaced = Comparison(comparison.op, comparison.left, parameter)
        else:
            value = comparison.left.value
            replaced = Comparison(comparison.op, parameter, comparison.right)
        selectivity = estimator.estimate(comparison, column_stats)
        bindings[name] = value
        replacements[comparison] = replaced
        key.append((name, comparison.op.value, _bucket(selectivity, buckets)))
        return replaced

    template = _rewrite_expression(query, parameterize)
    return NormalizedQuery(
        template=template,
        bucket_key=tuple(key),
        bindings=bindings,
        replacements=replacements,
    )


def parameterize_plan(
    plan: PhysicalPlan, replacements: Mapping[Comparison, Comparison]
) -> PhysicalPlan:
    """Rewrite a plan's predicates into template (parameterized) form.

    ``replacements`` is the original → parameterized comparison mapping
    of the :class:`NormalizedQuery` whose optimization produced ``plan``.
    Binding the result with the query's literals is an exact round trip:
    ``bind_plan(parameterize_plan(plan, r), bindings) == plan``.
    """
    args = tuple(
        _map_comparisons(arg, lambda c: replacements.get(c, c))
        if isinstance(arg, Predicate)
        else arg
        for arg in plan.args
    )
    return PhysicalPlan(
        plan.algorithm,
        args,
        tuple(parameterize_plan(child, replacements) for child in plan.inputs),
        properties=plan.properties,
        cost=plan.cost,
        is_enforcer=plan.is_enforcer,
        logical=plan.logical,
        local=plan.local,
        rule=plan.rule,
        required=plan.required,
    )


def bind_expression(
    template: LogicalExpression, values: Mapping[str, object]
) -> LogicalExpression:
    """Substitute literal ``values`` into a parameterized template.

    The logical-expression counterpart of
    :func:`~repro.dynamic.bind_plan`: every
    :class:`~repro.dynamic.Parameter` named in ``values`` becomes the
    given :class:`~repro.algebra.predicates.Literal` constant.  The
    server's prepared-statement ``bind`` endpoint uses it to turn a
    stored template back into a concrete query, which then resolves
    through the ordinary parameterized plan cache.  A parameter missing
    from ``values`` raises :class:`~repro.errors.PredicateError`.
    """
    from repro.dynamic import bind_predicate

    return _rewrite_expression(template, lambda c: bind_predicate(c, values))
