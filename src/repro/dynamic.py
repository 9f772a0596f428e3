"""Dynamic plans for incompletely specified queries.

One of the paper's five requirements (Section 1): the optimizer
generator "had to support flexible cost models that permit generating
dynamic plans for incompletely specified queries" — queries with
run-time parameters whose selectivities are unknown at optimization
time (the line of work Graefe & Cole later published as *Optimization of
Dynamic Query Evaluation Plans*).

The implementation here:

* :class:`Parameter` — a placeholder scalar usable inside predicates
  (``v <= ?p``); its selectivity is unknowable at optimization time.
* :class:`AssumedSelectivityEstimator` — a cost-model variant (the
  "flexible cost model") that prices parameterized predicates at an
  *assumed* selectivity.
* :func:`optimize_dynamic` — optimizes the query once per assumed
  selectivity bucket, deduplicates structurally identical plans, and
  packages the survivors with their validity ranges into a
  :class:`DynamicPlan`.
* :class:`DynamicPlan` — the choose-plan operator: at bind time it
  estimates the actual selectivity from the catalog statistics, picks
  the plan optimized for the nearest assumption, substitutes the
  parameter values, and (optionally) executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import (
    Comparison,
    Conjunction,
    Disjunction,
    Literal,
    Negation,
    Predicate,
    Scalar,
)
from repro.algebra.properties import PhysProps
from repro.catalog.catalog import Catalog
from repro.catalog.selectivity import SelectivityDefaults, SelectivityEstimator
from repro.errors import PredicateError, ReproError
from repro.model.spec import ModelSpecification
from repro.search.engine import SearchOptions, VolcanoOptimizer

__all__ = [
    "Parameter",
    "AssumedSelectivityEstimator",
    "DynamicAlternative",
    "DynamicPlan",
    "optimize_dynamic",
]


@dataclass(frozen=True)
class Parameter(Scalar):
    """A run-time parameter placeholder inside a predicate."""

    name: str

    def columns(self):
        """Parameters reference no columns."""
        return frozenset()

    def evaluate(self, row):
        """Unbound parameters cannot be evaluated."""
        raise PredicateError(
            f"parameter ?{self.name} must be bound before evaluation"
        )

    def __str__(self) -> str:
        return f"?{self.name}"


def _predicate_parameters(predicate: Predicate) -> frozenset:
    names = set()
    stack = [predicate]  # explicit stack: no self-recursive closure
    while stack:
        node = stack.pop()
        if isinstance(node, Comparison):
            for side in (node.left, node.right):
                if isinstance(side, Parameter):
                    names.add(side.name)
        elif isinstance(node, (Conjunction, Disjunction)):
            stack.extend(node.parts)
        elif isinstance(node, Negation):
            stack.append(node.part)
    return frozenset(names)


def bind_predicate(predicate: Predicate, values: Mapping[str, object]) -> Predicate:
    """Replace every :class:`Parameter` with a literal from ``values``."""

    def bind_scalar(scalar):
        if isinstance(scalar, Parameter):
            if scalar.name not in values:
                raise PredicateError(f"no value bound for ?{scalar.name}")
            return Literal(values[scalar.name])
        return scalar

    if isinstance(predicate, Comparison):
        return Comparison(
            predicate.op, bind_scalar(predicate.left), bind_scalar(predicate.right)
        )
    if isinstance(predicate, Conjunction):
        return Conjunction(
            tuple(bind_predicate(part, values) for part in predicate.parts)
        )
    if isinstance(predicate, Disjunction):
        return Disjunction(
            tuple(bind_predicate(part, values) for part in predicate.parts)
        )
    if isinstance(predicate, Negation):
        return Negation(bind_predicate(predicate.part, values))
    return predicate


def bind_plan(plan: PhysicalPlan, values: Mapping[str, object]) -> PhysicalPlan:
    """Substitute parameters throughout a plan's predicate arguments."""
    new_args = tuple(
        bind_predicate(arg, values) if isinstance(arg, Predicate) else arg
        for arg in plan.args
    )
    return PhysicalPlan(
        plan.algorithm,
        new_args,
        tuple(bind_plan(child, values) for child in plan.inputs),
        properties=plan.properties,
        cost=plan.cost,
        is_enforcer=plan.is_enforcer,
        logical=plan.logical,
        local=plan.local,
        rule=plan.rule,
        required=plan.required,
    )


class AssumedSelectivityEstimator(SelectivityEstimator):
    """Selectivity estimation under an assumed parameter selectivity.

    Any comparison involving a :class:`Parameter` estimates to
    ``assumption`` instead of consulting statistics — the knob the
    optimizer turns to produce one plan per selectivity regime.
    """

    def __init__(
        self,
        assumption: float,
        defaults: Optional[SelectivityDefaults] = None,
    ):
        super().__init__(defaults)
        self.assumption = assumption

    def _estimate_comparison(self, comparison, column_stats):
        if isinstance(comparison.left, Parameter) or isinstance(
            comparison.right, Parameter
        ):
            return self.assumption
        return super()._estimate_comparison(comparison, column_stats)


@dataclass
class DynamicAlternative:
    """One compiled alternative with its assumed-selectivity range."""

    plan: PhysicalPlan
    assumed: List[float]          # the bucket(s) this plan won
    estimated_cost: float         # at its first bucket


@dataclass
class DynamicPlan:
    """The choose-plan operator: alternatives plus the bind-time switch."""

    query: LogicalExpression
    required: PhysProps
    alternatives: List[DynamicAlternative]
    parameters: Tuple[str, ...]

    def pick(
        self, catalog: Catalog, values: Mapping[str, object]
    ) -> Tuple[PhysicalPlan, float]:
        """Choose the alternative for the bound parameter values.

        Estimates the true selectivity of every parameterized predicate
        from catalog statistics with the values substituted, then picks
        the alternative whose assumed bucket is nearest (log-scale).
        """
        import math

        actual = self._actual_selectivity(catalog, values)
        best = None
        best_distance = None
        for alternative in self.alternatives:
            for assumed in alternative.assumed:
                distance = abs(
                    math.log(max(assumed, 1e-6)) - math.log(max(actual, 1e-6))
                )
                if best_distance is None or distance < best_distance:
                    best, best_distance = alternative, distance
        plan = bind_plan(best.plan, values)
        return plan, actual

    def execute(self, catalog: Catalog, values: Mapping[str, object], stats=None):
        """Pick, bind, and run the plan; returns the result rows."""
        from repro.executor import execute_plan

        plan, _ = self.pick(catalog, values)
        return execute_plan(plan, catalog, stats)

    def _actual_selectivity(self, catalog, values) -> float:
        estimator = SelectivityEstimator()
        product = 1.0
        found = False
        for node in self.query.walk():
            for arg in node.args:
                if not isinstance(arg, Predicate):
                    continue
                if not _predicate_parameters(arg):
                    continue
                bound = bind_predicate(arg, values)
                stats = self._stats_for(catalog, node)
                product *= estimator.estimate(bound, stats)
                found = True
        return product if found else 1.0

    def _stats_for(self, catalog, node) -> Dict:
        tables = [
            inner.args[0]
            for inner in node.walk()
            if inner.operator == "get" and inner.args[0] in catalog
        ]
        stats = {}
        for table in tables:
            stats.update(catalog.table(table).statistics.columns)
        return stats

    def describe(self) -> str:
        """Human-readable summary of the alternatives and their buckets."""
        lines = [
            f"dynamic plan over parameters ({', '.join('?' + p for p in self.parameters)}), "
            f"{len(self.alternatives)} alternative(s):"
        ]
        for index, alternative in enumerate(self.alternatives):
            buckets = ", ".join(f"{value:g}" for value in alternative.assumed)
            lines.append(
                f"  [{index}] assumed selectivity {{{buckets}}} — "
                f"cost {alternative.estimated_cost:.1f}"
            )
            lines.append(
                "\n".join(
                    "      " + line
                    for line in alternative.plan.pretty(with_cost=False).splitlines()
                )
            )
        return "\n".join(lines)


DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0)


def optimize_dynamic(
    spec: ModelSpecification,
    catalog: Catalog,
    query: LogicalExpression,
    required: Optional[PhysProps] = None,
    buckets: Sequence[float] = DEFAULT_BUCKETS,
    options: Optional[SearchOptions] = None,
) -> DynamicPlan:
    """Produce a dynamic plan for a parameterized query.

    Optimizes once per assumed selectivity in ``buckets``; structurally
    identical winners are merged, so the result usually holds only the
    two or three genuinely different strategies.
    """
    parameters = set()
    for node in query.walk():
        for arg in node.args:
            if isinstance(arg, Predicate):
                parameters |= _predicate_parameters(arg)
    if not parameters:
        raise ReproError(
            "query has no parameters; use a plain optimizer for fully "
            "specified queries"
        )
    required = required if required is not None else spec.any_props
    alternatives: List[DynamicAlternative] = []
    by_shape: Dict[str, DynamicAlternative] = {}
    for assumption in buckets:
        estimator = AssumedSelectivityEstimator(assumption)
        optimizer = VolcanoOptimizer(
            spec, catalog, options or SearchOptions(), estimator=estimator
        )
        result = optimizer.optimize(query, required)
        shape = result.plan.to_sexpr()
        existing = by_shape.get(shape)
        if existing is not None:
            existing.assumed.append(assumption)
            continue
        alternative = DynamicAlternative(
            plan=result.plan,
            assumed=[assumption],
            estimated_cost=result.cost.total(),
        )
        by_shape[shape] = alternative
        alternatives.append(alternative)
    return DynamicPlan(
        query=query,
        required=required,
        alternatives=alternatives,
        parameters=tuple(sorted(parameters)),
    )
