"""A System R-style bottom-up dynamic programming optimizer.

The paper repeatedly situates Volcano against the classic bottom-up DP of
System R (its reference [15]) and Starburst: "Dynamic programming has
been used before in database query optimization, in particular in the
System R optimizer and in Starburst's cost-based optimizer, but only for
relational select-project-join queries."

This baseline is that algorithm: enumerate relation subsets by size,
keep the best plan per (subset, interesting order), and combine subsets
with join algorithms — forward (by possibilities), not goal-directed.
It shares the relational model's cost and property functions, so its
optimal costs must agree with Volcano's (DESIGN.md invariant 6); the
benchmarks compare the *work* each strategy performs.

Like System R, it supports left-deep-only enumeration (composite inners
excluded) and, like Starburst's cost-based optimizer, optionally bushy
trees.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import Predicate, conjunction_of
from repro.algebra.properties import ANY_PROPS, LogicalProperties, PhysProps
from repro.catalog.catalog import Catalog
from repro.errors import (
    BudgetExceededError,
    OptimizationFailedError,
    ReproError,
    SearchError,
)
from repro.model.context import OptimizerContext
from repro.model.cost import Cost
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.options import BudgetMeter, BudgetTripped, OptionsBase, ResourceBudget
from repro.search.engine import OptimizationResult

__all__ = ["SystemROptions", "SystemRStats", "SystemRResult", "SystemROptimizer", "decompose_join_query"]


@dataclass(frozen=True, kw_only=True)
class SystemROptions(OptionsBase):
    """Enumeration policy.

    ``bushy``
        When False (the System R default), only left-deep trees are
        enumerated ("no composite inner"); when True, all bushy trees
        (the Starburst extension the paper mentions).
    ``allow_cross_products``
        Consider predicate-less subset combinations (System R avoided
        Cartesian products unless unavoidable; we reject them outright).
    ``budget``
        A :class:`~repro.options.ResourceBudget` bounding the
        enumeration (deadline, costings, rule firings).  Bottom-up DP
        has no complete plan until the final level, so there is no
        anytime degradation here: a trip raises
        :class:`~repro.errors.BudgetExceededError` with partial stats.
    """

    bushy: bool = False
    allow_cross_products: bool = False
    budget: Optional[ResourceBudget] = None


@dataclass
class SystemRStats:
    """Work counters of one bottom-up enumeration."""

    subsets_considered: int = 0
    joins_costed: int = 0
    entries_kept: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SystemRResult(OptimizationResult):
    """A bottom-up enumeration outcome; ``stats`` holds :class:`SystemRStats`."""


def decompose_join_query(
    query: LogicalExpression,
) -> Tuple[List[LogicalExpression], List[Predicate]]:
    """Split a join tree into per-relation leaf expressions and conjuncts.

    A *leaf* is any non-join subtree (get, select over get, …).  Join
    predicates are flattened into their conjuncts.
    """
    leaves: List[LogicalExpression] = []
    conjuncts: List[Predicate] = []

    stack = [query]  # pre-order, left input first
    while stack:
        node = stack.pop()
        if node.operator == "join":
            conjuncts.extend(node.args[0].conjuncts())
            stack.append(node.inputs[1])
            stack.append(node.inputs[0])
        else:
            leaves.append(node)
    return leaves, conjuncts


@dataclass
class _Entry:
    """Best plan for a (subset, delivered order) combination."""

    plan: PhysicalPlan
    cost: Cost


class SystemROptimizer:
    """Bottom-up DP with interesting orders over the relational model."""

    def __init__(
        self,
        spec: ModelSpecification,
        catalog: Catalog,
        options: Optional[SystemROptions] = None,
    ):
        spec.validate()
        if "join" not in spec.operators:
            raise SearchError("the System R enumerator requires a join operator")
        self.spec = spec
        self.catalog = catalog
        self.options = options or SystemROptions()

    # ------------------------------------------------------------------

    def optimize(
        self,
        query: LogicalExpression,
        props: Optional[PhysProps] = None,
        *,
        options: Optional[SystemROptions] = None,
    ) -> SystemRResult:
        """Bottom-up DP over the query's relations; returns the best plan.

        Conforms to the :class:`~repro.search.Optimizer` protocol:
        ``options`` overrides this instance's :class:`SystemROptions`
        for one call.
        """
        return self._optimize(
            query, props, options if options is not None else self.options
        )

    def _optimize(
        self,
        query: LogicalExpression,
        required: Optional[PhysProps],
        options: SystemROptions,
    ) -> SystemRResult:
        required = required if required is not None else ANY_PROPS
        started = time.perf_counter()
        stats = SystemRStats()
        meter = BudgetMeter(options.budget)
        try:
            context = OptimizerContext(self.spec, self.catalog)
            leaves, conjuncts = decompose_join_query(query)
            if not leaves:
                raise OptimizationFailedError("query has no relations")
            columns = [
                frozenset(context.logical_props(leaf).column_names) for leaf in leaves
            ]

            # Logical properties per subset, derived once.
            props: Dict[FrozenSet[int], LogicalProperties] = {}
            # DP table: subset -> delivered sort order -> best entry.
            table: Dict[FrozenSet[int], Dict[Tuple, _Entry]] = {}

            for index, leaf in enumerate(leaves):
                subset = frozenset((index,))
                props[subset] = context.logical_props(leaf)
                table[subset] = {}
                self._add_entry(
                    table[subset], self._leaf_plan(context, leaf, props[subset]), stats
                )

            all_indices = frozenset(range(len(leaves)))
            try:
                for size in range(2, len(leaves) + 1):
                    for subset_tuple in itertools.combinations(
                        sorted(all_indices), size
                    ):
                        meter.check("enumeration")
                        subset = frozenset(subset_tuple)
                        entries: Dict[Tuple, _Entry] = {}
                        stats.subsets_considered += 1
                        for left, right, predicate in self._splits(
                            subset, columns, conjuncts, options
                        ):
                            if left not in table or right not in table:
                                continue
                            if subset not in props:
                                props[subset] = context.derive_logical_props(
                                    "join", (predicate,), (props[left], props[right])
                                )
                            self._combine(
                                context,
                                entries,
                                table[left],
                                table[right],
                                predicate,
                                props[subset],
                                props[left],
                                props[right],
                                stats,
                                meter,
                            )
                        if entries:
                            table[subset] = entries
            except BudgetTripped as trip:
                # Bottom-up DP has no complete plan until the last DP
                # level, so there is nothing to degrade to.
                report = meter.report(trip.phase)
                raise BudgetExceededError(
                    f"System R enumeration budget exhausted "
                    f"({report.tripped} during {report.phase}) after "
                    f"{stats.subsets_considered} subsets",
                    report=report,
                    stats=stats,
                ) from None
            final = table.get(all_indices)
            if not final:
                raise OptimizationFailedError(
                    "no connected join order found (cross products disabled)"
                )
            best = self._pick_final(context, final, props[all_indices], required)
            return SystemRResult(
                plan=best.plan,
                cost=best.cost,
                required=required,
                stats=stats,
                catalog=context.catalog,
            )
        except ReproError as error:
            if getattr(error, "stats", None) is None:
                error.stats = stats
            raise
        finally:
            stats.elapsed_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------

    def _splits(self, subset, columns, conjuncts, options):
        """(left, right, predicate) decompositions of a subset."""
        members = sorted(subset)
        for size in range(1, len(members)):
            for left_tuple in itertools.combinations(members, size):
                left = frozenset(left_tuple)
                right = subset - left
                if not options.bushy and len(left) > 1 and len(right) > 1:
                    continue  # left-deep: one side must be a single relation
                predicate = self._predicate_between(left, right, columns, conjuncts)
                if predicate is None and not self.options.allow_cross_products:
                    continue
                yield left, right, predicate if predicate is not None else conjunction_of([])

    def _predicate_between(self, left, right, columns, conjuncts):
        left_columns = frozenset().union(*(columns[i] for i in left))
        right_columns = frozenset().union(*(columns[i] for i in right))
        combined = left_columns | right_columns
        applicable = [
            conjunct
            for conjunct in conjuncts
            if conjunct.columns() <= combined
            and not conjunct.columns() <= left_columns
            and not conjunct.columns() <= right_columns
        ]
        if not applicable:
            return None
        return conjunction_of(applicable)

    def _leaf_plan(self, context, leaf, leaf_props) -> PhysicalPlan:
        """Cheapest access path for one relation's subquery."""
        # Reuse the Volcano engine on the single leaf: exact and simple.
        from repro.search.engine import VolcanoOptimizer

        result = VolcanoOptimizer(self.spec, context.catalog).optimize(leaf)
        return result.plan

    def _combine(
        self,
        context,
        entries,
        left_entries,
        right_entries,
        predicate,
        output_props,
        left_props,
        right_props,
        stats,
        meter,
    ) -> None:
        node = AlgorithmNode((predicate,), output_props, (left_props, right_props))
        for name in ("hybrid_hash_join", "merge_join", "nested_loops_join"):
            if name not in self.spec.algorithms:
                continue
            algorithm = self.spec.algorithm(name)
            alternatives = algorithm.applicability(context, node, ANY_PROPS) or []
            for requirements in alternatives:
                local = algorithm.cost(context, node)
                for left_entry in left_entries.values():
                    left_plan = self._satisfy(
                        context, left_entry, requirements[0], left_props
                    )
                    if left_plan is None:
                        continue
                    for right_entry in right_entries.values():
                        right_plan = self._satisfy(
                            context, right_entry, requirements[1], right_props
                        )
                        if right_plan is None:
                            continue
                        stats.joins_costed += 1
                        meter.charge_costing()
                        total = local + left_plan.cost + right_plan.cost
                        delivered = algorithm.derive_props(
                            context,
                            node,
                            (left_plan.properties, right_plan.properties),
                        )
                        plan = PhysicalPlan(
                            name,
                            (predicate,),
                            (left_plan, right_plan),
                            properties=delivered,
                            cost=total,
                            logical=output_props,
                            local=local,
                        )
                        self._add_entry(entries, plan, stats)

    def _satisfy(self, context, entry, requirement, input_props):
        """Make an entry satisfy an input requirement, sorting if needed."""
        if entry.plan.properties.covers(requirement):
            return entry.plan
        if not requirement.sort_order:
            return entry.plan if requirement.is_any else None
        enforcer = self.spec.enforcers.get("sort")
        if enforcer is None:
            return None
        applications = enforcer.enforce(context, requirement, input_props)
        if not applications:
            return None
        application = applications[0]
        node = AlgorithmNode(application.args, input_props, (input_props,))
        cost = enforcer.cost(context, node)
        return PhysicalPlan(
            "sort",
            application.args,
            (entry.plan,),
            properties=application.delivered,
            cost=entry.plan.cost + cost,
            is_enforcer=True,
            logical=input_props,
            local=cost,
        )

    def _add_entry(self, entries: Dict[Tuple, _Entry], plan: PhysicalPlan, stats) -> None:
        """Keep the best plan per delivered order, pruning dominated ones."""
        key = plan.properties.sort_order
        existing = entries.get(key)
        if existing is not None and existing.cost <= plan.cost:
            return
        # Dominance: a cheaper plan whose order covers this key also wins.
        for other_key, other in entries.items():
            if other.cost <= plan.cost and PhysProps(sort_order=other_key).covers(
                PhysProps(sort_order=key)
            ):
                return
        entries[key] = _Entry(plan, plan.cost)
        stats.entries_kept += 1
        # Remove entries this one dominates.
        dominated = [
            other_key
            for other_key, other in entries.items()
            if other_key != key
            and plan.cost <= other.cost
            and plan.properties.covers(PhysProps(sort_order=other_key))
        ]
        for other_key in dominated:
            del entries[other_key]

    def _pick_final(self, context, entries, output_props, required) -> _Entry:
        best: Optional[_Entry] = None
        for entry in entries.values():
            plan = self._satisfy(context, entry, required, output_props)
            if plan is None:
                continue
            if best is None or plan.cost < best.cost:
                best = _Entry(plan, plan.cost)
        if best is None:
            raise OptimizationFailedError(
                f"no plan delivers the required properties [{required}]"
            )
        return best
