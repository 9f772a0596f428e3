"""The EXODUS optimizer generator baseline: forward chaining over MESH.

This is the comparison system of the paper's Section 4, rebuilt from its
description so Figure 4 can be regenerated.  It consumes the *same model
specification* as the Volcano engine (operators, rules, cost and property
functions) but searches the way the EXODUS prototype did:

* **Forward chaining.**  All applicable transformations are kept in a
  queue ordered by *expected cost improvement* = rule factor × current
  total cost of the node — "worst of all for optimizer performance […]
  nodes at the top of the expression (with high total cost) were
  preferred over lower expressions".
* **Transformation then immediate cost analysis.**  "In EXODUS, a
  transformation is always followed immediately by algorithm selection
  and cost analysis."
* **Consumer reanalysis.**  When a node's best plan changes, every
  consumer above is reanalyzed — "all consumer nodes above (of which
  there were many at this time) had to be reanalyzed creating an
  extremely large number of MESH nodes".
* **Haphazard physical properties.**  There are no property-driven
  goals: each node greedily keeps the cheapest algorithm given what its
  children *happen* to deliver; when merge join's inputs do not happen to
  be sorted, the sort cost is folded into merge join's own cost ("the
  cost of enforcers had to be included in the cost function of other
  algorithms").  Deliberately producing a sorted (locally pricier) child
  so a parent can merge-join cheaply is out of reach — the root cause of
  the plan-quality gap in Figure 4.
* **Memory aborts.**  A node budget models "the EXODUS optimizer
  generator aborted due to lack of memory" for complex queries.

Like the Volcano engine, this baseline is reentrant (per-run state lives
in a run object, not on the engine) and budget-governed: a
:class:`~repro.options.ResourceBudget` on :class:`ExodusOptions` bounds
the forward-chaining loop, and under ``best_effort`` a budget trip is
just another abort reason — the best plan found so far comes back with
``degraded=True`` and a :class:`~repro.options.BudgetReport`.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.algebra.expressions import GROUP_LEAF, LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import ANY_PROPS, PhysProps
from repro.catalog.catalog import Catalog
from repro.catalog.selectivity import SelectivityEstimator
from repro.errors import (
    BudgetExceededError,
    MemoryLimitExceededError,
    OptimizationFailedError,
    ReproError,
)
from repro.exodus.mesh import Mesh, MeshNode, MeshStats, PhysicalChoice
from repro.model.context import OptimizerContext
from repro.model.cost import Cost
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.options import (
    BudgetMeter,
    BudgetTripped,
    OptionsBase,
    ResourceBudget,
    check_positive,
)
from repro.search.engine import OptimizationResult

__all__ = ["ExodusOptions", "ExodusResult", "ExodusOptimizer"]


@dataclass(frozen=True, kw_only=True)
class ExodusOptions(OptionsBase):
    """Budgets and policies of the EXODUS baseline.

    ``node_budget``
        MESH node limit; exceeding it aborts the optimization the way the
        real prototype ran out of memory.
    ``transformation_budget``
        Optional cap on rule applications (models "was aborted because it
        ran much longer").
    ``budget``
        A :class:`~repro.options.ResourceBudget` bounding the
        forward-chaining loop (deadline, costings, rule firings); under
        ``best_effort`` a trip aborts gracefully with ``degraded=True``.
    ``best_effort``
        When True (default), an abort returns the best plan found so far
        with ``aborted=True``; when False, the abort raises
        :class:`MemoryLimitExceededError` (or
        :class:`~repro.errors.BudgetExceededError` for budget trips).
    """

    node_budget: Optional[int] = 20_000
    transformation_budget: Optional[int] = None
    budget: Optional[ResourceBudget] = None
    best_effort: bool = True

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("node_budget", self.node_budget)
        check_positive("transformation_budget", self.transformation_budget)


@dataclass
class ExodusResult(OptimizationResult):
    """Outcome of one EXODUS optimization.

    A plain :class:`~repro.search.OptimizationResult` (``stats`` holds
    :class:`MeshStats`; there is no memo) extended with the prototype's
    abort reporting.  A budget trip under ``best_effort`` sets both
    ``aborted`` and ``degraded`` (with ``budget_report``).
    """

    aborted: bool = False
    abort_reason: Optional[str] = None

    def __str__(self) -> str:
        status = f" (ABORTED: {self.abort_reason})" if self.aborted else ""
        return f"plan cost {self.cost}{status}\n{self.plan.pretty()}"


class _ExodusRun:
    """All per-run state of one EXODUS ``optimize()`` call."""

    __slots__ = ("options", "mesh", "context", "queue", "counter", "applied", "meter")

    def __init__(
        self,
        options: ExodusOptions,
        mesh: Mesh,
        context: OptimizerContext,
        meter: BudgetMeter,
    ):
        self.options = options
        self.mesh = mesh
        self.context = context
        self.queue: List = []
        self.counter = 0
        self.applied: Set = set()
        self.meter = meter


class ExodusOptimizer:
    """An optimizer with the EXODUS prototype's search behaviour."""

    def __init__(
        self,
        spec: ModelSpecification,
        catalog: Catalog,
        options: Optional[ExodusOptions] = None,
        estimator: Optional[SelectivityEstimator] = None,
    ):
        spec.validate()
        self.spec = spec
        self.catalog = catalog
        self.options = options or ExodusOptions()
        self.estimator = estimator
        self._transformations = {}
        for rule in spec.transformations:
            self._transformations.setdefault(rule.top_operator, []).append(rule)
        self._implementations = {}
        for rule in spec.implementations:
            self._implementations.setdefault(rule.top_operator, []).append(rule)

    # ------------------------------------------------------------------

    def optimize(
        self,
        query: LogicalExpression,
        props: Optional[PhysProps] = None,
        *,
        options: Optional[ExodusOptions] = None,
    ) -> ExodusResult:
        """Optimize ``query``; ``props`` properties are glued on at the
        end (EXODUS had no property-driven search: "the ability to
        specify required physical properties and let these properties
        drive the optimization process was entirely absent").

        Conforms to the :class:`~repro.search.Optimizer` protocol:
        ``options`` overrides this instance's :class:`ExodusOptions` for
        one call.
        """
        return self._optimize(query, props, options if options is not None else self.options)

    def _optimize(
        self,
        query: LogicalExpression,
        required: Optional[PhysProps],
        options: ExodusOptions,
    ) -> ExodusResult:
        required = required if required is not None else self.spec.any_props
        started = time.perf_counter()
        stats = MeshStats()
        context = OptimizerContext(self.spec, self.catalog, self.estimator)
        mesh = Mesh(stats, node_budget=options.node_budget)
        context.group_props_resolver = lambda node_id: mesh.nodes[node_id].props
        run = _ExodusRun(options, mesh, context, BudgetMeter(options.budget))
        aborted, abort_reason, report = False, None, None
        root = None
        try:
            try:
                root = self._materialize(run, query)
                self._forward_chain(run)
            except MemoryLimitExceededError:
                if not options.best_effort or root is None:
                    raise
                aborted, abort_reason = True, "memory"
            except BudgetTripped as trip:
                report = run.meter.report(trip.phase)
                if not options.best_effort or root is None:
                    raise BudgetExceededError(
                        f"EXODUS optimization budget exhausted "
                        f"({report.tripped} during {report.phase})",
                        report=report,
                        stats=stats,
                    ) from None
                aborted, abort_reason = True, trip.tripped
            if (
                not aborted
                and options.transformation_budget is not None
                and stats.transformations_applied >= options.transformation_budget
            ):
                aborted, abort_reason = True, "transformations"
            try:
                plan = self._extract(run, root.eq, required)
            except RuntimeError as error:  # no analyzed plan at all
                raise OptimizationFailedError(
                    f"EXODUS found no plan: {error}"
                ) from error
            return ExodusResult(
                plan=plan,
                cost=plan.cost,
                required=required,
                stats=stats,
                aborted=aborted,
                abort_reason=abort_reason,
                degraded=report is not None,
                budget_report=report,
                catalog=context.catalog,
            )
        except ReproError as error:
            if getattr(error, "stats", None) is None:
                error.stats = stats
            raise
        finally:
            stats.elapsed_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Construction and analysis
    # ------------------------------------------------------------------

    def _derive_props(self, run: _ExodusRun, operator, args, input_props):
        return run.context.derive_logical_props(operator, args, input_props)

    def _materialize(self, run: _ExodusRun, expression: LogicalExpression) -> MeshNode:
        """Insert a tree, analyzing and queueing every new node bottom-up."""
        mesh = run.mesh
        if expression.operator == GROUP_LEAF:
            return mesh.nodes[expression.args[0]]
        children = tuple(
            self._materialize(run, node).id for node in expression.inputs
        )
        input_props = tuple(mesh.nodes[child].props for child in children)
        props = self._derive_props(
            run, expression.operator, expression.args, input_props
        )
        node, is_new = mesh.intern(
            expression.operator, expression.args, children, props
        )
        if is_new:
            self._analyze(run, node)
            self._enqueue_transformations(run, node)
        return node

    def _eq_members_view(self, run: _ExodusRun, node_id: int):
        """Pattern-matching callback over equivalence-set members."""
        for member in run.mesh.eq_members(run.mesh.nodes[node_id].eq):
            member_node = run.mesh.nodes[member]
            yield member_node.operator, member_node.args, member_node.inputs

    def _match(self, run: _ExodusRun, rule, node: MeshNode):
        from repro.model.patterns import match_memo

        return match_memo(
            rule.pattern,
            node.operator,
            node.args,
            node.inputs,
            lambda node_id: self._eq_members_view(run, node_id),
        )

    def _analyze(self, run: _ExodusRun, node: MeshNode, reanalysis: bool = False) -> bool:
        """Algorithm selection and cost analysis for one node.

        Returns True when the node's best choice changed.  This is where
        EXODUS's property handling lives: children are taken as they
        come, and unmet input orders are priced as embedded sorts.
        """
        context, stats = run.context, run.mesh.stats
        if reanalysis:
            stats.reanalyses += 1
        else:
            stats.analyses += 1
        previous = node.best.total_cost if node.best is not None else None
        node.physical.clear()
        node.best = None
        for rule in self._implementations.get(node.operator, ()):
            for binding in self._match(run, rule, node):
                if not rule.applies(binding, context):
                    continue
                args = (
                    tuple(rule.build_args(binding, context))
                    if rule.build_args is not None
                    else node.args
                )
                input_nodes = tuple(
                    binding[name].args[0] for name in rule.input_names
                )
                self._cost_algorithm(run, node, rule.algorithm, args, input_nodes)
        changed = (
            node.best is not None
            and (previous is None or node.best.total_cost != previous)
        )
        return changed

    def _cost_algorithm(self, run: _ExodusRun, node, algorithm_name, args, input_nodes) -> None:
        """EXODUS-style costing of one (node, algorithm) combination."""
        mesh, context = run.mesh, run.context
        algorithm = self.spec.algorithm(algorithm_name)
        input_props = tuple(mesh.nodes[i].props for i in input_nodes)
        algorithm_node = AlgorithmNode(args, node.props, input_props)
        alternatives = algorithm.applicability(context, algorithm_node, ANY_PROPS)
        if not alternatives:
            return
        for requirements in alternatives:
            run.meter.charge_costing()
            total = algorithm.cost(context, algorithm_node)
            actual_inputs: List[PhysProps] = []
            implicit: List[bool] = []
            feasible = True
            for input_id, requirement in zip(input_nodes, requirements):
                child = mesh.eq_best_node(mesh.nodes[input_id].eq)
                child_choice = child.best
                total = total + child_choice.total_cost
                if child_choice.delivered.covers(requirement):
                    # The child happens to deliver something useful:
                    # "this was recorded in MESH and used".
                    actual_inputs.append(child_choice.delivered)
                    implicit.append(False)
                    continue
                sort_cost = self._implicit_enforcer_cost(run, child, requirement)
                if sort_cost is None:
                    feasible = False
                    break
                total = total + sort_cost
                actual_inputs.append(requirement)
                implicit.append(True)
            if not feasible:
                continue
            delivered = algorithm.derive_props(
                context, algorithm_node, tuple(actual_inputs)
            )
            choice = PhysicalChoice(
                algorithm=algorithm_name,
                args=args,
                local_cost=algorithm.cost(context, algorithm_node),
                total_cost=total,
                delivered=delivered,
                input_nodes=input_nodes,
                input_requirements=tuple(requirements),
                implicit_sorts=tuple(implicit),
            )
            retained = node.physical.get(algorithm_name)
            if retained is None:
                mesh.stats.physical_choices += 1
                node.physical[algorithm_name] = choice
            elif choice.total_cost < retained.total_cost:
                node.physical[algorithm_name] = choice
            if node.best is None or choice.total_cost < node.best.total_cost:
                node.best = choice

    def _implicit_enforcer_cost(
        self, run: _ExodusRun, child: MeshNode, requirement
    ) -> Optional[Cost]:
        """Cost of enforcing ``requirement`` on a child, folded in as EXODUS did."""
        context = run.context
        for name, enforcer in self.spec.enforcers.items():
            for application in self.spec.enforcer_applications(
                name, context, requirement, child.props
            ):
                node = AlgorithmNode(application.args, child.props, (child.props,))
                return enforcer.cost(context, node)
        return None

    # ------------------------------------------------------------------
    # Forward chaining
    # ------------------------------------------------------------------

    def _freeze_binding(self, binding) -> Tuple:
        return tuple(sorted((name, value) for name, value in binding.items()))

    def _enqueue_transformations(self, run: _ExodusRun, node: MeshNode) -> None:
        for rule in self._transformations.get(node.operator, ()):
            for binding in self._match(run, rule, node):
                fingerprint = (rule.name, node.id, self._freeze_binding(binding))
                if fingerprint in run.applied:
                    continue
                improvement = self._expected_improvement(run, rule, node)
                run.counter += 1
                heapq.heappush(
                    run.queue,
                    (-improvement, run.counter, node.id, rule, dict(binding)),
                )
                run.mesh.stats.queue_pushes += 1

    def _expected_improvement(self, run: _ExodusRun, rule, node: MeshNode) -> float:
        """factor × current total cost — the EXODUS move-ordering heuristic."""
        try:
            best = run.mesh.eq_best_node(node.eq).best
        except RuntimeError:
            return rule.factor
        return rule.factor * best.total_cost.total()

    def _forward_chain(self, run: _ExodusRun) -> None:
        mesh, context, stats = run.mesh, run.context, run.mesh.stats
        budget = run.options.transformation_budget
        while run.queue:
            run.meter.check("forward_chaining")
            if budget is not None and stats.transformations_applied >= budget:
                return
            priority, _, node_id, rule, binding = heapq.heappop(run.queue)
            node = mesh.nodes[node_id]
            fingerprint = (rule.name, node_id, self._freeze_binding(binding))
            if fingerprint in run.applied:
                continue
            # Lazy priority maintenance: re-push when the node's cost moved.
            current = -self._expected_improvement(run, rule, node)
            if abs(current - priority) > 1e-9 and run.queue:
                stats.queue_stale_pops += 1
                run.counter += 1
                heapq.heappush(
                    run.queue, (current, run.counter, node_id, rule, binding)
                )
                continue
            run.applied.add(fingerprint)
            if not rule.applies(binding, context):
                continue
            results = rule.rewrite(binding, context)
            if results is None:
                continue
            if isinstance(results, LogicalExpression):
                results = [results]
            stats.transformations_applied += 1
            run.meter.charge_rule_firing()
            for expression in results:
                new_node = self._materialize(run, expression)
                if mesh.eq_root(new_node.eq) != mesh.eq_root(node.eq):
                    merged = mesh.merge_eq(node.eq, new_node.eq)
                    self._propagate_from(run, merged)
                # New class members can enable new nested-pattern matches
                # on every consumer of the class.
                for parent_id in mesh.eq_parents(node.eq):
                    self._enqueue_transformations(run, mesh.nodes[parent_id])
                self._enqueue_transformations(run, new_node)

    def _propagate_from(self, run: _ExodusRun, eq_id: int) -> None:
        """Reanalyze consumers transitively after a class's best changed."""
        mesh = run.mesh
        pending = set(mesh.eq_parents(eq_id))
        seen_rounds = 0
        while pending:
            seen_rounds += 1
            if seen_rounds > 1_000_000:
                raise RuntimeError("reanalysis did not converge")
            parent_id = pending.pop()
            parent = mesh.nodes[parent_id]
            if self._analyze(run, parent, reanalysis=True):
                pending |= mesh.eq_parents(parent.eq)

    # ------------------------------------------------------------------
    # Plan extraction
    # ------------------------------------------------------------------

    def _extract(
        self, run: _ExodusRun, eq_id: int, required: PhysProps = ANY_PROPS
    ) -> PhysicalPlan:
        mesh, context = run.mesh, run.context
        node = mesh.eq_best_node(eq_id)
        choice = node.best
        input_plans = []
        total = choice.local_cost
        actual_inputs: List[PhysProps] = []
        for input_id, requirement in zip(
            choice.input_nodes, choice.input_requirements
        ):
            child_plan = self._extract(run, mesh.nodes[input_id].eq, requirement)
            if not child_plan.properties.covers(requirement):
                child_plan = self._wrap_enforcer(run, child_plan, requirement, input_id)
            total = total + child_plan.cost
            input_plans.append(child_plan)
            actual_inputs.append(child_plan.properties)
        algorithm = self.spec.algorithm(choice.algorithm)
        algorithm_node = AlgorithmNode(
            choice.args,
            node.props,
            tuple(mesh.nodes[i].props for i in choice.input_nodes),
        )
        delivered = algorithm.derive_props(
            context, algorithm_node, tuple(actual_inputs)
        )
        plan = PhysicalPlan(
            choice.algorithm,
            choice.args,
            tuple(input_plans),
            properties=delivered,
            cost=total,
            logical=node.props,
            local=choice.local_cost,
        )
        if not plan.properties.covers(required):
            plan = self._wrap_enforcer(run, plan, required, None, node=node)
        return plan

    def _wrap_enforcer(
        self, run: _ExodusRun, plan: PhysicalPlan, requirement: PhysProps,
        input_id, node=None,
    ) -> PhysicalPlan:
        mesh, context = run.mesh, run.context
        props = (
            mesh.nodes[input_id].props if input_id is not None else node.props
        )
        for enforcer_name, enforcer in self.spec.enforcers.items():
            for application in self.spec.enforcer_applications(
                enforcer_name, context, requirement, props
            ):
                algorithm_node = AlgorithmNode(application.args, props, (props,))
                cost = enforcer.cost(context, algorithm_node)
                return PhysicalPlan(
                    enforcer_name,
                    application.args,
                    (plan,),
                    properties=application.delivered,
                    cost=plan.cost + cost,
                    is_enforcer=True,
                    logical=props,
                    local=cost,
                )
        raise OptimizationFailedError(
            f"no enforcer delivers [{requirement}] for the extracted plan"
        )
