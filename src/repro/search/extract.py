"""Extract alternative plans from a solved memo.

After an optimization run the memo holds not just the winner but the
whole explored space.  These utilities enumerate alternative plans of an
equivalence class — useful for debugging cost models, teaching, and for
tests that check every memoized plan computes the same result.

Enumeration is *logical-space complete* but physically one-level: for
each expression of the class it builds each applicable algorithm over
the recorded per-goal winners of the input classes.  (Enumerating every
combination of sub-alternatives would be exponential; for full
exhaustive costing see ``tests/helpers.BruteForceOracle``.)
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import PhysProps
from repro.model.context import OptimizerContext
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.search.certify import ClaimRecord
from repro.search.engine import OptimizationResult
from repro.search.memo import Memo

__all__ = ["alternative_plans", "count_logical_expressions", "greedy_plan"]


def count_logical_expressions(memo: Memo, root: int) -> int:
    """Number of logical expressions reachable from ``root``.

    The paper observes Volcano's optimization cost "mirrors exactly the
    increase in the number of equivalent logical algebra expressions";
    this is that number.
    """
    return sum(
        len(memo.group(gid).expressions) for gid in memo.reachable(root)
    )


def alternative_plans(
    result: OptimizationResult,
    spec: ModelSpecification,
    catalog,
    required: Optional[PhysProps] = None,
    limit: int = 100,
) -> List[PhysicalPlan]:
    """Alternative plans for the optimized query's root class.

    Returns up to ``limit`` plans (the winner among them), each satisfying
    ``required`` (the result's goal by default), costed consistently with
    the engine.
    """
    memo = result.memo
    required = required if required is not None else result.required
    context = OptimizerContext(spec, catalog)
    context.group_props_resolver = memo.logical_props
    root = _root_group(memo)
    plans: List[PhysicalPlan] = []
    transformations = {}
    for rule in spec.implementations:
        transformations.setdefault(rule.top_operator, []).append(rule)

    group = memo.group(root)
    for mexpr in group.expressions:
        for rule in transformations.get(mexpr.operator, ()):
            for binding in memo.rule_bindings(rule.pattern, mexpr):
                if not rule.applies(binding, context):
                    continue
                args = (
                    tuple(rule.build_args(binding, context))
                    if rule.build_args is not None
                    else mexpr.args
                )
                input_groups = tuple(
                    memo.canonical(binding[name].args[0])
                    for name in rule.input_names
                )
                algorithm = spec.algorithm(rule.algorithm)
                node = AlgorithmNode(
                    args,
                    group.logical_props,
                    tuple(memo.logical_props(gid) for gid in input_groups),
                )
                for requirements in algorithm.applicability(
                    context, node, required
                ) or ():
                    input_plans = []
                    feasible = True
                    total = algorithm.cost(context, node)
                    for input_gid, input_required in zip(
                        input_groups, requirements
                    ):
                        winner = memo.group(input_gid).winners.get(
                            (input_required, None)
                        )
                        if winner is None:
                            feasible = False
                            break
                        input_plans.append(winner.plan)
                        total = total + winner.cost
                    if not feasible:
                        continue
                    delivered = algorithm.derive_props(
                        context,
                        node,
                        tuple(plan.properties for plan in input_plans),
                    )
                    if not spec.props_cover(delivered, required):
                        continue
                    plans.append(
                        PhysicalPlan(
                            algorithm.name,
                            args,
                            tuple(input_plans),
                            properties=delivered,
                            cost=total,
                        )
                    )
                    if len(plans) >= limit:
                        return plans
    return plans


def greedy_plan(
    memo: Memo,
    context: OptimizerContext,
    gid: int,
    required: PhysProps,
    claims: Optional[dict] = None,
) -> Optional[PhysicalPlan]:
    """A deterministic first-feasible plan over a (partially) explored memo.

    The anytime-degradation fallback of the resource-governance layer
    (see :mod:`repro.search.engine`): when a budget trips before the
    root goal has a memoized winner, this builds *some* valid plan from
    whatever logical content exploration produced, without opening the
    costing search again.  The policy is greedy and deterministic:

    * memoized winners are reused wherever they exist (they are sound —
      the trip cannot corrupt completed goals);
    * otherwise each goal takes the *first feasible* implementation
      move, trying moves in descending rule promise (ties broken by
      discovery order) and alternatives in the algorithm's own order;
    * when no algorithm can deliver the goal's properties, enforcers
      are tried with their relaxed/excluding vectors, exactly like the
      real search.

    Costs are computed with the same support functions, so the returned
    plan's ``cost`` is honest — just not proven minimal.  Returns
    ``None`` when no valid plan exists in the explored space.

    ``claims`` is an optional provenance sink (the engine's
    ``_SearchRun.claims``): every plan node built here records a
    :class:`~repro.search.certify.ClaimRecord` into it, so even
    degraded plans certify with exact cost terms.
    """
    return _GreedySearch(memo, context, claims).solve(gid, required, None, set())


class _GreedySearch:
    """The state of one :func:`greedy_plan` call.

    Methods rather than nested functions: a nested function that calls
    itself is a function <-> cell cycle, which would keep the memo alive
    until the cyclic collector's next full pass.
    """

    def __init__(
        self, memo: Memo, context: OptimizerContext, claims: Optional[dict]
    ):
        self.memo = memo
        self.context = context
        self.spec = context.spec
        self.claims = claims
        self.implementations: dict = {}
        for rule in self.spec.implementations:
            self.implementations.setdefault(rule.top_operator, []).append(rule)
        # (gid, required, excluded) -> plan or None; a None is only cached
        # when the failure did not hinge on a cycle refusal (see below).
        self.cache: dict = {}
        self.refusals = 0

    def moves_of(self, group):
        """The group's implementation moves, in greedy trial order."""
        memo, context = self.memo, self.context
        moves = []
        seen = set()
        for mexpr in group.expressions:
            for rule in self.implementations.get(mexpr.operator, ()):
                for binding in memo.rule_bindings(rule.pattern, mexpr):
                    if not rule.applies(binding, context):
                        continue
                    args = (
                        tuple(rule.build_args(binding, context))
                        if rule.build_args is not None
                        else mexpr.args
                    )
                    input_groups = tuple(
                        memo.canonical(binding[name].args[0])
                        for name in rule.input_names
                    )
                    fingerprint = (rule.algorithm, args, input_groups)
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    moves.append((rule, args, input_groups))
        # Stable sort: descending promise, discovery order within ties.
        moves.sort(key=lambda move: -move[0].promise)
        return moves

    def solve(self, goal_gid, goal_required, excluded, path):
        """The first feasible plan for one goal, or None."""
        memo, context, spec = self.memo, self.context, self.spec
        cache, claims = self.cache, self.claims
        goal_gid = memo.canonical(goal_gid)
        key = (goal_gid, goal_required, excluded)
        if key in cache:
            return cache[key]
        if key in path:
            # A cycle through equivalent goals: refuse here, the outer
            # attempt decides.  Not a definitive failure, so not cached.
            self.refusals += 1
            return None
        group = memo.group(goal_gid)
        winner = group.winners.get((goal_required, excluded))
        if winner is not None:
            cache[key] = winner.plan
            return winner.plan
        path.add(key)
        before = self.refusals
        try:
            for rule, args, input_groups in self.moves_of(group):
                algorithm = spec.algorithm(rule.algorithm)
                node = AlgorithmNode(
                    args,
                    group.logical_props,
                    tuple(memo.logical_props(g) for g in input_groups),
                )
                for requirements in (
                    algorithm.applicability(context, node, goal_required) or ()
                ):
                    if len(requirements) != len(input_groups):
                        continue
                    input_plans = []
                    local = algorithm.cost(context, node)
                    total = local
                    feasible = True
                    for input_gid, input_required in zip(
                        input_groups, requirements
                    ):
                        sub = self.solve(input_gid, input_required, None, path)
                        if sub is None:
                            feasible = False
                            break
                        input_plans.append(sub)
                        total = total + sub.cost
                    if not feasible:
                        continue
                    delivered = algorithm.derive_props(
                        context,
                        node,
                        tuple(plan.properties for plan in input_plans),
                    )
                    if not spec.props_cover(delivered, goal_required):
                        continue
                    if excluded is not None and spec.props_cover(
                        delivered, excluded
                    ):
                        continue
                    plan = PhysicalPlan(
                        algorithm.name,
                        args,
                        tuple(input_plans),
                        properties=delivered,
                        cost=total,
                    )
                    if claims is not None:
                        claims[id(plan)] = (
                            plan,
                            ClaimRecord(
                                rule=rule.name,
                                gid=goal_gid,
                                input_groups=input_groups,
                                local=local,
                                output=node.output,
                                inputs=node.inputs,
                            ),
                        )
                    cache[key] = plan
                    return plan
            # Enforcer fallback, mirroring the real search's moves.
            if not goal_required.is_any:
                for name in spec.enforcers:
                    for application in spec.enforcer_applications(
                        name, context, goal_required, group.logical_props
                    ):
                        if application.relaxed == goal_required:
                            continue
                        if excluded is not None and spec.props_cover(
                            application.delivered, excluded
                        ):
                            continue
                        sub = self.solve(
                            goal_gid,
                            application.relaxed,
                            application.excluded,
                            path,
                        )
                        if sub is None:
                            continue
                        if not spec.props_cover(
                            application.delivered, goal_required
                        ):
                            continue
                        enforcer = spec.enforcer(name)
                        node = AlgorithmNode(
                            application.args,
                            group.logical_props,
                            (group.logical_props,),
                        )
                        local = enforcer.cost(context, node)
                        total = local + sub.cost
                        plan = PhysicalPlan(
                            name,
                            application.args,
                            (sub,),
                            properties=application.delivered,
                            cost=total,
                            is_enforcer=True,
                        )
                        if claims is not None:
                            claims[id(plan)] = (
                                plan,
                                ClaimRecord(
                                    rule=None,
                                    gid=goal_gid,
                                    input_groups=(goal_gid,),
                                    local=local,
                                    output=group.logical_props,
                                    inputs=(group.logical_props,),
                                    enforcer=True,
                                    required=goal_required,
                                ),
                            )
                        cache[key] = plan
                        return plan
            if self.refusals == before:
                # No cycle refusal influenced this failure: definitive.
                cache[key] = None
            return None
        finally:
            path.discard(key)


def _root_group(memo: Memo) -> int:
    """The class with the most base tables: the whole query."""
    best = None
    for group in memo.groups():
        if best is None or len(group.logical_props.tables) > len(
            best.logical_props.tables
        ):
            best = group
    if best is None:
        raise ValueError("empty memo")
    return best.id
