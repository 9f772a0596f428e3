"""Read plans out of a solved (or partially solved) memo.

After an optimization run the memo holds not just the winner but the
whole explored space.  These utilities enumerate alternative plans of an
equivalence class — useful for debugging cost models, teaching, and for
tests that check every memoized plan computes the same result — and
build the greedy plan of a budget-tripped search.

Neither enumerates rule bindings of its own: both read the engine's move
list (:meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`)
and its cached per-goal applicability and local cost
(:meth:`~repro.search.engine.VolcanoOptimizer._move_applicability`), so
they see exactly the moves the search costed.  Alternatives are
physically one-level: each move's algorithm over the recorded per-goal
winners of its input classes.  (Enumerating every combination of
sub-alternatives would be exponential; for full exhaustive costing see
``tests/helpers.BruteForceOracle``.)
"""

from __future__ import annotations

from typing import List, Optional

from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import PhysProps
from repro.model.spec import AlgorithmNode
from repro.search.engine import OptimizationResult, VolcanoOptimizer, _SearchRun
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
    optimizer: VolcanoOptimizer,
    result: OptimizationResult,
    required: Optional[PhysProps] = None,
    limit: int = 100,
) -> List[PhysicalPlan]:
    """Alternative plans for the result's root class.

    One plan per implementation move of ``result.root_group`` (the
    engine's own move list, see
    :meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`) and
    per input-requirement alternative whose input goals have memoized
    winners.  Returns up to ``limit`` plans (the winner among them), each
    satisfying ``required`` (the result's goal by default), costed with
    the engine's own cached local terms.  ``optimizer`` is the engine that
    produced ``result``.
    """
    memo, root = result.memo, result.root_group
    if memo is None or root is None:
        raise ValueError("alternative plans need a memo-based result")
    required = required if required is not None else result.required
    run = optimizer._new_run(optimizer.options, memo)
    spec, context = optimizer.spec, run.context
    group = memo.group(root)
    plans: List[PhysicalPlan] = []
    for move in optimizer._algorithm_moves(run, group):
        algorithm, node, alternatives, local = (
            move.applicability.get(required)
            or optimizer._move_applicability(run, group, move, required)
        )
        for requirements in alternatives or ():
            input_plans = []
            total = local
            for input_gid, input_required in zip(move.input_groups, requirements):
                winner = memo.group(input_gid).winners.get((input_required, None))
                if winner is None:
                    break
                input_plans.append(winner.plan)
                total = total + winner.cost
            else:
                delivered = algorithm.derive_props(
                    context, node, tuple(plan.properties for plan in input_plans)
                )
                if not spec.props_cover(delivered, required):
                    continue
                plans.append(
                    PhysicalPlan(
                        algorithm.name,
                        move.args,
                        tuple(input_plans),
                        properties=delivered,
                        cost=total,
                        logical=node.output,
                        local=local,
                        rule=move.rule.name,
                    )
                )
                if len(plans) >= limit:
                    return plans
    return plans


def greedy_plan(
    optimizer: VolcanoOptimizer,
    run: _SearchRun,
    gid: int,
    required: PhysProps,
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
      move of the engine's own move list (descending rule promise, ties
      broken by discovery order) and alternatives in the algorithm's own
      order, costed with the engine's cached local terms;
    * when no algorithm can deliver the goal's properties, enforcers
      are tried with their relaxed/excluding vectors, exactly like the
      real search.

    Costs are computed with the same support functions, so the returned
    plan's ``cost`` is honest — just not proven minimal.  Returns
    ``None`` when no valid plan exists in the explored space.

    Every node built here carries its rule or enforcer goal, logical
    properties and local cost, like the search's own, so even degraded
    plans certify with exact cost terms.
    """
    return _GreedySearch(optimizer, run).solve(gid, required, None, set())


class _GreedySearch:
    """The state of one :func:`greedy_plan` call.

    Methods rather than nested functions: a nested function that calls
    itself is a function <-> cell cycle, which would keep the memo alive
    until the cyclic collector's next full pass.
    """

    def __init__(self, optimizer: VolcanoOptimizer, run: _SearchRun):
        self.optimizer = optimizer
        self.run = run
        # (gid, required, excluded) -> plan or None; a None is only cached
        # when the failure did not hinge on a cycle refusal (see below).
        self.cache: dict = {}
        self.refusals = 0

    def solve(self, goal_gid, goal_required, excluded, path):
        """The first feasible plan for one goal, or None."""
        optimizer, run = self.optimizer, self.run
        memo, context, spec = run.memo, run.context, optimizer.spec
        cache = self.cache
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
            for move in optimizer._algorithm_moves(run, group):
                algorithm, node, alternatives, local = (
                    move.applicability.get(goal_required)
                    or optimizer._move_applicability(run, group, move, goal_required)
                )
                for requirements in alternatives or ():
                    input_plans = []
                    total = local
                    feasible = True
                    for input_gid, input_required in zip(
                        move.input_groups, requirements
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
                        move.args,
                        tuple(input_plans),
                        properties=delivered,
                        cost=total,
                        logical=node.output,
                        local=local,
                        rule=move.rule.name,
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
                            logical=group.logical_props,
                            local=local,
                            required=goal_required,
                        )
                        cache[key] = plan
                        return plan
            if self.refusals == before:
                # No cycle refusal influenced this failure: definitive.
                cache[key] = None
            return None
        finally:
            path.discard(key)

