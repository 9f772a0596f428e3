"""Runtime counterpart of the static linter: memo invariant auditing.

The paper leans on "one of many consistency checks" inside the generated
optimizer; :class:`MemoAuditor` is the external version — it attaches to
any memo-based engine via ``post_optimize_hooks`` and, after each
search, verifies structural invariants of the solved memo:

* the group-merge bookkeeping is acyclic (``canonical()`` terminates);
* every memoized winner satisfies its goal's property vector and its
  recorded cost matches its plan's cost;
* plan-tree costs are non-negative and monotonic (a node's cumulative
  cost is at least each input's);
* winners are minimal: no other costed winner of the same group both
  satisfies a goal and beats its recorded winner, and a winner found
  under an excluding vector never beats its plain goal's winner;
* failure records do not shadow achievable goals: a failure means no
  plan exists, so no winner of the group may satisfy the failed goal;
* the returned root plan satisfies the caller's requirement.

Violations are reported as :class:`~repro.lint.diagnostics.Diagnostic`
values with ``M0xx`` codes, so the CLI and the figure-4 benchmark can
fold them into the same reporting as the static checks.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import PhysProps
from repro.lint.diagnostics import Diagnostic

__all__ = ["MemoAuditor"]

CoverFn = Callable[[PhysProps, PhysProps], bool]


def _default_cover(provided: PhysProps, required: PhysProps) -> bool:
    return provided.covers(required)


class MemoAuditor:
    """Verifies memo invariants after each optimization.

    Use :meth:`attach` to hook an engine (accumulating violations over
    every subsequent run), or call :meth:`audit` directly on one
    :class:`~repro.search.engine.OptimizationResult`.  Results without a
    memo (EXODUS, System R) audit trivially clean.
    """

    def __init__(
        self,
        props_cover: Optional[CoverFn] = None,
        tolerance: float = 1e-6,
    ):
        self.props_cover = props_cover or _default_cover
        self.tolerance = tolerance
        self.violations: List[Diagnostic] = []
        self.audits = 0

    def attach(self, optimizer) -> "MemoAuditor":
        """Audit every future run of ``optimizer``; returns self."""
        self.props_cover = optimizer.spec.props_cover
        optimizer.post_optimize_hooks.append(self._on_result)
        return self

    def _on_result(self, result) -> None:
        self.audits += 1
        self.violations.extend(self.audit(result))

    # -- the checks -------------------------------------------------------

    def audit(self, result) -> List[Diagnostic]:
        """All invariant violations in one optimization result."""
        memo = result.memo
        if memo is None:
            return []
        found: List[Diagnostic] = []
        self._check_merge_chains(memo, found)
        for group in memo.groups():
            self._check_group(group, found)
        self._check_root(result, found)
        return found

    def audit_batch(self, results) -> List[Diagnostic]:
        """Cross-root invariants of one multi-query batch.

        On top of the per-result checks (shared-memo group invariants
        are verified once, not once per result):

        * **M008** — every result's memo is the *same object*: the whole
          point of a batch-scoped memo is that cross-query common
          subexpressions collide, and results from stray memos would
          silently defeat sharing detection;
        * **M009** — every result's ``root_group`` is canonical: merges
          triggered by later queries must have been resolved before the
          results were built, or the recorded roots point at corpses.
        """
        results = list(results)
        if not results:
            return []
        found: List[Diagnostic] = []
        memo = results[0].memo
        if memo is None:
            return []
        for index, result in enumerate(results):
            if result.memo is not memo:
                found.append(
                    Diagnostic.make(
                        "M008",
                        f"batch result #{index}",
                        "result carries a different memo than the batch's "
                        "first result; batch optimization must share one",
                    )
                )
        self._check_merge_chains(memo, found)
        for group in memo.groups():
            self._check_group(group, found)
        for index, result in enumerate(results):
            root = result.root_group
            if root is not None and memo.canonical(root) != root:
                found.append(
                    Diagnostic.make(
                        "M009",
                        f"batch result #{index}",
                        f"root_group g{root} resolves to "
                        f"g{memo.canonical(root)}; roots must be canonical",
                    )
                )
            self._check_root(result, found)
        return found

    def _close(self, left: float, right: float) -> bool:
        scale = max(1.0, abs(left), abs(right))
        return abs(left - right) <= self.tolerance * scale

    def _check_merge_chains(self, memo, found: List[Diagnostic]) -> None:
        # Walk merged_into chains over the raw table; canonical() itself
        # would not survive a cycle, which is the point of the check.
        for start, group in memo._groups.items():
            seen: Set[int] = set()
            current = group
            while current.merged_into is not None:
                if current.id in seen:
                    found.append(
                        Diagnostic.make(
                            "M001",
                            f"group g{start}",
                            "merge chain revisits "
                            f"g{current.id}; canonical() cannot terminate",
                        )
                    )
                    break
                seen.add(current.id)
                current = memo._groups[current.merged_into]

    def _check_group(self, group, found: List[Diagnostic]) -> None:
        for (required, excluded), winner in group.winners.items():
            subject = f"group g{group.id} goal [{required}]"
            if not self.props_cover(winner.plan.properties, required):
                found.append(
                    Diagnostic.make(
                        "M002",
                        subject,
                        f"winner delivers [{winner.plan.properties}] which "
                        f"does not cover the goal",
                    )
                )
            plan_cost = winner.plan.cost
            if plan_cost is not None and not self._close(
                winner.cost.total(), plan_cost.total()
            ):
                found.append(
                    Diagnostic.make(
                        "M003",
                        subject,
                        f"memoized cost {winner.cost} but the plan's own "
                        f"cost is {plan_cost}",
                    )
                )
            self._check_plan_costs(winner.plan, subject, found)

        self._check_winner_minimality(group, found)
        self._check_failures(group, found)

    def _check_plan_costs(
        self, plan: PhysicalPlan, subject: str, found: List[Diagnostic]
    ) -> None:
        for node in plan.walk():
            if node.cost is None:
                continue
            total = node.cost.total()
            if total < 0:
                found.append(
                    Diagnostic.make(
                        "M004",
                        subject,
                        f"node {node.algorithm!r} has negative cost {node.cost}",
                    )
                )
                return
            for child in node.inputs:
                if child.cost is None:
                    continue
                if child.cost.total() > total and not self._close(
                    child.cost.total(), total
                ):
                    found.append(
                        Diagnostic.make(
                            "M004",
                            subject,
                            f"input {child.algorithm!r} costs {child.cost}, "
                            f"more than its parent {node.algorithm!r} at "
                            f"{node.cost}; cumulative cost must be monotonic",
                        )
                    )
                    return

    def _check_winner_minimality(self, group, found: List[Diagnostic]) -> None:
        # An excluding vector bars part of the plan space, so a winner
        # found under one can only cost at least its plain goal's.
        for (required, excluded), winner in group.winners.items():
            base = group.winners.get((required, None))
            if excluded is None or base is None:
                continue
            if winner.cost.total() < base.cost.total() and not self._close(
                winner.cost.total(), base.cost.total()
            ):
                found.append(
                    Diagnostic.make(
                        "M005",
                        f"group g{group.id} goal [{required}]",
                        f"winner costs {base.cost} but the winner excluding "
                        f"[{excluded}] satisfies the same goal at {winner.cost}",
                    )
                )
        # Otherwise only ordinary goals are comparable with each other.
        plain = [
            (required, winner)
            for (required, excluded), winner in group.winners.items()
            if excluded is None
        ]
        for required, winner in plain:
            for other_required, other in plain:
                if other is winner:
                    continue
                if not self.props_cover(other.plan.properties, required):
                    continue
                if other.cost.total() < winner.cost.total() and not self._close(
                    other.cost.total(), winner.cost.total()
                ):
                    found.append(
                        Diagnostic.make(
                            "M005",
                            f"group g{group.id} goal [{required}]",
                            f"winner costs {winner.cost} but the winner for "
                            f"[{other_required}] satisfies the same goal at "
                            f"{other.cost}",
                        )
                    )

    def _check_failures(self, group, found: List[Diagnostic]) -> None:
        for required, excluded in group.failures:
            for winner in group.winners.values():
                if not self.props_cover(winner.plan.properties, required):
                    continue
                if excluded is not None and self.props_cover(
                    winner.plan.properties, excluded
                ):
                    # The winner falls in the goal's excluded region; it
                    # was legitimately out of reach for that search.
                    continue
                found.append(
                    Diagnostic.make(
                        "M006",
                        f"group g{group.id} goal [{required}]",
                        f"recorded as having no plan but a winner "
                        f"satisfying it costs {winner.cost}",
                    )
                )
                break

    def _check_root(self, result, found: List[Diagnostic]) -> None:
        if result.plan is None:
            return
        if not self.props_cover(result.plan.properties, result.required):
            found.append(
                Diagnostic.make(
                    "M007",
                    "root plan",
                    f"delivers [{result.plan.properties}] which does not "
                    f"cover the query requirement [{result.required}]",
                )
            )
