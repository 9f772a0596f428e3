"""The Volcano search engine: memo + directed dynamic programming (S9).

This package also defines the :class:`Optimizer` protocol — the single
call shape every optimizer in this repository answers to, whether it is
the recursive Volcano engine or the EXODUS and System R comparison
baselines.  Anything that fronts an optimizer (the
:class:`~repro.service.OptimizerService`, the benchmark harness)
programs against this protocol and can wrap any engine interchangeably.
"""

from typing import Optional, Protocol, runtime_checkable

from repro.algebra.expressions import LogicalExpression
from repro.algebra.properties import PhysProps
from repro.options import BudgetReport, ResourceBudget
from repro.search.engine import (
    OptimizationResult,
    SearchOptions,
    VolcanoOptimizer,
)
from repro.search.memo import Group, GroupExpression, Memo, Winner
from repro.search.sharing import (
    SharedPlan,
    SharingOptions,
    SharingReport,
    plan_sharing,
)
from repro.search.tracing import SearchStats, Tracer

__all__ = [
    "Optimizer",
    "OptimizationResult",
    "SearchOptions",
    "VolcanoOptimizer",
    "Group",
    "GroupExpression",
    "Memo",
    "Winner",
    "SearchStats",
    "Tracer",
    "ResourceBudget",
    "BudgetReport",
    "SharedPlan",
    "SharingOptions",
    "SharingReport",
    "plan_sharing",
]


@runtime_checkable
class Optimizer(Protocol):
    """What every optimizer engine looks like to its callers.

    ``optimize(expr, props=None, *, options=None)`` finds the best plan
    for ``expr`` delivering the physical properties ``props`` (the
    model's "any" vector when omitted) and returns an
    :class:`OptimizationResult` — engines may return a subclass carrying
    extra diagnostics (:class:`~repro.exodus.ExodusResult`,
    :class:`~repro.systemr.SystemRResult`) and may accept extra
    keyword-only arguments (:class:`VolcanoOptimizer` takes ``limit``).
    ``options`` overrides the engine's construction-time options for one
    call.

    Conformers: :class:`VolcanoOptimizer`,
    :class:`~repro.exodus.ExodusOptimizer`,
    :class:`~repro.systemr.SystemROptimizer`.
    """

    spec: object
    catalog: object

    def optimize(
        self,
        query: LogicalExpression,
        props: Optional[PhysProps] = None,
        *,
        options: object = None,
    ) -> OptimizationResult:
        """Find the cheapest plan for ``query`` delivering ``props``."""
        ...
