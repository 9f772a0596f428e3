"""Shared machinery for optimizer option blocks and resource budgets.

Every engine in this package is configured through a small frozen
dataclass of knobs (:class:`~repro.search.SearchOptions`,
:class:`~repro.exodus.ExodusOptions`,
:class:`~repro.systemr.SystemROptions`,
:class:`~repro.service.ServiceOptions`).  They share one contract,
factored here:

* **frozen and keyword-only** — an options object is a value; engines
  may hold it across many optimizations without defensive copies, and
  call sites stay readable because every knob is named;
* **validated on construction** — ``__post_init__`` funnels every
  options class through its :meth:`~OptionsBase.validate` hook, so a
  bad knob fails at construction time with :class:`OptionsError`
  instead of deep inside a search;
* **updatable by replacement** — :meth:`~OptionsBase.replace` derives a
  new options value with some fields changed (re-validated), the only
  way to "mutate" one.

This module also defines the resource-governance layer every engine
shares: :class:`ResourceBudget` (the frozen specification: wall-clock
deadline, costing quota, rule-firing quota), :class:`BudgetMeter` (the
per-run tracker that charges work against a budget), and
:class:`BudgetReport` (the typed account of a trip).  The paper's
``FindBestPlan`` already accepts a per-goal cost limit — "the user
interface may permit users to set their own limits to 'catch'
unreasonable queries"; a :class:`ResourceBudget` bounds the *search
effort itself* the same way, so optimization latency stays predictable
under load.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from repro.errors import OptionsError

__all__ = [
    "OptionsBase",
    "check_positive",
    "check_kernel",
    "ResourceBudget",
    "BudgetReport",
    "BudgetMeter",
    "BudgetTripped",
    "KERNEL_TIERS",
    "ServerOptions",
]

#: The generated-kernel tiers a ``kernel`` option may name.
KERNEL_TIERS = ("interpreted", "specialized")


def check_positive(name: str, value) -> None:
    """Validation helper: ``value`` must be ``None`` or strictly positive."""
    if value is not None and value <= 0:
        raise OptionsError(f"{name} must be positive, got {value!r}")


def check_kernel(kernel) -> None:
    """Validation helper: a ``kernel`` knob must name a tier.

    ``None`` passes, and so does a pre-built
    :class:`~repro.generator.kernel.SearchKernel`, which the engine
    resolves at run time.
    """
    if kernel is None or not isinstance(kernel, str):
        return
    if kernel not in KERNEL_TIERS:
        raise OptionsError(
            f"kernel must be one of {KERNEL_TIERS} or a SearchKernel; "
            f"got {kernel!r}"
        )


class OptionsBase:
    """Base class for frozen, keyword-only option dataclasses.

    Subclasses are declared ``@dataclass(frozen=True, kw_only=True)``
    and override :meth:`validate` with their field invariants.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""

    def replace(self, **changes) -> "OptionsBase":
        """A copy of these options with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True, kw_only=True)
class ResourceBudget(OptionsBase):
    """A frozen per-query bound on optimization effort.

    Every engine option block carries an optional budget; each limit is
    independent, and the first one hit trips the whole budget.

    ``deadline_seconds``
        Wall-clock bound on the optimization (not the produced plan's
        execution), measured from the engine's entry.
    ``max_costings``
        Quota on cost-function invocations (algorithm + enforcer
        costings), the dominant work unit of the costing phase.
    ``max_rule_firings``
        Quota on transformation-rule firings, the dominant work unit of
        logical exploration.

    The composable memory bound stays where it was: ``max_groups`` on
    :class:`~repro.search.SearchOptions` and ``node_budget`` on
    :class:`~repro.exodus.ExodusOptions`.
    """

    deadline_seconds: Optional[float] = None
    max_costings: Optional[int] = None
    max_rule_firings: Optional[int] = None

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("deadline_seconds", self.deadline_seconds)
        check_positive("max_costings", self.max_costings)
        check_positive("max_rule_firings", self.max_rule_firings)

    @property
    def is_unbounded(self) -> bool:
        """True when no limit is set (the meter becomes a no-op)."""
        return (
            self.deadline_seconds is None
            and self.max_costings is None
            and self.max_rule_firings is None
        )

    @classmethod
    def tighten(
        cls,
        budget: Optional["ResourceBudget"],
        deadline_seconds: Optional[float],
    ) -> Optional["ResourceBudget"]:
        """``budget`` with its wall clock capped at ``deadline_seconds``.

        The one place a deadline is folded into a budget: no deadline
        leaves ``budget`` (even None) as it is, no budget becomes a
        deadline-only one, and an existing deadline keeps whichever is
        tighter.  The other limits are untouched.
        """
        if deadline_seconds is None:
            return budget
        base = budget if budget is not None else cls()
        if base.deadline_seconds is not None:
            deadline_seconds = min(deadline_seconds, base.deadline_seconds)
        return dataclasses.replace(base, deadline_seconds=deadline_seconds)


@dataclasses.dataclass(frozen=True)
class BudgetReport:
    """The typed account of a budget trip.

    ``tripped`` names the limit that fired (``"deadline"``,
    ``"costings"``, or ``"rule_firings"``); ``phase`` says how far the
    search had progressed (``"exploration"`` before any costing,
    ``"costing"`` mid-``FindBestPlan``, ``"forward_chaining"`` /
    ``"enumeration"`` in the baselines).  ``best_cost`` is the
    best-so-far total for the root goal — ``None`` means no complete
    plan existed when the budget tripped (infinite best-so-far), in
    which case a degrading engine fell back to its greedy pass.
    """

    tripped: str
    phase: str
    elapsed_seconds: float
    costings: int
    rule_firings: int
    budget: ResourceBudget
    best_cost: Optional[object] = None

    def __str__(self) -> str:
        best = str(self.best_cost) if self.best_cost is not None else "inf"
        return (
            f"budget tripped: {self.tripped} during {self.phase} "
            f"after {self.elapsed_seconds:.4f}s "
            f"({self.costings} costings, {self.rule_firings} rule firings; "
            f"best-so-far {best})"
        )


class BudgetTripped(Exception):
    """Internal control-flow signal: a budget limit was hit mid-search.

    Deliberately *not* a :class:`~repro.errors.ReproError`: engines
    always catch it at their entry point and either degrade gracefully
    or convert it into the public
    :class:`~repro.errors.BudgetExceededError`.  It must never escape
    an ``optimize()`` call.
    """

    def __init__(self, tripped: str, phase: str):
        super().__init__(f"{tripped} budget tripped during {phase}")
        self.tripped = tripped
        self.phase = phase


class BudgetMeter:
    """Per-run tracker charging work against a :class:`ResourceBudget`.

    One meter is created per ``optimize()`` call (budgets themselves are
    frozen values and shareable).  Engines charge the two work units at
    the sites where the matching :class:`~repro.search.SearchStats`
    counters move, and call :meth:`check` at every move boundary;
    ``check`` raises :class:`BudgetTripped` on the first limit hit and
    keeps raising on subsequent calls (a tripped meter stays tripped).

    With no budget (or an unbounded one) every method is a cheap no-op,
    so metering adds no measurable cost to unbounded searches.
    """

    __slots__ = (
        "budget",
        "started",
        "costings",
        "rule_firings",
        "tripped",
        "armed",
        "_deadline_at",
        "_clock",
    )

    def __init__(
        self,
        budget: Optional[ResourceBudget],
        *,
        clock=time.perf_counter,
    ):
        self.budget = budget
        self._clock = clock
        self.started = clock()
        self.costings = 0
        self.rule_firings = 0
        self.tripped: Optional[str] = None
        self.armed = budget is not None and not budget.is_unbounded
        self._deadline_at = (
            self.started + budget.deadline_seconds
            if self.armed and budget.deadline_seconds is not None
            else None
        )

    def elapsed(self) -> float:
        """Seconds since the meter was armed."""
        return self._clock() - self.started

    def charge_costing(self) -> None:
        """Account one cost-function invocation."""
        self.costings += 1

    def charge_rule_firing(self) -> None:
        """Account one transformation-rule firing."""
        self.rule_firings += 1

    def check(self, phase: str) -> None:
        """Raise :class:`BudgetTripped` when any limit has been hit."""
        if not self.armed:
            return
        if self.tripped is not None:
            raise BudgetTripped(self.tripped, phase)
        budget = self.budget
        if budget.max_costings is not None and self.costings >= budget.max_costings:
            self.tripped = "costings"
        elif (
            budget.max_rule_firings is not None
            and self.rule_firings >= budget.max_rule_firings
        ):
            self.tripped = "rule_firings"
        elif self._deadline_at is not None and self._clock() >= self._deadline_at:
            self.tripped = "deadline"
        if self.tripped is not None:
            raise BudgetTripped(self.tripped, phase)

    def report(self, phase: str, best_cost=None) -> BudgetReport:
        """The typed account of this meter's trip (or current standing)."""
        return BudgetReport(
            tripped=self.tripped if self.tripped is not None else "none",
            phase=phase,
            elapsed_seconds=self.elapsed(),
            costings=self.costings,
            rule_firings=self.rule_firings,
            budget=self.budget if self.budget is not None else ResourceBudget(),
            best_cost=best_cost,
        )


@dataclasses.dataclass(frozen=True, kw_only=True)
class ServerOptions(OptionsBase):
    """Policy knobs of the long-lived optimizer server (:mod:`repro.server`).

    **Admission control** — the server never lets unbounded concurrent
    optimizations pile onto the shared cache:

    ``max_concurrent``
        Optimization-triggering requests allowed in flight at once
        (each occupies one worker thread; under ``python -m
        repro.server`` also the number of engine processes).
    ``max_queue_depth``
        Requests allowed to *wait* for a slot beyond that; one more and
        the server fast-fails the request with a 429 instead of
        building an invisible backlog.
    ``queue_timeout_seconds``
        How long a queued request may wait for a slot before it is
        429'd (a per-request ``deadline_seconds`` tightens this and,
        once admitted, the remainder becomes the optimization's
        wall-clock budget).

    **Plan management** — the regression guard's evidence thresholds:

    ``guard_plans``
        Whether the plan-regression guard is active: a refreshed plan
        (same query, new statistics) whose estimated cost regresses
        beyond what the incumbent's *observed* execution evidence
        supports is rolled back and quarantined
        (:class:`~repro.server.PlanRegistry`).
    ``guard_threshold``
        Base tolerated estimated-cost growth factor of a refresh over
        its incumbent.
    ``guard_slack_cap``
        Upper bound on the evidence slack: an incumbent whose own
        estimates were off by q (its observed q-error) licenses a
        refresh up to ``threshold * min(q, cap)`` — genuine drift
        produces honestly-costlier plans, and the guard must not roll
        those back.
    ``verify_pins``
        Re-check a plan's provenance certificate through
        :func:`repro.verify.verify_plan` when it is pinned; a failing
        certificate refuses the pin.

    **Lifecycle**:

    ``workers``
        Size of the thread pool that takes admitted work off the event
        loop (at least ``max_concurrent``).  In process the search runs
        on these threads; under ``python -m repro.server`` they only
        hand it to an engine process and wait.
    ``drain_seconds``
        Graceful-shutdown patience: how long to wait for in-flight
        requests to finish before the event loop is torn down anyway.
    ``request_timeout_seconds``
        Idle read timeout on an open connection.
    """

    max_concurrent: int = 4
    max_queue_depth: int = 16
    queue_timeout_seconds: float = 10.0
    guard_plans: bool = True
    guard_threshold: float = 1.5
    guard_slack_cap: float = 16.0
    verify_pins: bool = True
    workers: int = 4
    drain_seconds: float = 10.0
    request_timeout_seconds: float = 60.0

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("max_concurrent", self.max_concurrent)
        if self.max_queue_depth < 0:
            raise OptionsError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth!r}"
            )
        check_positive("queue_timeout_seconds", self.queue_timeout_seconds)
        check_positive("workers", self.workers)
        check_positive("drain_seconds", self.drain_seconds)
        check_positive("request_timeout_seconds", self.request_timeout_seconds)
        if self.guard_threshold < 1.0:
            raise OptionsError(
                f"guard_threshold must be >= 1.0, got {self.guard_threshold!r}"
            )
        if self.guard_slack_cap < 1.0:
            raise OptionsError(
                f"guard_slack_cap must be >= 1.0, got {self.guard_slack_cap!r}"
            )
        if self.workers < self.max_concurrent:
            raise OptionsError(
                f"workers ({self.workers}) must cover max_concurrent "
                f"({self.max_concurrent}) admission slots"
            )
