"""Plan management for the long-lived optimizer server.

The plan cache (:mod:`repro.service`) answers "what did the optimizer
last say for this query under these statistics?".  A *server* needs a
second, longer-lived layer of plan management on top of it:

* **pinning** — an operator (or the regression guard itself) fixes a
  query's plan, and the server serves that plan without re-optimizing
  until the pin is lifted, *even across statistics changes* that would
  invalidate every cache entry;
* **incumbents** — the plan currently serving each query, together
  with the execution evidence accumulated for it (observed work,
  worst q-error), surviving cache invalidation;
* the **regression guard** — when a statistics refresh makes the
  optimizer re-plan a query, the freshly estimated cost is compared
  against the incumbent's, with slack proportional to how wrong the
  incumbent's own estimates were *observed* to be.  A refresh whose
  estimate blows past that allowance is judged a regression: the
  candidate is quarantined, the incumbent is re-installed as a
  ``rollback`` pin, and the event is surfaced through the stats
  endpoint.

Keys here are **stable keys**
(:func:`~repro.service.fingerprint.stable_key`): a digest of the
query's canonical s-expression and required properties *only* — unlike
cache fingerprints, statistics versions are deliberately excluded, so
the same query maps to the same key before and after a refresh.  That
is what lets a pin survive a statistics bump, and what lets the guard
recognize "the same query, re-planned".

Why observed evidence gates the guard: comparing two plans both costed
under the *current* statistics can never detect a regression — the
fresh plan is by construction the cheapest under them.  What can go
wrong is the statistics themselves (a bad refresh, a corrupted bulk
load).  The incumbent's estimated cost at adoption time plus its
observed q-error bound how expensive an honest re-plan of this query
can get: genuine drift was *preceded* by large observed q-errors
(estimates were badly off, so wide slack — the refresh is accepted),
while a refresh that explodes the estimate of a query whose estimates
were observed to be accurate (q ≈ 1, tight slack) is rolled back.
Queries with no execution evidence are never guarded — there is
nothing to defend.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import PhysProps
from repro.options import ServerOptions
from repro.service.fingerprint import stable_key
from repro.verify.certificate import PlanCertificate

__all__ = [
    "stable_key",
    "PinnedPlan",
    "Incumbent",
    "GuardDecision",
    "RegistryEvent",
    "PlanRegistry",
]


def _same_plan(left: PhysicalPlan, right: PhysicalPlan) -> bool:
    """Structural plan identity, ignoring annotated costs.

    ``PhysicalPlan.__eq__`` compares the cost annotations too, and a
    statistics bump re-prices every node — so the *same* plan
    re-derived after a refresh would never compare equal.  Plan
    management cares about what would execute, which the canonical
    s-expression captures exactly.
    """
    return left.to_sexpr() == right.to_sexpr()


@dataclass(frozen=True)
class PinnedPlan:
    """A plan fixed for a stable key, served without re-optimization.

    ``kind`` is ``"user"`` for operator pins (the ``/plans/pin``
    endpoint) and ``"rollback"`` for pins the regression guard
    installed to keep serving an incumbent past a rejected refresh.
    ``verified`` records whether the plan's provenance certificate was
    re-checked through the independent checker at pin time.
    ``pinned_version`` is the catalog statistics version when the pin
    was taken — informational only; pins deliberately do *not* expire
    on version bumps.
    """

    key: str
    plan: PhysicalPlan
    cost_total: float
    required: PhysProps
    certificate: Optional[PlanCertificate] = None
    kind: str = "user"
    verified: bool = False
    pinned_version: int = 0
    reason: str = ""


@dataclass
class Incumbent:
    """The plan currently serving a stable key, plus its evidence.

    ``cost_total`` is the optimizer's estimate *at adoption time* —
    under the statistics then current — which is the guard's baseline.
    ``observed_q_error`` / ``observed_work`` accumulate from
    instrumented executions of this exact plan (worst q-error wins;
    work is the latest observation).  Evidence resets whenever a new
    plan is adopted: it describes *this* plan, not the query.
    """

    key: str
    plan: PhysicalPlan
    cost_total: float
    required: PhysProps
    certificate: Optional[PlanCertificate] = None
    adopted_version: int = 0
    observed_q_error: Optional[float] = None
    observed_work: Optional[float] = None
    executions: int = 0


@dataclass(frozen=True)
class GuardDecision:
    """What the regression guard decided for one fresh optimization.

    ``action`` is one of:

    ``"adopt"``
        First plan for this key (or guard off): it becomes the
        incumbent unconditionally.
    ``"retain"``
        The fresh plan equals the incumbent's — nothing changed but
        the statistics version; evidence is kept.
    ``"refresh"``
        A *different* plan within the evidence-backed allowance (or no
        evidence to guard with): adopted, evidence reset.
    ``"rollback"``
        The refresh regressed beyond the allowance: the candidate is
        quarantined, the incumbent re-installed as a ``rollback`` pin,
        and the served plan is the **incumbent's**, not the fresh one.

    ``plan`` / ``cost_total`` are what the server must actually serve
    (the candidate's, except on rollback).
    """

    action: str
    plan: PhysicalPlan
    cost_total: float
    allowed: Optional[float] = None
    detail: str = ""

    @property
    def rolled_back(self) -> bool:
        return self.action == "rollback"


@dataclass(frozen=True)
class RegistryEvent:
    """One plan-management occurrence, surfaced via the stats endpoint."""

    kind: str  # "pin" | "unpin" | "refresh" | "rollback"
    key: str
    detail: str = ""
    statistics_version: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering for the stats endpoint."""
        return {
            "kind": self.kind,
            "key": self.key,
            "detail": self.detail,
            "statistics_version": self.statistics_version,
        }


@dataclass
class QuarantinedPlan:
    """A refresh the guard rejected, kept for post-mortem inspection."""

    key: str
    cost_total: float
    allowed: float
    incumbent_cost_total: float
    statistics_version: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready rendering for the stats endpoint."""
        return {
            "key": self.key,
            "cost_total": self.cost_total,
            "allowed": self.allowed,
            "incumbent_cost_total": self.incumbent_cost_total,
            "statistics_version": self.statistics_version,
        }


@dataclass
class PlanRegistry:
    """Pins, incumbents, and the regression guard, thread-safe.

    One registry per server; every worker thread that finishes an
    optimization routes the fresh answer through :meth:`admit`, every
    instrumented execution reports through :meth:`observe`, and the
    request path consults :meth:`pinned` before touching the service
    at all.  ``options`` supplies the guard thresholds
    (:class:`~repro.options.ServerOptions`).
    """

    options: ServerOptions = field(default_factory=ServerOptions)
    max_events: int = 256

    def __post_init__(self) -> None:
        self._lock = threading.RLock()
        self._pins: Dict[str, PinnedPlan] = {}
        self._incumbents: Dict[str, Incumbent] = {}
        self._quarantine: Dict[str, QuarantinedPlan] = {}
        self._events: Deque[RegistryEvent] = deque(maxlen=self.max_events)
        self.pins_taken = 0
        self.unpins = 0
        self.pinned_hits = 0
        self.refreshes = 0
        self.rollbacks = 0

    # -- pinning -------------------------------------------------------

    def pin(
        self,
        key: str,
        plan: PhysicalPlan,
        cost_total: float,
        required: PhysProps,
        *,
        certificate: Optional[PlanCertificate] = None,
        kind: str = "user",
        verified: bool = False,
        statistics_version: int = 0,
        reason: str = "",
    ) -> PinnedPlan:
        """Fix ``plan`` for ``key``; it is served until :meth:`unpin`.

        Certificate verification is the *caller's* job (the server has
        the service and its model spec); ``verified`` records the
        outcome.  Re-pinning a pinned key replaces the pin.
        """
        pinned = PinnedPlan(
            key=key,
            plan=plan,
            cost_total=cost_total,
            required=required,
            certificate=certificate,
            kind=kind,
            verified=verified,
            pinned_version=statistics_version,
            reason=reason,
        )
        with self._lock:
            self._pins[key] = pinned
            self.pins_taken += 1
            self._events.append(
                RegistryEvent(
                    kind="pin",
                    key=key,
                    detail=f"{kind} pin (cost {cost_total:.1f}): {reason}".rstrip(
                        ": "
                    ),
                    statistics_version=statistics_version,
                )
            )
        return pinned

    def unpin(self, key: str, statistics_version: int = 0) -> Optional[PinnedPlan]:
        """Lift the pin on ``key``; returns it, or None when not pinned.

        Unpinning also clears any quarantine record for the key — the
        operator has taken over; the next optimization starts clean.
        """
        with self._lock:
            pinned = self._pins.pop(key, None)
            if pinned is None:
                return None
            self._quarantine.pop(key, None)
            self.unpins += 1
            self._events.append(
                RegistryEvent(
                    kind="unpin",
                    key=key,
                    detail=f"{pinned.kind} pin lifted",
                    statistics_version=statistics_version,
                )
            )
            return pinned

    def pinned(self, key: str) -> Optional[PinnedPlan]:
        """The pin for ``key``, or None.  Does not count a hit."""
        with self._lock:
            return self._pins.get(key)

    def record_pinned_hit(self, key: str) -> None:
        """Count one request served straight from a pin."""
        with self._lock:
            self.pinned_hits += 1

    def pins(self) -> List[PinnedPlan]:
        """Every live pin (user pins and guard rollbacks)."""
        with self._lock:
            return list(self._pins.values())

    # -- evidence ------------------------------------------------------

    def observe(
        self,
        key: str,
        plan: PhysicalPlan,
        *,
        max_q_error: float,
        work: Optional[float] = None,
    ) -> bool:
        """Fold one instrumented execution into the key's incumbent.

        Evidence only counts when the executed plan *is* the incumbent
        plan — a pinned or rolled-back request may execute something
        else, and its q-errors say nothing about the incumbent.
        Returns whether the observation was attributed.
        """
        with self._lock:
            incumbent = self._incumbents.get(key)
            if incumbent is None or not _same_plan(incumbent.plan, plan):
                return False
            worst = incumbent.observed_q_error
            incumbent.observed_q_error = (
                max_q_error if worst is None else max(worst, max_q_error)
            )
            if work is not None:
                incumbent.observed_work = work
            incumbent.executions += 1
            return True

    def incumbent(self, key: str) -> Optional[Incumbent]:
        """The currently adopted plan for ``key``, if any."""
        with self._lock:
            return self._incumbents.get(key)

    # -- the regression guard ------------------------------------------

    def admit(
        self,
        key: str,
        plan: PhysicalPlan,
        cost_total: float,
        required: PhysProps,
        *,
        certificate: Optional[PlanCertificate] = None,
        statistics_version: int = 0,
    ) -> GuardDecision:
        """Judge one fresh optimization for ``key``; maybe roll it back.

        Call with every *fresh* (non-degraded) answer the service
        produced.  The decision's ``plan`` is what must be served; on
        ``"rollback"`` that is the incumbent's plan and a ``rollback``
        pin now guards the key (lift it with :meth:`unpin` to let the
        optimizer try again).
        """
        with self._lock:
            incumbent = self._incumbents.get(key)
            if incumbent is None or not self.options.guard_plans:
                self._adopt(
                    key, plan, cost_total, required, certificate,
                    statistics_version,
                )
                return GuardDecision(
                    action="adopt", plan=plan, cost_total=cost_total
                )
            if _same_plan(incumbent.plan, plan):
                # Same plan, possibly re-derived under new statistics:
                # keep the evidence, move the baseline to the fresh
                # estimate (it reflects the current statistics).
                incumbent.cost_total = cost_total
                incumbent.adopted_version = statistics_version
                return GuardDecision(
                    action="retain", plan=plan, cost_total=cost_total
                )
            evidence = incumbent.observed_q_error
            if evidence is None:
                # Never executed: no grounds to distrust the refresh.
                self._adopt(
                    key, plan, cost_total, required, certificate,
                    statistics_version,
                )
                return GuardDecision(
                    action="refresh", plan=plan, cost_total=cost_total
                )
            slack = max(1.0, min(self.options.guard_slack_cap, evidence))
            allowed = incumbent.cost_total * self.options.guard_threshold * slack
            if cost_total <= allowed:
                self.refreshes += 1
                detail = (
                    f"refresh accepted: cost {cost_total:.1f} within "
                    f"allowance {allowed:.1f} (q-error slack {slack:.2f})"
                )
                self._events.append(
                    RegistryEvent(
                        kind="refresh",
                        key=key,
                        detail=detail,
                        statistics_version=statistics_version,
                    )
                )
                self._adopt(
                    key, plan, cost_total, required, certificate,
                    statistics_version,
                )
                return GuardDecision(
                    action="refresh",
                    plan=plan,
                    cost_total=cost_total,
                    allowed=allowed,
                    detail=detail,
                )
            # Regression: quarantine the candidate and re-install the
            # incumbent behind a rollback pin so later requests do not
            # re-trip the guard (or re-run the engine) on every call.
            self.rollbacks += 1
            self._quarantine[key] = QuarantinedPlan(
                key=key,
                cost_total=cost_total,
                allowed=allowed,
                incumbent_cost_total=incumbent.cost_total,
                statistics_version=statistics_version,
            )
            detail = (
                f"rolled back: refreshed cost {cost_total:.1f} exceeds "
                f"allowance {allowed:.1f} (incumbent "
                f"{incumbent.cost_total:.1f}, q-error slack {slack:.2f})"
            )
            self._events.append(
                RegistryEvent(
                    kind="rollback",
                    key=key,
                    detail=detail,
                    statistics_version=statistics_version,
                )
            )
            self.pin(
                key,
                incumbent.plan,
                incumbent.cost_total,
                incumbent.required,
                certificate=incumbent.certificate,
                kind="rollback",
                verified=False,
                statistics_version=statistics_version,
                reason="regression guard",
            )
            return GuardDecision(
                action="rollback",
                plan=incumbent.plan,
                cost_total=incumbent.cost_total,
                allowed=allowed,
                detail=detail,
            )

    def _adopt(
        self,
        key: str,
        plan: PhysicalPlan,
        cost_total: float,
        required: PhysProps,
        certificate: Optional[PlanCertificate],
        statistics_version: int,
    ) -> None:
        self._incumbents[key] = Incumbent(
            key=key,
            plan=plan,
            cost_total=cost_total,
            required=required,
            certificate=certificate,
            adopted_version=statistics_version,
        )

    # -- introspection -------------------------------------------------

    def quarantined(self, key: str) -> Optional[QuarantinedPlan]:
        """The rejected refresh for ``key``, if the guard rolled one back."""
        with self._lock:
            return self._quarantine.get(key)

    def events(self) -> List[RegistryEvent]:
        """The bounded event log, oldest first."""
        with self._lock:
            return list(self._events)

    def counters(self) -> Dict[str, int]:
        """Registry totals for the stats endpoint."""
        with self._lock:
            return {
                "pins": len(self._pins),
                "incumbents": len(self._incumbents),
                "quarantined": len(self._quarantine),
                "pins_taken": self.pins_taken,
                "unpins": self.unpins,
                "pinned_hits": self.pinned_hits,
                "refreshes": self.refreshes,
                "rollbacks": self.rollbacks,
            }

    def state(self) -> Dict[str, object]:
        """A JSON-ready summary for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "counters": self.counters(),
                "pins": [
                    {
                        "key": pin.key,
                        "kind": pin.kind,
                        "cost_total": pin.cost_total,
                        "verified": pin.verified,
                        "pinned_version": pin.pinned_version,
                        "reason": pin.reason,
                    }
                    for pin in self._pins.values()
                ],
                "quarantined": [
                    record.as_dict() for record in self._quarantine.values()
                ],
                "events": [event.as_dict() for event in self._events],
            }
