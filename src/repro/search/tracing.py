"""Search instrumentation: counters and optional event traces.

The paper's Figure 4 reports optimization *time*; its text additionally
argues about *memory* (MESH nodes vs. the Volcano hash table, "less than
1 MB of work space").  These counters provide machine-independent
measures of the same quantities: groups and expressions created mirror
memory, rule/cost invocations mirror work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List

__all__ = ["SearchStats", "TraceEvent"]


@dataclass
class TraceEvent:
    """One recorded search event (only kept when tracing is enabled)."""

    kind: str
    detail: str
    depth: int = 0

    def __str__(self) -> str:
        return "  " * self.depth + f"{self.kind}: {self.detail}"


@dataclass
class SearchStats:
    """Work and memory counters for one optimization run."""

    # Memory-shaped counters.
    groups_created: int = 0
    expressions_created: int = 0
    group_merges: int = 0
    # Work-shaped counters.
    find_best_plan_calls: int = 0
    winner_hits: int = 0
    failure_hits: int = 0
    # Transformation-rule bindings matched during exploration, and
    # implementation-rule bindings matched for moves.
    transformation_bindings_tried: int = 0
    implementation_bindings_tried: int = 0
    rules_fired: int = 0
    # (member, rule) pairs skipped because the member's mask names the
    # rule (see ModelSpecification.masks_complete).
    rules_masked: int = 0
    algorithm_costings: int = 0
    enforcer_costings: int = 0
    moves_pruned: int = 0
    inputs_abandoned: int = 0
    consistency_checks: int = 0
    exploration_passes: int = 0
    # Never incremented: kept only for perf/layers.py:137, their one reader.
    binding_cache_hits: int = 0
    binding_cache_misses: int = 0
    # Moves-cache counters (repro.search.memo's probe-validated cache)
    # and union-find instrumentation.
    moves_cache_hits: int = 0
    moves_cache_misses: int = 0
    canonical_hops: int = 0
    # Resource-governance counters (repro.options.ResourceBudget).
    budget_trips: int = 0
    greedy_plans: int = 0
    # Wall-clock, filled in by the engine.
    elapsed_seconds: float = 0.0

    def memo_footprint(self) -> int:
        """A memory proxy: total groups plus expressions held."""
        return self.groups_created + self.expressions_created

    def as_dict(self) -> dict:
        """The counters as a plain dict (for reports and CSV)."""
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"groups={self.groups_created} exprs={self.expressions_created} "
            f"merges={self.group_merges} fbp={self.find_best_plan_calls} "
            f"hits={self.winner_hits}/{self.failure_hits} "
            f"rules={self.rules_fired}/{self.transformation_bindings_tried} "
            f"impl={self.implementation_bindings_tried} "
            f"masked={self.rules_masked} "
            f"costings={self.algorithm_costings}+{self.enforcer_costings} "
            f"pruned={self.moves_pruned} time={self.elapsed_seconds:.4f}s"
        )


class Tracer:
    """Collects :class:`TraceEvent` items when enabled; no-op otherwise.

    The event list is bounded by ``limit``; events past it are counted
    in ``dropped`` rather than silently discarded, and :meth:`render`
    closes a truncated trace with a single terminal ``truncated`` event
    carrying the count.
    """

    def __init__(self, enabled: bool = False, limit: int = 100_000):
        self.enabled = enabled
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def emit(self, kind: str, detail: str, depth: int = 0) -> None:
        """Record one event (counted, not kept, once over the limit)."""
        if not self.enabled:
            return
        if len(self.events) < self.limit:
            self.events.append(TraceEvent(kind, detail, depth))
        else:
            self.dropped += 1

    def render(self) -> str:
        """The recorded events as indented text."""
        lines = [str(event) for event in self.events]
        if self.dropped:
            lines.append(
                str(TraceEvent("truncated", f"{self.dropped} events dropped"))
            )
        return "\n".join(lines)
