"""Execution runtime: per-query statistics and context.

The executor exists so optimized plans actually run — the Volcano
project's query execution engine is the substrate the optimizer
generator was built for ("compiled and linked with the other DBMS
software such as the query execution engine").  The statistics let the
benchmarks validate the cost model's inputs against reality (DESIGN.md
invariant 8): page counts for scans are exact, row counts compare
against cardinality estimates.

Beyond the aggregate counters, the stats carry *per-operator* observed
row counts keyed by the plan node's stable id (assigned by
:class:`~repro.executor.compile.PlanCompiler` in instrumented mode, in
pre-order so id ``i`` is the ``i``-th node of
:meth:`PhysicalPlan.walk`).  These are what the execution-feedback
subsystem (:mod:`repro.feedback`) joins against the optimizer's
cardinality estimates to compute q-errors.  Instrumentation is
observation-only: uninstrumented runs leave the per-node maps empty and
behave byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.catalog.catalog import Catalog

__all__ = ["ExecutionStats", "ExecutionContext"]


@dataclass
class ExecutionStats:
    """Counters accumulated while a plan runs.

    ``node_rows``
        Rows each instrumented plan node returned from ``next()``, keyed
        by the node's stable (pre-order) id.  Demand-driven: an operator
        whose consumer stopped pulling reports the rows actually
        produced, which is what execution effort reflects.
    ``node_scan_rows``
        Rows each instrumented *scan* node read from its stored table
        (pre-filter for the combined filter_scan operator).
    ``node_scan_complete``
        Whether that scan ran to exhaustion — only then is its read
        count an observation of the table's true cardinality.
    """

    pages_read: int = 0
    pages_written: int = 0
    rows_scanned: int = 0
    rows_emitted: int = 0
    rows_sorted: int = 0
    hash_build_rows: int = 0
    hash_probe_rows: int = 0
    comparisons: int = 0
    exchanges: int = 0
    operators_opened: int = 0
    operators_closed: int = 0
    node_rows: Dict[int, int] = field(default_factory=dict)
    node_scan_rows: Dict[int, int] = field(default_factory=dict)
    node_scan_complete: Dict[int, bool] = field(default_factory=dict)

    def work(self) -> float:
        """A scalar proxy for execution effort, comparable across plans.

        Pages are weighted to reflect that I/O dominates row handling in
        the cost model; the row-level counters approximate CPU work.
        Deterministic for a fixed plan and dataset, so tests can assert
        "the re-optimized plan did less work" without wall-clock noise.
        """
        return (
            10.0 * (self.pages_read + self.pages_written)
            + self.rows_scanned
            + self.rows_emitted
            + self.rows_sorted
            + self.hash_build_rows
            + self.hash_probe_rows
            + self.comparisons
            + self.exchanges
        )

    def __str__(self) -> str:
        return (
            f"io={self.pages_read}r/{self.pages_written}w "
            f"rows={self.rows_scanned}scan/{self.rows_emitted}out "
            f"sorted={self.rows_sorted} hash={self.hash_build_rows}b/"
            f"{self.hash_probe_rows}p"
        )


class ExecutionContext:
    """Shared state for one plan execution."""

    def __init__(
        self,
        catalog: Catalog,
        stats: Optional[ExecutionStats] = None,
        intermediates: Optional[Dict[str, list]] = None,
    ):
        self.catalog = catalog
        self.page_size = catalog.page_size
        self.stats = stats if stats is not None else ExecutionStats()
        # Materialized intermediates (multi-query sharing): name → rows.
        # Pass one dict across several executions so a batch's producer
        # plans feed its consumer plans.
        self.intermediates: Dict[str, list] = (
            intermediates if intermediates is not None else {}
        )

    def pages_for(self, row_count: int, row_width: int) -> int:
        """Page count for ``row_count`` rows of ``row_width`` bytes."""
        rows_per_page = max(1, self.page_size // max(1, row_width))
        return max(1, math.ceil(row_count / rows_per_page)) if row_count else 0
