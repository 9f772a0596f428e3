"""Aggregated execution feedback, keyed the way the plan cache thinks.

The :class:`FeedbackStore` accumulates :class:`FeedbackReport`s across
queries and distills them into the two signals the adaptive loop needs:

* **per-table drift** — the worst q-error seen for operators attributed
  to each table, plus the table's last observed true cardinality (from
  scans that ran to exhaustion).  :meth:`drifted_tables` thresholds
  these against a policy to decide which tables' statistics are stale.
* **per (table, predicate-bucket) selectivities** — observed
  selectivities aggregated under the same bucketing scheme the plan
  cache uses for parameterized queries
  (:func:`repro.sql.normalize.selectivity_bucket`), so telemetry lines
  up with cache-entry granularity.

Reports from degraded plans (produced under resource pressure) count
toward telemetry but are quarantined from the drift signals: a plan the
optimizer knowingly cut short must never trigger a statistics rewrite.
Reports from plan-cache template hits are quarantined the same way:
their estimates are the cached optimization's, made for other literals,
so a miss measures the literals' distance as much as the statistics'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.feedback.report import FeedbackReport, OperatorFeedback
from repro.sql.normalize import selectivity_bucket

__all__ = ["TableFeedback", "BucketFeedback", "FeedbackStore"]

BucketKey = Tuple[Tuple[str, str], ...]


@dataclass
class TableFeedback:
    """Accumulated drift evidence for one table."""

    observations: int = 0
    max_q_error: float = 1.0
    observed_rows: Optional[int] = None
    row_observations: int = 0


@dataclass
class BucketFeedback:
    """Observed selectivities for one (table, predicate-bucket) key."""

    observations: int = 0
    total_selectivity: float = 0.0
    max_q_error: float = 1.0

    @property
    def mean_selectivity(self) -> float:
        return self.total_selectivity / self.observations if self.observations else 0.0


_HISTOGRAM_EDGES: Tuple[Tuple[str, float], ...] = (
    ("<=1.5", 1.5),
    ("<=2", 2.0),
    ("<=4", 4.0),
    ("<=10", 10.0),
)


class FeedbackStore:
    """Accumulates feedback reports; the memory of the adaptive loop."""

    def __init__(self, buckets: int = 10):
        self.buckets = buckets
        self.reports = 0
        self.degraded_reports = 0
        self._tables: Dict[str, TableFeedback] = {}
        self._predicates: Dict[Tuple[str, BucketKey, int], BucketFeedback] = {}
        self._histogram: Dict[str, int] = {label: 0 for label, _ in _HISTOGRAM_EDGES}
        self._histogram[">10"] = 0

    # -- recording --------------------------------------------------------

    def record(self, report: FeedbackReport) -> None:
        """Fold one executed plan's report into the aggregates."""
        self.reports += 1
        if report.degraded:
            self.degraded_reports += 1
        for op in report.operators:
            error = op.q_error
            if error is not None:
                self._count_histogram(error)
            if op.table is None:
                continue
            table = self._tables.setdefault(op.table, TableFeedback())
            if report.degraded or report.rebound:
                continue
            if error is not None:
                table.observations += 1
                table.max_q_error = max(table.max_q_error, error)
            if op.scan_complete and op.scanned_rows is not None:
                table.observed_rows = op.scanned_rows
                table.row_observations += 1
            self._record_predicate(report, op, error)

    def _record_predicate(
        self,
        report: FeedbackReport,
        op: OperatorFeedback,
        error: Optional[float],
    ) -> None:
        if op.predicate is None or op.actual_rows is None:
            return
        input_rows = op.scanned_rows
        if input_rows is None:
            input_rows = self._input_rows(report, op)
        if not input_rows:
            return
        shape: List[Tuple[str, str]] = []
        for conjunct in op.predicate.conjuncts():
            literal = getattr(conjunct, "column_literal", lambda: None)()
            if literal is None:
                return
            column, comparison_op, _ = literal
            shape.append((column, comparison_op.value))
        if not shape:
            return
        selectivity = min(1.0, op.actual_rows / input_rows)
        key = (
            op.table or "",
            tuple(sorted(shape)),
            selectivity_bucket(selectivity, self.buckets),
        )
        bucket = self._predicates.setdefault(key, BucketFeedback())
        bucket.observations += 1
        bucket.total_selectivity += selectivity
        if error is not None:
            bucket.max_q_error = max(bucket.max_q_error, error)

    @staticmethod
    def _input_rows(report: FeedbackReport, op: OperatorFeedback) -> Optional[int]:
        """A unary operator's input cardinality: its child's output rows.

        Node ids are pre-order positions, so a unary node's child is
        always ``node_id + 1``.
        """
        try:
            return report.operator(op.node_id + 1).actual_rows
        except KeyError:
            return None

    def _count_histogram(self, error: float) -> None:
        for label, edge in _HISTOGRAM_EDGES:
            if error <= edge:
                self._histogram[label] += 1
                return
        self._histogram[">10"] += 1

    # -- querying ---------------------------------------------------------

    def table_feedback(self, table: str) -> Optional[TableFeedback]:
        """The accumulated evidence for ``table``, or None when unseen."""
        return self._tables.get(table)

    def observed_row_count(self, table: str) -> Optional[int]:
        """The table's last observed true cardinality, if any scan saw it."""
        feedback = self._tables.get(table)
        return feedback.observed_rows if feedback is not None else None

    def max_q_error(self, table: Optional[str] = None) -> float:
        """Worst q-error for ``table`` (or across all tables)."""
        if table is not None:
            feedback = self._tables.get(table)
            return feedback.max_q_error if feedback is not None else 1.0
        if not self._tables:
            return 1.0
        return max(feedback.max_q_error for feedback in self._tables.values())

    def drifted_tables(self, policy) -> Tuple[str, ...]:
        """Tables whose estimates missed badly enough to act on.

        A table drifts when it has at least ``policy.min_observations``
        comparable observations and its worst q-error exceeds
        ``policy.max_q_error``.
        """
        return tuple(
            name
            for name, feedback in self._tables.items()
            if feedback.observations >= policy.min_observations
            and feedback.max_q_error > policy.max_q_error
        )

    def bucket_feedback(
        self,
    ) -> Dict[Tuple[str, BucketKey, int], BucketFeedback]:
        """The per (table, predicate-shape, bucket) aggregates."""
        return dict(self._predicates)

    def q_error_histogram(self) -> Dict[str, int]:
        """Per-operator q-errors binned for telemetry dashboards."""
        return dict(self._histogram)

    def clear_table(self, table: str) -> None:
        """Drop a table's accumulated evidence (after a refresh consumed it)."""
        self._tables.pop(table, None)
        for key in [key for key in self._predicates if key[0] == table]:
            del self._predicates[key]

    def render(self) -> str:
        """Human-readable telemetry summary."""
        lines = [
            f"feedback store: {self.reports} reports "
            f"({self.degraded_reports} degraded)"
        ]
        histogram = " ".join(
            f"{label}:{count}" for label, count in self._histogram.items()
        )
        lines.append(f"q-error histogram: {histogram}")
        for name in sorted(self._tables):
            feedback = self._tables[name]
            observed = (
                str(feedback.observed_rows)
                if feedback.observed_rows is not None
                else "-"
            )
            lines.append(
                f"  {name}: max q-error {feedback.max_q_error:.2f} over "
                f"{feedback.observations} observations, observed rows {observed}"
            )
        return "\n".join(lines)
