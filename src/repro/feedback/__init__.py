"""Execution feedback: observed cardinalities, q-error, adaptive refresh.

The missing half of the optimize–execute loop.  The optimizer's cost
model runs on catalog statistics that go stale as data changes; this
package measures how stale.  An instrumented execution counts each
operator's actual output rows (:mod:`repro.executor`), a
:class:`FeedbackReport` joins those observations against the estimates
each plan node carries (the cardinality the optimizer priced it with), a
:class:`FeedbackStore` aggregates the q-errors per table and predicate
bucket, and :func:`refresh_statistics` rewrites drifted tables'
statistics through the catalog's versioned API — which invalidates
exactly the affected plan-cache entries and lets the service
transparently re-optimize.

Everything is observation-only by default: uninstrumented executions
and unchanged statistics leave plans byte-identical.
"""

from repro.feedback.driftlab import DriftScenario, drifted_workload
from repro.feedback.refresh import (
    FeedbackPolicy,
    RefreshResult,
    analyze_rows,
    refresh_statistics,
)
from repro.feedback.report import (
    FeedbackReport,
    OperatorFeedback,
    observed_report,
    q_error,
)
from repro.feedback.store import BucketFeedback, FeedbackStore, TableFeedback

__all__ = [
    "BucketFeedback",
    "DriftScenario",
    "FeedbackPolicy",
    "drifted_workload",
    "FeedbackReport",
    "FeedbackStore",
    "OperatorFeedback",
    "RefreshResult",
    "TableFeedback",
    "analyze_rows",
    "observed_report",
    "q_error",
    "refresh_statistics",
]
