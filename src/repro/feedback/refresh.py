"""Adaptive statistics refresh driven by execution feedback.

:func:`refresh_statistics` closes the loop: tables whose accumulated
feedback shows drift beyond a :class:`FeedbackPolicy`'s q-error
threshold get fresh :class:`TableStatistics` written back through the
catalog's versioned mutation API (:meth:`Catalog.update_statistics`).
The version bump is the whole point — it invalidates exactly the cached
plans that read the refreshed table (the
:class:`~repro.service.OptimizerService` keys its cache on per-table
statistics versions), so re-optimization is surgical, never a cache
flush.

Two refresh sources, in preference order:

1. **ANALYZE** — when the catalog stores the table's rows, recompute
   row count, per-column distinct counts, and value ranges from the
   data itself (exact, and the only source consistent with the
   catalog's row-count validation).
2. **Observed cardinality** — otherwise, scale the existing statistics
   to the true row count a complete scan observed, growing distinct
   counts proportionally (capped at the row count) and keeping ranges.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog, TableEntry
from repro.catalog.statistics import ColumnStatistics, TableStatistics
from repro.errors import OptionsError
from repro.feedback.store import FeedbackStore
from repro.options import OptionsBase, check_positive

__all__ = [
    "FeedbackPolicy",
    "RefreshResult",
    "analyze_rows",
    "refresh_statistics",
]


@dataclasses.dataclass(frozen=True, kw_only=True)
class FeedbackPolicy(OptionsBase):
    """When observed drift is bad enough to rewrite statistics.

    ``max_q_error``
        Tolerated worst-case q-error; a table drifts when any of its
        operators' estimates missed by more than this factor.  2.0
        ("off by more than 2x either way") is a conventional default —
        below it, plan choices rarely change.
    ``min_observations``
        Comparable (estimate, observation) pairs required before the
        threshold may fire, guarding against acting on a single noisy
        query.
    ``analyze_rows``
        Whether to recompute statistics from stored rows when the
        catalog has them (exact), rather than only scaling to the
        observed cardinality.
    ``buckets``
        Selectivity-bucket count for the feedback store's per-predicate
        aggregation; matches the plan cache's bucketing.
    """

    max_q_error: float = 2.0
    min_observations: int = 1
    analyze_rows: bool = True
    buckets: int = 10

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("min_observations", self.min_observations)
        check_positive("buckets", self.buckets)
        if self.max_q_error < 1.0:
            raise OptionsError(
                f"max_q_error must be >= 1.0 (1.0 means exact), "
                f"got {self.max_q_error!r}"
            )


@dataclass(frozen=True)
class RefreshResult:
    """What a refresh pass did.

    ``refreshed`` lists tables whose statistics were rewritten, with
    ``versions`` holding each one's (old, new) table version — the new
    version is what invalidates that table's cached plans.  ``skipped``
    lists tables that drifted past the policy but had no usable
    cardinality source (no stored rows and no complete-scan
    observation).
    """

    refreshed: Tuple[str, ...]
    versions: Dict[str, Tuple[int, int]]
    skipped: Tuple[str, ...] = ()

    @property
    def did_refresh(self) -> bool:
        return bool(self.refreshed)

    def __str__(self) -> str:
        if not self.refreshed and not self.skipped:
            return "refresh: no drifted tables"
        parts = [
            f"{name} v{old}->v{new}"
            for name, (old, new) in sorted(self.versions.items())
        ]
        line = "refreshed " + ", ".join(parts) if parts else "refreshed nothing"
        if self.skipped:
            line += f" (skipped: {', '.join(sorted(self.skipped))})"
        return line


def _column_range(values: List[object]):
    """(min, max) over the numeric values, or (None, None)."""
    numeric = [v for v in values if isinstance(v, (int, float))]
    if not numeric:
        return None, None
    return min(numeric), max(numeric)


def analyze_rows(entry: TableEntry) -> TableStatistics:
    """Exact statistics recomputed from a table's stored rows (ANALYZE).

    Keeps the entry's row width (a storage property, not a data one)
    and covers exactly the columns the existing statistics cover, so
    the rewritten statistics slot into every consumer unchanged.
    """
    rows = entry.rows or []
    columns: Dict[str, ColumnStatistics] = {}
    for name in entry.statistics.columns:
        values = [row[name] for row in rows if name in row]
        low, high = _column_range(values)
        columns[name] = ColumnStatistics(
            distinct_values=float(len(set(values))) if values else 0.0,
            min_value=low,
            max_value=high,
        )
    return TableStatistics(
        row_count=float(len(rows)),
        row_width=entry.statistics.row_width,
        columns=columns,
    )


def _scaled_statistics(
    entry: TableEntry, observed_rows: int
) -> TableStatistics:
    """Existing statistics rescaled to an observed true cardinality."""
    old = entry.statistics
    factor = observed_rows / old.row_count if old.row_count > 0 else 1.0
    columns = {
        name: ColumnStatistics(
            distinct_values=max(
                1.0,
                min(float(observed_rows), stats.distinct_values * max(1.0, factor)),
            )
            if observed_rows
            else 0.0,
            min_value=stats.min_value,
            max_value=stats.max_value,
        )
        for name, stats in old.columns.items()
    }
    return TableStatistics(
        row_count=float(observed_rows),
        row_width=old.row_width,
        columns=columns,
    )


def refresh_statistics(
    catalog: Catalog,
    store: FeedbackStore,
    *,
    policy: Optional[FeedbackPolicy] = None,
) -> RefreshResult:
    """Rewrite statistics for every table the store says has drifted.

    Mutations go through :meth:`Catalog.update_statistics`, so each
    refreshed table's version is bumped — exact invalidation for
    version-keyed plan caches; untouched tables keep their versions and
    their cached plans stay warm.  Consumed feedback is cleared for
    refreshed tables so one drift episode triggers one refresh.
    """
    policy = policy or FeedbackPolicy()
    refreshed: List[str] = []
    skipped: List[str] = []
    versions: Dict[str, Tuple[int, int]] = {}
    for name in store.drifted_tables(policy):
        if name not in catalog:
            skipped.append(name)
            continue
        entry = catalog.table(name)
        if policy.analyze_rows and entry.rows is not None:
            statistics = analyze_rows(entry)
        elif entry.rows is not None:
            # Rows are authoritative: the catalog validates row_count
            # against them, so an observed count may not disagree.
            statistics = _scaled_statistics(entry, len(entry.rows))
        else:
            observed = store.observed_row_count(name)
            if observed is None:
                skipped.append(name)
                continue
            statistics = _scaled_statistics(entry, observed)
        old_version = catalog.table_version(name)
        published = catalog.update_statistics(name, statistics)
        versions[name] = (old_version, published.table_version(name))
        refreshed.append(name)
        store.clear_table(name)
    return RefreshResult(
        refreshed=tuple(refreshed),
        versions=versions,
        skipped=tuple(skipped),
    )
