"""Synthetic drifted workloads for exercising the feedback loop.

The canonical demonstration scenario, shared by the end-to-end tests
(``tests/feedback/test_service_loop.py`` pins its counters), the server
tests, and ``examples/feedback_loop.py``: a three-table join whose smallest table
quietly grows ~4x past its catalog statistics.  The stale statistics
make the optimizer schedule the grown table early (it believes the
table is small), producing an oversized intermediate; once feedback
refreshes the statistics, re-optimization pushes it later and the
measured execution work drops.

Everything is seeded and deterministic — the scenario's q-errors and
per-plan work counters are exact, so tests assert on them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import eq
from repro.catalog.catalog import Catalog
from repro.executor.data import TableSpec, generate_table
from repro.models.relational import get, join

__all__ = ["DriftScenario", "drifted_workload"]


@dataclass
class DriftScenario:
    """A catalog + query pair with one table primed to drift.

    :meth:`grow` performs the drift: it appends rows to the drifting
    table *without* touching its statistics or version — exactly what
    organic data growth looks like to an optimizer that never
    re-analyzes.  Cached plans stay "valid" by version, yet their
    cardinality estimates are now wrong by ``growth``x.
    """

    catalog: Catalog
    query: LogicalExpression
    drifting_table: str
    seed: int
    growth: int
    grown: bool = False
    _extra: List[dict] = field(default_factory=list, repr=False)

    def grow(self) -> int:
        """Grow the drifting table in place; returns rows added.

        Idempotent: growing twice is a no-op.
        """
        if self.grown:
            return 0
        entry = self.catalog.table(self.drifting_table)
        assert entry.rows is not None
        entry.rows.extend(self._extra)
        self.grown = True
        return len(self._extra)


def drifted_workload(seed: int = 7, growth: int = 4) -> DriftScenario:
    """Build the canonical drift scenario.

    Tables ``r`` (300 rows by its statistics), ``s`` (900), ``t`` (600)
    share a 50-distinct join key; the query is the chain join
    ``(r ⋈ s) ⋈ t``.  The returned scenario's :meth:`~DriftScenario.grow`
    multiplies ``r``'s stored rows by ``growth`` while its statistics
    keep claiming 300 — scans then observe the true cardinality and the
    feedback loop has something to correct.
    """
    if growth < 2:
        raise ValueError(f"growth must be at least 2, got {growth}")
    catalog = Catalog()
    for spec in (
        TableSpec("r", 300, key_distinct=50),
        TableSpec("s", 900, key_distinct=50),
        TableSpec("t", 600, key_distinct=50),
    ):
        schema, statistics, rows = generate_table(spec, seed)
        catalog.add_table(spec.name, schema, statistics, rows)
    extra = generate_table(
        TableSpec("r", 300 * (growth - 1), key_distinct=50), seed + 1
    )[2]
    query = join(
        join(get("r"), get("s"), eq("r.k", "s.k")),
        get("t"),
        eq("s.k", "t.k"),
    )
    return DriftScenario(
        catalog=catalog,
        query=query,
        drifting_table="r",
        seed=seed,
        growth=growth,
        _extra=extra,
    )
