"""A search reads one catalog version, whatever writes land while it runs.

A search derives a table's logical properties (cardinality, column
statistics) when its class is created and prices its file scan later,
each from the catalog.  Both must read one statistics version, or the
plan's certificate agrees with neither.  Here a statistics write to
every table lands in the middle of a search — after the search's Nth
selectivity estimate, through the engine's own estimator — and the
answer must be exactly the answer of an undisturbed search at the
version the search started under, its certificate verifying against
the snapshot the result carries.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.catalog.selectivity import SelectivityEstimator
from repro.models.relational import relational_model
from repro.search import SearchOptions, VolcanoOptimizer
from repro.verify import verify_plan
from repro.workloads import QueryGenerator, WorkloadOptions

SPEC = relational_model()
OPTIONS = SearchOptions(certificates=True)


def _chain(seed: int = 7):
    """A fresh 6-relation chain query and its own catalog."""
    return QueryGenerator(WorkloadOptions(shape="chain")).generate(6, seed)


class _WritingEstimator(SelectivityEstimator):
    """Writes new statistics to every table of ``catalog`` once, after
    its ``after``-th estimate: a writer racing the search."""

    def __init__(self, catalog, after: int) -> None:
        super().__init__()
        self.catalog, self.after, self.calls = catalog, after, 0

    def estimate(self, predicate, column_stats) -> float:
        self.calls += 1
        if self.calls == self.after:
            for entry in list(self.catalog.tables()):
                statistics = entry.statistics
                self.catalog.update_statistics(
                    entry.name,
                    dataclasses.replace(
                        statistics,
                        row_count=statistics.row_count * 3,
                        row_width=statistics.row_width * 2,
                    ),
                )
        return super().estimate(predicate, column_stats)


@pytest.mark.parametrize("after", [1, 8, 40])
def test_a_write_during_the_search_is_not_part_of_its_answer(after):
    quiet = _chain()
    reference = VolcanoOptimizer(SPEC, quiet.catalog, OPTIONS).optimize(
        quiet.query, quiet.required
    )
    raced = _chain()
    catalog = raced.catalog
    before = catalog.statistics_version
    estimator = _WritingEstimator(catalog, after)
    result = VolcanoOptimizer(SPEC, catalog, OPTIONS, estimator).optimize(
        raced.query, raced.required
    )
    assert estimator.calls > after  # the write landed mid-search
    assert catalog.statistics_version == before + len(catalog.table_names())
    assert result.plan.to_sexpr() == reference.plan.to_sexpr()
    assert result.cost == reference.cost
    assert result.catalog.statistics_version == before
    report = verify_plan(
        SPEC,
        raced.query,
        result.plan,
        result.certificate,
        catalog=result.catalog,
        estimator=estimator,
    )
    assert report.ok, report.diagnostics
