"""Statistics refresh: versioned mutation, ANALYZE, scaling, policy."""

import pytest

from repro.algebra.plans import PhysicalPlan
from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics
from repro.errors import OptionsError
from repro.feedback import (
    FeedbackPolicy,
    FeedbackReport,
    FeedbackStore,
    OperatorFeedback,
    analyze_rows,
    refresh_statistics,
)


def drifted_store(table="r", estimated=40, actual=160):
    """A store holding one drifted complete-scan observation."""
    store = FeedbackStore()
    store.record(
        FeedbackReport(
            plan=PhysicalPlan("file_scan", (table, None)),
            operators=(
                OperatorFeedback(
                    node_id=0,
                    algorithm="file_scan",
                    is_enforcer=False,
                    table=table,
                    alias=None,
                    predicate=None,
                    estimated_rows=float(estimated),
                    actual_rows=actual,
                    scanned_rows=actual,
                    scan_complete=True,
                ),
            ),
        )
    )
    return store


def test_policy_validates():
    with pytest.raises(OptionsError):
        FeedbackPolicy(max_q_error=0.5)
    with pytest.raises(OptionsError):
        FeedbackPolicy(min_observations=0)
    with pytest.raises(OptionsError):
        FeedbackPolicy(buckets=0)
    FeedbackPolicy()  # defaults are valid


def test_analyze_rows_is_exact(rowed_catalog):
    entry = rowed_catalog.table("r")
    entry.rows.extend({"r.k": 50 + i, "r.v": 9} for i in range(10))
    statistics = analyze_rows(entry)
    assert statistics.row_count == 50
    assert statistics.column("r.k").distinct_values == 20  # 10 old + 10 new
    assert statistics.column("r.k").max_value == 59
    assert statistics.column("r.v").distinct_values == 6
    assert statistics.row_width == entry.statistics.row_width


def test_refresh_bumps_only_drifted_tables(rowed_catalog):
    entry = rowed_catalog.table("r")
    entry.rows.extend(
        {"r.k": i % 10, "r.v": i % 5} for i in range(120)
    )  # 4x growth, stats stale
    versions = {
        name: rowed_catalog.table_version(name)
        for name in rowed_catalog.table_names()
    }
    result = refresh_statistics(
        rowed_catalog, drifted_store(), policy=FeedbackPolicy(max_q_error=2.0)
    )
    assert result.did_refresh
    assert result.refreshed == ("r",)
    assert result.versions["r"][0] == versions["r"]
    assert result.versions["r"][1] > versions["r"]
    assert rowed_catalog.table_version("s") == versions["s"]
    assert rowed_catalog.table("r").statistics.row_count == 160
    assert "v1->" in str(result) or "v" in str(result)


def test_refresh_without_drift_is_a_no_op(rowed_catalog):
    store = drifted_store(estimated=40, actual=41)  # q-error ~1
    before = rowed_catalog.statistics_version
    result = refresh_statistics(rowed_catalog, store)
    assert not result.did_refresh
    assert rowed_catalog.statistics_version == before


def test_refresh_consumes_evidence(rowed_catalog):
    entry = rowed_catalog.table("r")
    entry.rows.extend({"r.k": i % 10, "r.v": i % 5} for i in range(120))
    store = drifted_store()
    first = refresh_statistics(rowed_catalog, store)
    assert first.did_refresh
    # Evidence consumed: a second pass finds nothing to do.
    second = refresh_statistics(rowed_catalog, store)
    assert not second.did_refresh


def test_refresh_scales_statistics_without_stored_rows():
    catalog = Catalog()
    catalog.add_table(
        "r",
        Schema.of("r.k", "r.v"),
        TableStatistics(
            40, 16, columns={"r.k": ColumnStatistics(10, 0, 9)}
        ),
    )
    result = refresh_statistics(catalog, drifted_store(estimated=40, actual=160))
    assert result.refreshed == ("r",)
    statistics = catalog.table("r").statistics
    assert statistics.row_count == 160
    # Distincts grow with the 4x factor, capped at the row count.
    assert statistics.column("r.k").distinct_values == 40
    assert statistics.column("r.k").min_value == 0  # ranges kept


def test_refresh_skips_tables_without_a_cardinality_source():
    catalog = Catalog()
    catalog.add_table(
        "r",
        Schema.of("r.k"),
        TableStatistics(40, 16),
    )
    # Drift evidence, but the scan never ran to completion: no observed
    # row count, no stored rows — nothing trustworthy to write.
    store = FeedbackStore()
    store.record(
        FeedbackReport(
            plan=PhysicalPlan("file_scan", ("r", None)),
            operators=(
                OperatorFeedback(
                    node_id=0,
                    algorithm="file_scan",
                    is_enforcer=False,
                    table="r",
                    alias=None,
                    predicate=None,
                    estimated_rows=40.0,
                    actual_rows=160,
                    scanned_rows=160,
                    scan_complete=False,
                ),
            ),
        )
    )
    before = catalog.statistics_version
    result = refresh_statistics(catalog, store)
    assert result.refreshed == ()
    assert result.skipped == ("r",)
    assert catalog.statistics_version == before


def test_refresh_skips_dropped_tables():
    store = drifted_store(table="ghost")
    result = refresh_statistics(Catalog(), store)
    assert result.skipped == ("ghost",)


def test_refreshed_statistics_satisfy_catalog_validation(rowed_catalog):
    """With stored rows, the rewrite must agree with the row count."""
    entry = rowed_catalog.table("r")
    entry.rows.extend({"r.k": i % 10, "r.v": i % 5} for i in range(120))
    # analyze_rows disabled: the scaled path must still use the stored
    # row count (the catalog validates against it), not the observation.
    result = refresh_statistics(
        rowed_catalog,
        drifted_store(actual=150),  # observation disagrees with len(rows)
        policy=FeedbackPolicy(analyze_rows=False),
    )
    assert result.refreshed == ("r",)
    assert rowed_catalog.table("r").statistics.row_count == 160
