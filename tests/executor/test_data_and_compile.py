"""Tests for the data generator and the plan compiler."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.catalog import Catalog
from repro.errors import ExecutionError, WorkloadError
from repro.executor import (
    ExecutionStats,
    PlanCompiler,
    TableSpec,
    execute_plan,
    generate_table,
    populate_catalog,
)
from repro.models.relational import get, join, project, relational_model, select
from repro.search import VolcanoOptimizer


# -- data generator ------------------------------------------------------------


def test_generate_table_shape():
    schema, statistics, rows = generate_table(
        TableSpec("t", rows=1200, key_distinct=100), seed=7
    )
    assert len(rows) == 1200
    assert statistics.row_count == 1200
    assert statistics.row_width == 100
    assert schema.row_width == 100
    assert set(rows[0].keys()) == {"t.k", "t.v", "t.pad"}


def test_generate_table_statistics_are_exact():
    _, statistics, rows = generate_table(
        TableSpec("t", rows=2000, key_distinct=50), seed=7
    )
    actual_distinct = len({row["t.k"] for row in rows})
    assert statistics.column("t.k").distinct_values == actual_distinct
    assert statistics.column("t.k").min_value == min(row["t.k"] for row in rows)


def test_generate_table_deterministic():
    first = generate_table(TableSpec("t", rows=100), seed=3)
    second = generate_table(TableSpec("t", rows=100), seed=3)
    assert first[2] == second[2]
    different = generate_table(TableSpec("t", rows=100), seed=4)
    assert first[2] != different[2]


def test_generate_table_rejects_bad_spec():
    with pytest.raises(WorkloadError):
        TableSpec("t", rows=-1)
    with pytest.raises(WorkloadError):
        TableSpec("t", rows=10, row_width=4)


def test_populate_catalog():
    catalog = Catalog()
    entries = populate_catalog(
        catalog, [TableSpec("a", 100), TableSpec("b", 200)], seed=1
    )
    assert [entry.name for entry in entries] == ["a", "b"]
    assert catalog.table("a").has_rows


# -- plan compilation -----------------------------------------------------------


@pytest.fixture
def catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 1200, key_distinct=100),
            TableSpec("s", 2400, key_distinct=100),
        ],
        seed=42,
    )
    return catalog


def test_execute_scan_plan(catalog):
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(get("r")).plan
    rows = execute_plan(plan, catalog)
    assert len(rows) == 1200


def test_execute_filter_scan_plan(catalog):
    query = select(get("r"), eq("r.v", 1))
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(query).plan
    rows = execute_plan(plan, catalog)
    assert rows
    assert all(row["r.v"] == 1 for row in rows)


def test_execute_join_plan(catalog):
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(query).plan
    stats = ExecutionStats()
    rows = execute_plan(plan, catalog, stats)
    assert rows
    assert all(row["r.k"] == row["s.k"] for row in rows)
    assert stats.pages_read >= 30 + 60  # both tables scanned at least once


def test_execute_sorted_plan(catalog):
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = VolcanoOptimizer(relational_model(), catalog).optimize(
        query, props=sorted_on("r.k")
    )
    rows = execute_plan(result.plan, catalog)
    keys = [row["r.k"] for row in rows]
    assert keys == sorted(keys)


def test_execute_projected_plan(catalog):
    query = project(join(get("r"), get("s"), eq("r.k", "s.k")), ["r.k", "s.v"])
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(query).plan
    rows = execute_plan(plan, catalog)
    assert set(rows[0].keys()) == {"r.k", "s.v"}


def test_execute_alias_plan(catalog):
    query = join(get("r", "x"), get("r", "y"), eq("x.r.k", "y.r.k"))
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(query).plan
    rows = execute_plan(plan, catalog)
    assert all(row["x.r.k"] == row["y.r.k"] for row in rows)


def test_scan_page_count_matches_cost_model(catalog):
    """DESIGN.md invariant 8: scan I/O counts are exact."""
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(get("r")).plan
    stats = ExecutionStats()
    execute_plan(plan, catalog, stats)
    assert stats.pages_read == plan.cost.io == 30


def test_unknown_algorithm_rejected(catalog):
    from repro.algebra.plans import PhysicalPlan

    with pytest.raises(ExecutionError):
        PlanCompiler(catalog).compile(PhysicalPlan("warp_drive"))


def test_compiler_is_extensible(catalog):
    from repro.algebra.plans import PhysicalPlan
    from repro.executor.iterators import FileScan

    compiler = PlanCompiler(catalog)
    compiler.register(
        "my_scan", lambda c, ctx, plan, inputs: FileScan(ctx, plan.args[0])
    )
    iterator = compiler.compile(PhysicalPlan("my_scan", ("r",)))
    assert len(iterator.drain()) == 1200
