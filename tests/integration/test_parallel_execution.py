"""End-to-end parallel model: optimized exchange plans execute correctly."""

import pytest

from repro.algebra.predicates import eq
from repro.catalog import Catalog
from repro.executor import ExecutionStats, TableSpec, execute_plan, populate_catalog
from repro.models.parallel import (
    ParallelModelOptions,
    parallel_relational_model,
    partitioned_on,
)
from repro.models.relational import get, join
from repro.search import VolcanoOptimizer


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("fact", 2000, key_distinct=200),
            TableSpec("dim", 1500, key_distinct=200),
        ],
        seed=31,
    )
    return catalog


def canonical(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def test_partitioned_scan_executes(catalog):
    optimizer = VolcanoOptimizer(parallel_relational_model(), catalog)
    result = optimizer.optimize(
        get("fact"), props=partitioned_on(["fact.k"], 4)
    )
    stats = ExecutionStats()
    rows = execute_plan(result.plan, catalog, stats)
    assert len(rows) == 2000
    assert stats.exchanges == 2000  # every row crossed the exchange


def test_parallel_join_plan_executes_and_matches_serial(catalog):
    from repro.executor import HashJoin  # executes the parallel join too
    from repro.executor.compile import PlanCompiler
    from repro.executor.runtime import ExecutionContext

    fast = ParallelModelOptions(degree=8, cpu_transfer=0.1, startup=10.0)
    optimizer = VolcanoOptimizer(parallel_relational_model(fast), catalog)
    query = join(get("fact"), get("dim"), eq("fact.k", "dim.k"))
    result = optimizer.optimize(query)
    assert "parallel_hash_join" in result.plan.algorithms_used()

    compiler = PlanCompiler(catalog)
    # The parallel join runs as an ordinary hash join over the exchanged
    # (partitioned) streams in this single-process simulation.
    compiler.register(
        "parallel_hash_join",
        lambda c, ctx, plan, inputs: HashJoin(
            ctx,
            inputs[0],
            inputs[1],
            __import__("repro.algebra.predicates", fromlist=["x"]).equi_join_pairs(
                plan.args[0],
                frozenset(inputs[0].output_columns),
                frozenset(inputs[1].output_columns),
            ),
        ),
    )
    context = ExecutionContext(catalog)
    rows = compiler.compile(result.plan, context).drain()

    from repro.models.relational import relational_model

    serial = VolcanoOptimizer(relational_model(), catalog).optimize(query)
    serial_rows = execute_plan(serial.plan, catalog)
    assert canonical(rows) == canonical(serial_rows)
    assert context.stats.exchanges > 0
