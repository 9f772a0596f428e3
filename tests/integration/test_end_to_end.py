"""End-to-end: optimize with every engine, execute, compare results.

DESIGN.md invariant 1 (memo soundness): every plan the optimizers choose
computes the same bag of rows as a naive reference evaluation of the
logical query.
"""

import pytest

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import conjunction_of, eq
from repro.algebra.properties import sorted_on
from repro.catalog import Catalog
from repro.executor import TableSpec, execute_plan, populate_catalog
from repro.exodus import ExodusOptimizer
from repro.models.relational import get, join, relational_model, select
from repro.search import SearchOptions, VolcanoOptimizer
from repro.systemr import SystemROptimizer, SystemROptions


def reference_evaluate(query: LogicalExpression, catalog: Catalog):
    """Naive semantics of the logical algebra, independent of the executor."""
    if query.operator == "get":
        table, alias = query.args
        rows = catalog.table(table).rows
        if alias is not None:
            return [
                {f"{alias}.{k}": v for k, v in row.items()} for row in rows
            ]
        return [dict(row) for row in rows]
    if query.operator == "select":
        (predicate,) = query.args
        return [
            row
            for row in reference_evaluate(query.inputs[0], catalog)
            if predicate.evaluate(row)
        ]
    if query.operator == "join":
        (predicate,) = query.args
        left = reference_evaluate(query.inputs[0], catalog)
        right = reference_evaluate(query.inputs[1], catalog)
        return [
            {**l, **r} for l in left for r in right if predicate.evaluate({**l, **r})
        ]
    if query.operator == "project":
        (columns,) = query.args
        return [
            {name: row[name] for name in columns}
            for row in reference_evaluate(query.inputs[0], catalog)
        ]
    raise AssertionError(f"unhandled operator {query.operator}")


def canonical(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 300, key_distinct=20, value_distinct=5),
            TableSpec("s", 500, key_distinct=20, value_distinct=5),
            TableSpec("t", 400, key_distinct=20, value_distinct=5),
        ],
        seed=11,
    )
    return catalog


QUERIES = {
    "scan": lambda: get("r"),
    "selection": lambda: select(get("r"), eq("r.v", 2)),
    "two_way": lambda: join(get("r"), get("s"), eq("r.k", "s.k")),
    "three_way": lambda: join(
        join(
            select(get("r"), eq("r.v", 1)),
            select(get("s"), eq("s.v", 2)),
            eq("r.k", "s.k"),
        ),
        get("t"),
        eq("s.k", "t.k"),
    ),
    "multi_key": lambda: join(
        get("r"), get("s"), conjunction_of([eq("r.k", "s.k"), eq("r.v", "s.v")])
    ),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_volcano_plans_compute_reference_results(catalog, name):
    query = QUERIES[name]()
    expected = canonical(reference_evaluate(query, catalog))
    plan = VolcanoOptimizer(relational_model(), catalog).optimize(query).plan
    assert canonical(execute_plan(plan, catalog)) == expected


@pytest.mark.parametrize("name", ["two_way", "three_way"])
def test_sorted_plans_compute_reference_results(catalog, name):
    query = QUERIES[name]()
    expected = canonical(reference_evaluate(query, catalog))
    result = VolcanoOptimizer(relational_model(), catalog).optimize(
        query, props=sorted_on("r.k")
    )
    rows = execute_plan(result.plan, catalog)
    assert canonical(rows) == expected
    keys = [row["r.k"] for row in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_exodus_plans_compute_reference_results(catalog, name):
    query = QUERIES[name]()
    expected = canonical(reference_evaluate(query, catalog))
    plan = ExodusOptimizer(relational_model(), catalog).optimize(query).plan
    assert canonical(execute_plan(plan, catalog)) == expected


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_systemr_plans_compute_reference_results(catalog, name):
    query = QUERIES[name]()
    expected = canonical(reference_evaluate(query, catalog))
    plan = SystemROptimizer(
        relational_model(), catalog, SystemROptions(bushy=True)
    ).optimize(query).plan
    assert canonical(execute_plan(plan, catalog)) == expected


def test_every_memo_plan_is_sound(catalog):
    """Extract several distinct plans from the memo; all must agree.

    Exercises equivalence-class soundness beyond the single winner: the
    same goal optimized with and without pruning, under different
    property requirements, yields plans with identical results.
    """
    query = QUERIES["three_way"]()
    expected = canonical(reference_evaluate(query, catalog))
    variants = [
        VolcanoOptimizer(relational_model(), catalog).optimize(query).plan,
        VolcanoOptimizer(
            relational_model(),
            catalog,
            SearchOptions(branch_and_bound=False, cache_failures=False),
        )
        .optimize(query)
        .plan,
        VolcanoOptimizer(relational_model(), catalog)
        .optimize(query, props=sorted_on("t.k"))
        .plan,
        VolcanoOptimizer(relational_model(), catalog)
        .optimize(query, props=sorted_on("s.k"))
        .plan,
    ]
    for plan in variants:
        assert canonical(execute_plan(plan, catalog)) == expected


def test_estimated_cardinality_tracks_actual(catalog):
    """Invariant 8: estimates within a reasonable factor of actuals."""
    from repro.model.context import OptimizerContext

    query = QUERIES["two_way"]()
    context = OptimizerContext(relational_model(), catalog)
    estimated = context.logical_props(query).cardinality
    actual = len(reference_evaluate(query, catalog))
    assert actual > 0
    assert 0.3 <= estimated / actual <= 3.0
