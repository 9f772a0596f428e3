"""Tests for plan extraction / alternative enumeration from the memo."""

import pytest

from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.models.relational import relational_model
from repro.search import VolcanoOptimizer
from repro.search.extract import alternative_plans, count_logical_expressions

from tests.helpers import chain_query, make_catalog


@pytest.fixture(scope="module")
def solved():
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    spec = relational_model()
    optimizer = VolcanoOptimizer(spec, catalog)
    result = optimizer.optimize(chain_query(["r", "s", "t"]))
    return optimizer, catalog, result


def test_count_logical_expressions(solved):
    _, _, result = solved
    count = count_logical_expressions(result.memo, result.root_group)
    # 3 gets + 3 selects + 2 exprs each for (rs) and (st) + 4 for (rst).
    assert count == 14


def test_alternatives_include_winner_cost(solved):
    optimizer, catalog, result = solved
    plans = alternative_plans(optimizer, result)
    assert plans
    costs = [plan.cost.total() for plan in plans]
    assert min(costs) == pytest.approx(result.cost.total())


def test_alternatives_are_all_valid_join_plans(solved):
    optimizer, catalog, result = solved
    for plan in alternative_plans(optimizer, result):
        leaf_tables = {args[0] for args in plan.leaf_args()}
        assert leaf_tables == {"r", "s", "t"}
        assert plan.properties.covers(ANY_PROPS)


def test_alternatives_multiple_shapes(solved):
    optimizer, catalog, result = solved
    plans = alternative_plans(optimizer, result)
    # Both (rs)t and r(st) shapes and both join algorithms appear.
    shapes = {plan.to_sexpr() for plan in plans}
    assert len(shapes) >= 4


def test_alternatives_respect_required_props(solved):
    optimizer, catalog, result = solved
    required = sorted_on("r.k")
    # Re-optimize with the sorted goal so per-goal winners exist.
    sorted_result = optimizer.optimize(chain_query(["r", "s", "t"]), props=required)
    plans = alternative_plans(optimizer, sorted_result, required=required)
    assert plans
    for plan in plans:
        assert plan.properties.covers(required)


def test_limit_respected(solved):
    optimizer, catalog, result = solved
    plans = alternative_plans(optimizer, result, limit=2)
    assert len(plans) == 2


def test_executed_alternatives_agree(solved):
    """Invariant 1 at plan level: all alternatives compute the same rows."""
    from repro.executor import execute_plan
    from repro.executor.data import TableSpec, generate_table

    optimizer, catalog, result = solved
    # Attach rows to the catalog so the plans can run.
    for name in ("r", "s", "t"):
        entry = catalog.table(name)
        if entry.rows is None:
            import random

            rng = random.Random(f"extract:{name}")
            entry.rows = [
                {
                    f"{name}.k": rng.randrange(100),
                    f"{name}.v": rng.randrange(20),
                }
                for _ in range(int(entry.statistics.row_count))
            ]
    reference = None
    for plan in alternative_plans(optimizer, result, limit=6):
        rows = sorted(
            tuple(sorted(row.items())) for row in execute_plan(plan, catalog)
        )
        if reference is None:
            reference = rows
        else:
            assert rows == reference


def test_alternatives_of_a_batch_result_answer_its_own_query():
    """Each batch result's alternatives cover exactly that query's tables."""
    catalog = make_catalog(
        [("a", 1200), ("b", 2400), ("c", 1500), ("d", 3000), ("e", 4500)]
    )
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    results = optimizer.optimize_batch(
        [chain_query(["a", "b"]), chain_query(["c", "d", "e"])]
    )
    for result, tables in zip(results, ({"a", "b"}, {"c", "d", "e"})):
        plans = alternative_plans(optimizer, result)
        assert plans
        for plan in plans:
            assert {args[0] for args in plan.leaf_args()} == tables
