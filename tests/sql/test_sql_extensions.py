"""Tests for the SQL extensions: BETWEEN, IN, HAVING, aggregates in SQL."""

import pytest

from repro.algebra.predicates import Conjunction, Disjunction
from repro.catalog import Catalog
from repro.errors import SqlError
from repro.executor import TableSpec, execute_plan, populate_catalog
from repro.models.aggregates import aggregate_model
from repro.search import VolcanoOptimizer
from repro.sql import parse, translate


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 1000, key_distinct=10, value_distinct=100),
            TableSpec("s", 500, key_distinct=10, value_distinct=100),
        ],
        seed=4,
    )
    return catalog


@pytest.fixture(scope="module")
def optimizer(catalog):
    return VolcanoOptimizer(aggregate_model(), catalog)


def run_sql(text, catalog, optimizer):
    translation = translate(text, catalog)
    result = optimizer.optimize(translation.expression, props=translation.required)
    return execute_plan(result.plan, catalog)


# -- parsing -------------------------------------------------------------------


def test_between_desugars_to_range_conjunction():
    statement = parse("select * from r where a between 1 and 5")
    conjuncts = statement.where.conjuncts()
    assert len(conjuncts) == 2


def test_between_binds_tighter_than_and():
    statement = parse("select * from r where a between 1 and 5 and b = 2")
    assert len(statement.where.conjuncts()) == 3


def test_in_list_desugars_to_disjunction():
    statement = parse("select * from r where a in (1, 2, 3)")
    assert isinstance(statement.where, Disjunction)
    assert len(statement.where.parts) == 3


def test_in_single_value_is_equality():
    statement = parse("select * from r where a in (7)")
    from repro.algebra.predicates import Comparison

    assert isinstance(statement.where, Comparison)


def test_having_requires_group_by():
    with pytest.raises(SqlError):
        parse("select a from r having a = 1")


def test_having_parsed():
    statement = parse(
        "select a, count(*) as n from r group by a having n >= 2"
    )
    assert statement.having is not None


# -- translation + execution -----------------------------------------------------


def test_between_execution(catalog, optimizer):
    rows = run_sql(
        "select * from r where r.v between 10 and 20", catalog, optimizer
    )
    assert rows
    assert all(10 <= row["r.v"] <= 20 for row in rows)


def test_in_execution(catalog, optimizer):
    rows = run_sql("select * from r where r.k in (1, 3)", catalog, optimizer)
    assert rows
    assert {row["r.k"] for row in rows} <= {1, 3}


def test_having_filters_groups(catalog, optimizer):
    rows = run_sql(
        "select r.k, count(*) as n from r group by r.k having n >= 90",
        catalog,
        optimizer,
    )
    reference = {}
    for row in catalog.table("r").rows:
        reference[row["r.k"]] = reference.get(row["r.k"], 0) + 1
    expected = {key for key, count in reference.items() if count >= 90}
    assert {row["r.k"] for row in rows} == expected


def test_having_on_grouping_column(catalog, optimizer):
    rows = run_sql(
        "select r.k, count(*) as n from r group by r.k having r.k <= 3",
        catalog,
        optimizer,
    )
    assert rows
    assert all(row["r.k"] <= 3 for row in rows)


def test_having_on_unknown_name_rejected(catalog):
    with pytest.raises(SqlError):
        translate(
            "select r.k, count(*) as n from r group by r.k having r.v = 1",
            catalog,
        )


def test_having_with_order_by(catalog, optimizer):
    rows = run_sql(
        "select r.k, sum(r.v) as total from r group by r.k "
        "having total >= 1 order by r.k",
        catalog,
        optimizer,
    )
    keys = [row["r.k"] for row in rows]
    assert keys == sorted(keys)


def test_aggregate_join_group_having_pipeline(catalog, optimizer):
    rows = run_sql(
        "select r.k, count(*) as n from r join s on r.k = s.k "
        "where s.v between 0 and 80 group by r.k having n >= 100 "
        "order by r.k",
        catalog,
        optimizer,
    )
    # Verify against a direct reference computation.
    s_keys = [
        row["s.k"] for row in catalog.table("s").rows if 0 <= row["s.v"] <= 80
    ]
    counts = {}
    for row in catalog.table("r").rows:
        counts[row["r.k"]] = counts.get(row["r.k"], 0) + s_keys.count(row["r.k"])
    expected = sorted(
        (key, count) for key, count in counts.items() if count >= 100
    )
    assert [(row["r.k"], row["n"]) for row in rows] == expected
