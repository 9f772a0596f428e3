"""Tests for grouping/aggregation (model + SQL + execution)."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.errors import ModelSpecError, SqlError
from repro.model.context import OptimizerContext
from repro.model.spec import AlgorithmNode
from repro.models.aggregates import aggregate, aggregate_model
from repro.models.relational import get, join, select
from repro.search import VolcanoOptimizer

from tests.helpers import make_catalog


@pytest.fixture
def catalog():
    return make_catalog([("r", 2400), ("s", 4800)], key_distinct=50)


@pytest.fixture
def spec():
    return aggregate_model()


@pytest.fixture
def optimizer(spec, catalog):
    return VolcanoOptimizer(spec, catalog)


GROUPED = lambda: aggregate(
    get("r"), ["r.k"], [("n", "count", None), ("total", "sum", "r.v")]
)


# -- logical properties ---------------------------------------------------------


def test_aggregate_props_schema(spec, catalog):
    context = OptimizerContext(spec, catalog)
    props = context.logical_props(GROUPED())
    assert props.schema.column_names == ("r.k", "n", "total")


def test_aggregate_props_cardinality_is_group_count(spec, catalog):
    context = OptimizerContext(spec, catalog)
    props = context.logical_props(GROUPED())
    assert props.cardinality == 50  # distinct r.k values


def test_grand_total_has_one_row(spec, catalog):
    context = OptimizerContext(spec, catalog)
    props = context.logical_props(
        aggregate(get("r"), [], [("n", "count", None)])
    )
    assert props.cardinality == 1
    assert props.schema.column_names == ("n",)


def test_output_types(spec, catalog):
    from repro.catalog.schema import ColumnType

    context = OptimizerContext(spec, catalog)
    props = context.logical_props(
        aggregate(
            get("r"),
            [],
            [("n", "count", None), ("m", "avg", "r.v"), ("x", "max", "r.v")],
        )
    )
    assert props.schema.column("n").type is ColumnType.INTEGER
    assert props.schema.column("m").type is ColumnType.FLOAT
    assert props.schema.column("x").type is ColumnType.INTEGER


def test_unknown_function_rejected():
    with pytest.raises(ModelSpecError):
        aggregate(get("r"), [], [("x", "median", "r.v")])


# -- algorithm choice -------------------------------------------------------------


def test_unsorted_goal_uses_hash_aggregate(optimizer):
    result = optimizer.optimize(GROUPED())
    assert result.plan.algorithm == "hash_aggregate"


def test_sorted_goal_can_stream(optimizer):
    """Sorted output: stream aggregation or hash+sort, whichever wins —
    and the plan must deliver the order either way."""
    result = optimizer.optimize(GROUPED(), props=sorted_on("r.k"))
    assert result.plan.properties.covers(sorted_on("r.k"))
    assert result.plan.algorithm in ("stream_aggregate", "sort")


def test_stream_aggregate_applicability_offers_permutations(spec, catalog):
    context = OptimizerContext(spec, catalog)
    tree = aggregate(get("r"), ["r.k", "r.v"], [("n", "count", None)])
    node = AlgorithmNode(
        tree.args,
        context.logical_props(tree),
        (context.logical_props(get("r")),),
    )
    alternatives = spec.algorithm("stream_aggregate").applicability(
        context, node, ANY_PROPS
    )
    assert len(alternatives) == 2  # both orders of (r.k, r.v)


def test_stream_aggregate_exploits_merge_join_order(spec, catalog):
    """Aggregation on the join key rides the merge join's order for free
    whenever the optimizer picks the merge path at all."""
    query = aggregate(
        join(get("r"), get("s"), eq("r.k", "s.k")),
        ["r.k"],
        [("n", "count", None)],
    )
    result = VolcanoOptimizer(spec, catalog).optimize(
        query, props=sorted_on("r.k")
    )
    algorithms = result.plan.algorithms_used()
    if "merge_join" in algorithms and "stream_aggregate" in algorithms:
        # No sort between the join and the aggregation.
        aggregate_index = algorithms.index("stream_aggregate")
        join_index = algorithms.index("merge_join")
        between = algorithms[aggregate_index + 1 : join_index]
        assert "sort" not in between
    assert result.plan.properties.covers(sorted_on("r.k"))


# -- SQL integration ---------------------------------------------------------------


def test_sql_group_by(optimizer, catalog):
    from repro.sql import translate

    translation = translate(
        "select r.k, count(*), sum(r.v) as total from r group by r.k",
        catalog,
    )
    assert translation.expression.operator == "aggregate"
    result = optimizer.optimize(translation.expression)
    assert result.plan.algorithm in ("hash_aggregate", "stream_aggregate")


def test_sql_grand_total(catalog):
    from repro.sql import translate

    translation = translate("select count(*) from r", catalog)
    group_by, aggregates = translation.expression.args
    assert group_by == ()
    assert aggregates == (("count", "count", None),)


def test_sql_select_list_projection_order(catalog):
    from repro.sql import translate

    translation = translate(
        "select count(*), r.k from r group by r.k", catalog
    )
    # Aggregate output is (r.k, count); the select list wants the
    # reverse, so a projection is wrapped on top.
    assert translation.expression.operator == "project"
    assert translation.expression.args[0] == ("count", "r.k")


def test_sql_non_grouped_column_rejected(catalog):
    from repro.sql import translate

    with pytest.raises(SqlError):
        translate("select r.v, count(*) from r group by r.k", catalog)


def test_sql_star_with_aggregate_rejected(catalog):
    from repro.sql import translate

    with pytest.raises(SqlError):
        translate("select * from r group by r.k", catalog)


def test_sql_sum_star_rejected(catalog):
    from repro.sql import translate

    with pytest.raises(SqlError):
        translate("select sum(*) from r", catalog)


def test_sql_order_by_aggregate_output(catalog):
    from repro.sql import translate

    translation = translate(
        "select r.k, count(*) as n from r group by r.k order by r.k",
        catalog,
    )
    assert translation.required == sorted_on("r.k")


# -- execution ----------------------------------------------------------------------


def test_aggregate_execution_matches_reference(spec):
    from repro.catalog import Catalog
    from repro.executor import TableSpec, execute_plan, populate_catalog

    catalog = Catalog()
    populate_catalog(catalog, [TableSpec("r", 500, key_distinct=7)], seed=13)
    optimizer = VolcanoOptimizer(spec, catalog)
    query = aggregate(
        get("r"), ["r.k"], [("n", "count", None), ("total", "sum", "r.v")]
    )
    for required in (ANY_PROPS, sorted_on("r.k")):
        result = optimizer.optimize(query, props=required)
        rows = execute_plan(result.plan, catalog)
        reference = {}
        for row in catalog.table("r").rows:
            bucket = reference.setdefault(row["r.k"], [0, 0])
            bucket[0] += 1
            bucket[1] += row["r.v"]
        assert len(rows) == len(reference)
        for row in rows:
            n, total = reference[row["r.k"]]
            assert row["n"] == n
            assert row["total"] == total
