"""Unit tests for SQL-to-algebra translation."""

import pytest

from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.errors import SqlError
from repro.executor import TableSpec, execute_plan, populate_catalog
from repro.catalog import Catalog
from repro.models.relational import relational_model
from repro.search import VolcanoOptimizer
from repro.sql import translate


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 300, key_distinct=20),
            TableSpec("s", 400, key_distinct=20),
            TableSpec("t", 200, key_distinct=20),
        ],
        seed=5,
    )
    return catalog


def test_simple_scan(catalog):
    translation = translate("select * from r", catalog)
    assert translation.expression.operator == "get"
    assert translation.required is ANY_PROPS or translation.required.is_any


def test_single_table_selection_pushed(catalog):
    translation = translate("select * from r where r.v = 1", catalog)
    assert translation.expression.operator == "select"
    assert translation.expression.inputs[0].operator == "get"


def test_unqualified_names_resolved(catalog):
    translation = translate("select * from r where v = 1", catalog)
    # r.v and r.pad are unique across the single table.
    (predicate,) = translation.expression.args
    assert "r.v" in predicate.columns()


def test_ambiguous_unqualified_name_rejected(catalog):
    with pytest.raises(SqlError):
        translate("select * from r, s where k = 1", catalog)


def test_unknown_column_rejected(catalog):
    with pytest.raises(SqlError):
        translate("select * from r where zz = 1", catalog)


def test_join_tree_built_from_where(catalog):
    translation = translate(
        "select * from r, s where r.k = s.k and r.v = 1", catalog
    )
    expression = translation.expression
    assert expression.operator == "join"
    # The selection on r sits under the join.
    operators = [node.operator for node in expression.walk()]
    assert operators.count("select") == 1


def test_join_on_syntax_equivalent(catalog):
    from_where = translate("select * from r, s where r.k = s.k", catalog)
    from_join = translate("select * from r join s on r.k = s.k", catalog)
    assert from_where.expression == from_join.expression


def test_three_way_connected_tree(catalog):
    translation = translate(
        "select * from r, s, t where r.k = s.k and s.k = t.k", catalog
    )
    joins = [n for n in translation.expression.walk() if n.operator == "join"]
    assert len(joins) == 2


def test_cross_product_rejected_by_default(catalog):
    with pytest.raises(SqlError):
        translate("select * from r, s", catalog)


def test_cross_product_allowed_when_enabled(catalog):
    translation = translate("select * from r, s", catalog, allow_cross_products=True)
    assert translation.expression.operator == "join"
    assert translation.expression.args[0].is_true


def test_projection(catalog):
    translation = translate("select r.k from r", catalog)
    assert translation.expression.operator == "project"
    assert translation.expression.args[0] == ("r.k",)


def test_order_by_becomes_required_props(catalog):
    translation = translate("select * from r order by r.k", catalog)
    assert translation.required == sorted_on("r.k")


def test_order_by_needs_projected_column(catalog):
    with pytest.raises(SqlError):
        translate("select r.v from r order by r.k", catalog)


def test_select_distinct_rejected(catalog):
    with pytest.raises(SqlError):
        translate("select distinct * from r", catalog)


def test_duplicate_binding_rejected(catalog):
    with pytest.raises(SqlError):
        translate("select * from r, r", catalog)


def test_self_join_with_aliases(catalog):
    translation = translate(
        "select * from r as x, r as y where x.k = y.k", catalog
    )
    assert translation.expression.operator == "join"


def test_set_operation_translation(catalog):
    translation = translate(
        "select r.k from r union select s.k from s", catalog
    )
    assert translation.expression.operator == "union"
    assert translation.expression.args == (False,)


def test_sql_to_executed_plan(catalog):
    """Full pipeline: SQL text → optimize → execute → verify."""
    translation = translate(
        "select * from r, s where r.k = s.k and r.v = 1 order by r.k",
        catalog,
    )
    result = VolcanoOptimizer(relational_model(), catalog).optimize(
        translation.expression, props=translation.required
    )
    rows = execute_plan(result.plan, catalog)
    assert all(row["r.k"] == row["s.k"] and row["r.v"] == 1 for row in rows)
    keys = [row["r.k"] for row in rows]
    assert keys == sorted(keys)
