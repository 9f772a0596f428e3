"""Unit tests for the SQL parser."""

import pytest

from repro.algebra.predicates import ComparisonOp, Disjunction, Negation
from repro.errors import SqlError
from repro.sql.parser import SelectStatement, SetStatement, parse


def test_minimal_select():
    statement = parse("select * from r")
    assert isinstance(statement, SelectStatement)
    assert statement.columns is None
    assert statement.tables[0].table == "r"
    assert statement.where.is_true


def test_select_list():
    statement = parse("select r.k, v from r")
    assert statement.columns == ["r.k", "v"]


def test_table_alias_forms():
    statement = parse("select * from r as x, s y")
    assert statement.tables[0].alias == "x"
    assert statement.tables[1].alias == "y"
    assert statement.tables[1].binding == "y"


def test_where_conjunction_flattened():
    statement = parse("select * from r where a = 1 and b = 2 and c = 3")
    assert len(statement.where.conjuncts()) == 3


def test_or_and_precedence():
    statement = parse("select * from r where a = 1 or b = 2 and c = 3")
    assert isinstance(statement.where, Disjunction)
    assert len(statement.where.parts) == 2


def test_parentheses_override_precedence():
    statement = parse("select * from r where (a = 1 or b = 2) and c = 3")
    conjuncts = statement.where.conjuncts()
    assert len(conjuncts) == 2
    assert isinstance(conjuncts[0], Disjunction)


def test_not_condition():
    statement = parse("select * from r where not a = 1")
    assert isinstance(statement.where, Negation)


def test_comparison_operators():
    statement = parse("select * from r where a <> 1 and b <= 2 and c >= 'x'")
    ops = [c.op for c in statement.where.conjuncts()]
    assert ops == [ComparisonOp.NE, ComparisonOp.LE, ComparisonOp.GE]


def test_join_on_syntax():
    statement = parse("select * from r join s on r.k = s.k where r.v = 1")
    assert len(statement.tables) == 2
    assert len(statement.where.conjuncts()) == 2


def test_order_by():
    statement = parse("select * from r order by r.k, r.v asc")
    assert statement.order_by == ["r.k", "r.v"]


def test_order_by_desc_rejected():
    with pytest.raises(SqlError):
        parse("select * from r order by r.k desc")


def test_number_and_string_literals():
    statement = parse("select * from r where a = 3.5 and b = 'text'")
    comparisons = statement.where.conjuncts()
    assert comparisons[0].right.value == 3.5
    assert comparisons[1].right.value == "text"


def test_distinct_flag():
    assert parse("select distinct * from r").distinct


def test_set_operations():
    statement = parse("select * from r union select * from s")
    assert isinstance(statement, SetStatement)
    assert statement.operator == "union"
    assert not statement.all


def test_union_all():
    statement = parse("select * from r union all select * from s")
    assert statement.all


def test_set_operations_left_associative():
    statement = parse(
        "select * from r union select * from s intersect select * from t"
    )
    assert statement.operator == "intersect"
    assert isinstance(statement.left, SetStatement)


@pytest.mark.parametrize(
    "text",
    [
        "from r",
        "select from r",
        "select * r",
        "select * from r where",
        "select * from r where a =",
        "select * from r where a 1",
        "select * from r where a = 1 2",
        "select * from r order r.k",
    ],
)
def test_malformed_queries_rejected(text):
    with pytest.raises(SqlError):
        parse(text)
