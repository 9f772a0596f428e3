"""Tests for the random select–join workload generator."""

import pytest

from repro.errors import WorkloadError
from repro.models.relational import relational_model
from repro.search import VolcanoOptimizer
from repro.workloads import QueryGenerator, WorkloadOptions


def test_defaults_match_paper():
    options = WorkloadOptions()
    assert options.min_rows == 1200
    assert options.max_rows == 7200
    assert options.row_width == 100
    assert options.order_by_probability == 0.0


def test_generated_query_shape():
    query = QueryGenerator().generate(4, seed=1)
    assert query.n_relations == 4
    assert len(query.table_names) == 4
    joins = [n for n in query.query.walk() if n.operator == "join"]
    selects = [n for n in query.query.walk() if n.operator == "select"]
    # "1 to 7 binary joins […] and as many selections as input relations"
    assert len(joins) == 3
    assert len(selects) == 4


def test_tables_within_paper_range():
    query = QueryGenerator().generate(5, seed=9)
    for name in query.table_names:
        stats = query.catalog.table(name).statistics
        assert 1200 <= stats.row_count <= 7200
        assert stats.row_width == 100


def test_determinism():
    first = QueryGenerator().generate(4, seed=3)
    second = QueryGenerator().generate(4, seed=3)
    assert first.query == second.query
    assert first.required == second.required
    different = QueryGenerator().generate(4, seed=4)
    assert first.query != different.query


def test_batch_produces_distinct_queries():
    batch = QueryGenerator().generate_batch(3, 10, seed=5)
    assert len({query.query for query in batch}) > 1


def test_order_by_probability_zero_and_one():
    plain = QueryGenerator(WorkloadOptions(order_by_probability=0.0))
    assert all(
        query.required.is_any for query in plain.generate_batch(3, 5, seed=2)
    )
    ordered = QueryGenerator(WorkloadOptions(order_by_probability=1.0))
    assert all(
        query.required.sort_order for query in ordered.generate_batch(3, 5, seed=2)
    )


def test_selections_can_be_disabled():
    generator = QueryGenerator(WorkloadOptions(selections=False))
    query = generator.generate(3, seed=1)
    assert all(node.operator != "select" for node in query.query.walk())


def test_single_relation_query():
    query = QueryGenerator().generate(1, seed=1)
    assert query.query.operator in ("select", "get")


def test_invalid_options_rejected():
    with pytest.raises(WorkloadError):
        WorkloadOptions(min_rows=100, max_rows=50)
    with pytest.raises(WorkloadError):
        WorkloadOptions(order_by_probability=2.0)
    with pytest.raises(WorkloadError):
        QueryGenerator().generate(0, seed=1)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_generated_queries_are_optimizable(size):
    """Every generated query must make it through the optimizer."""
    spec = relational_model()
    for query in QueryGenerator(
        WorkloadOptions(order_by_probability=0.5)
    ).generate_batch(size, 3, seed=11):
        optimizer = VolcanoOptimizer(spec, query.catalog)
        result = optimizer.optimize(query.query, props=query.required)
        leaf_tables = {args[0] for args in result.plan.leaf_args()}
        assert leaf_tables == set(query.table_names)


def test_chain_shape():
    generator = QueryGenerator(WorkloadOptions(shape="chain", selections=False))
    query = generator.generate(4, seed=1)
    joins = [n for n in query.query.walk() if n.operator == "join"]
    # Chain: consecutive tables joined; the i-th join touches t(i) and t(i+1).
    tables_in_predicates = [
        sorted({name.split(".")[0] for name in j.args[0].columns()})
        for j in joins
    ]
    assert tables_in_predicates == [["t2", "t3"], ["t1", "t2"], ["t0", "t1"]]


def test_star_shape():
    generator = QueryGenerator(WorkloadOptions(shape="star", selections=False))
    query = generator.generate(4, seed=1)
    joins = [n for n in query.query.walk() if n.operator == "join"]
    for j in joins:
        tables = {name.split(".")[0] for name in j.args[0].columns()}
        assert "t0" in tables  # every edge touches the hub


def test_unknown_shape_rejected():
    with pytest.raises(WorkloadError):
        WorkloadOptions(shape="clique")
