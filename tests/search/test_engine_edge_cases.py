"""Edge-case tests for the search engine."""

import pytest

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import TRUE, conjunction_of, eq
from repro.algebra.properties import sorted_on
from repro.errors import ModelSpecError, OptimizationFailedError, SearchError
from repro.models.relational import (
    RelationalModelOptions,
    get,
    join,
    relational_model,
    select,
)
from repro.search import SearchOptions, VolcanoOptimizer

from tests.helpers import chain_query, make_catalog


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])


def test_invalid_spec_rejected_at_construction(catalog):
    from repro.model.spec import ModelSpecification

    with pytest.raises(ModelSpecError):
        VolcanoOptimizer(ModelSpecification(name="empty"), catalog)


def test_unknown_operator_in_query(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    bogus = LogicalExpression("teleport", (), (get("r"),))
    with pytest.raises(ModelSpecError):
        optimizer.optimize(bogus)


def test_unknown_table_in_query(catalog):
    from repro.errors import UnknownTableError

    optimizer = VolcanoOptimizer(relational_model(), catalog)
    with pytest.raises(UnknownTableError):
        optimizer.optimize(get("nonexistent"))


def test_cross_product_without_nested_loops_fails(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(join(get("r"), get("s"), TRUE))


def test_non_equi_join_without_nested_loops_fails(catalog):
    from repro.algebra.predicates import Comparison, ComparisonOp, col

    optimizer = VolcanoOptimizer(relational_model(), catalog)
    predicate = Comparison(ComparisonOp.LT, col("r.k"), col("s.k"))
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(join(get("r"), get("s"), predicate))


def test_non_equi_join_with_nested_loops_succeeds(catalog):
    from repro.algebra.predicates import Comparison, ComparisonOp, col

    spec = relational_model(RelationalModelOptions(enable_nested_loops=True))
    optimizer = VolcanoOptimizer(spec, catalog)
    predicate = Comparison(ComparisonOp.LT, col("r.k"), col("s.k"))
    result = optimizer.optimize(join(get("r"), get("s"), predicate))
    assert result.plan.algorithm == "nested_loops_join"


def test_multi_column_sort_goal(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    required = sorted_on("r.k", "r.v")
    result = optimizer.optimize(get("r"), props=required)
    assert result.plan.algorithm == "sort"
    assert result.plan.properties.covers(required)


def test_sort_goal_on_equivalent_column(catalog):
    """Requesting order on the RIGHT join column also works (key sets)."""
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = optimizer.optimize(query, props=sorted_on("s.k"))
    assert result.plan.properties.covers(sorted_on("s.k"))


def test_multi_key_join_plan(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    predicate = conjunction_of([eq("r.k", "s.k"), eq("r.v", "s.v")])
    result = optimizer.optimize(join(get("r"), get("s"), predicate))
    assert result.plan.algorithm in ("hybrid_hash_join", "merge_join")


def test_multi_key_join_sorted_on_second_key(catalog):
    """The goal names the second join key first: the permutation
    alternative of merge join (or a sort) must handle it."""
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    predicate = conjunction_of([eq("r.k", "s.k"), eq("r.v", "s.v")])
    required = sorted_on("r.v")
    result = optimizer.optimize(join(get("r"), get("s"), predicate), props=required)
    assert result.plan.properties.covers(required)


def test_max_groups_budget_enforced(catalog):
    optimizer = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(max_groups=3)
    )
    with pytest.raises(SearchError):
        optimizer.optimize(chain_query(["r", "s", "t"]))


def test_consistency_check_can_be_disabled(catalog):
    optimizer = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(check_consistency=False)
    )
    result = optimizer.optimize(chain_query(["r", "s", "t"]))
    assert result.stats.consistency_checks == 0


def test_consistency_check_counts_when_enabled(catalog):
    optimizer = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(check_consistency=True)
    )
    result = optimizer.optimize(chain_query(["r", "s", "t"]))
    assert result.stats.consistency_checks > 0


def test_identical_selfjoin_subtrees_share_one_group(catalog):
    """The same subexpression used twice occupies one equivalence class."""
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    sub = select(get("r"), eq("r.v", 1))
    # r ⋈ r on the same key: degenerate but legal (needs aliases for
    # distinct columns, so join the select with a differently-filtered r).
    other = select(get("s"), eq("s.v", 1))
    query = join(sub, other, eq("r.k", "s.k"))
    first = optimizer.optimize(query)
    again = optimizer.optimize(join(sub, other, eq("r.k", "s.k")))
    assert first.cost == again.cost


def test_zero_row_table(catalog):
    from repro.catalog import Schema, TableStatistics

    catalog.add_table("empty", Schema.of("empty.k"), TableStatistics(0, 100))
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    result = optimizer.optimize(get("empty"))
    assert result.cost.total() >= 0


def test_enforcer_not_used_when_goal_is_any(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    result = optimizer.optimize(chain_query(["r", "s"]))
    assert all(not node.is_enforcer for node in result.plan.walk())


def test_infinite_limit_is_default(catalog):
    from repro.model.cost import INFINITE_COST

    optimizer = VolcanoOptimizer(relational_model(), catalog)
    explicit = optimizer.optimize(get("r"), limit=INFINITE_COST)
    implicit = optimizer.optimize(get("r"))
    assert explicit.cost == implicit.cost
