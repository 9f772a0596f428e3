"""Tests for the Volcano search engine (the paper's Figure 2)."""

import dataclasses

import pytest

import repro
import repro.search
from repro.algebra.predicates import eq
from repro.algebra.properties import PhysProps, sorted_on
from repro.errors import BudgetExceededError, OptimizationFailedError
from repro.model.cost import CpuIoCost
from repro.models.relational import (
    RelationalModelOptions,
    get,
    join,
    relational_model,
    select,
)
from repro.options import ResourceBudget
from repro.search import (
    OptimizationResult,
    SearchOptions,
    SearchStats,
    VolcanoOptimizer,
)
from repro.workloads import QueryGenerator

from tests.helpers import chain_query, make_catalog


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800), ("u", 7200)])


@pytest.fixture
def optimizer(catalog):
    return VolcanoOptimizer(relational_model(), catalog)


def two_way(predicate=None):
    return join(get("r"), get("s"), predicate or eq("r.k", "s.k"))


# -- basic behaviour ----------------------------------------------------------


def test_single_scan(optimizer):
    result = optimizer.optimize(get("r"))
    assert result.plan.algorithm == "file_scan"
    assert result.plan.args == ("r", None)
    assert result.cost.total() > 0


def test_two_way_join_produces_valid_plan(optimizer):
    result = optimizer.optimize(two_way())
    assert result.plan.algorithm in ("hybrid_hash_join", "merge_join")
    leaf_tables = {args[0] for args in result.plan.leaf_args()}
    assert leaf_tables == {"r", "s"}


def test_complex_mapping_filter_scan(optimizer):
    """select(get) collapses into the combined filter_scan algorithm."""
    result = optimizer.optimize(select(get("r"), eq("r.v", 1)))
    assert result.plan.algorithm == "filter_scan"
    assert result.plan.inputs == ()


def test_plan_cost_is_cumulative(optimizer):
    result = optimizer.optimize(two_way())
    child_costs = [child.cost for child in result.plan.inputs]
    assert all(child.cost < result.cost for child in result.plan.inputs)
    assert result.cost == result.plan.cost


def test_memo_reinitialized_per_query(optimizer):
    first = optimizer.optimize(get("r"))
    second = optimizer.optimize(get("s"))
    assert first.memo is not second.memo
    assert second.stats.groups_created == 1


# -- physical properties and enforcers ----------------------------------------


def test_sorted_goal_satisfied(optimizer):
    required = sorted_on("r.k")
    result = optimizer.optimize(two_way(), props=required)
    assert result.plan.properties.covers(required)


def test_sorted_goal_via_enforcer_or_merge_join(optimizer):
    result = optimizer.optimize(two_way(), props=sorted_on("r.k"))
    algorithms = result.plan.algorithms_used()
    assert "sort" in algorithms or "merge_join" in algorithms


def test_merge_join_not_considered_below_its_own_sort(optimizer):
    """The excluding property vector (paper Section 3).

    When a sort enforcer provides order X, no algorithm that could have
    delivered X itself may appear directly below the sort.
    """
    result = optimizer.optimize(two_way(), props=sorted_on("r.k"))
    for node in result.plan.walk():
        if node.algorithm != "sort":
            continue
        below = node.inputs[0]
        (order,) = node.args
        if below.algorithm == "merge_join":
            assert not below.properties.covers(PhysProps(sort_order=order))


def test_merge_join_output_order_reused(catalog):
    """Interesting orderings: one sorted base feeds two merge joins."""
    options = RelationalModelOptions()
    spec = relational_model(options)
    optimizer = VolcanoOptimizer(spec, catalog)
    query = chain_query(["r", "s", "t"], with_selections=False)
    result = optimizer.optimize(query, props=sorted_on("r.k"))
    # Requiring sorted output makes merge joins attractive; when two
    # merge joins stack, the intermediate is NOT re-sorted.
    algorithms = result.plan.algorithms_used()
    if algorithms.count("merge_join") == 2:
        sorts = result.plan.count_algorithm("sort")
        assert sorts <= 3  # at most one per base table, never per join


def test_unsatisfiable_goal_fails(catalog):
    spec = relational_model()
    optimizer = VolcanoOptimizer(spec, catalog)
    # Partitioning is required but the serial model has no exchange.
    from repro.algebra.properties import hash_partitioned

    required = PhysProps(partitioning=hash_partitioned(["r.k"], 4))
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(get("r"), props=required)


# -- cost limits and branch-and-bound -----------------------------------------


def test_cost_limit_failure(optimizer):
    tiny = CpuIoCost(cpu=1.0, io=0.0)
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(two_way(), limit=tiny)


def test_cost_limit_generous_succeeds(optimizer):
    unlimited = optimizer.optimize(two_way())
    generous = optimizer.optimize(two_way(), limit=unlimited.cost)
    assert generous.cost == unlimited.cost


def test_branch_and_bound_does_not_change_result(catalog):
    query = chain_query(["r", "s", "t", "u"])
    with_bb = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(branch_and_bound=True)
    ).optimize(query)
    without_bb = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(branch_and_bound=False)
    ).optimize(query)
    assert with_bb.cost == without_bb.cost


def test_branch_and_bound_prunes_work(catalog):
    query = chain_query(["r", "s", "t", "u"])
    with_bb = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(branch_and_bound=True)
    ).optimize(query)
    without_bb = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(branch_and_bound=False)
    ).optimize(query)
    pruned = with_bb.stats.moves_pruned + with_bb.stats.inputs_abandoned
    not_pruned = without_bb.stats.moves_pruned + without_bb.stats.inputs_abandoned
    assert pruned > not_pruned


def test_failure_caching_does_not_change_result(catalog):
    query = chain_query(["r", "s", "t", "u"])
    with_failures = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(cache_failures=True)
    ).optimize(query, props=sorted_on("r.k"))
    without_failures = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(cache_failures=False)
    ).optimize(query, props=sorted_on("r.k"))
    assert with_failures.cost == without_failures.cost
    assert without_failures.stats.failure_hits == 0


# -- dynamic programming ------------------------------------------------------


def test_winners_are_reused(optimizer):
    result = optimizer.optimize(chain_query(["r", "s", "t"]))
    assert result.stats.winner_hits > 0


def test_inverse_rules_terminate(optimizer):
    """Commutativity is its own inverse; exploration must still terminate."""
    result = optimizer.optimize(two_way())
    assert result.stats.exploration_passes < 10


def test_transformations_explore_all_join_orders(optimizer):
    """All 4 ordered 2-relation trees and both 3-relation shapes appear."""
    result = optimizer.optimize(chain_query(["r", "s", "t"], with_selections=False))
    root_group = max(
        result.memo.groups(), key=lambda group: group.logical_props.cardinality
    )
    # Top class: (rs)t, t(rs), r(st), (st)r — 4 expressions.
    assert len(root_group.expressions) == 4


def test_stats_counters_populated(optimizer):
    result = optimizer.optimize(chain_query(["r", "s", "t"]))
    stats = result.stats
    assert stats.groups_created >= 9
    assert stats.expressions_created > stats.groups_created
    assert stats.algorithm_costings > 0
    assert stats.enforcer_costings >= 0
    assert stats.elapsed_seconds > 0
    # as_dict is derived from the fields, so a counter cannot drift out.
    assert list(stats.as_dict()) == [f.name for f in dataclasses.fields(stats)]
    assert stats.as_dict()["groups_created"] == stats.groups_created


def test_trace_collection(catalog):
    optimizer = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(trace=True)
    )
    result = optimizer.optimize(two_way())
    assert result.trace
    assert "goal" in result.trace and "winner" in result.trace


# -- determinism ----------------------------------------------------------------


def test_optimization_is_deterministic(catalog):
    query = chain_query(["r", "s", "t", "u"])
    first = VolcanoOptimizer(relational_model(), catalog).optimize(query)
    second = VolcanoOptimizer(relational_model(), catalog).optimize(query)
    assert first.cost == second.cost
    assert first.plan.to_sexpr() == second.plan.to_sexpr()


# -- one solve loop: a query is a batch of one ----------------------------------


def _counters(stats):
    counters = stats.as_dict()
    del counters["elapsed_seconds"]
    return counters


@pytest.mark.parametrize("size", range(2, 9))
def test_a_one_query_batch_is_the_single_query_search(size):
    spec = relational_model()
    for item in QueryGenerator().generate_batch(size, 10, seed=7):
        engine = VolcanoOptimizer(
            spec, item.catalog, SearchOptions(certificates=True)
        )
        solo = engine.optimize(item.query, item.required)
        (batched,) = engine.optimize_batch([item.query], item.required)
        assert batched.plan.to_sexpr() == solo.plan.to_sexpr()
        assert batched.cost == solo.cost
        assert batched.certificate == solo.certificate
        assert batched.root_group == solo.root_group
        assert _counters(batched.stats) == _counters(solo.stats)


def test_a_budget_trip_degrades_a_query_and_fails_a_batch(catalog):
    engine = VolcanoOptimizer(
        relational_model(),
        catalog,
        SearchOptions(budget=ResourceBudget(max_costings=5)),
    )
    query = chain_query(["r", "s", "t", "u"])
    assert engine.optimize(query).degraded
    with pytest.raises(BudgetExceededError, match="after 0 of 1 queries"):
        engine.optimize_batch([query])


def test_the_seeding_hook_is_retired(optimizer):
    with pytest.raises(TypeError):
        optimizer.optimize(get("r"), preoptimized=[])
    assert not hasattr(repro, "PreoptimizedPlan")
    assert not hasattr(repro.search, "PreoptimizedPlan")
    assert not hasattr(OptimizationResult, "harvest")
    assert "seeds_planted" not in {
        field.name for field in dataclasses.fields(SearchStats)
    }


def _one_input_short(spec, algorithm_name):
    """A copy of ``spec`` whose ``algorithm_name`` asks for one input too few."""
    original = spec.algorithms[algorithm_name]

    def applicability(context, node, required):
        return [
            requirements[:-1]
            for requirements in original.applicability(context, node, required) or ()
        ]

    copy = dataclasses.replace(spec)
    copy.algorithms = dict(
        spec.algorithms,
        **{algorithm_name: dataclasses.replace(original, applicability=applicability)},
    )
    return copy


@pytest.mark.parametrize(
    "budget", [None, ResourceBudget(max_rule_firings=1)], ids=["full", "greedy"]
)
def test_a_malformed_applicability_raises_in_every_search(catalog, budget):
    """The arity check sits on the move, so the greedy fallback runs it too."""
    spec = _one_input_short(relational_model(), "hybrid_hash_join")
    engine = VolcanoOptimizer(spec, catalog, SearchOptions(budget=budget))
    with pytest.raises(
        repro.errors.SearchError,
        match="'hybrid_hash_join' returned 1 input requirements for 2 inputs",
    ):
        engine.optimize(chain_query(["r", "s", "t"]))
