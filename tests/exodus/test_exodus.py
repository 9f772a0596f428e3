"""Tests for the EXODUS baseline optimizer."""

import pytest

from repro.algebra.predicates import eq
from repro.errors import MemoryLimitExceededError, OptimizationFailedError
from repro.exodus import ExodusOptimizer, ExodusOptions
from repro.models.relational import get, join, relational_model, select
from repro.search import VolcanoOptimizer

from tests.helpers import chain_query, make_catalog


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800), ("u", 7200)])


@pytest.fixture
def exodus(catalog):
    return ExodusOptimizer(relational_model(), catalog)


def test_single_scan(exodus):
    result = exodus.optimize(get("r"))
    assert result.plan.algorithm == "file_scan"
    assert not result.aborted


def test_filter_scan_complex_mapping(exodus):
    result = exodus.optimize(select(get("r"), eq("r.v", 1)))
    assert result.plan.algorithm == "filter_scan"


def test_two_way_join(exodus):
    result = exodus.optimize(join(get("r"), get("s"), eq("r.k", "s.k")))
    assert result.plan.algorithm in ("hybrid_hash_join", "merge_join")
    assert {args[0] for args in result.plan.leaf_args()} == {"r", "s"}


def test_matches_volcano_on_small_queries(catalog):
    """Both engines search the same space exhaustively at small sizes."""
    spec = relational_model()
    volcano = VolcanoOptimizer(spec, catalog)
    exodus = ExodusOptimizer(spec, catalog)
    for names in (["r", "s"], ["r", "s", "t"], ["r", "s", "t", "u"]):
        query = chain_query(names)
        assert exodus.optimize(query).cost.total() == pytest.approx(
            volcano.optimize(query).cost.total()
        )


def test_exodus_does_more_work_than_volcano(catalog):
    """The paper's Figure 4: EXODUS reanalyzes, Volcano memoizes."""
    spec = relational_model()
    query = chain_query(["r", "s", "t", "u"])
    volcano_result = VolcanoOptimizer(spec, catalog).optimize(query)
    exodus_result = ExodusOptimizer(spec, catalog).optimize(query)
    assert exodus_result.stats.reanalyses > 0
    # MESH keeps logical+physical combinations: more memory than the memo.
    assert exodus_result.stats.mesh_size() > volcano_result.stats.memo_footprint()


def test_memory_budget_abort_best_effort(catalog):
    options = ExodusOptions(node_budget=20, best_effort=True)
    exodus = ExodusOptimizer(relational_model(), catalog, options)
    result = exodus.optimize(chain_query(["r", "s", "t", "u"]))
    assert result.aborted
    assert result.abort_reason == "memory"
    # A valid plan is still produced from what was explored.
    assert {args[0] for args in result.plan.leaf_args()} == {"r", "s", "t", "u"}


def test_memory_budget_abort_raises_when_not_best_effort(catalog):
    options = ExodusOptions(node_budget=20, best_effort=False)
    exodus = ExodusOptimizer(relational_model(), catalog, options)
    with pytest.raises(MemoryLimitExceededError):
        exodus.optimize(chain_query(["r", "s", "t", "u"]))


def test_budget_too_small_for_initial_tree_raises(catalog):
    options = ExodusOptions(node_budget=2, best_effort=True)
    exodus = ExodusOptimizer(relational_model(), catalog, options)
    with pytest.raises(MemoryLimitExceededError):
        exodus.optimize(chain_query(["r", "s", "t"]))


def test_transformation_budget(catalog):
    options = ExodusOptions(transformation_budget=3)
    exodus = ExodusOptimizer(relational_model(), catalog, options)
    result = exodus.optimize(chain_query(["r", "s", "t", "u"]))
    assert result.stats.transformations_applied <= 3
    assert result.aborted
    assert result.abort_reason == "transformations"


def test_plan_cost_is_recomputed_consistently(exodus):
    """The reported cost equals the plan's own cumulative cost."""
    result = exodus.optimize(chain_query(["r", "s", "t"]))
    assert result.cost == result.plan.cost
    for node in result.plan.walk():
        for child in node.inputs:
            assert child.cost < node.cost


def test_greedy_property_handling_recorded(exodus):
    """Merge join pays embedded sorts when children are not sorted."""
    # Force merge join consideration by checking the retained choices.
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = exodus.optimize(query)
    # EXODUS retained a merge-join alternative whose cost includes sorts,
    # visible as it being more expensive than the hash join it lost to.
    assert result.plan.algorithm == "hybrid_hash_join"


def test_deterministic(catalog):
    query = chain_query(["r", "s", "t", "u"])
    first = ExodusOptimizer(relational_model(), catalog).optimize(query)
    second = ExodusOptimizer(relational_model(), catalog).optimize(query)
    assert first.cost.total() == second.cost.total()
    assert first.plan.to_sexpr() == second.plan.to_sexpr()


def test_mesh_counters(exodus):
    result = exodus.optimize(chain_query(["r", "s", "t"]))
    stats = result.stats
    assert stats.nodes_created >= 8
    assert stats.physical_choices >= stats.nodes_created
    assert stats.transformations_applied > 0
    assert stats.elapsed_seconds > 0
    assert "nodes=" in str(stats)


def test_unsatisfiable_required_props_raise(catalog):
    """The serial model has no enforcer for partitioning: gluing fails."""
    from repro.algebra.properties import hash_partitioned, PhysProps

    exodus = ExodusOptimizer(relational_model(), catalog)
    with pytest.raises(OptimizationFailedError):
        exodus.optimize(
            get("r"),
            props=PhysProps(partitioning=hash_partitioned(["r.k"], 4)),
        )


def test_required_sort_is_glued_on(catalog):
    """EXODUS satisfies ORDER BY by gluing a sort on the final plan."""
    from repro.algebra.properties import sorted_on

    exodus = ExodusOptimizer(relational_model(), catalog)
    result = exodus.optimize(
        join(get("r"), get("s"), eq("r.k", "s.k")), props=sorted_on("r.k")
    )
    assert result.plan.properties.covers(sorted_on("r.k"))
