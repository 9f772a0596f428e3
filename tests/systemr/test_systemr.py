"""Tests for the System R bottom-up DP baseline."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.errors import OptimizationFailedError
from repro.models.relational import get, join, relational_model, select
from repro.search import VolcanoOptimizer
from repro.systemr import (
    SystemROptimizer,
    SystemROptions,
    decompose_join_query,
)

from tests.helpers import chain_query, make_catalog


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800), ("u", 7200)])


def test_decompose_collects_leaves_and_conjuncts():
    query = chain_query(["r", "s", "t"])
    leaves, conjuncts = decompose_join_query(query)
    assert len(leaves) == 3
    assert all(leaf.operator == "select" for leaf in leaves)
    assert len(conjuncts) == 2


def test_single_relation(catalog):
    optimizer = SystemROptimizer(relational_model(), catalog)
    result = optimizer.optimize(select(get("r"), eq("r.v", 1)))
    assert result.plan.algorithm == "filter_scan"


def test_bushy_agrees_with_volcano(catalog):
    """DESIGN.md invariant 6: same cost model → same optimal cost."""
    spec = relational_model()
    volcano = VolcanoOptimizer(spec, catalog)
    systemr = SystemROptimizer(spec, catalog, SystemROptions(bushy=True))
    for names in (["r", "s"], ["r", "s", "t"], ["r", "s", "t", "u"]):
        query = chain_query(names)
        assert systemr.optimize(query).cost.total() == pytest.approx(
            volcano.optimize(query).cost.total()
        )


def test_bushy_agrees_with_volcano_sorted_goal(catalog):
    spec = relational_model()
    query = chain_query(["r", "s", "t"])
    required = sorted_on("r.k")
    volcano_cost = VolcanoOptimizer(spec, catalog).optimize(query, props=required)
    systemr_cost = SystemROptimizer(
        spec, catalog, SystemROptions(bushy=True)
    ).optimize(query, props=required)
    assert systemr_cost.cost.total() == pytest.approx(volcano_cost.cost.total())


def test_left_deep_never_beats_bushy(catalog):
    spec = relational_model()
    query = chain_query(["r", "s", "t", "u"])
    left_deep = SystemROptimizer(spec, catalog, SystemROptions(bushy=False))
    bushy = SystemROptimizer(spec, catalog, SystemROptions(bushy=True))
    assert bushy.optimize(query).cost.total() <= left_deep.optimize(query).cost.total()


def test_left_deep_plans_have_no_composite_inner(catalog):
    spec = relational_model()
    optimizer = SystemROptimizer(spec, catalog, SystemROptions(bushy=False))
    result = optimizer.optimize(chain_query(["r", "s", "t", "u"]))
    for node in result.plan.walk():
        if "join" not in node.algorithm:
            continue
        # At least one side of every join must be a base-relation subplan.
        sides = [
            any("join" in below.algorithm for below in child.walk())
            for child in node.inputs
        ]
        assert not all(sides)


def test_cross_products_rejected_by_default(catalog):
    spec = relational_model()
    optimizer = SystemROptimizer(spec, catalog)
    disconnected = join(get("r"), get("s"), eq("r.k", 1))  # not a join predicate
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(disconnected)


def test_interesting_orders_kept(catalog):
    """Merge-join outputs occupy their own DP slots (interesting orders)."""
    spec = relational_model()
    optimizer = SystemROptimizer(spec, catalog, SystemROptions(bushy=True))
    result = optimizer.optimize(chain_query(["r", "s", "t"]), props=sorted_on("r.k"))
    assert result.plan.properties.covers(sorted_on("r.k"))


def test_stats_populated(catalog):
    optimizer = SystemROptimizer(relational_model(), catalog)
    result = optimizer.optimize(chain_query(["r", "s", "t", "u"]))
    assert result.stats.subsets_considered > 0
    assert result.stats.joins_costed > 0
    assert result.stats.entries_kept > 0
    assert result.stats.elapsed_seconds > 0
