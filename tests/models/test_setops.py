"""Tests for the set-operations model (alternative property vectors)."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.errors import OptimizationFailedError
from repro.model.context import OptimizerContext
from repro.model.spec import AlgorithmNode
from repro.models.relational import get, select
from repro.models.setops import (
    except_,
    intersect,
    setops_model,
    union,
)
from repro.search import VolcanoOptimizer

from tests.helpers import make_catalog


@pytest.fixture
def catalog():
    # r and s share the same column layout (k, v) so they are
    # union-compatible positionally.
    return make_catalog([("r", 4800), ("s", 4800), ("t", 2400)])


@pytest.fixture
def spec():
    return setops_model()


@pytest.fixture
def optimizer(spec, catalog):
    return VolcanoOptimizer(spec, catalog)


def test_union_all_uses_concatenation(optimizer):
    result = optimizer.optimize(union(get("r"), get("s"), all=True))
    assert result.plan.algorithm == "union_all_concat"


def test_union_distinct_uses_hashing(optimizer):
    result = optimizer.optimize(union(get("r"), get("s"), all=False))
    assert result.plan.algorithm == "hash_union"


def test_intersection_unsorted_uses_hashing(optimizer):
    result = optimizer.optimize(intersect(get("r"), get("s")))
    assert result.plan.algorithm == "hash_intersect"


def test_intersection_sorted_goal_satisfied(optimizer):
    """A sorted goal is met either by merging or by a final sort."""
    result = optimizer.optimize(
        intersect(get("r"), get("s")), props=sorted_on("r.k")
    )
    assert result.plan.properties.covers(sorted_on("r.k"))
    assert result.plan.algorithm in ("merge_intersect", "sort")


def no_hash_spec():
    """The set-ops model without hash implementations: merge must carry."""
    spec = setops_model()
    spec.implementations = [
        rule
        for rule in spec.implementations
        if rule.name not in ("intersect_to_hash", "except_to_hash")
    ]
    return spec


def test_merge_intersect_sorts_both_inputs_the_same_way(catalog):
    """'any sort order of the two inputs will suffice as long as the two
    inputs are sorted in the same way' — both inputs get matching sorts."""
    optimizer = VolcanoOptimizer(no_hash_spec(), catalog)
    result = optimizer.optimize(
        intersect(get("r"), get("s")), props=sorted_on("r.k")
    )
    assert result.plan.algorithm == "merge_intersect"
    assert result.plan.count_algorithm("sort") == 2
    left_sort, right_sort = [
        node for node in result.plan.walk() if node.algorithm == "sort"
    ]
    (left_order,) = left_sort.args
    (right_order,) = right_sort.args
    # Positionally matching orders: r.k ↔ s.k first.
    assert "r.k" in left_order[0] and "s.k" in right_order[0]


def test_merge_intersect_offers_alternative_orders(spec, catalog):
    """The paper's R sorted on (A,B,…) vs (B,A,…) example (Section 3)."""
    context = OptimizerContext(spec, catalog)
    left = context.logical_props(get("r"))
    right = context.logical_props(get("s"))
    node = AlgorithmNode((), left, (left, right))
    alternatives = spec.algorithm("merge_intersect").applicability(
        context, node, ANY_PROPS
    )
    # Two columns (k, v) → 2! = 2 alternative orders offered: (k,v) and
    # (v,k), the paper's "(A,B,C) and (B,A,C)" scenario in miniature.
    assert len(alternatives) == 2
    left_orders = {alt[0].sort_order for alt in alternatives}
    assert len(left_orders) == 2


def test_merge_intersect_picks_the_matching_alternative(catalog):
    """When the goal demands an order, the matching permutation is used."""
    optimizer = VolcanoOptimizer(no_hash_spec(), catalog)
    required = sorted_on("r.v")
    result = optimizer.optimize(intersect(get("r"), get("s")), props=required)
    assert result.plan.algorithm == "merge_intersect"
    assert result.plan.properties.covers(required)
    # The first sort key pair must align with the required column.
    first_key = result.plan.properties.sort_order[0]
    assert "r.v" in first_key


def test_except_sorted_and_unsorted(optimizer):
    unsorted = optimizer.optimize(except_(get("r"), get("s")))
    assert unsorted.plan.algorithm == "hash_except"
    ordered = optimizer.optimize(
        except_(get("r"), get("s")), props=sorted_on("r.k")
    )
    assert ordered.plan.algorithm in ("merge_except", "sort")


def test_commutativity_rejected_by_consistency_check(catalog):
    """A commute rule for named set ops is a model bug the engine catches.

    Swapping union operands renames the output columns, so the rewritten
    expression is not equivalent; the memo's consistency check (the
    paper's "one of many consistency checks") must reject it.
    """
    from repro.algebra.expressions import LogicalExpression
    from repro.errors import SearchError
    from repro.model.patterns import AnyPattern, OpPattern
    from repro.model.rules import TransformationRule

    spec = setops_model()
    pattern = OpPattern("union", (AnyPattern("l"), AnyPattern("r")), args_as="a")
    spec.add_transformation(
        TransformationRule(
            "union_commute_bug",
            pattern,
            lambda binding, context: LogicalExpression(
                "union", binding["a"], (binding["r"], binding["l"])
            ),
        )
    )
    optimizer = VolcanoOptimizer(spec, catalog)
    with pytest.raises(SearchError):
        optimizer.optimize(union(get("r"), get("s"), all=True))


def test_incompatible_schemas_rejected_by_condition(optimizer, catalog):
    """t has the same layout here, so make an incompatible pair by
    projecting; the condition code must reject non-union-compatible
    inputs, leaving no implementation and thus no plan."""
    from repro.models.relational import project

    bad = intersect(project(get("r"), ["r.k"]), get("s"))
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(bad)


def test_set_operation_cardinality_estimates(spec, catalog):
    context = OptimizerContext(spec, catalog)
    union_props = context.logical_props(union(get("r"), get("s"), all=True))
    assert union_props.cardinality == 9600
    intersect_props = context.logical_props(intersect(get("r"), get("s")))
    assert 0 < intersect_props.cardinality < 4800
    except_props = context.logical_props(except_(get("r"), get("s")))
    assert 0 < except_props.cardinality < 4800


def test_setops_over_selections(optimizer):
    """Set operations compose with the relational operators below."""
    query = intersect(
        select(get("r"), eq("r.v", 1)),
        select(get("s"), eq("s.v", 1)),
    )
    result = optimizer.optimize(query)
    assert result.plan.algorithm in ("hash_intersect", "merge_intersect")
    assert result.plan.count_algorithm("filter_scan") == 2
