"""Tests for the relational model specification (paper Section 4's model)."""

import pytest

from repro.algebra.predicates import (
    TRUE,
    Comparison,
    ComparisonOp,
    col,
    conjunction_of,
    eq,
    lit,
)
from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.errors import SearchError
from repro.model.context import OptimizerContext
from repro.model.spec import AlgorithmNode
from repro.models.relational import (
    CostConstants,
    RelationalModelOptions,
    get,
    join,
    project,
    relational_model,
    select,
)
from repro.search import VolcanoOptimizer
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import make_catalog


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])


@pytest.fixture
def spec():
    return relational_model()


@pytest.fixture
def context(spec, catalog):
    return OptimizerContext(spec, catalog)


# -- logical property functions ------------------------------------------------


def test_get_props(context):
    props = context.logical_props(get("r"))
    assert props.cardinality == 1200
    assert props.tables == frozenset({"r"})
    assert set(props.schema.column_names) == {"r.k", "r.v"}


def test_get_props_with_alias(context):
    props = context.logical_props(get("r", "x"))
    assert set(props.schema.column_names) == {"x.r.k", "x.r.v"}
    assert props.tables == frozenset({"x"})


def test_select_props_scale_cardinality(context):
    props = context.logical_props(select(get("r"), eq("r.v", 1)))
    assert props.cardinality == pytest.approx(1200 / 20)


def test_select_props_cap_distincts(context):
    props = context.logical_props(select(get("r"), eq("r.v", 1)))
    assert props.column_stat("r.k").distinct_values <= props.cardinality + 1


def test_join_props_cardinality(context):
    props = context.logical_props(join(get("r"), get("s"), eq("r.k", "s.k")))
    # 1200 × 2400 / max(100, 100)
    assert props.cardinality == pytest.approx(1200 * 2400 / 100)
    assert props.tables == frozenset({"r", "s"})
    assert len(props.schema) == 4


def test_join_props_preserve_leaf_distincts(context):
    """Join stats stay at leaf-level distincts: order-independence of
    logical properties across the equivalence class requires estimates
    that do not depend on which join was applied first."""
    props = context.logical_props(join(get("r"), get("s"), eq("r.k", "s.k")))
    assert props.column_stat("r.k").distinct_values == 100
    assert props.column_stat("s.k").distinct_values == 100


def test_join_props_are_order_independent(context):
    from repro.algebra.predicates import conjunction_of

    star = join(
        join(get("r"), get("s"), eq("r.k", "s.k")),
        get("t"),
        eq("r.k", "t.k"),
    )
    other = join(
        join(get("r"), get("t"), eq("r.k", "t.k")),
        get("s"),
        eq("r.k", "s.k"),
    )
    assert context.logical_props(star).cardinality == pytest.approx(
        context.logical_props(other).cardinality
    )


def test_project_props(context):
    props = context.logical_props(
        project(join(get("r"), get("s"), eq("r.k", "s.k")), ["r.k", "s.v"])
    )
    assert props.schema.column_names == ("r.k", "s.v")
    assert set(props.column_stats) == {"r.k", "s.v"}


# -- algorithm applicability ----------------------------------------------------


def join_node(context, predicate=None):
    tree = join(get("r"), get("s"), predicate or eq("r.k", "s.k"))
    output = context.logical_props(tree)
    inputs = tuple(context.logical_props(node) for node in tree.inputs)
    return AlgorithmNode(tree.args, output, inputs)


def test_merge_join_requires_equi_predicate(spec, context):
    node = join_node(context, predicate=TRUE)
    assert spec.algorithm("merge_join").applicability(context, node, ANY_PROPS) == []


def test_merge_join_demands_sorted_inputs(spec, context):
    node = join_node(context)
    alternatives = spec.algorithm("merge_join").applicability(
        context, node, ANY_PROPS
    )
    assert alternatives
    left_req, right_req = alternatives[0]
    assert left_req.sort_order == (frozenset({"r.k"}),)
    assert right_req.sort_order == (frozenset({"s.k"}),)


def test_merge_join_qualifies_for_sorted_output(spec, context):
    """'merge-join qualifies with the requirement that its inputs be sorted.'"""
    node = join_node(context)
    alternatives = spec.algorithm("merge_join").applicability(
        context, node, sorted_on("r.k")
    )
    assert alternatives


def test_hash_join_disqualified_for_sorted_output(spec, context):
    """'hybrid hash join does not qualify' when output must be sorted."""
    node = join_node(context)
    assert (
        spec.algorithm("hybrid_hash_join").applicability(
            context, node, sorted_on("r.k")
        )
        == []
    )


def test_hash_join_qualified_for_unsorted_output(spec, context):
    node = join_node(context)
    assert spec.algorithm("hybrid_hash_join").applicability(
        context, node, ANY_PROPS
    ) == [(ANY_PROPS, ANY_PROPS)]


def test_merge_join_multi_key_permutations(spec, context):
    predicate = conjunction_of([eq("r.k", "s.k"), eq("r.v", "s.v")])
    node = join_node(context, predicate)
    alternatives = spec.algorithm("merge_join").applicability(
        context, node, ANY_PROPS
    )
    # Two keys → both orders are offered as alternatives (paper Section 3).
    assert len(alternatives) == 2
    first_left = alternatives[0][0].sort_order
    second_left = alternatives[1][0].sort_order
    assert first_left != second_left


def test_merge_join_derives_equivalence_order(spec, context):
    node = join_node(context)
    delivered = spec.algorithm("merge_join").derive_props(
        context, node, (sorted_on("r.k"), sorted_on("s.k"))
    )
    assert delivered.sort_order == (frozenset({"r.k", "s.k"}),)


def test_merge_join_preserves_extra_left_order(spec, context):
    delivered = spec.algorithm("merge_join").derive_props(
        context,
        join_node(context),
        (sorted_on("r.k", "r.v"), sorted_on("s.k")),
    )
    assert delivered.sort_order[0] == frozenset({"r.k", "s.k"})
    assert delivered.sort_order[1] == frozenset({"r.v"})


def test_filter_passes_requirement_through(spec, context):
    tree = select(get("r"), eq("r.v", 1))
    node = AlgorithmNode(
        tree.args,
        context.logical_props(tree),
        (context.logical_props(tree.inputs[0]),),
    )
    required = sorted_on("r.k")
    assert spec.algorithm("filter").applicability(context, node, required) == [
        (required,)
    ]
    assert (
        spec.algorithm("filter").derive_props(context, node, (required,)) == required
    )


def test_sort_enforcer_only_fires_for_sort_requirements(spec, context):
    enforcer = spec.enforcer("sort")
    props = context.logical_props(get("r"))
    assert enforcer.enforce(context, ANY_PROPS, props) == []
    applications = enforcer.enforce(context, sorted_on("r.k"), props)
    assert len(applications) == 1
    application = applications[0]
    assert application.relaxed == ANY_PROPS
    assert application.excluded.sort_order == (frozenset({"r.k"}),)
    assert application.delivered == sorted_on("r.k")


def test_project_derive_props_truncates_lost_columns(spec, context):
    tree = project(join(get("r"), get("s"), eq("r.k", "s.k")), ["r.k"])
    node = AlgorithmNode(
        tree.args,
        context.logical_props(tree),
        (context.logical_props(tree.inputs[0]),),
    )
    delivered = spec.algorithm("project").derive_props(
        context, node, (sorted_on("r.k", "s.v"),)
    )
    # s.v is projected away: the order is only known up to r.k.
    assert delivered.sort_order == (frozenset({"r.k"}),)


# -- cost functions ---------------------------------------------------------------


def test_file_scan_cost_uses_stored_row_width(spec, context):
    node = AlgorithmNode(("r", None), context.logical_props(get("r")), ())
    cost = spec.algorithm("file_scan").cost(context, node)
    # 1200 rows × 100 B at 4096 B pages → 30 pages.
    assert cost.io == 30
    assert cost.cpu == 1200


def test_sort_cost_single_level_merge(spec, context):
    props = context.logical_props(get("r"))
    node = AlgorithmNode(((frozenset({"r.k"}),),), props, (props,))
    cost = spec.enforcer("sort").cost(context, node)
    # Two I/O passes over the data: write runs, read runs.
    pages = 1200 / (4096 // 8)  # schema width: two 4-byte ints
    assert cost.io == 2 * max(1, -(-1200 // (4096 // 8)))
    assert cost.cpu > 0


def test_hash_join_has_no_io(spec, context):
    """'Hash join was presumed to proceed without partition files.'"""
    cost = spec.algorithm("hybrid_hash_join").cost(context, join_node(context))
    assert cost.io == 0


def test_merge_join_cheaper_than_hash_join_locally(spec, context):
    """Pre-sorted merge inputs beat hashing (interesting orders pay off)."""
    node = join_node(context)
    merge_cost = spec.algorithm("merge_join").cost(context, node)
    hash_cost = spec.algorithm("hybrid_hash_join").cost(context, node)
    assert merge_cost < hash_cost


# -- model options -----------------------------------------------------------------


def test_nested_loops_disabled_by_default(spec):
    assert "nested_loops_join" not in spec.algorithms


def test_nested_loops_enabled_by_option(catalog):
    options = RelationalModelOptions(enable_nested_loops=True)
    spec = relational_model(options)
    assert "nested_loops_join" in spec.algorithms
    # A cross product can now be planned.
    optimizer = VolcanoOptimizer(spec, catalog)
    result = optimizer.optimize(join(get("r"), get("s"), TRUE))
    assert result.plan.algorithm == "nested_loops_join"


def test_filter_scan_can_be_disabled(catalog):
    options = RelationalModelOptions(enable_filter_scan=False)
    spec = relational_model(options)
    optimizer = VolcanoOptimizer(spec, catalog)
    result = optimizer.optimize(select(get("r"), eq("r.v", 1)))
    assert result.plan.algorithm == "filter"


def test_select_pushdown_rules(catalog):
    options = RelationalModelOptions(select_pushdown=True)
    spec = relational_model(options)
    optimizer = VolcanoOptimizer(spec, catalog)
    # Selection sits on top of the join; the rules must push it down so
    # the filtered scan is considered.
    query = select(
        join(get("r"), get("s"), eq("r.k", "s.k")),
        conjunction_of([eq("r.v", 1), eq("s.v", 2)]),
    )
    result = optimizer.optimize(query)
    assert result.plan.count_algorithm("filter_scan") == 2


@pytest.mark.xfail(
    strict=True,
    raises=SearchError,
    reason="ROADMAP.md item 4, known wrong answers: a selection scales the "
    "distinct counts a later join's selectivity reads, so with select "
    "push-down a class's cardinality depends on where the select sits",
)
def test_select_pushdown_keeps_a_class_consistent_above_a_join_chain():
    spec = relational_model(RelationalModelOptions(select_pushdown=True))
    generator = QueryGenerator(WorkloadOptions(shape="chain"))
    for seed in range(40):
        item = generator.generate(3, seed)
        a, b, c = item.table_names
        query = select(
            join(
                join(get(a), select(get(b), _at_most(f"{b}.v", 300)), eq(f"{a}.a", f"{b}.b")),
                get(c),
                eq(f"{b}.a", f"{c}.b"),
            ),
            _at_most(f"{a}.v", 500),
        )
        VolcanoOptimizer(spec, item.catalog).optimize(query)


def _at_most(column, value):
    return Comparison(ComparisonOp.LE, col(column), lit(value))


def test_project_over_join_plan(catalog):
    spec = relational_model()
    optimizer = VolcanoOptimizer(spec, catalog)
    query = project(join(get("r"), get("s"), eq("r.k", "s.k")), ["r.k", "s.v"])
    result = optimizer.optimize(query)
    assert result.plan.algorithm == "project"


def test_cost_constants_are_tunable(catalog):
    expensive_io = RelationalModelOptions(cost=CostConstants(io_weight=10_000.0))
    spec = relational_model(expensive_io)
    optimizer = VolcanoOptimizer(spec, catalog)
    result = optimizer.optimize(get("r"))
    assert result.cost.io_weight == 10_000.0


def test_self_join_with_aliases(catalog):
    spec = relational_model()
    optimizer = VolcanoOptimizer(spec, catalog)
    query = join(get("r", "x"), get("r", "y"), eq("x.r.k", "y.r.k"))
    result = optimizer.optimize(query)
    leaf_tables = [args[0] for args in result.plan.leaf_args()]
    assert leaf_tables == ["r", "r"]


def test_merge_join_many_keys_uses_canonical_plus_requirement(spec, context):
    """Beyond the permutation limit, merge join offers the canonical key
    order plus (when the goal names join columns) a requirement-matching
    order, instead of factorially many permutations."""
    from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics

    catalog = Catalog()
    for name in ("l", "r"):
        columns = [f"{name}.c{i}" for i in range(4)]
        catalog.add_table(
            name,
            Schema.of(*columns),
            TableStatistics(
                1000,
                100,
                columns={c: ColumnStatistics(100) for c in columns},
            ),
        )
    from repro.model.context import OptimizerContext

    local_context = OptimizerContext(spec, catalog)
    predicate = conjunction_of(
        [eq(f"l.c{i}", f"r.c{i}") for i in range(4)]
    )
    tree = join(get("l"), get("r"), predicate)
    node = AlgorithmNode(
        tree.args,
        local_context.logical_props(tree),
        tuple(local_context.logical_props(child) for child in tree.inputs),
    )
    merge_join = spec.algorithm("merge_join")
    # Unconstrained: just the canonical order (no factorial blowup).
    assert len(merge_join.applicability(local_context, node, ANY_PROPS)) == 1
    # Constrained on a non-leading key: a matching order is offered too.
    constrained = merge_join.applicability(
        local_context, node, sorted_on("l.c3")
    )
    assert constrained
    for left_req, right_req in constrained:
        assert "l.c3" in left_req.sort_order[0]
