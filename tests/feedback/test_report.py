"""Feedback reports: q-error guards, per-operator joins, rendering.

Covers the edge cases the counters must survive: empty inputs,
zero-row joins, duplicate-heavy sorts, and zero estimates/observations.
"""

import pytest

from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.executor import ExecutionStats, execute_plan
from repro.executor.compile import PlanCompiler
from repro.executor.oodb import register_oodb
from repro.executor.runtime import ExecutionContext
from repro.explain import explain_plan
from repro.feedback import observed_report, q_error
from repro.model.context import OptimizerContext
from repro.models.aggregates import aggregate, aggregate_model
from repro.models.oodb import materialize, oodb_model
from repro.models.relational import get, join, project, relational_model, select
from repro.search import SearchOptions, VolcanoOptimizer

from tests.executor.test_oodb_executor import build_catalog as build_oodb_catalog


def optimize(catalog, query, props=None, spec=None):
    optimizer = VolcanoOptimizer(
        spec or relational_model(), catalog, SearchOptions(check_consistency=False)
    )
    return optimizer.optimize(query, props).plan


def run_report(catalog, query, props=None, spec=None):
    plan = optimize(catalog, query, props, spec)
    stats = ExecutionStats()
    rows = execute_plan(plan, catalog, stats, instrument=True)
    report = observed_report(plan, stats)
    return plan, rows, report


# -- the q-error metric --------------------------------------------------------


def test_q_error_symmetric_and_guarded():
    assert q_error(10, 10) == 1.0
    assert q_error(100, 10) == 10.0
    assert q_error(10, 100) == 10.0
    # Zero guards: both sides are floored at one row, never divide by zero.
    assert q_error(0, 0) == 1.0
    assert q_error(0, 50) == 50.0
    assert q_error(50, 0) == 50.0
    assert q_error(0.25, 1) == 1.0


# -- joining estimates with observations ---------------------------------------


def test_report_on_scan(rowed_catalog):
    plan, rows, report = run_report(rowed_catalog, get("r"))
    assert len(rows) == 40
    root = report.operator(0)
    assert root.algorithm == "file_scan"
    assert root.table == "r"
    assert root.estimated_rows == 40
    assert root.actual_rows == 40
    assert root.scanned_rows == 40
    assert root.scan_complete
    assert root.q_error == 1.0
    assert report.max_q_error == 1.0


def test_report_ids_follow_preorder(rowed_catalog):
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    plan, _, report = run_report(rowed_catalog, query)
    assert [op.node_id for op in report.operators] == list(
        range(plan.count_nodes())
    )
    assert [op.algorithm for op in report.operators] == list(
        plan.algorithms_used()
    )


def test_empty_input_counts_zero_not_missing(rowed_catalog):
    """A selection matching nothing observes 0 rows — a real observation."""
    plan, rows, report = run_report(rowed_catalog, select(get("r"), eq("r.v", 99)))
    assert rows == []
    root = report.operator(0)
    assert root.actual_rows == 0
    # Estimated nonzero vs observed zero: guarded, grades as est/1.
    assert root.estimated_rows > 0
    assert root.q_error == pytest.approx(max(root.estimated_rows, 1.0))


def test_zero_row_join(disjoint_catalog):
    """Disjoint keys: the join emits nothing, inputs still count."""
    query = join(get("a"), get("b"), eq("a.k", "b.k"))
    plan, rows, report = run_report(disjoint_catalog, query)
    assert rows == []
    root = report.operator(0)
    assert root.actual_rows == 0
    assert root.q_error is not None and root.q_error > 1.0
    scans = [op for op in report.operators if op.algorithm == "file_scan"]
    assert sorted(op.actual_rows for op in scans) == [30, 30]
    assert all(op.scan_complete for op in scans)


def test_duplicate_heavy_sort(rowed_catalog):
    """A sort over 10-distinct keys passes every duplicate through."""
    plan, rows, report = run_report(
        rowed_catalog, get("r"), sorted_on("r.k")
    )
    assert len(rows) == 40
    sorts = [op for op in report.operators if op.algorithm == "sort"]
    assert sorts, plan.algorithms_used()
    assert sorts[0].is_enforcer
    assert sorts[0].actual_rows == 40
    # The enforcer mirrors its input: estimate matches the scan's.
    assert sorts[0].estimated_rows == 40
    assert sorts[0].q_error == 1.0


def test_uninstrumented_stats_produce_no_observations(rowed_catalog):
    plan = optimize(rowed_catalog, get("r"))
    stats = ExecutionStats()
    execute_plan(plan, rowed_catalog, stats)  # instrument off
    assert stats.node_rows == {}
    report = observed_report(plan, stats)
    assert all(op.actual_rows is None for op in report.operators)
    assert all(op.q_error is None for op in report.operators)
    assert report.max_q_error == 1.0
    assert report.observed_operators == 0


@pytest.mark.parametrize(
    "algorithm, props",
    [("hash_aggregate", None), ("stream_aggregate", sorted_on("r.k"))],
    ids=["hash_aggregate", "stream_aggregate"],
)
def test_filter_project_aggregate_mirrors_estimate_like_the_model(
    rowed_catalog, algorithm, props
):
    """Each node's estimate is the model's cardinality of the class it computes."""
    predicate = eq("r.v", 1)
    scanned = get("r")
    filtered = select(scanned, predicate)
    projected = project(filtered, ["r.k", "r.v"])
    grouped = aggregate(projected, ("r.k",), (("n", "count", None),))
    spec = aggregate_model()
    plan, _, report = run_report(rowed_catalog, grouped, props, spec)
    assert plan.algorithm == algorithm
    context = OptimizerContext(spec, rowed_catalog)
    # Top down, each algorithm computes the next class of the chain
    # (the scan absorbs the filter); an enforcer computes its input's.
    chain = iter((grouped, projected, filtered))
    expected, enforcers = [], 0
    for node in plan.walk():
        if node.is_enforcer:
            enforcers += 1
            continue
        cardinality = context.logical_props(next(chain)).cardinality
        expected += [cardinality] * (enforcers + 1)
        enforcers = 0
    assert next(chain, None) is None
    assert [op.estimated_rows for op in report.operators] == expected
    # The filter's estimate is selective.
    assert expected[-1] < context.logical_props(scanned).cardinality


def test_unknown_algorithm_has_no_estimate(rowed_catalog):
    plan = PhysicalPlan("warp_scan", ("r", None))
    report = observed_report(plan, ExecutionStats())
    assert report.operator(0).estimated_rows is None
    assert report.operator(0).q_error is None


def test_every_oodb_node_is_estimated_and_pointer_chase_is_unattributed():
    """A model without a hand-written mapping still gets estimates: each
    node carries its class's properties.  ``pointer_chase`` reads two
    sources, so it is attributed to no table."""
    catalog = build_oodb_catalog(employees=50, departments=5000)
    query = materialize(
        select(get("employee"), eq("employee.salary", 7)), "dept_ref", "department"
    )
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(query).plan
    assert "pointer_chase" in plan.algorithms_used()
    stats = ExecutionStats()
    compiler = PlanCompiler(catalog)
    register_oodb(compiler)
    compiler.compile(plan, ExecutionContext(catalog, stats), instrument=True).drain()
    report = observed_report(plan, stats)
    assert all(op.estimated_rows is not None for op in report.operators)
    (chase,) = [op for op in report.operators if op.algorithm == "pointer_chase"]
    assert chase.table is None and chase.alias is None
    assert chase.actual_rows is not None and chase.q_error is not None
    scans = [op for op in report.operators if op.algorithm.endswith("scan")]
    assert [op.table for op in scans] == ["employee"]


# -- rendering -----------------------------------------------------------------


def test_render_lists_every_operator(rowed_catalog):
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    plan, _, report = run_report(rowed_catalog, query)
    rendered = report.render()
    assert "est_rows" in rendered and "act_rows" in rendered
    assert "q_error" in rendered
    assert "plan max q-error" in rendered
    assert len(rendered.splitlines()) == plan.count_nodes() + 2


def test_explain_plan_accepts_feedback(rowed_catalog):
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    plan, _, report = run_report(rowed_catalog, query)
    plain = explain_plan(plan)
    assert "est_rows" not in plain
    analyzed = explain_plan(plan, report)
    assert "est_rows" in analyzed and "act_rows" in analyzed
    assert "q_error" in analyzed
    assert "plan max q-error" in analyzed
    # Feedback columns never displace the cost columns.
    assert "cum. cost" in analyzed
