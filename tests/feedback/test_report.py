"""Feedback reports: q-error guards, per-operator joins, rendering.

Covers the edge cases the counters must survive: empty inputs,
zero-row joins, duplicate-heavy sorts, and zero estimates/observations.
"""

import pytest

from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.executor import ExecutionStats, execute_plan
from repro.explain import explain_plan
from repro.feedback import estimate_rows, mirror_expressions, observed_report, q_error
from repro.model.context import OptimizerContext
from repro.models.aggregates import aggregate, aggregate_model
from repro.models.relational import get, join, project, relational_model, select
from repro.search import SearchOptions, VolcanoOptimizer


def optimize(catalog, query, props=None):
    optimizer = VolcanoOptimizer(
        relational_model(), catalog, SearchOptions(check_consistency=False)
    )
    return optimizer.optimize(query, props).plan


def run_report(catalog, query, props=None):
    plan = optimize(catalog, query, props)
    stats = ExecutionStats()
    rows = execute_plan(plan, catalog, stats, instrument=True)
    report = observed_report(plan, stats, catalog, relational_model())
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
    report = observed_report(plan, stats, rowed_catalog, relational_model())
    assert all(op.actual_rows is None for op in report.operators)
    assert all(op.q_error is None for op in report.operators)
    assert report.max_q_error == 1.0
    assert report.observed_operators == 0


@pytest.mark.parametrize("algorithm", ["hash_aggregate", "stream_aggregate"])
def test_filter_project_aggregate_mirrors_estimate_like_the_model(
    rowed_catalog, algorithm
):
    """Each node's estimate is the model's cardinality of its logical mirror."""
    predicate = eq("r.v", 1)
    group_by, aggregates = ("r.k",), (("n", "count", None),)
    plan = PhysicalPlan(
        algorithm,
        (group_by, aggregates),
        (
            PhysicalPlan(
                "project",
                (("r.k", "r.v"),),
                (
                    PhysicalPlan(
                        "filter",
                        (predicate,),
                        (PhysicalPlan("file_scan", ("r", None)),),
                    ),
                ),
            ),
        ),
    )
    scanned = get("r")
    filtered = select(scanned, predicate)
    projected = project(filtered, ["r.k", "r.v"])
    grouped = aggregate(projected, group_by, aggregates)
    spec = aggregate_model()
    context = OptimizerContext(spec, rowed_catalog)
    expected = {
        node_id: context.logical_props(mirror).cardinality
        for node_id, mirror in enumerate((grouped, projected, filtered, scanned))
    }
    assert mirror_expressions(plan) == dict(
        enumerate((grouped, projected, filtered, scanned))
    )
    assert estimate_rows(plan, rowed_catalog, spec) == expected
    assert expected[2] < expected[3]  # the filter's estimate is selective


def test_unknown_algorithm_has_no_estimate(rowed_catalog):
    plan = PhysicalPlan("warp_scan", ("r", None))
    assert mirror_expressions(plan) == {0: None}
    assert estimate_rows(plan, rowed_catalog, relational_model()) == {0: None}


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
