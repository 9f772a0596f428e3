"""End-to-end: the adaptive loop through OptimizerService.execute.

The acceptance scenario: data grows ~4x past the catalog statistics,
``execute`` detects the q-error, refreshes statistics through the
versioned catalog API, the plan cache drops exactly the affected
fingerprints, and the re-optimized plan measurably beats the stale one.
"""

import pytest

from repro.algebra.predicates import eq
from repro.feedback import FeedbackPolicy, drifted_workload
from repro.models.relational import get, join, relational_model
from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.service import OptimizerService, ServiceOptions


def make_service(**service_options):
    scenario = drifted_workload(seed=7, growth=4)
    optimizer = VolcanoOptimizer(
        relational_model(),
        scenario.catalog,
        SearchOptions(check_consistency=False),
    )
    return scenario, OptimizerService(
        optimizer, options=ServiceOptions(**service_options)
    )


def unrelated_query():
    """A query that never reads the drifting table."""
    return join(get("s"), get("t"), eq("s.k", "t.k"))


def test_execute_records_feedback_and_serves_rows():
    scenario, service = make_service()
    executed = service.execute(scenario.query)
    assert not executed.served.cached
    assert executed.rows
    assert executed.report is not None
    assert executed.report.observed_operators > 0
    assert executed.max_q_error < 1.5  # statistics still accurate
    assert service.feedback.reports == 1
    again = service.execute(scenario.query)
    assert again.served.cached
    assert again.plan == executed.plan
    assert len(again.rows) == len(executed.rows)


def test_uninstrumented_execute_is_observation_free():
    scenario, service = make_service()
    executed = service.execute(scenario.query, instrument=False)
    assert executed.report is None
    assert executed.refresh is None
    assert executed.stats.node_rows == {}
    assert service.feedback.reports == 0


def test_drift_refresh_reoptimize_beats_stale_plan():
    """The headline loop, end to end, fully deterministic."""
    policy = FeedbackPolicy(max_q_error=2.0)
    scenario, service = make_service(feedback_policy=policy)
    catalog = scenario.catalog

    warm = service.execute(scenario.query)
    assert not warm.refreshed

    versions = {
        name: catalog.table_version(name) for name in catalog.table_names()
    }
    scenario.grow()

    # The stale run: the cached plan is still served (versions are
    # unchanged — the catalog does not know the data moved), q-error
    # blows past the policy, and statistics refresh.
    stale = service.execute(scenario.query)
    assert stale.served.cached
    assert stale.max_q_error >= scenario.growth - 0.01
    assert stale.refreshed
    assert stale.refresh.refreshed == ("r",)
    assert catalog.table_version("r") > versions["r"]
    assert catalog.table_version("s") == versions["s"]
    assert catalog.table_version("t") == versions["t"]
    assert catalog.table("r").statistics.row_count == 300 * scenario.growth

    # The fresh run: the old fingerprint is stale, re-optimization sees
    # true cardinalities, and the measured work drops.
    fresh = service.execute(scenario.query)
    assert not fresh.served.cached
    assert fresh.max_q_error < policy.max_q_error
    assert fresh.stats.work() < stale.stats.work()
    assert len(fresh.rows) == len(stale.rows)

    # Every counter of the loop is exact for the seeded scenario.
    assert stale.max_q_error == 4.0
    assert (stale.stats.work(), fresh.stats.work()) == (302134, 280576)
    histogram = service.feedback.q_error_histogram()
    assert histogram["<=4"] + histogram["<=10"] + histogram[">10"] == 3


def test_refresh_invalidates_exactly_the_affected_fingerprints():
    """The PR 1 contract under mutation: surgical invalidation."""
    scenario, service = make_service(
        feedback_policy=FeedbackPolicy(max_q_error=2.0)
    )
    service.execute(scenario.query)  # reads r, s, t
    service.execute(unrelated_query())  # reads s, t only
    scenario.grow()
    refreshed = service.execute(scenario.query)
    assert refreshed.refreshed

    # The untouched query's entry survived the refresh: still a hit.
    bystander = service.execute(unrelated_query())
    assert bystander.served.cached
    # The drifted query's entry did not: re-optimized fresh.
    affected = service.execute(scenario.query)
    assert not affected.served.cached


def test_degraded_plans_record_feedback_but_never_refresh():
    scenario, service = make_service(
        feedback_policy=FeedbackPolicy(max_q_error=2.0)
    )
    scenario.grow()
    before = scenario.catalog.statistics_version
    degraded = service.execute(
        scenario.query, budget=ResourceBudget(max_costings=5)
    )
    assert degraded.served.degraded
    assert degraded.report is not None and degraded.report.degraded
    assert degraded.refresh is None
    assert scenario.catalog.statistics_version == before
    assert service.feedback.degraded_reports == 1
    # The drift is quarantined: even a later refresh pass sees nothing.
    assert service.feedback.drifted_tables(FeedbackPolicy(max_q_error=2.0)) == ()


def test_without_a_policy_feedback_is_telemetry_only():
    scenario, service = make_service()  # no feedback_policy
    scenario.grow()
    before = scenario.catalog.statistics_version
    executed = service.execute(scenario.query)
    assert executed.max_q_error >= 2.0
    assert executed.refresh is None
    assert scenario.catalog.statistics_version == before
    assert service.feedback.reports == 1


def test_per_call_policy_overrides_service_default():
    scenario, service = make_service()  # no service-level policy
    scenario.grow()
    executed = service.execute(
        scenario.query, policy=FeedbackPolicy(max_q_error=2.0)
    )
    assert executed.refreshed


def test_grow_is_idempotent():
    scenario, _ = make_service()
    added = scenario.grow()
    assert added == 300 * (scenario.growth - 1)
    assert scenario.grow() == 0
    with pytest.raises(ValueError):
        drifted_workload(growth=1)
