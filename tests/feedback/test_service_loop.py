"""End-to-end: the adaptive loop through OptimizerService.execute.

The acceptance scenario: data grows ~4x past the catalog statistics,
``execute`` detects the q-error, refreshes statistics through the
versioned catalog API, the plan cache drops exactly the affected
fingerprints, and the re-optimized plan measurably beats the stale one.
"""

import sys
import threading

import pytest

from repro.algebra.predicates import Comparison, ComparisonOp, col, eq, lit
from repro.feedback import FeedbackPolicy, FeedbackStore, drifted_workload
from repro.models.relational import get, join, relational_model, select
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


def test_range_template_hits_record_feedback_but_never_refresh():
    # r.k < 1 and r.k < 4 share a selectivity bucket, so the second is a
    # template hit carrying the first one's estimates: a 3x+ "miss" that
    # says nothing about the statistics, which are accurate here.
    scenario, service = make_service(
        feedback_policy=FeedbackPolicy(max_q_error=2.0)
    )

    def below(value):
        return select(get("r"), Comparison(ComparisonOp.LT, col("r.k"), lit(value)))

    before = scenario.catalog.statistics_version
    first = service.execute(below(1))
    hit = service.execute(below(4))
    assert hit.served.parameterized
    assert hit.max_q_error > 2.0
    assert hit.report.rebound and not first.report.rebound
    assert not hit.refreshed
    assert scenario.catalog.statistics_version == before
    assert service.feedback.reports == 2
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


@pytest.fixture
def contended():
    """Switch threads as often as the interpreter allows, so unlocked
    read-modify-write sequences interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def run_threads(count, work):
    """Run ``work(index)`` on ``count`` threads; return their results."""
    results = [None] * count
    errors = []

    def target(index):
        try:
            results[index] = work(index)
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


def test_concurrent_executes_record_every_report_exactly(contended):
    threads, repeats = 6, 8
    _, probe = make_service()
    probe.execute(unrelated_query())
    per_report = {
        name: probe.feedback.table_feedback(name).observations for name in ("s", "t")
    }
    assert all(per_report.values())

    _, service = make_service()
    service.execute(unrelated_query())  # plan it once; the threads all hit

    def work(_index):
        for _ in range(repeats):
            service.execute(unrelated_query())

    run_threads(threads, work)
    total = threads * repeats + 1
    assert service.feedback.reports == total
    for name, count in per_report.items():
        assert service.feedback.table_feedback(name).observations == total * count


def test_one_piece_of_drift_evidence_refreshes_once(monkeypatch):
    """Exactly one refresh, and by the execute that found the drift.

    After recording the drift, that execute waits until some other
    thread starts a second report: unlocked, the other thread's refresh
    in between consumes the evidence; locked, no other report can start,
    and the wait times out.
    """
    record = FeedbackStore.record
    mine = threading.local()
    drift_recorded, second_report = threading.Event(), threading.Event()

    def record_and_watch(store, report):
        if getattr(mine, "after_drift", False):
            second_report.set()
        record(store, report)
        mine.after_drift = drift_recorded.is_set()
        if getattr(mine, "drift", False):
            drift_recorded.set()
            second_report.wait(timeout=0.5)

    monkeypatch.setattr(FeedbackStore, "record", record_and_watch)
    policy = FeedbackPolicy(max_q_error=2.0)
    scenario, service = make_service(feedback_policy=policy)
    service.execute(scenario.query)
    service.execute(unrelated_query())
    version = scenario.catalog.table_version("r")
    scenario.grow()
    done = threading.Event()

    def work(index):
        if index == 0:
            # The only stale plan executed: the only drift evidence.
            mine.drift = True
            try:
                return [service.execute(scenario.query)]
            finally:
                done.set()
        executed = []
        while not done.is_set():
            executed.append(service.execute(unrelated_query()))
        return executed

    executed = [item for batch in run_threads(4, work) for item in batch]
    assert sum(1 for item in executed if item.refreshed) == 1
    assert executed[0].refreshed
    assert executed[0].refresh.versions["r"] == (
        version,
        scenario.catalog.table_version("r"),
    )
