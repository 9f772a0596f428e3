"""The batch driver: ``OptimizerService.optimize_many``.

The contract under test: a batch call returns, in input order, exactly
what a sequence of :meth:`optimize` calls would have returned — whether
the queries were served warm, optimized serially, or fanned out to
forked worker processes.  Plus the batch-only semantics: duplicate
queries optimized once, batch deadlines split into per-query budgets,
degraded answers served but never cached, and worker failures re-raised
deterministically.
"""

import os

import pytest

from repro.models.relational import relational_model
from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.service import OptimizerService, ServiceOptions
from repro.service.parallel import fork_available
from repro.workloads import QueryGenerator

SPEC = relational_model()


@pytest.fixture(scope="module")
def workload():
    return QueryGenerator().generate_shared(
        count=12, seed=11, n_tables=8, relations=(2, 5)
    )


def make_service(catalog, **options):
    optimizer = VolcanoOptimizer(
        SPEC, catalog, SearchOptions(check_consistency=False)
    )
    return OptimizerService(
        optimizer, options=ServiceOptions(parameterized=False, **options)
    )


def queries_of(workload):
    return [q.query for q in workload.queries], workload.queries[0].required


def test_serial_batch_matches_single_query_answers(workload):
    queries, required = queries_of(workload)
    batch = make_service(workload.catalog).optimize_many(queries, required).results
    single = make_service(workload.catalog)
    for query, served in zip(queries, batch):
        reference = single.optimize(query, required)
        assert str(served.plan) == str(reference.plan)
        assert str(served.cost) == str(reference.cost)


def test_second_batch_is_all_warm(workload):
    queries, required = queries_of(workload)
    service = make_service(workload.catalog)
    cold = service.optimize_many(queries, required).results
    assert not any(result.cached for result in cold)
    warm = service.optimize_many(queries, required).results
    assert all(result.cached for result in warm)
    for before, after in zip(cold, warm):
        assert str(after.plan) == str(before.plan)
        assert str(after.cost) == str(before.cost)


def test_duplicates_in_one_batch_optimized_once(workload):
    queries, required = queries_of(workload)
    batch = [queries[0], queries[1], queries[0], queries[1], queries[0]]
    service = make_service(workload.catalog)
    results = service.optimize_many(batch, required).results
    assert [result.cached for result in results] == [
        False, False, True, True, True,
    ]
    assert str(results[0].plan) == str(results[2].plan) == str(results[4].plan)


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_parallel_batch_is_deterministic_and_identical(workload):
    queries, required = queries_of(workload)
    serial = make_service(workload.catalog).optimize_many(queries, required).results
    parallel = make_service(workload.catalog).optimize_many(
        queries, required, max_workers=4
    ).results
    assert len(parallel) == len(queries)
    for left, right in zip(serial, parallel):
        assert str(left.plan) == str(right.plan)
        assert str(left.cost) == str(right.cost)
        assert left.required == right.required
    # The parallel results populated the parent's cache.
    service = make_service(workload.catalog)
    service.optimize_many(queries, required, max_workers=4)
    assert all(
        result.cached
        for result in service.optimize_many(queries, required).results
    )


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_parallel_results_are_slim_but_complete(workload):
    queries, required = queries_of(workload)
    service = make_service(workload.catalog)
    results = service.optimize_many(queries[:4], required, max_workers=2).results
    for served in results:
        assert served.result is not None
        assert served.result.memo is None  # not shipped across the pipe
        assert served.result.stats.elapsed_seconds > 0
        assert served.plan is served.result.plan


def test_batch_deadline_splits_into_per_query_budgets(workload):
    queries, required = queries_of(workload)
    service = make_service(workload.catalog)
    # A batch deadline far below one optimization: every query trips its
    # share, and the tripped report records the split (40µs / 4).
    results = service.optimize_many(
        queries[:4], required, deadline_seconds=4e-05
    ).results
    for served in results:
        assert served.degraded
        report = served.result.budget_report
        assert report is not None
        assert report.budget.deadline_seconds == pytest.approx(1e-05)


def test_batch_deadline_composes_with_budget(workload):
    queries, required = queries_of(workload)
    base = ResourceBudget(max_costings=10, deadline_seconds=5.0)
    service = make_service(workload.catalog)
    results = service.optimize_many(
        queries[:4], required, deadline_seconds=100.0, budget=base
    ).results
    for served in results:
        # costings cap trips immediately; the tighter deadline (the
        # budget's own 5s, not the 25s batch share) is what was applied.
        assert served.degraded
        budget = served.result.budget_report.budget
        assert budget.max_costings == 10
        assert budget.deadline_seconds == pytest.approx(5.0)
    # Degraded answers are served but never poison the cache.
    assert len(service.cache) == 0
    assert service.stats.degraded == 4


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_degraded_parallel_batch_never_cached(workload):
    queries, required = queries_of(workload)
    budget = ResourceBudget(max_costings=10)
    service = make_service(workload.catalog)
    results = service.optimize_many(
        queries[:6], required, budget=budget, max_workers=3
    ).results
    assert all(result.degraded for result in results)
    assert len(service.cache) == 0


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_worker_failure_reraises_earliest_in_input_order(workload):
    queries, required = queries_of(workload)
    # A query the relational spec cannot optimize (a set operation): it
    # fingerprints fine in the parent, then fails inside the worker; the
    # failure ships back as a value and the parent re-raises it.
    from repro.algebra.expressions import LogicalExpression
    from repro.errors import ReproError
    from repro.models.relational import get

    bad = LogicalExpression("union", (), (get("t0"), get("t1")))
    service = make_service(workload.catalog)
    with pytest.raises(ReproError, match="union"):
        service.optimize_many(
            [queries[0], bad, queries[1]], required, max_workers=2
        )


def test_warm_hits_report_service_side_latency(workload):
    """Satellite: re-serving a cached plan must not re-count engine time.

    ``CacheStats.engine_seconds`` accumulates engine wall-clock once per
    fresh optimization; ``hit_seconds`` accumulates only the (tiny)
    lookup latency of warm answers.  Before the split, a warm batch
    re-reported every entry's original ``elapsed_seconds``, double- (or
    N-times-) counting engine work.
    """
    queries, required = queries_of(workload)
    service = make_service(workload.catalog)
    service.optimize_many(queries, required)
    stats = service.stats
    engine_after_cold = stats.engine_seconds
    assert engine_after_cold > 0
    assert stats.hit_seconds == 0.0

    service.optimize_many(queries, required)
    # The warm batch added lookup latency only: engine time unchanged,
    # and the hits cost far less than the engine runs they reused.
    assert stats.engine_seconds == engine_after_cold
    assert 0.0 < stats.hit_seconds < engine_after_cold
    assert stats.as_dict()["hit_seconds"] == stats.hit_seconds


@pytest.mark.skipif(
    not fork_available() or len(os.sched_getaffinity(0)) < 4,
    reason="throughput comparison needs >= 4 usable cores",
)
def test_parallel_throughput_beats_serial():
    """4 workers vs serial on a 32-query batch: >= 2.5x throughput."""
    import time

    workload = QueryGenerator().generate_shared(
        count=32, seed=11, n_tables=8, relations=(4, 7)
    )
    queries, required = queries_of(workload)

    started = time.perf_counter()
    serial = make_service(workload.catalog).optimize_many(queries, required).results
    serial_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    parallel = make_service(workload.catalog).optimize_many(
        queries, required, max_workers=4
    ).results
    parallel_elapsed = time.perf_counter() - started

    for left, right in zip(serial, parallel):
        assert str(left.plan) == str(right.plan)
    assert serial_elapsed / parallel_elapsed >= 2.5


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_forked_batch_is_served_under_the_service_options(workload):
    """Forked workers run with ``_engine_options``, like every other path.

    A forked batch under ``verify_plans=True`` must come back with
    certificates the parent verified, and must search under the
    service's promise model — the same overrides the serial and
    shared-memo paths fold in.
    """
    from repro.search import LearnedPromiseModel

    queries, required = queries_of(workload)
    model = LearnedPromiseModel()
    service = make_service(
        workload.catalog, verify_plans=True, promise_model=model
    )
    seen = []
    inner = service._engine_options

    def spy(budget, hints=None):
        options = inner(budget, hints)
        seen.append(options)
        return options

    service._engine_options = spy
    served = service.optimize_many(queries[:4], required, max_workers=2).results
    assert seen and all(
        options.certificates and options.promise_model is model for options in seen
    )
    for result in served:
        assert result.certificate is not None
        assert result.verified
    assert service.cache.stats.verify_violations == 0
    # What the workers shipped is what the cache now serves, verified.
    warm = service.optimize_many(queries[:4], required).results
    assert all(result.cached and result.verified for result in warm)
