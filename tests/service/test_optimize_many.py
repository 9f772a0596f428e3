"""The batch driver: ``OptimizerService.optimize_many``.

The contract under test: a batch call returns, in input order, exactly
what a sequence of :meth:`optimize` calls would have returned — whether
the queries were served warm, optimized over one shared memo, or
optimized one by one.  Plus the batch-only semantics: each query looked
up once, duplicate queries optimized once, batch deadlines split into
per-query budgets, degraded answers served but never cached, and a
failing query's error raised out of the batch.
"""

import pytest

from repro.models.relational import relational_model
from repro.options import ResourceBudget
from repro.search import SearchOptions, SharingOptions, VolcanoOptimizer
from repro.service import OptimizerService, ServiceOptions
from repro.workloads import QueryGenerator

SPEC = relational_model()


@pytest.fixture(scope="module")
def workload():
    return QueryGenerator().generate_shared(
        count=12, seed=11, n_tables=8, relations=(2, 5)
    )


def make_service(catalog, engine=SearchOptions(check_consistency=False), **options):
    optimizer = VolcanoOptimizer(SPEC, catalog, engine)
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


def test_batch_miss_is_looked_up_once(workload):
    """A miss handed on to the engine is not looked up (or counted) again.

    Only a duplicate, served from what its first occurrence cached, is
    looked up a second time — on the shared and the independent path.
    """
    queries, required = queries_of(workload)
    stats = make_service(workload.catalog).optimize_many(
        queries[:1], required
    ).cache_stats
    assert (stats.lookups, stats.hits, stats.misses) == (1, 0, 1)

    batch = [queries[0], queries[1], queries[0]]
    for sharing in (SharingOptions(), SharingOptions(enabled=False)):
        served = make_service(workload.catalog, sharing=sharing).optimize_many(
            batch, required
        )
        stats = served.cache_stats
        assert (served.sharing_report is not None) == sharing.enabled
        assert (stats.lookups, stats.hits, stats.misses) == (4, 1, 3)


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


def test_worker_failure_reraises_earliest_in_input_order(workload):
    """Queries the relational spec cannot optimize (set operations)
    fingerprint fine, then fail in the engine: the earliest one's error
    leaves the batch, whether the misses share one memo or run one by
    one."""
    from repro.algebra.expressions import LogicalExpression
    from repro.errors import ReproError
    from repro.models.relational import get

    queries, required = queries_of(workload)
    union, intersect = (
        LogicalExpression(operator, (), (get("t0"), get("t1")))
        for operator in ("union", "intersect")
    )
    for sharing in (SharingOptions(), SharingOptions(enabled=False)):
        service = make_service(workload.catalog, sharing=sharing)
        for first, second in ((union, intersect), (intersect, union)):
            with pytest.raises(ReproError, match=first.operator):
                service.optimize_many(
                    [queries[0], first, queries[1], second], required
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


def test_forked_batch_is_served_under_the_service_options(workload):
    """The shared-memo batch runs with ``_engine_options``.

    A batch under ``verify_plans=True`` must come back with certificates
    the service verified, and must search under the engine's own promise
    model — the engine's options plus the certificates the service folds
    in.
    """
    from repro.search import LearnedPromiseModel

    queries, required = queries_of(workload)
    model = LearnedPromiseModel()
    service = make_service(
        workload.catalog,
        SearchOptions(check_consistency=False, promise_model=model),
        verify_plans=True,
    )
    seen = []
    inner = service._engine_options

    def spy(budget):
        options = inner(budget)
        seen.append(options)
        return options

    service._engine_options = spy
    batch = service.optimize_many(queries[:4], required)
    assert batch.sharing_report is not None
    assert seen and all(
        options.certificates and options.promise_model is model for options in seen
    )
    for result in batch.results:
        assert result.certificate is not None
        assert result.verified
    assert service.cache.stats.verify_violations == 0
    # What the shared run served is what the cache now serves, verified.
    warm = service.optimize_many(queries[:4], required).results
    assert all(result.cached and result.verified for result in warm)
