"""The cache correctness suite for :class:`OptimizerService`.

The load-bearing property: a warm cache must answer with plans and
costs identical to a cold optimizer — over a real generated workload,
under invalidation, and within the LRU bound.
"""

import dataclasses

import pytest

from repro.algebra.predicates import Comparison, ComparisonOp, col, eq, lit
from repro.errors import OptionsError
from repro.models.relational import get, join, relational_model, select
from repro.search import VolcanoOptimizer
from repro.service import OptimizerService, ServiceOptions
from repro.workloads import QueryGenerator

from tests.helpers import make_catalog

SPEC = relational_model()


def le(column, value):
    return Comparison(ComparisonOp.LE, col(column), lit(value))


def query_with_threshold(value):
    return join(select(get("r"), le("r.v", value)), get("s"), eq("r.k", "s.k"))


def make_service(catalog, **options):
    optimizer = VolcanoOptimizer(SPEC, catalog)
    return OptimizerService(optimizer, options=ServiceOptions(**options))


@pytest.fixture(scope="module")
def workload():
    # 50 queries over one shared 8-table database (the paper's 2-8
    # relation range, capped at 6 to keep the suite fast).
    return QueryGenerator().generate_shared(
        count=50, seed=11, n_tables=8, relations=(2, 6)
    )


def test_warm_answers_identical_to_cold_over_workload(workload):
    """Warm-cache results are plan- and cost-identical on 50 queries."""
    service = make_service(workload.catalog)
    cold = [service.optimize(q.query, q.required) for q in workload]
    warm = [service.optimize(q.query, q.required) for q in workload]
    assert len(cold) == 50
    for before, after in zip(cold, warm):
        assert not before.cached
        assert after.cached
        assert after.plan == before.plan
        assert after.cost == before.cost
        assert after.required == before.required
    assert service.stats.hits == 50
    # A hit is a fingerprint probe, not a search: orders of magnitude faster.
    cold_seconds = sum(served.elapsed_seconds for served in cold)
    warm_seconds = sum(served.elapsed_seconds for served in warm)
    assert cold_seconds >= 10 * warm_seconds


def test_cold_results_are_engine_results(workload):
    service = make_service(workload.catalog)
    query = workload.queries[0]
    served = service.optimize(query.query, query.required)
    assert not served.cached
    assert served.result is not None
    assert served.plan is served.result.plan
    reference = VolcanoOptimizer(SPEC, workload.catalog).optimize(
        query.query, query.required
    )
    assert served.plan == reference.plan
    assert served.cost == reference.cost


def test_parameterized_hit_rebinds_literals():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = make_service(catalog)
    first = service.optimize(query_with_threshold(10))
    # Same structure, different literal, same selectivity bucket
    # (r.v spans 0..19, so 10 and 11 both cut it near the middle).
    second = service.optimize(query_with_threshold(11))
    assert not first.cached
    assert second.cached and second.parameterized
    # The served plan carries *this* query's literal, not the cached one.
    rendered = second.plan.to_sexpr()
    assert "11" in rendered and "?p" not in rendered
    cold = VolcanoOptimizer(SPEC, catalog).optimize(query_with_threshold(11))
    assert second.plan.to_sexpr() == cold.plan.to_sexpr()
    assert service.stats.parameterized_hits == 1


def test_equality_literals_share_one_entry():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = make_service(catalog)
    for value in (1, 2, 3):
        query = join(
            select(get("r"), eq("r.v", value)), get("s"), eq("r.k", "s.k")
        )
        service.optimize(query)
    # First query misses; the other two hit the shared template.
    assert service.stats.parameterized_hits == 2


def test_parameterized_caching_can_be_disabled():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = make_service(catalog, parameterized=False)
    service.optimize(query_with_threshold(5))
    second = service.optimize(query_with_threshold(6))
    assert not second.cached
    assert service.stats.parameterized_hits == 0


def test_stats_mutation_invalidates_exactly_affected_entries(workload):
    service = make_service(workload.catalog, parameterized=False)
    for query in workload:
        service.optimize(query.query, query.required)
    size_before = len(service)
    victim = workload.queries[0].table_names[0]
    affected = sum(
        1
        for entry in service.cache.entries()
        if victim in entry.fingerprint.tables
    )
    assert affected > 0
    workload.catalog.update_statistics(
        victim, workload.catalog.table(victim).statistics
    )
    # The sweep is lazy: the next call triggers it.
    probe = workload.queries[0]
    result = service.optimize(probe.query, probe.required)
    assert not result.cached  # its entry read the mutated table
    assert service.stats.invalidations == affected
    assert len(service) == size_before - affected + 1


def test_queries_over_unchanged_tables_stay_cached(workload):
    service = make_service(workload.catalog, parameterized=False)
    for query in workload:
        service.optimize(query.query, query.required)
    victim = workload.queries[0].table_names[0]
    unaffected = next(
        q for q in workload if victim not in q.table_names
    )
    workload.catalog.update_statistics(
        victim, workload.catalog.table(victim).statistics
    )
    assert service.optimize(unaffected.query, unaffected.required).cached


def test_lru_bound_is_respected(workload):
    service = make_service(workload.catalog, max_entries=5, parameterized=False)
    for query in workload:
        service.optimize(query.query, query.required)
    assert len(service) <= 5
    assert service.stats.evictions >= len(workload) - 5


def test_explicit_invalidation():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = make_service(catalog)
    service.optimize(query_with_threshold(5))
    assert len(service) == 2  # the exact entry and the template
    assert service.invalidate("r") == 2
    assert len(service) == 0
    service.optimize(query_with_threshold(5))
    service.clear()
    assert len(service) == 0


def test_optimize_sql_round_trip():
    from repro.executor import TableSpec, populate_catalog
    from repro.generator import generate_optimizer
    from repro.models.aggregates import aggregate_model

    catalog = make_catalog([])
    populate_catalog(
        catalog,
        (
            TableSpec("emp", rows=2400, key_distinct=240, value_distinct=50),
            TableSpec("dept", rows=1200, key_distinct=240, value_distinct=20),
        ),
        seed=7,
    )
    optimizer = generate_optimizer(aggregate_model(), catalog)
    service = OptimizerService(optimizer)
    text = "select emp.k from emp, dept where emp.k = dept.k and emp.v <= 25"
    first = service.optimize(text)
    second = service.optimize(text)
    assert not first.cached and second.cached
    assert second.plan == first.plan
    assert second.cost == first.cost


def counted(service):
    stats = service.stats.counters()
    return {name: stats[name] for name in ("lookups", "hits", "misses", "insertions")}


def test_lookup_is_the_cache_only_half_of_optimize():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = make_service(catalog)
    query = query_with_threshold(5)

    missed = service.lookup(query)  # exact, then template: two probes
    assert missed.missed and missed.template_key is not None
    assert counted(service) == {"lookups": 2, "hits": 0, "misses": 2, "insertions": 0}
    # The miss is not counted again: straight to single-flight + engine.
    fresh = service.optimize(missed)
    assert not fresh.cached and fresh.fingerprint == missed.exact
    assert counted(service) == {"lookups": 2, "hits": 0, "misses": 2, "insertions": 2}

    hit = service.lookup(query, sexpr=query.to_sexpr())
    assert hit.cached and hit.plan == fresh.plan
    assert hit == dataclasses.replace(
        service.optimize(query), elapsed_seconds=hit.elapsed_seconds
    )
    assert counted(service) == {"lookups": 4, "hits": 2, "misses": 2, "insertions": 2}
    # A batch honours the mark too.
    others = [
        service.lookup(query_with_threshold(900)),
        service.lookup(select(get("s"), le("s.v", 3))),
    ]
    batch = service.optimize_many(others)
    assert batch.cache_stats.lookups == 0 and batch.cache_stats.insertions == 4


def test_a_miss_gone_stale_is_rekeyed_and_looked_up_afresh():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = make_service(catalog, parameterized=False)
    query = query_with_threshold(5)
    missed = service.lookup(query)
    catalog.update_statistics("r", catalog.table("r").statistics)  # the race

    served = service.optimize(missed)
    assert not served.cached
    assert served.fingerprint != missed.exact  # keyed under the new versions
    assert served.fingerprint == service.prepare(query).exact
    assert counted(service) == {"lookups": 2, "hits": 0, "misses": 2, "insertions": 1}
    assert service.lookup(query).cached


def test_service_options_validate():
    with pytest.raises(OptionsError):
        ServiceOptions(max_entries=-1)
    with pytest.raises(OptionsError):
        ServiceOptions(selectivity_buckets=0)
