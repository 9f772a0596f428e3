"""A2: failure memoization — 'interesting facts' include failures."""

import pytest

from repro.search import SearchOptions, VolcanoOptimizer

from conftest import run_once


@pytest.mark.parametrize("cache_failures", [True, False], ids=["cached", "uncached"])
def test_failure_caching_time(benchmark, spec, ordered_generator, cache_failures):
    query = ordered_generator.generate(6, seed=43)
    options = SearchOptions(cache_failures=cache_failures, check_consistency=False)

    def optimize():
        return VolcanoOptimizer(spec, query.catalog, options).optimize(
            query.query, props=query.required
        )

    result = run_once(benchmark, optimize)
    benchmark.extra_info["failure_hits"] = result.stats.failure_hits


def test_failure_caching_is_lossless_and_hits(benchmark, spec, ordered_generator):
    query = ordered_generator.generate(5, seed=44)

    def both():
        cached = VolcanoOptimizer(
            spec, query.catalog, SearchOptions(check_consistency=False)
        ).optimize(query.query, props=query.required)
        uncached = VolcanoOptimizer(
            spec,
            query.catalog,
            SearchOptions(cache_failures=False, check_consistency=False),
        ).optimize(query.query, props=query.required)
        return cached, uncached

    cached, uncached = run_once(benchmark, both)
    assert cached.cost == uncached.cost
    assert uncached.stats.failure_hits == 0
