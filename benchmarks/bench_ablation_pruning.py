"""A1: branch-and-bound pruning — lossless, saves cost-function calls."""

import pytest

from repro.search import SearchOptions, VolcanoOptimizer

from conftest import run_once


@pytest.mark.parametrize("branch_and_bound", [True, False], ids=["pruned", "unpruned"])
def test_pruning_time(benchmark, spec, ordered_generator, branch_and_bound):
    query = ordered_generator.generate(6, seed=41)
    options = SearchOptions(
        branch_and_bound=branch_and_bound, check_consistency=False
    )

    def optimize():
        return VolcanoOptimizer(spec, query.catalog, options).optimize(
            query.query, props=query.required
        )

    result = run_once(benchmark, optimize)
    benchmark.extra_info["costings"] = (
        result.stats.algorithm_costings + result.stats.enforcer_costings
    )
    benchmark.extra_info["pruned_moves"] = result.stats.moves_pruned


def test_pruning_is_lossless(benchmark, spec, ordered_generator):
    query = ordered_generator.generate(5, seed=42)

    def both():
        with_bb = VolcanoOptimizer(
            spec, query.catalog, SearchOptions(check_consistency=False)
        ).optimize(query.query, props=query.required)
        without_bb = VolcanoOptimizer(
            spec,
            query.catalog,
            SearchOptions(branch_and_bound=False, check_consistency=False),
        ).optimize(query.query, props=query.required)
        return with_bb, without_bb

    with_bb, without_bb = run_once(benchmark, both)
    assert with_bb.cost == without_bb.cost
    saved = (
        without_bb.stats.algorithm_costings - with_bb.stats.algorithm_costings
    ) + (with_bb.stats.moves_pruned + with_bb.stats.inputs_abandoned)
    assert saved > 0
