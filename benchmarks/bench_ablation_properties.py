"""A3: goal-directed physical properties vs. Starburst-style glue.

"Rather than optimizing an expression first and then adding 'glue'
operators and their cost to a plan (the Starburst approach), the Volcano
optimizer generator's search algorithm immediately considers which
physical properties are to be enforced…"  (paper, Section 6)
"""

import pytest

from repro.bench.ablations import glue_optimize
from repro.search import SearchOptions, VolcanoOptimizer

from conftest import run_once


@pytest.mark.parametrize("size", [4, 6])
def test_directed_vs_glue_cost(benchmark, spec, ordered_generator, size):
    query = ordered_generator.generate(size, seed=45)

    def both():
        directed = VolcanoOptimizer(
            spec, query.catalog, SearchOptions(check_consistency=False)
        ).optimize(query.query, props=query.required)
        _, glued_cost = glue_optimize(
            spec, query.catalog, query.query, query.required
        )
        return directed.cost.total(), glued_cost.total()

    directed, glued = run_once(benchmark, both)
    benchmark.extra_info["glue_penalty"] = glued / directed
    # Glue can never beat directed search (it is one of directed
    # search's candidate plans).
    assert glued >= directed * 0.999
