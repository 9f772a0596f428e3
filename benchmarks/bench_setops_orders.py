"""A6: multiple alternative input property vectors for intersection.

"Although the same consideration applies to location and partitioning in
parallel and distributed relational query processing, no earlier query
optimizer has provided this feature."  (paper, Section 6)
"""

import pytest

from repro.algebra.properties import sorted_on
from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics
from repro.models.relational import get
from repro.models.setops import SetOpsModelOptions, intersect, setops_model
from repro.search import SearchOptions, VolcanoOptimizer

from conftest import run_once


def make_catalog(rows):
    catalog = Catalog()
    for name in ("r", "s"):
        catalog.add_table(
            name,
            Schema.of(f"{name}.k", f"{name}.v"),
            TableStatistics(
                rows,
                100,
                columns={
                    f"{name}.k": ColumnStatistics(rows, 0, rows - 1),
                    f"{name}.v": ColumnStatistics(rows, 0, rows - 1),
                },
            ),
        )
    return catalog


def merge_only_spec(permutations):
    spec = setops_model(SetOpsModelOptions(max_order_permutations=permutations))
    spec.implementations = [
        rule for rule in spec.implementations if rule.name != "intersect_to_hash"
    ]
    return spec


@pytest.mark.parametrize("permutations", [1, 3], ids=["canonical", "alternatives"])
def test_intersection_order_alternatives(benchmark, permutations):
    catalog = make_catalog(4800)
    spec = merge_only_spec(permutations)
    query = intersect(get("r"), get("s"))
    required = sorted_on("r.v")

    def optimize():
        return VolcanoOptimizer(
            spec, catalog, SearchOptions(check_consistency=False)
        ).optimize(query, props=required)

    result = run_once(benchmark, optimize)
    benchmark.extra_info["cost"] = result.cost.total()
    assert result.plan.properties.covers(required)


def test_alternatives_strictly_cheaper(benchmark):
    catalog = make_catalog(4800)
    query = intersect(get("r"), get("s"))
    required = sorted_on("r.v")

    def both():
        canonical = VolcanoOptimizer(
            merge_only_spec(1), catalog, SearchOptions(check_consistency=False)
        ).optimize(query, props=required)
        alternatives = VolcanoOptimizer(
            merge_only_spec(3), catalog, SearchOptions(check_consistency=False)
        ).optimize(query, props=required)
        return canonical.cost.total(), alternatives.cost.total()

    canonical, alternatives = run_once(benchmark, both)
    assert alternatives < canonical
