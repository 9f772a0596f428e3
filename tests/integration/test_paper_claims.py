"""The paper's headline claims, asserted at reduced scale.

Each test quotes the claim it checks.  The full-scale numbers live in
EXPERIMENTS.md; these run in seconds so regressions in the *shape* of
the results fail CI, not just the benchmark report.
"""

import pytest

from repro.bench.figure4 import Figure4Config, run_figure4
from repro.exodus import ExodusOptimizer, ExodusOptions
from repro.models.relational import relational_model
from repro.search import SearchOptions, VolcanoOptimizer
from repro.workloads import QueryGenerator, WorkloadOptions


@pytest.fixture(scope="module")
def figure4_small():
    return run_figure4(
        Figure4Config(sizes=(2, 3, 4, 5), queries_per_size=5, seed=1993)
    )


def test_volcano_growth_is_steep_and_monotone(figure4_small):
    """'The increase of Volcano's optimization costs is about exponential.'"""
    times = [row.volcano_time for row in figure4_small.rows]
    assert times == sorted(times)
    assert times[-1] / times[0] > 5


def test_exodus_knee_at_four_relations(figure4_small):
    """'the search effort increases dramatically from 3 to 4 input
    relations' (for EXODUS) — its time ratio versus Volcano crosses 1
    between 3 and 4 relations."""
    by_size = {row.n_relations: row for row in figure4_small.rows}
    small = by_size[3]
    large = by_size[4]
    assert small.exodus_time is not None and large.exodus_time is not None
    ratio_small = small.exodus_time / small.volcano_time
    ratio_large = large.exodus_time / large.volcano_time
    assert ratio_large > ratio_small
    assert ratio_large > 1.5


def test_order_of_magnitude_gap_at_five(figure4_small):
    """'For more complex queries, the EXODUS' and Volcano's optimization
    times differ by about an order of magnitude.'"""
    row = {r.n_relations: r for r in figure4_small.rows}[5]
    assert row.exodus_time is None or row.exodus_time / row.volcano_time > 5


def test_plan_quality_equal_up_to_four(figure4_small):
    """'The plan quality … is equal for moderately complex queries (up
    to 4 input relations).'"""
    for row in figure4_small.rows:
        if row.n_relations <= 4:
            assert row.quality_ratio == pytest.approx(1.0, abs=0.1)


def test_quality_gap_with_property_goals():
    """'the cost is significantly higher for EXODUS-optimized plans,
    because [its] search engine do[es] not systematically explore and
    exploit physical properties and interesting orderings.'"""
    result = run_figure4(
        Figure4Config(
            sizes=(5,),
            queries_per_size=5,
            seed=1993,
            workload=WorkloadOptions(
                order_by_probability=1.0,
                selectivity_range=(0.5, 1.0),
                key_fraction_range=(0.2, 0.6),
            ),
        )
    )
    (row,) = result.rows
    assert row.quality_ratio is not None
    assert row.quality_ratio > 1.1


def test_mesh_larger_than_memo(figure4_small):
    """'the logical expression … had to be kept twice, resulting in a
    large number of nodes in MESH' vs. Volcano's modest work space."""
    for row in figure4_small.rows:
        if row.exodus_footprint is not None and row.n_relations >= 3:
            assert row.exodus_footprint > row.volcano_footprint
    last = figure4_small.rows[-1]
    if last.exodus_footprint is not None:
        assert last.exodus_footprint / last.volcano_footprint > 5


def test_exodus_aborts_on_complex_queries():
    """'the EXODUS optimizer generator aborted due to lack of memory or
    was aborted because it ran much longer.'"""
    generator = QueryGenerator(WorkloadOptions())
    query = generator.generate(7, seed=55)
    exodus = ExodusOptimizer(
        relational_model(),
        query.catalog,
        ExodusOptions(node_budget=800, transformation_budget=800),
    )
    result = exodus.optimize(query.query)
    assert result.aborted


def test_volcano_handles_what_exodus_cannot():
    """Volcano 'performed exhaustive search for all queries'."""
    generator = QueryGenerator(WorkloadOptions())
    query = generator.generate(8, seed=56)
    volcano = VolcanoOptimizer(
        relational_model(), query.catalog, SearchOptions(check_consistency=False)
    )
    result = volcano.optimize(query.query)
    assert result.cost.total() > 0
    leaf_tables = {args[0] for args in result.plan.leaf_args()}
    assert leaf_tables == set(query.table_names)
