"""Duplicate-free exploration: every equivalence class is built once.

Exploration is demand-ordered (``docs/search-internals.md``,
"Exploration"): an expression's input groups are explored before its
rules are matched, and a group a rewrite creates is explored before the
next binding fires.  On the relational model's select–join queries that
order re-derives every existing expression as a hash-table hit, so an
ordinary search

* merges nothing (``group_merges == 0``),
* allocates exactly the classes it keeps (``groups_created`` equals the
  live group count), and
* on chains and stars lands on the closed forms of the cross-product-
  free join space.

The last test holds the plans still: on shapes where the independent
bottom-up reference is known to agree (``perf/README.md``, "What the
reference found"), Volcano's cost equals System R's bushy optimum.
"""

from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.predicates import Comparison, ComparisonOp, col, eq, lit
from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics
from repro.models.relational import get, join, relational_model, select
from repro.search import SearchOptions, VolcanoOptimizer
from repro.systemr import SystemROptimizer, SystemROptions
from repro.verify import verify_plan
from repro.workloads import QueryGenerator, WorkloadOptions

SPEC = relational_model()
SIZES = range(2, 9)
KERNELS = [None, "specialized"]


def explore(shape, relations, seed, kernel):
    generated = QueryGenerator(WorkloadOptions(shape=shape)).generate(relations, seed)
    optimizer = VolcanoOptimizer(
        SPEC, generated.catalog, SearchOptions(kernel=kernel)
    )
    return optimizer.optimize(generated.query, generated.required)


def assert_built_once(result):
    stats = result.stats
    assert stats.group_merges == 0
    assert stats.groups_created == result.memo.group_count()


@pytest.mark.parametrize("kernel", KERNELS, ids=["interpreted", "specialized"])
@pytest.mark.parametrize("relations", SIZES)
def test_chain_builds_each_class_once(relations, kernel):
    result = explore("chain", relations, seed=relations, kernel=kernel)
    assert_built_once(result)
    n = relations
    # One class per contiguous sub-chain of two or more relations, plus a
    # get and a select class per relation; every split of every sub-chain
    # in both operand orders.
    assert result.stats.groups_created == n * (n - 1) // 2 + 2 * n
    assert result.stats.expressions_created == 2 * comb(n + 1, 3) + 2 * n


@pytest.mark.parametrize("kernel", KERNELS, ids=["interpreted", "specialized"])
@pytest.mark.parametrize("relations", SIZES)
def test_star_builds_each_class_once(relations, kernel):
    result = explore("star", relations, seed=relations, kernel=kernel)
    assert_built_once(result)
    n = relations
    # One class per non-empty set of spokes joined to the hub.
    assert result.stats.groups_created == 2 ** (n - 1) - 1 + 2 * n


@pytest.mark.parametrize("kernel", KERNELS, ids=["interpreted", "specialized"])
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("relations", SIZES)
def test_random_tree_builds_each_class_once(relations, seed, kernel):
    assert_built_once(explore("random", relations, seed, kernel))


@pytest.mark.parametrize("shape", ["chain", "star"])
@pytest.mark.parametrize("relations", SIZES)
def test_certificates_verify_and_agree_across_kernels(shape, relations):
    """The certifier re-enumerates bindings, uncached, on the finished memo."""
    generated = QueryGenerator(WorkloadOptions(shape=shape)).generate(
        relations, seed=relations
    )
    certificates = []
    for kernel in KERNELS:
        result = VolcanoOptimizer(
            SPEC, generated.catalog, SearchOptions(kernel=kernel, certificates=True)
        ).optimize(generated.query, generated.required)
        report = verify_plan(
            SPEC,
            generated.query,
            result.plan,
            result.certificate,
            catalog=generated.catalog,
        )
        assert report.ok, report.render()
        certificates.append(result.certificate)
    assert certificates[0] == certificates[1]


# ---------------------------------------------------------------------------
# Plans are unchanged: Volcano == System R (bushy) on one-use join columns
# ---------------------------------------------------------------------------


@st.composite
def one_use_column_queries(draw):
    """A chain, star or random join tree in which no column joins twice.

    Every table carries one key column per possible join partner, so each
    equality class holds exactly two columns — the shapes on which the
    reference and the engines agree.
    """
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["chain", "star", "random"]))
    names = [f"t{i}" for i in range(n)]
    catalog = Catalog()
    for name in names:
        rows = draw(st.integers(200, 20_000))
        keys = [f"{name}.k{i}" for i in range(n)]
        columns = {}
        for key in keys:
            distinct = max(2, rows // draw(st.integers(1, 8)))
            columns[key] = ColumnStatistics(distinct, 0, distinct - 1)
        columns[f"{name}.v"] = ColumnStatistics(1000, 0, 999)
        catalog.add_table(
            name,
            Schema.of(*keys, f"{name}.v"),
            TableStatistics(rows, 100, columns=columns),
        )

    def leaf(name):
        threshold = draw(st.integers(50, 999))
        return select(
            get(name), Comparison(ComparisonOp.LE, col(f"{name}.v"), lit(threshold))
        )

    expression = leaf(names[0])
    for index in range(1, n):
        if shape == "chain":
            partner = index - 1
        elif shape == "star":
            partner = 0
        else:
            partner = draw(st.integers(0, index - 1))
        # Column k<index> of both sides is used by this join alone.
        predicate = eq(f"{names[partner]}.k{index}", f"{names[index]}.k{index}")
        expression = join(expression, leaf(names[index]), predicate)
    return catalog, expression


@settings(max_examples=30, deadline=None)
@given(one_use_column_queries())
def test_volcano_cost_equals_bushy_system_r(case):
    catalog, query = case
    volcano = VolcanoOptimizer(SPEC, catalog).optimize(query)
    assert_built_once(volcano)
    reference = SystemROptimizer(SPEC, catalog, SystemROptions(bushy=True)).optimize(
        query
    )
    assert volcano.cost.total() == pytest.approx(reference.cost.total(), rel=1e-9)
