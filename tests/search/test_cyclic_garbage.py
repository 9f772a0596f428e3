"""An optimization leaves no cyclic garbage: reference counting frees it.

The memo reaches its context's group-leaf resolver only through a weak
reference, and no per-query path builds a nested function that calls
itself, so everything a search allocates is freed the moment its result
is dropped, without waiting for a full pass of the cyclic collector.

Each scenario runs once to warm module-level caches and lazy imports,
then again with the collector off; ``gc.collect()`` must find nothing.
"""

import gc
import weakref

import pytest

from repro import generate_optimizer
from repro.algebra.expressions import group_leaf
from repro.algebra.predicates import Comparison, ComparisonOp, col, eq
from repro.catalog import Catalog
from repro.dynamic import Parameter, optimize_dynamic
from repro.errors import SearchError
from repro.executor import TableSpec, populate_catalog
from repro.exodus import ExodusOptimizer
from repro.models.relational import get, join, relational_model, select
from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.service import OptimizerService, ServiceOptions
from repro.sql.normalize import bind_expression
from repro.systemr import SystemROptimizer, SystemROptions
from repro.workloads import QueryGenerator

SPEC = relational_model()


def assert_no_cyclic_garbage(scenario):
    scenario()
    gc.collect()
    gc.disable()
    try:
        scenario()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("certificates", [False, True])
@pytest.mark.parametrize("n", range(4, 9))
def test_cold_searches_are_freed_by_reference_counting(n, certificates):
    batch = QueryGenerator().generate_batch(n, 10, seed=7)
    options = SearchOptions(certificates=certificates)

    def scenario():
        for item in batch:
            optimizer = generate_optimizer(SPEC, item.catalog, options=options)
            optimizer.optimize(item.query, item.required)

    assert_no_cyclic_garbage(scenario)


@pytest.mark.parametrize(
    "make_engine",
    [
        ExodusOptimizer,
        lambda spec, catalog: SystemROptimizer(
            spec, catalog, SystemROptions(bushy=True)
        ),
    ],
    ids=["exodus", "systemr-bushy"],
)
def test_reference_engines_are_freed_by_reference_counting(make_engine):
    batch = QueryGenerator().generate_batch(4, 3, seed=7)

    def scenario():
        for item in batch:
            make_engine(SPEC, item.catalog).optimize(item.query, item.required)

    assert_no_cyclic_garbage(scenario)


def test_a_shared_memo_batch_is_freed_by_reference_counting():
    workload = QueryGenerator().generate_shared(
        count=2, seed=7, n_tables=6, relations=(2, 4)
    )
    queries = [q.query for q in workload.queries]

    def scenario():
        engine = VolcanoOptimizer(SPEC, workload.catalog)
        engine.optimize_batch(queries, workload.queries[0].required)

    assert_no_cyclic_garbage(scenario)


def populated_catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [TableSpec(name, rows, key_distinct=10) for name, rows in
         (("r", 1000), ("s", 800), ("t", 200), ("u", 250))],
        seed=7,
    )
    return catalog


def overlapping_chain_batch():
    core = join(
        select(get("r"), eq("r.v", 1)),
        select(get("s"), eq("s.v", 2)),
        eq("r.k", "s.k"),
    )
    with_t = join(core, get("t"), eq("s.k", "t.k"))
    queries = [with_t, join(core, get("u"), eq("s.k", "u.k")),
               join(with_t, get("u"), eq("t.k", "u.k"))]
    return queries


def test_a_verified_service_batch_is_freed_by_reference_counting():
    catalog, queries = populated_catalog(), overlapping_chain_batch()

    def scenario():
        service = OptimizerService(
            VolcanoOptimizer(SPEC, catalog), ServiceOptions(verify_plans=True)
        )
        batch = service.optimize_many(queries)
        assert batch.sharing_report is not None

    assert_no_cyclic_garbage(scenario)


def test_served_sql_is_freed_by_reference_counting():
    catalog = populated_catalog()
    text = "select * from r, s, t where r.k = s.k and s.k = t.k and r.v = {}"

    def scenario():
        service = OptimizerService(VolcanoOptimizer(SPEC, catalog))
        assert not service.optimize(text.format(3)).cached  # cold miss
        assert service.optimize(text.format(3)).cached  # exact hit
        assert service.optimize(text.format(4)).cached  # literal variant
        _, normalized = service.prepare(text.format(5)).template
        bind_expression(normalized.template, {"p0": 6})
        service.execute(text.format(3))

    assert_no_cyclic_garbage(scenario)


def test_a_degraded_answer_is_freed_by_reference_counting():
    batch = QueryGenerator().generate_batch(6, 3, seed=7)
    options = SearchOptions(
        certificates=True, budget=ResourceBudget(max_costings=5)
    )

    def scenario():
        for item in batch:
            engine = VolcanoOptimizer(SPEC, item.catalog, options)
            assert engine.optimize(item.query, item.required).degraded

    assert_no_cyclic_garbage(scenario)


def test_a_dynamic_plan_is_freed_by_reference_counting():
    catalog = populated_catalog()
    filtered = Comparison(ComparisonOp.LE, col("r.v"), Parameter("p"))
    query = join(select(get("r"), filtered), get("s"), eq("r.k", "s.k"))

    def scenario():
        optimize_dynamic(SPEC, catalog, query).pick(catalog, {"p": 1})

    assert_no_cyclic_garbage(scenario)


def test_a_context_that_outlives_its_memo_resolves_no_group_leaf():
    item = QueryGenerator().generate_batch(3, 1, seed=7)[0]
    result = VolcanoOptimizer(SPEC, item.catalog).optimize(item.query)
    context, root, memo = result.memo.context, result.root_group, weakref.ref(result.memo)
    del result
    assert memo() is None
    with pytest.raises(SearchError, match="outside a search engine run"):
        context.logical_props(group_leaf(root))
