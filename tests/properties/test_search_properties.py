"""Property-based tests of the search engine's core invariants.

Hypothesis drives random catalogs and join graphs through the engine and
checks DESIGN.md invariants 4, 5, and 7 against the brute-force oracle.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.models.relational import relational_model
from repro.search import SearchOptions, VolcanoOptimizer

from tests.search.test_optimality import build_case

table_sizes = st.lists(
    st.integers(100, 7200), min_size=2, max_size=4
)


@st.composite
def join_cases(draw):
    sizes = draw(table_sizes)
    names = [f"t{i}" for i in range(len(sizes))]
    tables = list(zip(names, sizes))
    # A random spanning tree over the relations.
    edges = []
    for index in range(1, len(names)):
        partner = draw(st.integers(0, index - 1))
        edges.append((names[partner], names[index]))
    key_distinct = draw(st.integers(2, 1000))
    with_selections = draw(st.booleans())
    return tables, edges, key_distinct, with_selections


@settings(max_examples=25, deadline=None)
@given(join_cases(), st.booleans())
def test_engine_is_optimal(case, want_sorted):
    tables, edges, key_distinct, with_selections = case
    catalog, query, oracle = build_case(
        tables, edges, with_selections=with_selections, key_distinct=key_distinct
    )
    required = sorted_on(f"{tables[0][0]}.k") if want_sorted else ANY_PROPS
    engine = VolcanoOptimizer(relational_model(), catalog)
    result = engine.optimize(query, props=required)
    oracle_cost = oracle.best_cost(required)
    assert abs(result.cost.total() - oracle_cost.total()) <= 1e-6 * max(
        1.0, oracle_cost.total()
    )


@settings(max_examples=15, deadline=None)
@given(join_cases())
def test_pruning_and_caching_are_lossless(case):
    tables, edges, key_distinct, with_selections = case
    catalog, query, _ = build_case(
        tables, edges, with_selections=with_selections, key_distinct=key_distinct
    )
    spec = relational_model()
    full = VolcanoOptimizer(spec, catalog).optimize(query)
    stripped = VolcanoOptimizer(
        spec,
        catalog,
        SearchOptions(branch_and_bound=False, cache_failures=False),
    ).optimize(query)
    assert full.cost == stripped.cost


@settings(max_examples=15, deadline=None)
@given(join_cases())
def test_determinism(case):
    tables, edges, key_distinct, with_selections = case
    catalog, query, _ = build_case(
        tables, edges, with_selections=with_selections, key_distinct=key_distinct
    )
    spec = relational_model()
    first = VolcanoOptimizer(spec, catalog).optimize(query)
    second = VolcanoOptimizer(spec, catalog).optimize(query)
    assert first.cost == second.cost
    assert first.plan.to_sexpr() == second.plan.to_sexpr()


@settings(max_examples=15, deadline=None)
@given(join_cases())
def test_plan_satisfies_goal_properties(case):
    tables, edges, key_distinct, with_selections = case
    catalog, query, _ = build_case(
        tables, edges, with_selections=with_selections, key_distinct=key_distinct
    )
    required = sorted_on(f"{tables[-1][0]}.k")
    result = VolcanoOptimizer(relational_model(), catalog).optimize(
        query, props=required
    )
    assert result.plan.properties.covers(required)
