"""Optimality of the engine against an independent brute-force oracle.

DESIGN.md invariant 4: for small queries, FindBestPlan's cost equals the
minimum over an exhaustive enumeration of all join trees, algorithm
choices, and enforcer placements performed directly on expression trees
(no memo, no rules, no pruning).
"""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.models.relational import get, join, relational_model, select
from repro.search import SearchOptions, VolcanoOptimizer

from tests.helpers import BruteForceOracle, make_catalog


def build_case(table_rows, join_edges, with_selections=True, key_distinct=100):
    """Construct (catalog, query, oracle leaves/conjuncts) for a join graph.

    ``join_edges`` are (left_table, right_table) pairs joined on ``.k``.
    The query is assembled left-deep in edge order.
    """
    catalog = make_catalog(table_rows, key_distinct=key_distinct)
    names = [name for name, _ in table_rows]
    leaves = {}
    for name, _ in table_rows:
        base = get(name)
        leaves[name] = select(base, eq(f"{name}.v", 1)) if with_selections else base
    conjuncts = [eq(f"{a}.k", f"{b}.k") for a, b in join_edges]
    joined = {names[0]}
    expression = leaves[names[0]]
    remaining = list(join_edges)
    while remaining:
        for edge in remaining:
            a, b = edge
            if a in joined and b in joined:
                # A cycle edge: fold the predicate into the top join.
                from repro.algebra.predicates import conjunction_of
                from repro.algebra.expressions import LogicalExpression

                merged = conjunction_of(
                    [expression.args[0], eq(f"{a}.k", f"{b}.k")]
                )
                expression = LogicalExpression(
                    "join", (merged,), expression.inputs
                )
                remaining.remove(edge)
                break
            if a in joined or b in joined:
                new = b if a in joined else a
                expression = join(expression, leaves[new], eq(f"{a}.k", f"{b}.k"))
                joined.add(new)
                remaining.remove(edge)
                break
        else:
            raise AssertionError("join graph is not connected")
    oracle = BruteForceOracle(
        relational_model(), catalog, [leaves[name] for name in names], conjuncts
    )
    return catalog, expression, oracle


CASES = {
    "two_way": ([("r", 1200), ("s", 3600)], [("r", "s")]),
    "chain3": (
        [("r", 1200), ("s", 2400), ("t", 7200)],
        [("r", "s"), ("s", "t")],
    ),
    "chain4": (
        [("r", 1200), ("s", 2400), ("t", 4800), ("u", 7200)],
        [("r", "s"), ("s", "t"), ("t", "u")],
    ),
    "star4": (
        [("h", 1200), ("a", 2400), ("b", 4800), ("c", 7200)],
        [("h", "a"), ("h", "b"), ("h", "c")],
    ),
    "cycle3": (
        [("r", 1200), ("s", 2400), ("t", 4800)],
        [("r", "s"), ("s", "t"), ("r", "t")],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_oracle_unordered(name):
    tables, edges = CASES[name]
    catalog, query, oracle = build_case(tables, edges)
    engine = VolcanoOptimizer(relational_model(), catalog)
    result = engine.optimize(query)
    assert result.cost.total() == pytest.approx(oracle.best_cost().total())


@pytest.mark.parametrize("name", ["two_way", "chain3", "star4"])
def test_engine_matches_oracle_sorted_goal(name):
    tables, edges = CASES[name]
    catalog, query, oracle = build_case(tables, edges)
    first_table = tables[0][0]
    required = sorted_on(f"{first_table}.k")
    engine = VolcanoOptimizer(relational_model(), catalog)
    result = engine.optimize(query, props=required)
    assert result.cost.total() == pytest.approx(oracle.best_cost(required).total())


@pytest.mark.parametrize("name", ["chain3", "chain4"])
def test_engine_matches_oracle_without_selections(name):
    tables, edges = CASES[name]
    catalog, query, oracle = build_case(tables, edges, with_selections=False)
    engine = VolcanoOptimizer(relational_model(), catalog)
    result = engine.optimize(query)
    assert result.cost.total() == pytest.approx(oracle.best_cost().total())


def test_engine_matches_oracle_large_results():
    """Low-distinct keys make intermediates big and sorting interesting."""
    tables = [("r", 1200), ("s", 2400), ("t", 4800)]
    edges = [("r", "s"), ("s", "t")]
    catalog, query, oracle = build_case(tables, edges, key_distinct=10)
    engine = VolcanoOptimizer(relational_model(), catalog)
    result = engine.optimize(query, props=sorted_on("r.k"))
    assert result.cost.total() == pytest.approx(
        oracle.best_cost(sorted_on("r.k")).total()
    )


def test_no_pruning_matches_oracle_too():
    tables, edges = CASES["chain3"]
    catalog, query, oracle = build_case(tables, edges)
    engine = VolcanoOptimizer(
        relational_model(),
        catalog,
        SearchOptions(branch_and_bound=False, cache_failures=False),
    )
    result = engine.optimize(query)
    assert result.cost.total() == pytest.approx(oracle.best_cost().total())
