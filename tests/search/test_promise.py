"""The promise ordering contract.

A rule's promise is the model author's number (``rule.promise``): a
group's algorithm moves are pursued in a stable sort on descending
promise, discovery order within ties, and the first strictly cheaper
candidate wins (see ``docs/search-internals.md``, "Promise and move
ordering").  Under exhaustive search promise orders the work, never the
optimum; ``min_promise`` prunes transformations by it.
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.models.relational import relational_model
from repro.search import SearchOptions, VolcanoOptimizer
from repro.search.extract import greedy_plan
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog


@pytest.fixture(scope="module")
def spec():
    return relational_model()


@pytest.fixture(scope="module")
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800), ("u", 7200)])


def with_promises(spec, promises):
    """A copy of ``spec`` whose implementation rules carry new promises."""
    copy = dataclasses.replace(spec)
    copy.implementations = [
        dataclasses.replace(rule, promise=promises.get(rule.algorithm, rule.promise))
        for rule in spec.implementations
    ]
    return copy


# ---------------------------------------------------------------------------
# The ordering contract
# ---------------------------------------------------------------------------


def _recorded_orders(spec, catalog, query, required):
    """Every group's move list as ``(algorithm, args, inputs, promise)``."""
    orders = {}

    class Spy(VolcanoOptimizer):
        def _algorithm_moves(self, run, group):
            moves = super()._algorithm_moves(run, group)
            snapshot = tuple(
                (
                    move.rule.algorithm,
                    move.args,
                    move.input_groups,
                    move.rule.promise,
                )
                for move in moves
            )
            previous = orders.setdefault(group.id, snapshot)
            assert previous == snapshot, "move order changed between goals"
            return moves

    options = SearchOptions(check_consistency=False, branch_and_bound=False)
    Spy(spec, catalog, options).optimize(query, required)
    return orders


def test_pursuit_order_and_static_ranks(spec, catalog):
    """Pursuit is a stable sort on descending ``rule.promise``.

    With every promise equal the sort keeps discovery order, so the
    flat-promise run reveals each group's discovery order; the real run
    must be exactly that order, stably sorted by promise.
    """
    query = chain_query(["r", "s", "t"])
    pursued = _recorded_orders(spec, catalog, query, sorted_on("r.k"))
    flat = _recorded_orders(
        with_promises(spec, {rule.algorithm: 1.0 for rule in spec.implementations}),
        catalog,
        query,
        sorted_on("r.k"),
    )
    promise_of = {rule.algorithm: rule.promise for rule in spec.implementations}
    assert pursued.keys() == flat.keys()
    tied = 0
    for gid, order in pursued.items():
        promises = [promise for *_, promise in order]
        assert promises == sorted(promises, reverse=True)
        discovered = [move[:3] for move in flat[gid]]
        expected = sorted(discovered, key=lambda move: -promise_of[move[0]])
        assert [move[:3] for move in order] == expected
        tied += len(promises) - len(set(promises))
    joins = [
        order
        for order in pursued.values()
        if {name for name, *_ in order} == {"merge_join", "hybrid_hash_join"}
    ]
    assert joins, "no join group seen"
    for order in joins:
        # hybrid_hash_join (1.5) is pursued before merge_join (1.0).
        assert order[0][0] == "hybrid_hash_join"
    assert tied, "no group with equal-promise moves"


@pytest.mark.parametrize(
    "min_promise, pruned, fired", [(None, 0, 14), (0.9, 6, 3)]
)
def test_min_promise_filtering(spec, catalog, min_promise, pruned, fired):
    """Pruning accounting is exact, and a threshold never finds a cheaper plan."""
    query = chain_query(["r", "s", "t", "u"])
    result = VolcanoOptimizer(
        spec,
        catalog,
        SearchOptions(check_consistency=False, min_promise=min_promise),
    ).optimize(query, sorted_on("s.k"))
    assert result.stats.moves_pruned == pruned
    assert result.stats.rules_fired == fired
    # A threshold searches a smaller space and never finds a cheaper plan.
    exhaustive = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False)
    ).optimize(query, sorted_on("s.k"))
    assert result.stats.groups_created <= exhaustive.stats.groups_created
    assert result.cost.total() >= exhaustive.cost.total()


# ---------------------------------------------------------------------------
# Promise orders the work, never the optimum
# ---------------------------------------------------------------------------

_ALGORITHMS = (
    "file_scan",
    "filter",
    "filter_scan",
    "merge_join",
    "hybrid_hash_join",
    "project",
)


@settings(max_examples=15, deadline=None)
@given(
    st.fixed_dictionaries(
        {name: st.floats(0.0, 8.0, allow_nan=False) for name in _ALGORITHMS}
    ),
    st.booleans(),
)
def test_any_rule_promises_preserve_cost(promises, want_sorted):
    spec = relational_model()
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    query = chain_query(["r", "s", "t"])
    required = sorted_on("r.k") if want_sorted else ANY_PROPS
    options = SearchOptions(check_consistency=False)
    baseline = VolcanoOptimizer(spec, catalog, options).optimize(query, required)
    result = VolcanoOptimizer(
        with_promises(spec, promises), catalog, options
    ).optimize(query, required)
    assert result.cost == baseline.cost
    assert result.stats.rules_fired == baseline.stats.rules_fired


def test_static_sweep_costings_are_pinned(spec):
    """One exhaustive sweep over a shared workload: the counts are exact."""
    workload = QueryGenerator(
        WorkloadOptions(selectivity_range=(0.1, 0.1))
    ).generate_shared(count=8, seed=11, n_tables=6, relations=(2, 4))
    optimizer = VolcanoOptimizer(
        spec, workload.catalog, SearchOptions(check_consistency=False)
    )
    runs = [optimizer.optimize(entry.query, ANY_PROPS) for entry in workload]
    assert sum(run.stats.algorithm_costings for run in runs) == 230


# ---------------------------------------------------------------------------
# Greedy degradation
# ---------------------------------------------------------------------------


def _greedy_root(spec, catalog, query):
    """Greedy extraction over an explored memo that holds no winners."""
    engine = VolcanoOptimizer(spec, catalog, SearchOptions(check_consistency=False))
    run = engine._new_run(engine.options)
    root = run.memo.insert_expression(query)
    engine._explore_closure(run, root)
    return greedy_plan(engine, run, root, ANY_PROPS)


def test_greedy_degradation_unchanged_without_model(spec, catalog):
    """Greedy takes the first feasible move in descending rule promise."""
    query = chain_query(["r", "s", "t"])
    plan = _greedy_root(spec, catalog, query)
    assert plan is not None
    assert plan.algorithm == "hybrid_hash_join"
    assert _greedy_root(spec, catalog, query).to_sexpr() == plan.to_sexpr()
    # Raising merge join's promise above hash join's flips the root.
    flipped = _greedy_root(with_promises(spec, {"merge_join": 3.0}), catalog, query)
    assert flipped is not None
    assert flipped.algorithm == "merge_join"
    assert {args[0] for args in flipped.leaf_args()} == {
        args[0] for args in plan.leaf_args()
    }
