"""Resource governance: budgets, anytime degradation, reentrancy.

Covers the budget trip points (deadline mid-exploration, costing quota
mid-costing, rule-firing quota), degraded-plan validity (property cover
and actual execution), the cache_failures interaction (an interrupted
goal must not be memoized as a true failure), per-engine abort
reporting, and the engine-reentrancy fix.
"""

import threading

import pytest

from repro.algebra.properties import sorted_on
from repro.catalog import Catalog
from repro.errors import BudgetExceededError, OptionsError, SearchError
from repro.executor import TableSpec, execute_plan, populate_catalog
from repro.exodus import ExodusOptimizer, ExodusOptions
from repro.model.cost import ScalarCost
from repro.models.relational import relational_model
from repro.options import BudgetMeter, BudgetTripped, ResourceBudget
from repro.search import SearchOptions, Tracer, VolcanoOptimizer
from repro.systemr import SystemROptimizer, SystemROptions

from tests.helpers import chain_query, make_catalog

pytestmark = pytest.mark.budget

SPEC = relational_model()


def make_engine(n_tables, **options):
    names = [f"t{i}" for i in range(n_tables)]
    catalog = make_catalog([(name, 500 + 100 * i) for i, name in enumerate(names)])
    query = chain_query(names)
    engine = VolcanoOptimizer(SPEC, catalog, SearchOptions(**options))
    return engine, query


# ---------------------------------------------------------------------------
# ResourceBudget / BudgetMeter unit behaviour
# ---------------------------------------------------------------------------


def test_budget_validation():
    with pytest.raises(OptionsError):
        ResourceBudget(deadline_seconds=0)
    with pytest.raises(OptionsError):
        ResourceBudget(max_costings=-1)
    assert ResourceBudget().is_unbounded
    assert not ResourceBudget(max_costings=10).is_unbounded


def test_meter_unarmed_never_trips():
    meter = BudgetMeter(None)
    for _ in range(1000):
        meter.charge_costing()
        meter.check("costing")
    assert meter.tripped is None


def test_meter_trips_and_stays_tripped():
    meter = BudgetMeter(ResourceBudget(max_costings=3))
    for _ in range(3):
        meter.charge_costing()
    with pytest.raises(BudgetTripped) as trip:
        meter.check("costing")
    assert trip.value.tripped == "costings"
    with pytest.raises(BudgetTripped):
        meter.check("other_phase")
    report = meter.report("costing")
    assert report.tripped == "costings"
    assert report.costings == 3


def test_meter_deadline_uses_injected_clock():
    now = [0.0]
    meter = BudgetMeter(
        ResourceBudget(deadline_seconds=5.0), clock=lambda: now[0]
    )
    meter.check("exploration")
    now[0] = 5.1
    with pytest.raises(BudgetTripped) as trip:
        meter.check("exploration")
    assert trip.value.tripped == "deadline"


# ---------------------------------------------------------------------------
# Trip points and anytime degradation
# ---------------------------------------------------------------------------


def test_deadline_trips_mid_exploration():
    engine, query = make_engine(7)
    options = engine.options.replace(
        budget=ResourceBudget(deadline_seconds=1e-4)
    )
    result = engine.optimize(query, options=options)
    assert result.degraded
    assert result.budget_report is not None
    assert result.budget_report.tripped == "deadline"
    assert result.budget_report.phase == "exploration"
    assert SPEC.props_cover(result.plan.properties, result.required)
    assert result.stats.budget_trips == 1


def test_rule_firing_quota_trips_exploration():
    engine, query = make_engine(5)
    options = engine.options.replace(
        budget=ResourceBudget(max_rule_firings=5)
    )
    result = engine.optimize(query, options=options)
    assert result.degraded
    assert result.budget_report.tripped == "rule_firings"
    assert result.budget_report.phase == "exploration"
    assert result.budget_report.rule_firings == 5
    assert SPEC.props_cover(result.plan.properties, result.required)


def test_costing_quota_trips_mid_find_best_plan():
    engine, query = make_engine(4)
    # Generous enough to let exploration close and costing begin, small
    # enough to trip well before the 4-relation search completes.
    options = engine.options.replace(budget=ResourceBudget(max_costings=20))
    result = engine.optimize(query, options=options)
    assert result.degraded
    assert result.budget_report.tripped == "costings"
    assert result.budget_report.phase == "costing"
    assert SPEC.props_cover(result.plan.properties, result.required)


def test_degraded_plan_cost_is_honest_upper_bound():
    engine, query = make_engine(5)
    exact = engine.optimize(query)
    assert not exact.degraded
    degraded = engine.optimize(
        query,
        options=engine.options.replace(budget=ResourceBudget(max_costings=10)),
    )
    assert degraded.degraded
    assert exact.cost <= degraded.cost


def test_degraded_required_props_still_delivered():
    engine, query = make_engine(5)
    required = sorted_on("t0.k")
    result = engine.optimize(
        query,
        required,
        options=engine.options.replace(budget=ResourceBudget(max_costings=10)),
    )
    assert result.degraded
    assert SPEC.props_cover(result.plan.properties, required)


def test_degraded_plan_executes():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 300, key_distinct=20, value_distinct=5),
            TableSpec("s", 500, key_distinct=20, value_distinct=5),
            TableSpec("t", 400, key_distinct=20, value_distinct=5),
        ],
        seed=11,
    )
    query = chain_query(["r", "s", "t"], with_selections=False)
    engine = VolcanoOptimizer(SPEC, catalog)
    exact = engine.optimize(query)
    degraded = engine.optimize(
        query,
        options=engine.options.replace(budget=ResourceBudget(max_costings=4)),
    )
    assert degraded.degraded

    def canonical(rows):
        return sorted(tuple(sorted(row.items())) for row in rows)

    assert canonical(execute_plan(degraded.plan, catalog)) == canonical(
        execute_plan(exact.plan, catalog)
    )


def test_interrupted_goal_not_memoized_as_failure():
    engine, query = make_engine(4, cache_failures=True)
    result = engine.optimize(
        query,
        options=engine.options.replace(budget=ResourceBudget(max_costings=20)),
    )
    assert result.degraded
    memo = result.memo
    # The interrupted root goal recorded neither a winner nor a failure:
    # a later (unbudgeted) search of the same memo state would re-run it
    # rather than trusting a degraded dead end.
    root = memo.group(result.root_group)
    assert (result.required, None) not in root.failures
    # And no stale in-progress marks survive the unwind anywhere.
    for gid in memo.reachable(result.root_group):
        group = memo.group(gid)
        for key in list(group.winners) + list(group.failures):
            assert not group.is_in_progress(key)


@pytest.mark.parametrize("max_costings", [8, 20, 60, 150])
def test_costing_trip_leaves_no_entry_for_an_interrupted_goal(max_costings):
    """A trip mid-goal unwinds every goal on the stack without a trace.

    Memo entries are limit-free — a winner is the goal's optimum, a
    failure means no plan exists — so a goal whose move loop did not run
    to its end may record neither, and a goal that did record one ran to
    its end.
    """
    engine, query = make_engine(6)
    finished, interrupted = [], []
    inner = engine._optimize_goal

    def watching(run, gid, required, excluded, depth):
        try:
            best = inner(run, gid, required, excluded, depth)
        except BudgetTripped:
            interrupted.append((gid, (required, excluded)))
            raise
        finished.append((gid, (required, excluded)))
        return best

    engine._optimize_goal = watching
    result = engine.optimize(
        query,
        sorted_on("t2.k"),
        options=engine.options.replace(
            budget=ResourceBudget(max_costings=max_costings)
        ),
    )
    assert result.degraded and result.budget_report.phase == "costing"
    memo = result.memo
    assert interrupted  # the root goal at the very least
    for gid, key in interrupted:
        group = memo.group(gid)
        assert key not in group.winners
        assert key not in group.failures
        assert not group.is_in_progress(key)
    searched = set(finished)
    assert len(searched) == len(finished)  # and none of them twice
    for gid in memo.reachable(result.root_group):
        group = memo.group(gid)
        assert not group.in_progress
        assert not group.failures
        for key in group.winners:
            # Memoized = searched to the end, or an excluded goal
            # answered by its (finished) plain goal's winner.
            assert (gid, key) in searched or (
                key[1] is not None
                and group.winners[key] is group.winners[(key[0], None)]
            )


@pytest.mark.parametrize(
    "budget",
    [ResourceBudget(max_rule_firings=40), ResourceBudget(deadline_seconds=1e-4)],
    ids=["rule_firings", "deadline"],
)
def test_exploration_trip_leaves_no_group_on_the_stack(budget):
    """A trip deep inside the recursive descent unwinds every guard."""
    engine, query = make_engine(7)
    result = engine.optimize(query, options=engine.options.replace(budget=budget))
    assert result.degraded
    assert result.budget_report.phase == "exploration"
    assert result.stats.greedy_plans == 1
    assert SPEC.props_cover(result.plan.properties, result.required)
    memo = result.memo
    assert not memo.group(result.root_group).explored
    for gid in memo.reachable(result.root_group):
        group = memo.group(gid)
        assert not group.exploring
        assert not group.in_progress
    # A later query of a batch finds the same shared memo explorable: the
    # interrupted classes are picked up where they stopped and the closure
    # is the one an undisturbed search builds.
    run = engine._new_run(engine.options, memo)
    root = memo.insert_expression(query)
    engine._explore_closure(run, root)
    undisturbed = engine.optimize(query)

    def closure(memo, root):
        groups = [memo.group(gid) for gid in memo.reachable(root)]
        assert all(group.explored and not group.exploring for group in groups)
        return len(groups), sum(len(group.expressions) for group in groups)

    assert closure(memo, root) == closure(undisturbed.memo, undisturbed.root_group)
    assert memo.stats.group_merges == 0


def test_budget_exceeded_when_no_plan_within_limit():
    engine, query = make_engine(4)
    with pytest.raises(BudgetExceededError) as error:
        engine.optimize(
            query,
            limit=ScalarCost(0.001),
            options=engine.options.replace(budget=ResourceBudget(max_costings=5)),
        )
    assert error.value.report is not None
    assert error.value.report.tripped == "costings"
    assert error.value.stats is not None
    assert error.value.stats.elapsed_seconds > 0


def test_unbudgeted_result_not_degraded():
    engine, query = make_engine(3)
    result = engine.optimize(query)
    assert not result.degraded
    assert result.budget_report is None
    assert result.stats.budget_trips == 0


# ---------------------------------------------------------------------------
# Baseline engines
# ---------------------------------------------------------------------------


def test_exodus_budget_best_effort_degrades():
    names = ["a", "b", "c", "d", "e"]
    catalog = make_catalog([(n, 400) for n in names])
    query = chain_query(names)
    engine = ExodusOptimizer(
        SPEC,
        catalog,
        ExodusOptions(budget=ResourceBudget(max_rule_firings=3)),
    )
    result = engine.optimize(query)
    assert result.aborted
    assert result.abort_reason == "rule_firings"
    assert result.degraded
    assert result.budget_report.tripped == "rule_firings"
    assert result.stats.elapsed_seconds > 0


def test_exodus_budget_strict_raises():
    names = ["a", "b", "c", "d"]
    catalog = make_catalog([(n, 400) for n in names])
    query = chain_query(names)
    engine = ExodusOptimizer(
        SPEC,
        catalog,
        ExodusOptions(
            budget=ResourceBudget(max_rule_firings=2), best_effort=False
        ),
    )
    with pytest.raises(BudgetExceededError) as error:
        engine.optimize(query)
    assert error.value.report.tripped == "rule_firings"
    assert error.value.stats.elapsed_seconds > 0


def test_systemr_budget_raises_with_partial_stats():
    names = ["a", "b", "c", "d", "e"]
    catalog = make_catalog([(n, 400) for n in names])
    query = chain_query(names)
    engine = SystemROptimizer(
        SPEC, catalog, SystemROptions(budget=ResourceBudget(max_costings=3))
    )
    with pytest.raises(BudgetExceededError) as error:
        engine.optimize(query)
    assert error.value.report.tripped == "costings"
    assert error.value.report.phase == "enumeration"
    assert error.value.stats.subsets_considered > 0
    assert error.value.stats.elapsed_seconds > 0


def test_systemr_unbudgeted_unaffected():
    names = ["a", "b", "c"]
    catalog = make_catalog([(n, 400) for n in names])
    query = chain_query(names)
    engine = SystemROptimizer(SPEC, catalog)
    result = engine.optimize(query)
    assert result.stats.elapsed_seconds > 0


# ---------------------------------------------------------------------------
# Stats on abort (all engines)
# ---------------------------------------------------------------------------


def test_volcano_abort_carries_partial_stats():
    engine, query = make_engine(4, max_groups=2)
    with pytest.raises(SearchError) as error:
        engine.optimize(query)
    assert error.value.stats is not None
    assert error.value.stats.elapsed_seconds > 0
    assert error.value.stats.groups_created > 0


def test_exodus_abort_carries_partial_stats():
    names = ["a", "b", "c", "d"]
    catalog = make_catalog([(n, 400) for n in names])
    query = chain_query(names)
    engine = ExodusOptimizer(
        SPEC, catalog, ExodusOptions(node_budget=2, best_effort=False)
    )
    with pytest.raises(SearchError) as error:
        engine.optimize(query)
    assert error.value.stats is not None
    assert error.value.stats.elapsed_seconds > 0


# ---------------------------------------------------------------------------
# Tracer truncation
# ---------------------------------------------------------------------------


def test_tracer_counts_dropped_events():
    tracer = Tracer(enabled=True, limit=5)
    for index in range(12):
        tracer.emit("goal", f"event {index}")
    assert len(tracer.events) == 5
    assert tracer.dropped == 7
    rendered = tracer.render()
    assert "truncated: 7 events dropped" in rendered


def test_tracer_untruncated_render_unchanged():
    tracer = Tracer(enabled=True, limit=5)
    tracer.emit("goal", "only event")
    assert tracer.dropped == 0
    assert "truncated" not in tracer.render()


def test_tracer_disabled_counts_nothing():
    tracer = Tracer(enabled=False, limit=1)
    tracer.emit("goal", "a")
    tracer.emit("goal", "b")
    assert tracer.events == [] and tracer.dropped == 0


# ---------------------------------------------------------------------------
# Reentrancy
# ---------------------------------------------------------------------------


def test_concurrent_optimize_matches_sequential():
    """Two threads, one engine, different options: byte-identical plans."""
    names = ["t0", "t1", "t2", "t3", "t4"]
    catalog = make_catalog([(n, 500 + 100 * i) for i, n in enumerate(names)])
    engine = VolcanoOptimizer(SPEC, catalog)
    query_a = chain_query(names[:4])
    query_b = chain_query(names[1:])
    options_a = SearchOptions(trace=True)
    options_b = SearchOptions(branch_and_bound=False, check_consistency=False)

    sequential_a = engine.optimize(query_a, options=options_a)
    sequential_b = engine.optimize(query_b, options=options_b)

    results = {}
    errors = []

    def work(key, query, options, rounds=3):
        try:
            for _ in range(rounds):
                results[key] = engine.optimize(query, options=options)
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [
        threading.Thread(target=work, args=("a", query_a, options_a)),
        threading.Thread(target=work, args=("b", query_b, options_b)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert results["a"].plan.pretty() == sequential_a.plan.pretty()
    assert results["a"].cost == sequential_a.cost
    assert results["b"].plan.pretty() == sequential_b.plan.pretty()
    assert results["b"].cost == sequential_b.cost
    # The per-call options override did not stick to the engine.
    assert engine.options == SearchOptions()


def test_options_override_does_not_mutate_engine():
    engine, query = make_engine(3)
    baseline = engine.options
    engine.optimize(query, options=SearchOptions(trace=True, min_promise=0.5))
    assert engine.options is baseline
