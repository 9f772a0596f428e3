"""MemoAuditor: silent on honest memos, loud on tampered ones."""

import dataclasses

import pytest

from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.lint import MemoAuditor
from repro.models.relational import relational_model
from repro.search import SearchOptions
from repro.search.engine import VolcanoOptimizer
from repro.search.memo import Winner
from repro.workloads import QueryGenerator

from tests.helpers import chain_query, make_catalog


@pytest.fixture(scope="module")
def catalog():
    return make_catalog([("a", 1000), ("b", 5000), ("c", 200)])


def optimize(catalog, required=None):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    query = chain_query(["a", "b", "c"])
    if required is None:
        return optimizer.optimize(query)
    return optimizer.optimize(query, required)


def test_honest_runs_audit_clean(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    auditor = MemoAuditor().attach(optimizer)
    optimizer.optimize(chain_query(["a", "b", "c"]))
    optimizer.optimize(chain_query(["a", "b"]), sorted_on("a.k"))
    assert auditor.audits == 2
    assert auditor.violations == []


def test_attach_runs_via_post_optimize_hook(catalog):
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    auditor = MemoAuditor().attach(optimizer)
    assert auditor.audits == 0
    optimize_result = optimizer.optimize(chain_query(["a", "b"]))
    assert optimize_result is not None
    assert auditor.audits == 1


def test_results_without_memo_audit_clean(catalog):
    result = dataclasses.replace(optimize(catalog), memo=None)
    assert MemoAuditor().audit(result) == []


def _some_winner_entry(memo):
    for group in memo.groups():
        for key, winner in group.winners.items():
            return group, key, winner
    raise AssertionError("no winners in memo")


def test_merge_cycle_detected(catalog):
    result = optimize(catalog)
    memo = result.memo
    ids = [gid for gid in memo._groups][:2]
    memo._groups[ids[0]].merged_into = ids[1]
    memo._groups[ids[1]].merged_into = ids[0]
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M001" in codes


def test_winner_goal_mismatch_detected(catalog):
    result = optimize(catalog, required=sorted_on("a.k"))
    root = result.memo.group(result.root_group)
    for key, winner in list(root.winners.items()):
        if not key[0].is_any:
            bad_plan = dataclasses.replace(winner.plan, properties=ANY_PROPS)
            root.winners[key] = Winner(bad_plan, winner.cost)
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M002" in codes


def test_winner_cost_mismatch_detected(catalog):
    result = optimize(catalog)
    group, key, winner = _some_winner_entry(result.memo)
    group.winners[key] = Winner(winner.plan, winner.cost + winner.cost)
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M003" in codes


def test_nonmonotonic_plan_cost_detected(catalog):
    result = optimize(catalog)
    plan = result.plan
    assert plan.inputs, "root plan should have inputs"
    inflated_child = dataclasses.replace(
        plan.inputs[0], cost=plan.cost + plan.cost
    )
    bad_plan = dataclasses.replace(
        plan, inputs=(inflated_child,) + plan.inputs[1:]
    )
    root = result.memo.group(result.root_group)
    for key, winner in list(root.winners.items()):
        root.winners[key] = Winner(bad_plan, winner.cost)
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M004" in codes


def test_non_minimal_winner_detected(catalog):
    result = optimize(catalog)
    root = result.memo.group(result.root_group)
    ((key, winner),) = [
        (key, winner)
        for key, winner in root.winners.items()
        if key[1] is None and key[0].is_any
    ]
    # Plant a second, cheaper winner whose plan also satisfies ANY.
    cheaper = Winner(
        dataclasses.replace(winner.plan, cost=winner.cost - winner.cost),
        winner.cost - winner.cost,
    )
    root.winners[(sorted_on("a.k"), None)] = cheaper
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M005" in codes


def test_shadowing_failure_detected(catalog):
    result = optimize(catalog)
    root = result.memo.group(result.root_group)
    _, winner = next(iter(root.winners.items()))
    # Claim ANY has no plan although a winner for it sits beside the record.
    root.failures.add((ANY_PROPS, None))
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M006" in codes


def test_excluded_region_failures_are_not_shadowed(catalog):
    result = optimize(catalog)
    root = result.memo.group(result.root_group)
    _, winner = next(iter(root.winners.items()))
    # The winner's own properties fall inside the excluded vector, so it
    # could never have satisfied this goal: no violation.
    excluded = winner.plan.properties
    root.failures.add((ANY_PROPS, excluded))
    codes = [v.code for v in MemoAuditor().audit(result)]
    assert "M006" not in codes


def test_root_requirement_mismatch_detected(catalog):
    result = optimize(catalog)
    bad = dataclasses.replace(result, required=sorted_on("no.such"))
    codes = [v.code for v in MemoAuditor().audit(bad)]
    assert "M007" in codes


def test_figure4_smoke_run_audits_clean():
    from repro.bench.figure4 import Figure4Config, run_figure4

    config = Figure4Config(sizes=(2, 3), queries_per_size=3)
    result = run_figure4(config)
    assert sum(row.audit_violations for row in result.rows) == 0


@pytest.mark.parametrize(
    "size, groups, expressions, costings, fired, tried, moves_hit_rate, violations",
    [
        (4, 14, 28, 640, 300, 920, 0.52, 0),
        (6, 30.5, 103, 2340, 1840, 4770, 0.59, 0),
        # The two M005 findings at n=8 are the sub-goal optimality gap
        # of ROADMAP item 1(1): they may fall, never rise.
        (8, 72.1, 402.6, 10339, 9924, 23954, 0.63, 2),
    ],
    ids=["n4", "n6", "n8"],
)
def test_figure4_points_pin_search_counts(
    size, groups, expressions, costings, fired, tried, moves_hit_rate, violations
):
    """Figure 4's workload, 10 queries per size, seed 1993, audited.

    The memo sizes, costings, rule firings and bindings tried are
    deterministic for the seed: a drift means the search changed.  The
    moves-cache hit rate may only rise.
    """
    spec = relational_model()
    options = SearchOptions(check_consistency=False)
    total_groups = total_expressions = total_costings = found = 0
    total_fired = total_tried = 0
    moves_hits = moves_misses = 0
    for query in QueryGenerator().generate_batch(size, 10, seed=1993):
        optimizer = VolcanoOptimizer(spec, query.catalog, options)
        auditor = MemoAuditor().attach(optimizer)
        stats = optimizer.optimize(query.query, query.required).stats
        total_groups += stats.groups_created
        total_expressions += stats.expressions_created
        total_costings += stats.algorithm_costings
        total_fired += stats.rules_fired
        total_tried += stats.rule_bindings_tried
        moves_hits += stats.moves_cache_hits
        moves_misses += stats.moves_cache_misses
        found += len(auditor.violations)
    assert total_groups / 10 == pytest.approx(groups)
    assert total_expressions / 10 == pytest.approx(expressions)
    assert total_costings == costings
    assert total_fired == fired
    assert total_tried == tried
    assert moves_hits / (moves_hits + moves_misses) >= moves_hit_rate
    assert found <= violations
