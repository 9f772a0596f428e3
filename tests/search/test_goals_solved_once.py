"""Every goal is solved once: limit-free winners and failures.

``FindBestPlan`` memoizes a goal's *optimum* (or that no plan exists),
never an answer relative to the limit its first consumer offered
(``docs/search-internals.md``, "FindBestPlan"; DESIGN.md, deviation F2a).
So in any search

* the move loop (``_optimize_goal``) is entered at most once per
  ``(group, required, excluded)`` goal, and every goal it searched is
  memoized;
* the failure table never answers a look-up on a feasible workload, and
  no recorded failure sits beside a winner that satisfies it;
* an excluded goal whose plain goal's winner lies outside the excluded
  region is answered with that same winner, which is exactly what the
  move loop would have returned;
* ``branch_and_bound`` and ``cache_failures`` change the work, never the
  plan; a caller's ``limit`` only accepts or rejects the answer.

Nothing here depends on ``PYTHONHASHSEED``: the assertions are
identities between counters of one run, not pinned totals.
"""

import json
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.predicates import conjunction_of, eq
from repro.algebra.properties import sorted_on
from repro.errors import OptimizationFailedError
from repro.generator import clear_kernel_caches
from repro.lint.invariants import MemoAuditor
from repro.model.cost import ScalarCost
from repro.models.aggregates import aggregate, aggregate_model
from repro.models.oodb import materialize, oodb_model
from repro.models.parallel import parallel_relational_model, partitioned_on
from repro.models.relational import get, join, relational_model, select
from repro.models.setops import intersect, setops_model, union
from repro.search import SearchOptions, VolcanoOptimizer
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog
from tests.models.test_oodb import make_catalog as make_oodb_catalog

SPEC = relational_model()
KERNELS = [None, "specialized"]
KERNEL_IDS = ["interpreted", "specialized"]


@pytest.fixture(autouse=True)
def isolated_kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    clear_kernel_caches()
    yield
    clear_kernel_caches()


def spy_on_goal_searches(optimizer):
    """Count ``_optimize_goal`` entries per (group, required, excluded)."""
    entries = Counter()
    inner = optimizer._optimize_goal

    def counting(run, gid, required, excluded, depth):
        entries[(run.memo.canonical(gid), required, excluded)] += 1
        return inner(run, gid, required, excluded, depth)

    optimizer._optimize_goal = counting
    return entries


def assert_solved_once(entries, memo, stats):
    # Entered once per distinct goal, and every searched goal memoized
    # (the rest of the memoized goals were answered without a search).
    # That no failure sits beside a covering winner is the auditor's
    # M006, which every caller runs.
    assert sum(entries.values()) == len(entries)
    memoized = {
        (group.id, required, excluded)
        for group in memo.groups()
        for required, excluded in list(group.winners) + list(group.failures)
    }
    assert set(entries) <= memoized
    assert stats.failure_hits == 0
    assert not any(group.in_progress for group in memo.groups())


def solve(spec, catalog, query, required, kernel):
    optimizer = VolcanoOptimizer(spec, catalog, SearchOptions(kernel=kernel))
    auditor = MemoAuditor().attach(optimizer)
    entries = spy_on_goal_searches(optimizer)
    result = optimizer.optimize(query, required)
    assert_solved_once(entries, result.memo, result.stats)
    assert auditor.violations == []
    return result, entries


# ---------------------------------------------------------------------------
# Entries == distinct goals, on every kind of search the repo runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("relations", range(2, 9))
@pytest.mark.parametrize("shape", ["chain", "star"])
def test_generated_joins_search_each_goal_once(shape, relations, kernel):
    generated = QueryGenerator(WorkloadOptions(shape=shape)).generate(
        relations, seed=relations
    )
    result, entries = solve(
        SPEC, generated.catalog, generated.query, generated.required, kernel
    )
    # Every excluded goal here is answered from its plain goal or by its
    # own single search — never both for nothing: the searched ones are
    # exactly those whose plain winner lies in the excluded region.
    for group in result.memo.groups():
        for (required, excluded), winner in group.winners.items():
            if excluded is None:
                continue
            plain = group.winners[(required, None)]
            searched = (group.id, required, excluded) in entries
            assert searched == SPEC.props_cover(plain.plan.properties, excluded)
            assert searched or winner is plain


def sorted_root_queries():
    """The ORDER BY (sorted-root) shapes used across ``tests/search``."""
    two_way = join(get("r"), get("s"), eq("r.k", "s.k"))
    selective = join(select(get("r"), eq("r.v", 1)), get("s"), eq("r.k", "s.k"))
    multi_key = join(
        get("r"), get("s"), conjunction_of([eq("r.k", "s.k"), eq("r.v", "s.v")])
    )
    return [
        (two_way, sorted_on("r.k")),
        (selective, sorted_on("r.k")),
        (get("r"), sorted_on("r.k", "r.v")),
        (two_way, sorted_on("s.k")),
        (multi_key, sorted_on("r.v")),
        (chain_query(["r", "s", "t"]), sorted_on("r.k")),
        (chain_query(["r", "s", "t", "u"]), sorted_on("s.k")),
    ]


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("index", range(len(sorted_root_queries())))
def test_sorted_root_queries_search_each_goal_once(index, kernel):
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800), ("u", 600)])
    query, required = sorted_root_queries()[index]
    result, entries = solve(SPEC, catalog, query, required, kernel)
    assert SPEC.props_cover(result.plan.properties, required)
    # A sort enforcer's input is an excluded goal; some of these take
    # the move loop (the plain winner is itself sorted), some do not.
    assert any(
        key[1] is not None for group in result.memo.groups() for key in group.winners
    )


def non_relational_cases():
    catalog = make_catalog([("r", 4800), ("s", 4800), ("t", 2400)])
    three_way = join(
        join(get("r"), get("s"), eq("r.k", "s.k")), get("t"), eq("s.k", "t.k")
    )
    return {
        "setops": (
            setops_model(),
            catalog,
            union(intersect(get("r"), get("s")), get("t"), all=False),
            sorted_on("r.k"),
        ),
        "aggregates": (
            aggregate_model(),
            catalog,
            aggregate(
                join(get("r"), get("s"), eq("r.k", "s.k")),
                ["r.k"],
                [("n", "count", None)],
            ),
            sorted_on("r.k"),
        ),
        "oodb": (
            oodb_model(),
            make_oodb_catalog(),
            select(
                materialize(get("employee"), "dept_ref", "department"),
                eq("department.floor", 3),
            ),
            None,
        ),
        "parallel": (
            parallel_relational_model(),
            catalog,
            three_way,
            partitioned_on(["r.k"], 4),
        ),
    }


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("model", sorted(non_relational_cases()))
def test_bundled_models_search_each_goal_once(model, kernel):
    spec, catalog, query, required = non_relational_cases()[model]
    solve(spec, catalog, query, required, kernel)


@pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_batch_of_overlapping_chains_searches_each_goal_once(reverse, kernel):
    """One shared memo: a later root re-uses, never re-searches, a goal.

    The shape ROADMAP item 1(2) describes: queries sharing a 4-relation
    prefix, every join on ``.k`` so all join columns sit in one equality
    class.  Limit-free entries do not depend on who asked first, so each
    query's answer is the one it gets alone, in either batch order.
    """
    names = ["t0", "t1", "t2", "t3", "t4", "t5"]
    catalog = make_catalog([(name, 500 * (i + 2)) for i, name in enumerate(names)])
    queries = [
        chain_query(names[start : start + width])
        for start, width in [(0, 4), (1, 4), (0, 5), (2, 4), (0, 6), (1, 3)]
    ]
    if reverse:
        queries.reverse()
    required = sorted_on("t2.k")
    optimizer = VolcanoOptimizer(SPEC, catalog, SearchOptions(kernel=kernel))
    entries = spy_on_goal_searches(optimizer)
    results = optimizer.optimize_batch(queries, required)
    assert_solved_once(entries, results[0].memo, results[0].stats)
    assert MemoAuditor(props_cover=SPEC.props_cover).audit_batch(results) == []
    for query, result in zip(queries, results):
        alone = VolcanoOptimizer(SPEC, catalog).optimize(query, required)
        assert result.plan.to_sexpr() == alone.plan.to_sexpr()
        assert result.cost == alone.cost


# ---------------------------------------------------------------------------
# The two options change the work, never the answer
# ---------------------------------------------------------------------------


def test_pruning_and_failure_memo_never_change_a_golden_plan():
    golden_path = Path(__file__).parents[1] / "service" / "golden_plans.json"
    golden = json.loads(golden_path.read_text())["VolcanoOptimizer"]
    workload = QueryGenerator(
        WorkloadOptions(selectivity_range=(0.1, 0.1))
    ).generate_shared(count=42, seed=7, n_tables=6, relations=(2, 4))
    assert len(golden) == len(workload.queries) == 42
    variants = [
        SearchOptions(
            check_consistency=False,
            branch_and_bound=branch_and_bound,
            cache_failures=cache_failures,
        )
        for branch_and_bound in (True, False)
        for cache_failures in (True, False)
    ]
    for entry, expected in zip(workload.queries, golden):
        answers = [
            VolcanoOptimizer(SPEC, workload.catalog, options).optimize(
                entry.query, entry.required
            )
            for options in variants
        ]
        for answer in answers:
            assert answer.plan.to_sexpr() == expected["plan"]
            assert answer.cost == answers[0].cost
        pruned, exhaustive = answers[0].stats, answers[2].stats
        assert pruned.algorithm_costings <= exhaustive.algorithm_costings
        assert exhaustive.moves_pruned == exhaustive.inputs_abandoned == 0


def test_a_limit_accepts_or_rejects_the_optimum():
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    query = chain_query(["r", "s", "t"])
    optimizer = VolcanoOptimizer(SPEC, catalog)
    optimum = optimizer.optimize(query, sorted_on("r.k"))
    at = optimizer.optimize(query, sorted_on("r.k"), limit=optimum.cost)
    assert at.plan.to_sexpr() == optimum.plan.to_sexpr()
    assert at.cost == optimum.cost
    below = ScalarCost(optimum.cost.total() * (1 - 1e-9))
    assert below < optimum.cost
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(query, sorted_on("r.k"), limit=below)
    # Rejected, not lost: the search itself ran to the same optimum.
    entries = spy_on_goal_searches(optimizer)
    with pytest.raises(OptimizationFailedError) as error:
        optimizer.optimize(query, sorted_on("r.k"), limit=below)
    assert sum(entries.values()) == len(entries)
    assert error.value.stats.failure_hits == 0


# ---------------------------------------------------------------------------
# The excluded-goal shortcut returns what the move loop returns
# ---------------------------------------------------------------------------


@st.composite
def sorted_chain_searches(draw):
    n = draw(st.integers(2, 5))
    names = [f"t{i}" for i in range(n)]
    catalog = make_catalog(
        [(name, draw(st.integers(50, 20_000))) for name in names],
        key_distinct=draw(st.integers(5, 500)),
    )
    query = chain_query(names, with_selections=draw(st.booleans()))
    column = f"{draw(st.sampled_from(names))}.{draw(st.sampled_from('kv'))}"
    return catalog, query, sorted_on(column)


@given(sorted_chain_searches())
@settings(max_examples=40, deadline=None)
def test_excluded_winners_equal_the_move_loop(case):
    catalog, query, required = case
    optimizer = VolcanoOptimizer(SPEC, catalog)
    result = optimizer.optimize(query, required)
    memo = result.memo
    run = optimizer._new_run(optimizer.options, memo)
    checked = 0
    for group in memo.groups():
        for (goal, excluded), winner in list(group.winners.items()):
            if excluded is None:
                continue
            # The loop itself, not FindBestPlan: no shortcut, no lookup.
            direct = optimizer._optimize_goal(run, group.id, goal, excluded, 0)
            assert direct is not None
            assert direct.cost == winner.cost
            assert direct.plan.to_sexpr() == winner.plan.to_sexpr()
            assert not SPEC.props_cover(winner.plan.properties, excluded)
            assert winner.cost >= group.winners[(goal, None)].cost
            checked += 1
    assert checked
