"""Tests for pre-optimized subplans (paper Section 6: 'longer-lived
partial results' / 'preoptimized subplans')."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.errors import SearchError
from repro.models.relational import get, join, relational_model, select
from repro.search import PreoptimizedPlan, VolcanoOptimizer

from tests.helpers import make_catalog


@pytest.fixture(scope="module")
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])


@pytest.fixture(scope="module")
def optimizer(catalog):
    return VolcanoOptimizer(relational_model(), catalog)


SUB = lambda: join(get("r"), get("s"), eq("r.k", "s.k"))
BIG = lambda: join(SUB(), get("t"), eq("s.k", "t.k"))


def test_harvest_returns_memoized_winner(optimizer):
    result = optimizer.optimize(SUB())
    seed = result.harvest(SUB())
    assert seed.cost == result.cost
    assert seed.plan.to_sexpr() == result.plan.to_sexpr()


def test_harvest_resolves_rule_derived_variants(optimizer):
    """Harvesting via the commuted join form works: the hash table knows
    every expression the rules derived for the class."""
    result = optimizer.optimize(SUB())
    commuted = join(get("s"), get("r"), eq("r.k", "s.k"))
    seed = result.harvest(commuted)
    assert seed.cost == result.cost


def test_harvest_unknown_goal_raises(optimizer):
    result = optimizer.optimize(SUB())
    with pytest.raises(SearchError):
        result.harvest(SUB(), required=sorted_on("r.v"))


def test_seeding_saves_work_and_preserves_the_result(optimizer):
    seed = optimizer.optimize(SUB()).harvest(SUB())
    unseeded = optimizer.optimize(BIG())
    seeded = optimizer.optimize(BIG(), preoptimized=[seed])
    assert seeded.cost == unseeded.cost
    assert seeded.stats.find_best_plan_calls < unseeded.stats.find_best_plan_calls
    assert seeded.stats.seeds_planted == 1
    assert unseeded.stats.seeds_planted == 0


def test_seeded_winner_lands_in_the_right_class(optimizer):
    seed = optimizer.optimize(SUB()).harvest(SUB())
    seeded = optimizer.optimize(BIG(), preoptimized=[seed])
    gid = seeded.memo.insert_expression(SUB())
    winner = seeded.memo.group(gid).winners.get((seed.required, None))
    assert winner is not None
    assert winner.cost == seed.cost


def test_seeding_with_property_goal(optimizer):
    sorted_result = optimizer.optimize(SUB(), props=sorted_on("r.k"))
    seed = sorted_result.harvest(SUB(), required=sorted_on("r.k"))
    seeded = optimizer.optimize(BIG(), props=sorted_on("r.k"), preoptimized=[seed])
    unseeded = optimizer.optimize(BIG(), props=sorted_on("r.k"))
    assert seeded.cost == unseeded.cost
    assert seeded.plan.properties.covers(sorted_on("r.k"))


def test_unrelated_seed_is_harmless(optimizer, catalog):
    """A seed whose expression never appears in the query changes nothing."""
    unrelated = select(get("t"), eq("t.v", 19))
    seed_source = optimizer.optimize(unrelated)
    seed = seed_source.harvest(unrelated)
    seeded = optimizer.optimize(SUB(), preoptimized=[seed])
    plain = optimizer.optimize(SUB())
    assert seeded.cost == plain.cost


def test_seeded_plans_execute_correctly(catalog, optimizer):
    """End to end: seed, optimize, run, compare to the unseeded plan."""
    from repro.executor import execute_plan
    import random

    for name in ("r", "s", "t"):
        entry = catalog.table(name)
        if entry.rows is None:
            rng = random.Random(f"pre:{name}")
            entry.rows = [
                {f"{name}.k": rng.randrange(100), f"{name}.v": rng.randrange(20)}
                for _ in range(int(entry.statistics.row_count))
            ]
    seed = optimizer.optimize(SUB()).harvest(SUB())
    seeded_plan = optimizer.optimize(BIG(), preoptimized=[seed]).plan
    plain_plan = optimizer.optimize(BIG()).plan
    canonical = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
    assert canonical(execute_plan(seeded_plan, catalog)) == canonical(
        execute_plan(plain_plan, catalog)
    )
