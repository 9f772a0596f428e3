"""Tests for the parallel model (partitioning property + exchange)."""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import Partitioning, PhysProps
from repro.errors import OptimizationFailedError
from repro.models.parallel import (
    ParallelModelOptions,
    parallel_relational_model,
    partitioned_on,
)
from repro.models.relational import get, join, select
from repro.search import VolcanoOptimizer

from tests.helpers import make_catalog


@pytest.fixture
def catalog():
    return make_catalog(
        [("r", 7200), ("s", 7200), ("t", 7200)], key_distinct=3600
    )


@pytest.fixture
def optimizer(catalog):
    return VolcanoOptimizer(parallel_relational_model(), catalog)


def test_partitioned_goal_satisfied_by_exchange(optimizer):
    required = partitioned_on(["r.k"], 4)
    result = optimizer.optimize(get("r"), props=required)
    assert result.plan.algorithm == "exchange"
    assert result.plan.is_enforcer
    assert result.plan.properties.covers(required)


def test_exchange_degree_must_match(optimizer):
    result = optimizer.optimize(get("r"), props=partitioned_on(["r.k"], 8))
    partitioning = result.plan.properties.partitioning
    assert partitioning.degree == 8


def test_parallel_join_requires_compatible_partitioning(optimizer):
    """Both inputs exchange onto the join key before a parallel join."""
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = optimizer.optimize(query, props=partitioned_on(["r.k"], 4))
    algorithms = result.plan.algorithms_used()
    if "parallel_hash_join" in algorithms:
        assert result.plan.count_algorithm("exchange") >= 2


def test_parallel_join_chosen_for_big_inputs(catalog):
    """Dividing the join work pays for the exchanges on large inputs."""
    options = ParallelModelOptions(degree=8, cpu_transfer=0.1, startup=10.0)
    optimizer = VolcanoOptimizer(parallel_relational_model(options), catalog)
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = optimizer.optimize(query)
    assert "parallel_hash_join" in result.plan.algorithms_used()


def test_serial_join_chosen_when_transfer_expensive(catalog):
    options = ParallelModelOptions(degree=2, cpu_transfer=50.0, startup=1e6)
    optimizer = VolcanoOptimizer(parallel_relational_model(options), catalog)
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = optimizer.optimize(query)
    assert "parallel_hash_join" not in result.plan.algorithms_used()


def test_partitioning_key_equivalence_propagates(optimizer):
    """Output partitioned on {r.k, s.k} satisfies either column."""
    query = join(get("r"), get("s"), eq("r.k", "s.k"))
    result = optimizer.optimize(query, props=partitioned_on(["s.k"], 4))
    assert result.plan.properties.covers(partitioned_on(["s.k"], 4))


def test_partitioned_and_sorted_goal(optimizer):
    """Two property components at once: sort and partitioning compose."""
    from repro.algebra.properties import sorted_on

    required = partitioned_on(["r.k"], 4).with_sort(["r.k"])
    result = optimizer.optimize(
        select(get("r"), eq("r.v", 1)), props=required
    )
    assert result.plan.properties.covers(required)
    algorithms = result.plan.algorithms_used()
    assert "sort" in algorithms and "exchange" in algorithms


def test_serial_model_cannot_partition(catalog):
    from repro.models.relational import relational_model

    optimizer = VolcanoOptimizer(relational_model(), catalog)
    with pytest.raises(OptimizationFailedError):
        optimizer.optimize(get("r"), props=partitioned_on(["r.k"], 4))
