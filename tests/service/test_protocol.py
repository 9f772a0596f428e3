"""Every engine answers to the one :class:`Optimizer` protocol."""

import pytest

from repro.algebra.properties import ANY_PROPS, sorted_on
from repro.exodus import ExodusOptimizer, ExodusOptions, ExodusResult
from repro.models.relational import get, join, relational_model, select
from repro.algebra.predicates import eq
from repro.search import (
    OptimizationResult,
    Optimizer,
    SearchOptions,
    VolcanoOptimizer,
)
from repro.systemr import SystemROptimizer, SystemROptions, SystemRResult

from tests.helpers import make_catalog

SPEC = relational_model()

ENGINES = [
    VolcanoOptimizer,
    ExodusOptimizer,
    SystemROptimizer,
]


def two_way():
    return join(get("r"), get("s"), eq("r.k", "s.k"))


@pytest.fixture
def catalog():
    return make_catalog([("r", 1200), ("s", 2400)])


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_satisfies_protocol(engine, catalog):
    assert isinstance(engine(SPEC, catalog), Optimizer)


@pytest.mark.parametrize("engine", ENGINES)
def test_unified_signature_returns_optimization_result(engine, catalog):
    result = engine(SPEC, catalog).optimize(two_way())
    assert isinstance(result, OptimizationResult)
    assert result.plan is not None
    assert result.required == ANY_PROPS


@pytest.mark.parametrize("engine", ENGINES)
def test_props_accepted_positionally(engine, catalog):
    required = sorted_on("r.k")
    result = engine(SPEC, catalog).optimize(two_way(), required)
    assert result.required == required
    assert result.plan.properties.covers(required)


def test_engines_agree_on_optimal_cost(catalog):
    costs = [
        engine(SPEC, catalog).optimize(two_way()).cost.total()
        for engine in ENGINES
    ]
    assert all(cost == pytest.approx(costs[0]) for cost in costs)


def test_subclassed_results():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    assert isinstance(
        ExodusOptimizer(SPEC, catalog).optimize(two_way()), ExodusResult
    )
    assert isinstance(
        SystemROptimizer(SPEC, catalog).optimize(two_way()), SystemRResult
    )
    assert issubclass(ExodusResult, OptimizationResult)
    assert issubclass(SystemRResult, OptimizationResult)


def test_per_call_options_override_and_restore(catalog):
    optimizer = VolcanoOptimizer(SPEC, catalog)
    default = optimizer.options
    custom = SearchOptions(trace=True)
    result = optimizer.optimize(two_way(), options=custom)
    assert result.trace is not None
    assert optimizer.options is default
    assert optimizer.optimize(two_way()).trace is None


def test_per_call_options_for_systemr(catalog):
    optimizer = SystemROptimizer(SPEC, catalog)
    bushy = SystemROptions(bushy=True)
    optimizer.optimize(two_way(), options=bushy)
    assert optimizer.options.bushy is False


def test_per_call_options_for_exodus(catalog):
    optimizer = ExodusOptimizer(SPEC, catalog)
    default = optimizer.options
    optimizer.optimize(two_way(), options=ExodusOptions(node_budget=500))
    assert optimizer.options is default


def test_selects_are_protocol_clean(catalog):
    query = select(two_way(), eq("r.v", 1))
    result = VolcanoOptimizer(SPEC, catalog).optimize(query)
    assert isinstance(result, OptimizationResult)
