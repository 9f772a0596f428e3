"""Service-layer resource governance.

Degraded results are served but never cached — a budget
trip must not poison the cross-query plan cache with a plan that was
never proven optimal.
"""

import pytest

from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.service import OptimizerService
from repro.models.relational import relational_model

from tests.helpers import chain_query, make_catalog

pytestmark = pytest.mark.budget

SPEC = relational_model()


def make_service(n_tables=5, budget=None):
    """A service over an engine whose own default budget is ``budget``."""
    names = [f"t{i}" for i in range(n_tables)]
    catalog = make_catalog([(n, 500 + 100 * i) for i, n in enumerate(names)])
    optimizer = VolcanoOptimizer(SPEC, catalog, SearchOptions(budget=budget))
    return OptimizerService(optimizer), chain_query(names)


def test_degraded_result_served_but_not_cached():
    service, query = make_service()
    served = service.optimize(query, budget=ResourceBudget(max_costings=10))
    assert served.degraded
    assert not served.cached
    assert service.stats.degraded == 1
    assert len(service.cache) == 0
    # The same query again, unbudgeted: a full optimization, also a
    # cache miss (the degraded run stored nothing).
    full = service.optimize(query)
    assert not full.degraded
    assert not full.cached
    assert full.cost <= served.cost
    assert len(service.cache) >= 1


def test_service_level_budget_applies_to_all_requests():
    # The default budget of every request is the engine's own.
    service, query = make_service(
        budget=ResourceBudget(max_rule_firings=5)
    )
    served = service.optimize(query)
    assert served.degraded
    assert service.stats.degraded == 1


def test_per_request_budget_overrides_service_budget():
    service, query = make_service(budget=ResourceBudget(max_costings=5))
    # A generous per-request budget wins over the engine's strict default.
    served = service.optimize(
        query, budget=ResourceBudget(max_costings=1_000_000)
    )
    assert not served.degraded
    assert served.plan is not None
    assert service.stats.degraded == 0
    assert len(service.cache) >= 1


def test_budget_override_does_not_stick():
    service, query = make_service()
    engine_options = service.optimizer.options
    service.optimize(query, budget=ResourceBudget(max_costings=10))
    assert service.optimizer.options is engine_options
    assert service.optimizer.options.budget is None
    # Next unbudgeted call is unconstrained.
    assert not service.optimize(query).degraded


def test_degraded_counter_in_as_dict():
    service, query = make_service()
    service.optimize(query, budget=ResourceBudget(max_costings=10))
    stats = service.stats.as_dict()
    assert stats["degraded"] == 1
