"""The correctness reference: optimal plan costs from an independent optimizer.

``SystemROptimizer(bushy=True)`` is a bottom-up dynamic program that shares
no search code with the engines under test; on select-join queries its plan
space is the relational model's, so its cost is the optimum the served plan
must reach.  The benchmark computes it itself, after the timed phase, from
the same generated inputs the program received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.catalog.catalog import Catalog
from repro.executor.data import TableSpec, generate_table
from repro.sql.translator import translate
from repro.systemr import SystemROptimizer, SystemROptions

from perf.measure import geometric_mean

TOLERANCE = 1e-9  # relative; the engines agree with the reference to the last bit today
SERVER_DATA_SEED = 7  # ``python -m repro.server --seed`` default: the rows behind the statistics


def optimal_cost(spec, catalog: Catalog, expression, props) -> float:
    optimizer = SystemROptimizer(spec, catalog, SystemROptions(bushy=True))
    return optimizer.optimize(expression, props).cost.total()


def server_catalog(tables: Sequence) -> Catalog:
    """The catalog ``python -m repro.server --tables`` builds from ``tables``."""
    catalog = Catalog()
    for name, rows, distinct in tables:
        schema, statistics, data = generate_table(
            TableSpec(name, rows, key_distinct=distinct), SERVER_DATA_SEED
        )
        catalog.add_table(name, schema, statistics, data)
    return catalog


def sql_optimal_cost(spec, catalog: Catalog, sql: str) -> float:
    translation = translate(sql, catalog)
    return optimal_cost(spec, catalog, translation.expression, translation.required)


@dataclass(frozen=True)
class Answer:
    """What one operation returned, reduced to what is judged.

    ``verified`` is None on a path that carries no certificate to check: the
    engine with default options, and a parameterized-template hit (template
    entries are cached without one).
    """

    cost: Optional[float] = None
    degraded: bool = False
    verified: Optional[bool] = None
    cached: Optional[bool] = None
    error: Optional[str] = None


def from_response(payload: Mapping[str, object]) -> Answer:
    """An ``/optimize`` response body as an :class:`Answer`."""
    return Answer(
        cost=payload["cost_total"],
        degraded=bool(payload["degraded"]),
        verified=None if payload["parameterized"] else bool(payload["verified"]),
        cached=bool(payload["cached"]),
    )


def failure(answer: Answer, reference: Optional[float]) -> Optional[str]:
    """Why ``answer`` counts as a failed operation, or None.

    ``reference`` is None for an operation that returns no plan (a write).
    """
    if answer.error is not None:
        return answer.error
    if answer.degraded:
        return "degraded answer"
    if answer.verified is False:
        return "certificate not verified"
    if reference is None:
        return None
    if answer.cost is None or abs(answer.cost - reference) > TOLERANCE * reference:
        return f"cost {answer.cost!r} is not the optimum {reference!r}"
    return None


def plan_cost_ratio(costs: Dict[object, float], references: Dict[object, float]) -> float:
    """Geometric mean over distinct queries of served cost / optimal cost."""
    return geometric_mean([costs[key] / references[key] for key in references])
