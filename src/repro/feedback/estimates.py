"""Per-operator cardinality estimates for physical plans.

The feedback loop compares what the optimizer *believed* about each
operator against what the executor *observed*.  The believed side is
reconstructed here: every physical algorithm of the bundled models maps
back to the logical (sub)expression it implements — its **logical
mirror** — and that mirror's cardinality is derived with the model's own
logical property functions (:meth:`OptimizerContext.logical_props`), so
the estimates are exactly the numbers the cost model consumed during the
search, not a reimplementation that could drift from it.

Enforcers (sort, exchange) perform no logical data manipulation (paper
Section 2.2), so their mirror is their input's mirror.  Algorithms of
models without an executor mapping yield no mirror and no estimate;
:func:`register_mirror` extends the table alongside
:meth:`PlanCompiler.register`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.catalog.catalog import Catalog
from repro.catalog.selectivity import SelectivityEstimator
from repro.errors import ReproError
from repro.model.context import OptimizerContext
from repro.model.spec import ModelSpecification

__all__ = [
    "register_mirror",
    "has_mirror",
    "node_mirror",
    "mirror_expressions",
    "estimate_rows",
]

MirrorBuilder = Callable[
    [PhysicalPlan, Tuple[Optional[LogicalExpression], ...]],
    Optional[LogicalExpression],
]


def _mirror_scan(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    table, alias = plan.args
    return LogicalExpression("get", (table, alias))


def _mirror_filter(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    if inputs[0] is None:
        return None
    return LogicalExpression("select", (plan.args[0],), (inputs[0],))


def _mirror_filter_scan(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    table, alias, predicate = plan.args
    scan = LogicalExpression("get", (table, alias))
    return LogicalExpression("select", (predicate,), (scan,))


def _mirror_project(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    if inputs[0] is None:
        return None
    return LogicalExpression("project", (tuple(plan.args[0]),), (inputs[0],))


def _mirror_join(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    if inputs[0] is None or inputs[1] is None:
        return None
    return LogicalExpression("join", (plan.args[0],), (inputs[0], inputs[1]))


def _mirror_aggregate(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    if inputs[0] is None:
        return None
    group_by, aggregates = plan.args
    return LogicalExpression(
        "aggregate",
        (tuple(group_by), tuple(tuple(item) for item in aggregates)),
        (inputs[0],),
    )


def _mirror_passthrough(plan: PhysicalPlan, inputs) -> Optional[LogicalExpression]:
    return inputs[0] if inputs else None


_MIRRORS: Dict[str, Optional[MirrorBuilder]] = {
    "file_scan": _mirror_scan,
    "filter": _mirror_filter,
    "filter_scan": _mirror_filter_scan,
    "project": _mirror_project,
    "merge_join": _mirror_join,
    "hybrid_hash_join": _mirror_join,
    "nested_loops_join": _mirror_join,
    "hash_aggregate": _mirror_aggregate,
    "stream_aggregate": _mirror_aggregate,
    # Enforcers reorganize, never create or drop rows.
    "sort": _mirror_passthrough,
    "exchange": _mirror_passthrough,
    # Materialization (multi-query sharing) writes its input out
    # verbatim; its estimate is its feed's estimate.  A scan of a
    # materialized intermediate has no self-contained logical mirror —
    # its rows belong to another plan's feedback — so it is registered
    # as deliberately mirrorless (None) rather than left unmapped.
    "materialize": _mirror_passthrough,
    "scan_intermediate": None,
}


def register_mirror(algorithm: str, builder: Optional[MirrorBuilder]) -> None:
    """Map ``algorithm`` back to the logical expression it implements.

    ``builder`` receives the plan node and its inputs' mirrors (None
    where an input has no mirror) and returns the node's mirror, or
    None when it cannot be expressed.  The executor-side counterpart of
    :meth:`PlanCompiler.register`.

    Passing ``builder=None`` registers the algorithm as *deliberately*
    mirrorless: it yields no estimate, but the static checker's V502
    (utility algorithm without a feedback mirror) treats the explicit
    registration as a decision, not an omission.
    """
    _MIRRORS[algorithm] = builder


def has_mirror(algorithm: str) -> bool:
    """Whether ``algorithm`` has a mirror registration (even ``None``).

    The V502 lint probe: an algorithm absent from the table was likely
    forgotten when the model gained a utility algorithm; one present —
    with a builder or an explicit None — was accounted for.
    """
    return algorithm in _MIRRORS


def node_mirror(
    plan: PhysicalPlan,
    inputs: Tuple[Optional[LogicalExpression], ...],
) -> Optional[LogicalExpression]:
    """One node's logical mirror, given its inputs' mirrors.

    The single-node step of :func:`mirror_expressions`, exposed for
    callers (e.g. the multi-query sharing pass) that walk plan DAGs with
    their own identity-aware memoization.
    """
    builder = _MIRRORS.get(plan.algorithm)
    if builder is None and plan.is_enforcer:
        builder = _mirror_passthrough
    return builder(plan, inputs) if builder is not None else None


def mirror_expressions(
    plan: PhysicalPlan,
) -> Dict[int, Optional[LogicalExpression]]:
    """The logical mirror of every plan node, keyed by stable node id.

    Node ids are pre-order positions — the same ids the instrumented
    executor uses for its per-node counters, so the two maps join
    directly.  Enforcer nodes share their input's mirror; nodes of
    unmapped algorithms (and every node above them) map to None.
    """
    mirrors: Dict[int, Optional[LogicalExpression]] = {}
    _mirror_into(plan, mirrors, itertools.count())
    return mirrors


def _mirror_into(
    node: PhysicalPlan,
    mirrors: Dict[int, Optional[LogicalExpression]],
    node_ids: Iterator[int],
) -> Optional[LogicalExpression]:
    """Record ``node``'s subtree in ``mirrors``; return ``node``'s mirror.

    A module-level function rather than a closure: a closure that calls
    itself is a function <-> cell cycle left for the cyclic collector.
    """
    node_id = next(node_ids)
    inputs = tuple(_mirror_into(child, mirrors, node_ids) for child in node.inputs)
    mirror = node_mirror(node, inputs)
    mirrors[node_id] = mirror
    return mirror


def estimate_rows(
    plan: PhysicalPlan,
    catalog: Catalog,
    spec: ModelSpecification,
    estimator: Optional[SelectivityEstimator] = None,
) -> Dict[int, Optional[float]]:
    """Estimated output cardinality of every plan node, by node id.

    Derivation goes through the model's own property functions, so the
    numbers agree with what the optimizer estimated during the search.
    Nodes without a logical mirror — or whose mirror the model cannot
    derive properties for — estimate to None.
    """
    context = OptimizerContext(spec, catalog, estimator)
    estimates: Dict[int, Optional[float]] = {}
    for node_id, mirror in mirror_expressions(plan).items():
        if mirror is None:
            estimates[node_id] = None
            continue
        try:
            estimates[node_id] = context.logical_props(mirror).cardinality
        except (ReproError, KeyError):
            estimates[node_id] = None
    return estimates
