"""Estimated-vs-observed cardinality reports with q-error telemetry.

A :class:`FeedbackReport` joins the optimizer's believed cardinality for
every plan node (the cardinality of :attr:`PhysicalPlan.logical`, the
properties the node was priced with) with the row counts the
instrumented executor actually observed
(:attr:`ExecutionStats.node_rows`), and grades each join point with the
standard **q-error**: ``max(est / act, act / est)``, the factor by which
the estimate missed in either direction.  Q-error is the established
metric for cardinality estimation quality because plan cost is roughly
multiplicative in intermediate cardinalities — an estimate off by 10x
in either direction misleads the search equally badly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import Predicate
from repro.executor.runtime import ExecutionStats

__all__ = ["q_error", "OperatorFeedback", "FeedbackReport", "observed_report"]


def q_error(estimated: float, actual: float) -> float:
    """``max(est / act, act / est)`` with both sides floored at one row.

    The floor guards the zero cases: an empty observed result (or a
    zero estimate) would otherwise divide by zero, yet "estimated 50,
    saw 0" should grade like "estimated 50, saw 1" — a 50x miss — not
    infinity.  Perfect estimates (and sub-row noise) grade 1.0.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


@dataclass(frozen=True)
class OperatorFeedback:
    """One plan operator's estimate joined with its observation.

    ``actual_rows`` is None when the node was never closed (or the run
    was not instrumented); ``estimated_rows`` is None when the node
    carries no logical properties (a hand-built plan).  ``q_error`` is
    defined only when both sides are
    present.  For scan operators, ``scanned_rows`` counts rows read
    from the stored table (pre-filter) and ``scan_complete`` tells
    whether the scan exhausted the table — only then is ``scanned_rows``
    an observation of the table's true cardinality.
    """

    node_id: int
    algorithm: str
    is_enforcer: bool
    table: Optional[str]
    alias: Optional[str]
    predicate: Optional[Predicate]
    estimated_rows: Optional[float]
    actual_rows: Optional[int]
    scanned_rows: Optional[int] = None
    scan_complete: bool = False

    @property
    def q_error(self) -> Optional[float]:
        """This operator's q-error, or None when either side is missing."""
        if self.estimated_rows is None or self.actual_rows is None:
            return None
        return q_error(self.estimated_rows, self.actual_rows)


_SCAN_ARGS = {
    "file_scan": lambda args: (args[0], args[1], None),
    "filter_scan": lambda args: (args[0], args[1], args[2]),
}


def _sole_leaves(node: PhysicalPlan, leaves: Dict[int, Optional[PhysicalPlan]]):
    """Fill ``leaves`` (keyed by ``id``) with each subtree's only leaf.

    A subtree with several leaves maps to None.  One post-order pass
    fills the whole plan, so attribution stays linear in its size.
    """
    key = id(node)
    if key not in leaves:
        if not node.inputs:
            leaves[key] = node
        elif len(node.inputs) == 1:
            leaves[key] = _sole_leaves(node.inputs[0], leaves)
        else:
            for child in node.inputs:
                _sole_leaves(child, leaves)
            leaves[key] = None
    return leaves[key]


def _node_details(node: PhysicalPlan, leaf: Optional[PhysicalPlan]):
    """``(table, alias, predicate)`` for a plan node, best effort.

    Scans name their table directly.  Any other operator is attributed
    to a table only when it reads exactly one source — its logical
    properties name one table and ``leaf``, its subtree's only leaf, is
    a stored-table scan of that table (a filter above a single scan,
    say) — because feedback aggregated per (table, predicate) is
    meaningless for multi-table operators.
    """
    extract = _SCAN_ARGS.get(node.algorithm)
    if extract is not None:
        return extract(node.args)
    predicate = None
    if node.algorithm == "filter":
        (predicate,) = node.args
    table = alias = None
    extract = _SCAN_ARGS.get(leaf.algorithm) if leaf is not None else None
    if extract is not None and node.logical is not None:
        scanned, scanned_alias, _ = extract(leaf.args)
        if node.logical.tables == {scanned_alias or scanned}:
            table, alias = scanned, scanned_alias
    return table, alias, predicate


@dataclass(frozen=True)
class FeedbackReport:
    """Per-operator feedback for one executed plan.

    The plan-level ``max_q_error`` is the report's headline number: the
    worst per-operator miss, the quantity drift policies threshold on.
    ``degraded`` and ``rebound`` mark reports that are telemetry only,
    never drift evidence: see :func:`observed_report`.
    """

    plan: PhysicalPlan
    operators: Tuple[OperatorFeedback, ...]
    degraded: bool = False
    rebound: bool = False

    @property
    def max_q_error(self) -> float:
        """Worst per-operator q-error; 1.0 when nothing is comparable."""
        errors = [op.q_error for op in self.operators if op.q_error is not None]
        return max(errors) if errors else 1.0

    @property
    def observed_operators(self) -> int:
        """How many operators have both an estimate and an observation."""
        return sum(1 for op in self.operators if op.q_error is not None)

    def operator(self, node_id: int) -> OperatorFeedback:
        """The feedback entry for the node with ``node_id``."""
        for op in self.operators:
            if op.node_id == node_id:
                return op
        raise KeyError(node_id)

    def render(self) -> str:
        """A fixed-width est-vs-observed table, one line per operator."""
        lines = [
            f"{'id':>3}  {'operator':<20} {'est_rows':>10} {'act_rows':>10} "
            f"{'q_error':>8}"
        ]
        depths = _depths(self.plan)
        for op in self.operators:
            name = "  " * depths[op.node_id] + op.algorithm
            est = f"{op.estimated_rows:.0f}" if op.estimated_rows is not None else "-"
            act = str(op.actual_rows) if op.actual_rows is not None else "-"
            qerr = f"{op.q_error:.2f}" if op.q_error is not None else "-"
            lines.append(
                f"{op.node_id:>3}  {name:<20} {est:>10} {act:>10} {qerr:>8}"
            )
        lines.append(f"plan max q-error: {self.max_q_error:.2f}")
        return "\n".join(lines)


def _depths(plan: PhysicalPlan) -> Dict[int, int]:
    """Pre-order node id -> tree depth, for indented rendering."""
    depths: Dict[int, int] = {}
    counter = [0]

    def visit(node: PhysicalPlan, depth: int) -> None:
        depths[counter[0]] = depth
        counter[0] += 1
        for child in node.inputs:
            visit(child, depth + 1)

    visit(plan, 0)
    return depths


def observed_report(
    plan: PhysicalPlan,
    stats: ExecutionStats,
    *,
    degraded: bool = False,
    rebound: bool = False,
) -> FeedbackReport:
    """Join ``plan``'s estimates with an instrumented run's counters.

    Each node's estimate is the cardinality of the logical properties it
    carries (None when it carries none).  ``stats`` must come from an
    ``instrument=True`` execution of this exact plan — node ids are
    pre-order positions, so estimate and observation line up
    positionally.  ``degraded`` marks reports from plans produced under
    resource pressure; ``rebound`` marks a plan-cache template hit, whose
    nodes carry the estimates of the cached optimization's literals, not
    of the literals bound into it.  Stores keep both kinds' q-error
    telemetry but never let them trigger statistics refresh.
    """
    leaves: Dict[int, Optional[PhysicalPlan]] = {}
    _sole_leaves(plan, leaves)
    operators: List[OperatorFeedback] = []
    for node_id, node in enumerate(plan.walk()):
        table, alias, predicate = _node_details(node, leaves[id(node)])
        operators.append(
            OperatorFeedback(
                node_id=node_id,
                algorithm=node.algorithm,
                is_enforcer=node.is_enforcer,
                table=table,
                alias=alias,
                predicate=predicate,
                estimated_rows=(
                    node.logical.cardinality if node.logical is not None else None
                ),
                actual_rows=stats.node_rows.get(node_id),
                scanned_rows=stats.node_scan_rows.get(node_id),
                scan_complete=stats.node_scan_complete.get(node_id, False),
            )
        )
    return FeedbackReport(
        plan=plan, operators=tuple(operators), degraded=degraded, rebound=rebound
    )
