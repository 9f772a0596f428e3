"""EXPLAIN-style reports for optimized plans.

Renders what a DBA would want from the optimizer's output: per-operator
estimated rows, delivered physical properties, local vs. cumulative
cost, plus the search statistics of the optimization that produced the
plan.  When a :class:`~repro.feedback.FeedbackReport` from an
instrumented execution is supplied, the report grows ``est_rows``,
``act_rows``, and ``q_error`` columns — EXPLAIN ANALYZE, essentially:
the optimizer's beliefs next to what actually happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.algebra.plans import PhysicalPlan
from repro.search.engine import OptimizationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.feedback.report import FeedbackReport

__all__ = ["ExplainLine", "explain_plan", "explain"]


@dataclass
class ExplainLine:
    """One rendered operator of the plan.

    The three feedback fields are populated only when the plan is
    explained against a :class:`~repro.feedback.FeedbackReport`;
    ``has_feedback`` switches the rendering to include them.
    """

    depth: int
    algorithm: str
    args: str
    properties: str
    cumulative: float
    local: Optional[float]
    est_rows: Optional[float] = None
    act_rows: Optional[int] = None
    q_error: Optional[float] = None
    has_feedback: bool = False

    def render(self, width: int) -> str:
        """One aligned output line for this operator."""
        name = "  " * self.depth + self.algorithm
        if self.args:
            name += f" [{self.args}]"
        local = f"{self.local:>12.1f}" if self.local is not None else " " * 12
        properties = self.properties or "-"
        line = f"{name:<{width}}  {self.cumulative:>12.1f}  {local}"
        if self.has_feedback:
            est = f"{self.est_rows:.0f}" if self.est_rows is not None else "-"
            act = str(self.act_rows) if self.act_rows is not None else "-"
            qerr = f"{self.q_error:.2f}" if self.q_error is not None else "-"
            line += f"  {est:>10}  {act:>10}  {qerr:>8}"
        return f"{line}  {properties}"


def explain_plan(
    plan: PhysicalPlan, feedback: Optional["FeedbackReport"] = None
) -> str:
    """A table of the plan: operator, costs, props — and, given a
    feedback report, estimated vs. observed rows with per-operator
    q-error.

    ``feedback`` must be a report built for this exact plan (node ids
    are pre-order positions, so lines and feedback entries join
    positionally).
    """
    lines: List[ExplainLine] = []
    operators = (
        {op.node_id: op for op in feedback.operators}
        if feedback is not None
        else {}
    )
    counter = [0]

    def visit(node: PhysicalPlan, depth: int) -> None:
        node_id = counter[0]
        counter[0] += 1
        op = operators.get(node_id)
        lines.append(
            ExplainLine(
                depth=depth,
                algorithm=node.algorithm + (" (enforcer)" if node.is_enforcer else ""),
                args=", ".join(str(a) for a in node.args),
                properties=str(node.properties) if not node.properties.is_any else "",
                cumulative=node.cost.total() if node.cost is not None else 0.0,
                local=node.local.total() if node.local is not None else None,
                est_rows=op.estimated_rows if op is not None else None,
                act_rows=op.actual_rows if op is not None else None,
                q_error=op.q_error if op is not None else None,
                has_feedback=feedback is not None,
            )
        )
        for child in node.inputs:
            visit(child, depth + 1)

    visit(plan, 0)
    width = max(
        len("operator"),
        max(
            len("  " * line.depth + line.algorithm)
            + (len(line.args) + 3 if line.args else 0)
            for line in lines
        ),
    )
    header = f"{'operator':<{width}}  {'cum. cost':>12}  {'local cost':>12}"
    if feedback is not None:
        header += f"  {'est_rows':>10}  {'act_rows':>10}  {'q_error':>8}"
    header += "  properties"
    rule = "-" * len(header)
    rendered = [header, rule] + [line.render(width) for line in lines]
    if feedback is not None:
        rendered.append(f"plan max q-error: {feedback.max_q_error:.2f}")
    return "\n".join(rendered)


def explain(
    result: OptimizationResult, feedback: Optional["FeedbackReport"] = None
) -> str:
    """Explain an optimization result: the plan plus search statistics."""
    parts = [
        f"goal: [{result.required}]   total cost: {result.cost}",
        "",
        explain_plan(result.plan, feedback),
        "",
        f"search: {result.stats}",
    ]
    return "\n".join(parts)
