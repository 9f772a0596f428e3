"""The plan-provenance certificate: a machine-checkable derivation record.

A :class:`PlanCertificate` is the optimizer's *evidence* that a physical
plan follows from the model specification: which transformation rules
carried the input expression to the logical form the plan implements
(the *frontier*), which implementation rule or enforcer application
produced every plan node, and which cost terms were claimed along the
way.  :func:`repro.verify.verify_plan` re-checks all of it against the
specification alone — no memo, no engine state — in the spirit of
translation validation: the search may be arbitrarily clever, but the
emitted artifact must carry a proof a much simpler checker accepts.

Certificates are plain frozen dataclasses over the algebra's picklable
value types, so they survive pickling and plan caches unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.properties import LogicalProperties, PhysProps
from repro.model.cost import Cost

__all__ = [
    "KIND_SEARCH",
    "KIND_DEGRADED",
    "KIND_PRODUCER",
    "CERTIFICATE_KINDS",
    "DerivationStep",
    "NodeClaim",
    "PlanCertificate",
    "node_claim",
]

#: An ordinary winner: full derivation chain plus per-node claims.
KIND_SEARCH = "search"
#: A budget-tripped greedy fallback: claims are complete, but the
#: transformation chain may be absent — equivalence then rests on the
#: checker's normalizer instead of step replay.  Degraded plans must
#: never verify *vacuously*: every property and cost check still runs.
KIND_DEGRADED = "degraded"
#: A materialized shared subplan from the multi-query sharing pass; its
#: source *is* its frontier (the common subexpression it computes).
KIND_PRODUCER = "producer"

CERTIFICATE_KINDS = (KIND_SEARCH, KIND_DEGRADED, KIND_PRODUCER)


@dataclass(frozen=True)
class DerivationStep:
    """One transformation-rule application in the logical derivation.

    Steps rewrite a single working tree, starting from the certificate's
    ``source``: ``path`` addresses a subtree by child indexes from the
    root, ``rule`` names the transformation rule applied there, and
    ``after`` is the replacement subtree.  The checker re-matches the
    rule's pattern at ``path``, re-runs its condition, and demands that
    ``after`` be among the rule's own rewrite outputs — a step is either
    a lawful application or a P1xx violation.
    """

    rule: str
    path: Tuple[int, ...]
    after: LogicalExpression


@dataclass(frozen=True)
class NodeClaim:
    """What the optimizer claimed about one physical plan node.

    Claims are aligned with :meth:`~repro.algebra.plans.PhysicalPlan.walk`
    pre-order (shared subtrees of a rewritten batch plan repeat, once
    per occurrence).  ``rule`` names the implementation rule for
    algorithm nodes (None for enforcers and utility nodes the search
    did not place); ``required`` is the goal vector an enforcer was
    asked to deliver.  ``output``/``inputs`` are the *logical*
    properties the cost function was evaluated over — recording them
    makes cost reproduction exact instead of tolerance-based, while a
    separate consistency check (P205) ties them back to an independent
    derivation over the frontier.
    """

    algorithm: str
    local: Cost
    output: LogicalProperties
    inputs: Tuple[LogicalProperties, ...]
    rule: Optional[str] = None
    enforcer: bool = False
    required: Optional[PhysProps] = None


def node_claim(node) -> NodeClaim:
    """The claim a :class:`~repro.algebra.plans.PhysicalPlan` node makes,
    read off the node's own annotations.

    Exact for every node the Volcano engine and the sharing pass build; a
    hand-built node, which carries none, makes a claim the checker
    rejects.
    """
    return NodeClaim(
        node.algorithm,
        node.local,
        node.logical,
        tuple(child.logical for child in node.inputs),
        node.rule,
        node.is_enforcer,
        node.required,
    )


@dataclass(frozen=True)
class PlanCertificate:
    """The full provenance record attached to one optimized plan.

    ``source``
        The input logical expression the optimization started from.
    ``required``
        The goal's required physical-property vector.
    ``frontier``
        The logical expression the plan structurally implements — the
        endpoint of ``steps`` replayed from ``source``.
    ``steps``
        The transformation-rule chain proving source ⟶ frontier.
    ``claims``
        One :class:`NodeClaim` per plan node, ``walk()`` pre-order.
    ``claimed_cost``
        The total cost the optimizer reported for the plan.
    ``intermediates``
        For plans rewritten by the sharing pass: the logical frontier of
        each materialized intermediate, by name — what every
        ``scan_intermediate`` node must resolve against.
    ``engine``
        The producing engine's class name (informational).
    """

    kind: str
    source: LogicalExpression
    required: PhysProps
    frontier: LogicalExpression
    steps: Tuple[DerivationStep, ...]
    claims: Tuple[NodeClaim, ...]
    claimed_cost: Cost
    intermediates: Mapping[str, LogicalExpression] = field(default_factory=dict)
    engine: str = ""

    def describe(self) -> str:
        """A one-line human summary (kind, chain length, claim count)."""
        return (
            f"<{self.kind} certificate: {len(self.steps)} step(s), "
            f"{len(self.claims)} claim(s), cost {self.claimed_cost}>"
        )
