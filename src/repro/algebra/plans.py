"""Physical plan trees (the optimizer's output).

"The output of the optimizer is a plan, which is an expression over the
algebra of algorithms."  (paper, Section 2.2)

Plan nodes are frozen; the engine annotates each node with the physical
properties it delivers and its *cumulative* cost (node + inputs), which
makes branch-and-bound accounting and the paper's consistency check
("the physical properties of a chosen plan really do satisfy the
physical property vector") straightforward.  Each node also carries the
logical properties and the local cost it was priced with, and the
implementation rule or enforcer goal that placed it, so feedback,
EXPLAIN, certificates and the multi-query sharing pass read the
optimizer's own beliefs instead of deriving them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.algebra.properties import ANY_PROPS, LogicalProperties, PhysProps
from repro.errors import AlgebraError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.cost import Cost

__all__ = ["PhysicalPlan"]


@dataclass(frozen=True)
class PhysicalPlan:
    """A node of a physical plan tree.

    ``algorithm``
        The algorithm or enforcer name, as declared in the model
        specification (e.g. ``"merge_join"`` or ``"sort"``).
    ``args``
        Algorithm arguments (predicate, table name, sort keys, …).
    ``inputs``
        Input plans.
    ``properties``
        The physical properties this plan delivers.
    ``cost``
        Cumulative cost of this node and everything below it.
    ``is_enforcer``
        True when this node is an enforcer rather than a query
        processing algorithm; enforcers perform no logical data
        manipulation (paper Section 2.2).
    ``logical``
        The logical properties (schema, cardinality) of the equivalence
        class this node computes: the very object its cost function was
        evaluated over.  None on hand-built plans.
    ``local``
        This node's own cost term, without its inputs: what the cost
        function returned.  None on hand-built plans.
    ``rule``
        The implementation rule whose move built this algorithm node.
        None on enforcers, on nodes the sharing pass makes, and on
        nodes the memo-less engines (EXODUS, System R) build.
    ``required``
        The goal an enforcer node was asked to deliver.  None on
        algorithm nodes and on nodes the memo-less engines build.

    These four are annotations, not identity: equality, hashing,
    :meth:`to_sexpr` and :meth:`pretty` ignore them.  A certificate's
    claim about a node is read off them
    (:func:`repro.verify.certificate.node_claim`).
    """

    algorithm: str
    args: Tuple = ()
    inputs: Tuple["PhysicalPlan", ...] = ()
    properties: PhysProps = ANY_PROPS
    cost: object = None
    is_enforcer: bool = False
    logical: Optional[LogicalProperties] = field(
        default=None, compare=False, repr=False
    )
    local: Optional["Cost"] = field(default=None, compare=False, repr=False)
    rule: Optional[str] = field(default=None, compare=False, repr=False)
    required: Optional[PhysProps] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.algorithm:
            raise AlgebraError("algorithm name must be non-empty")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        for node in self.inputs:
            if not isinstance(node, PhysicalPlan):
                raise AlgebraError(
                    f"inputs of {self.algorithm!r} must be PhysicalPlan, "
                    f"got {type(node).__name__}"
                )

    def walk(self) -> Iterator["PhysicalPlan"]:
        """Pre-order traversal."""
        yield self
        for node in self.inputs:
            yield from node.walk()

    def count_nodes(self) -> int:
        """Number of operators in this plan."""
        return sum(1 for _ in self.walk())

    def algorithms_used(self) -> Tuple[str, ...]:
        """Algorithm names in pre-order, useful for plan-shape assertions."""
        return tuple(node.algorithm for node in self.walk())

    def count_algorithm(self, algorithm: str) -> int:
        """How many times ``algorithm`` occurs in the plan."""
        return sum(1 for node in self.walk() if node.algorithm == algorithm)

    def leaf_args(self) -> Tuple[Tuple, ...]:
        """Args of the leaf nodes (e.g. scanned table names), left to right."""
        return tuple(node.args for node in self.walk() if not node.inputs)

    def to_sexpr(self) -> str:
        """Compact s-expression rendering of the plan."""
        parts = [self.algorithm]
        if self.args:
            rendered = ", ".join(str(arg) for arg in self.args)
            parts.append(f"[{rendered}]")
        parts.extend(node.to_sexpr() for node in self.inputs)
        return "(" + " ".join(parts) + ")"

    def pretty(self, indent: int = 0, with_cost: bool = True) -> str:
        """Multi-line rendering in the style optimizers print plans."""
        pad = "  " * indent
        line = pad + self.algorithm
        if self.args:
            line += " [" + ", ".join(str(arg) for arg in self.args) + "]"
        annotations = []
        if not self.properties.is_any:
            annotations.append(str(self.properties))
        if with_cost and self.cost is not None:
            annotations.append(f"cost {self.cost}")
        if annotations:
            line += "  {" + "; ".join(annotations) + "}"
        lines = [line]
        for node in self.inputs:
            lines.append(node.pretty(indent + 1, with_cost))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_sexpr()
