"""Transformation and implementation rules.

"The algebraic rules of expression equivalence, e.g., commutativity or
associativity, are specified using transformation rules.  The possible
mappings of operators to algorithms are specified using implementation
rules.  […]  Beyond simple pattern matching of operators and algorithms,
additional conditions may be specified with both kinds of rules.  This is
done by attaching condition code to a rule, which will be invoked after a
pattern match has succeeded."  (paper, Section 2.2)

Rules are plain data plus callables; the optimizer generator compiles
them into dispatch tables indexed by top operator (the moral equivalent
of the paper's "all strings were translated into integers, which ensured
very fast pattern matching").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple, Union

from repro.algebra.expressions import LogicalExpression
from repro.errors import RuleError
from repro.model.patterns import (
    Binding,
    OpPattern,
    pattern_leaves,
    validate_pattern,
)

__all__ = ["TransformationRule", "ImplementationRule"]


RewriteResult = Union[LogicalExpression, List[LogicalExpression], None]


@dataclass
class TransformationRule:
    """An algebraic equivalence: *pattern* ⇒ *rewrite(binding)*.

    ``rewrite``
        Called with the match binding and the optimizer context; returns a
        new logical expression (or a list of them, or None to decline).
        Leaves of the returned expression are the bound subexpressions
        taken from the binding, so the same rule works both on plain trees
        and inside the memo.
    ``condition``
        Optional condition code, invoked after the pattern match succeeds.
    ``promise``
        Relative desirability used to order moves (Section 3: "order the
        set of moves by promise").
    ``factor``
        The EXODUS-style *expected cost improvement factor*; the EXODUS
        baseline orders its forward-chaining queue by
        ``factor × current cost`` exactly as the paper describes (and
        criticizes).  Unused by the Volcano engine.
    ``disables`` / ``inherits``
        The rule's *mask* declaration (duplicate-free rule sets, after
        Pellenkoft, Galindo-Legaria & Kersten): a member this rule
        produces from source member ``S`` is masked against
        ``disables | (mask(S) & inherits)`` — rule names whose firing on
        the product can only re-derive members the class already holds.
        Query members and the inner nodes of a rewrite's output carry
        the empty mask.  The engine applies masks only where the model's
        ``masks_complete`` hook vouches for them (see
        :class:`~repro.model.spec.ModelSpecification`).
    """

    name: str
    pattern: OpPattern
    rewrite: Callable[[Binding, object], RewriteResult]
    condition: Optional[Callable[[Binding, object], bool]] = None
    promise: float = 1.0
    factor: float = 1.0
    disables: FrozenSet[str] = frozenset()
    inherits: FrozenSet[str] = frozenset()

    def __post_init__(self):
        if not self.name:
            raise RuleError("transformation rule needs a name")
        self.disables = frozenset(self.disables)
        self.inherits = frozenset(self.inherits)
        if not isinstance(self.pattern, OpPattern):
            raise RuleError(
                f"rule {self.name!r}: the pattern root must be an OpPattern"
            )
        validate_pattern(self.pattern)

    @property
    def top_operator(self) -> str:
        return self.pattern.operator

    def applies(self, binding: Binding, context) -> bool:
        """Run the rule's condition code (True when absent)."""
        if self.condition is None:
            return True
        return bool(self.condition(binding, context))

    def __str__(self) -> str:
        return f"{self.name}: {self.pattern}"


@dataclass
class ImplementationRule:
    """A mapping from logical operator(s) to a physical algorithm.

    Patterns deeper than one level implement the paper's "complex
    mappings", e.g. a join followed by a projection implemented by a
    single physical operator: the plan node consumes the pattern's
    ``AnyPattern`` leaves as inputs, in left-to-right order.

    ``build_args``
        Computes the plan node's argument tuple from the binding; by
        default the matched top node's args are used unchanged.
    """

    name: str
    pattern: OpPattern
    algorithm: str
    condition: Optional[Callable[[Binding, object], bool]] = None
    build_args: Optional[Callable[[Binding, object], Tuple]] = None
    promise: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise RuleError("implementation rule needs a name")
        if not self.algorithm:
            raise RuleError(f"rule {self.name!r}: algorithm name missing")
        if not isinstance(self.pattern, OpPattern):
            raise RuleError(
                f"rule {self.name!r}: the pattern root must be an OpPattern"
            )
        validate_pattern(self.pattern)
        #: Leaf names supplying the algorithm's inputs, left to right
        #: (read on every binding, so computed once here).
        self.input_names: Tuple[str, ...] = pattern_leaves(self.pattern)

    @property
    def top_operator(self) -> str:
        return self.pattern.operator

    def applies(self, binding: Binding, context) -> bool:
        """Run the rule's condition code (True when absent)."""
        if self.condition is None:
            return True
        return bool(self.condition(binding, context))

    def __str__(self) -> str:
        return f"{self.name}: {self.pattern} -> {self.algorithm}"
