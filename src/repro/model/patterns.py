"""Tree patterns for transformation and implementation rules.

A pattern is a small tree of :class:`OpPattern` nodes (which must match a
specific logical operator) and :class:`AnyPattern` leaves (which match any
subexpression and bind it to a name).  Matching works in two contexts:

* against a plain :class:`LogicalExpression` tree (used by the EXODUS
  baseline and by tests) — each ``AnyPattern`` binds the actual subtree;
* against the memo — the top node is matched against a group expression
  and nested ``OpPattern`` nodes are matched against *every* expression of
  the corresponding input group, yielding one binding per combination
  (this is how the paper's rule "Figure 3: associativity" sees through
  equivalence classes).  ``AnyPattern`` leaves bind ``group_leaf`` markers.

``OpPattern.args_as`` binds the matched node's argument tuple, making it
available to condition code and rewrite functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.algebra.expressions import LogicalExpression, group_leaf
from repro.errors import PatternError

__all__ = [
    "Pattern",
    "OpPattern",
    "AnyPattern",
    "Binding",
    "match_tree",
    "match_memo",
    "pattern_leaves",
    "validate_pattern",
]


Binding = Dict[str, object]
"""Maps ``AnyPattern`` names to expressions and ``args_as`` names to tuples."""


class Pattern:
    """Base class for pattern nodes."""


@dataclass(frozen=True)
class AnyPattern(Pattern):
    """Matches any subexpression and binds it under ``name``."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise PatternError("AnyPattern needs a non-empty name")

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class OpPattern(Pattern):
    """Matches a node with a specific logical operator.

    ``args_as`` optionally binds the matched node's args tuple.

    Construction compiles the pattern into the flat plan
    :func:`match_memo` walks: ``(head, loops)``, where ``head`` lists the
    top node's bindings as ``(name, input index)`` pairs (index ``None``
    binds the args) and each loop is ``(source level, source index,
    operator, arity, bindings)`` — one per nested ``OpPattern``, in
    pre-order, each nested inside the ones before it.  A loop's
    bindings are ``(name, level, index)`` triples read from the top
    node (level 0) or the expression loop ``level`` stands on.
    """

    operator: str
    inputs: Tuple[Pattern, ...] = ()
    args_as: Optional[str] = None

    def __post_init__(self):
        if not self.operator:
            raise PatternError("OpPattern needs an operator name")
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "_plan", _compile_match_plan(self))

    def __str__(self) -> str:
        parts = [self.operator]
        if self.args_as:
            parts.append(f"[?{self.args_as}]")
        parts.extend(str(p) for p in self.inputs)
        return "(" + " ".join(parts) + ")"


def _compile_match_plan(pattern: OpPattern) -> Tuple[tuple, tuple]:
    """The ``(head, loops)`` match plan of ``pattern`` (see :class:`OpPattern`).

    Nodes are visited in pre-order, a nested node's inputs before its
    right siblings, which is the order the bindings' keys take.
    """
    head: List[tuple] = [] if pattern.args_as is None else [(pattern.args_as, None)]
    loops: List[tuple] = []
    actions: List[tuple] = head
    todo = [(node, 0, index) for index, node in enumerate(pattern.inputs)]
    while todo:
        node, level, index = todo.pop(0)
        if isinstance(node, AnyPattern):
            if actions is head:
                head.append((node.name, index))
            else:
                actions.append((node.name, level, index))
        elif isinstance(node, OpPattern):
            nested = len(loops) + 1
            actions = [] if node.args_as is None else [(node.args_as, nested, None)]
            loops.append((level, index, node.operator, len(node.inputs), actions))
            todo[:0] = [(sub, nested, i) for i, sub in enumerate(node.inputs)]
        # Anything else is not a pattern node; validate_pattern rejects it.
    return tuple(head), tuple(
        (level, index, operator, arity, tuple(actions))
        for level, index, operator, arity, actions in loops
    )


def pattern_leaves(pattern: Pattern) -> Tuple[str, ...]:
    """Names of the ``AnyPattern`` leaves in left-to-right order."""
    if isinstance(pattern, AnyPattern):
        return (pattern.name,)
    names: Tuple[str, ...] = ()
    for sub in pattern.inputs:
        names += pattern_leaves(sub)
    return names


def validate_pattern(pattern: Pattern) -> None:
    """Reject duplicate binding names and non-Pattern nodes."""
    seen = set()

    def visit(node):
        if isinstance(node, AnyPattern):
            if node.name in seen:
                raise PatternError(f"duplicate pattern binding name: {node.name!r}")
            seen.add(node.name)
            return
        if not isinstance(node, OpPattern):
            raise PatternError(f"not a pattern node: {node!r}")
        if node.args_as is not None:
            if node.args_as in seen:
                raise PatternError(f"duplicate pattern binding name: {node.args_as!r}")
            seen.add(node.args_as)
        for sub in node.inputs:
            visit(sub)

    visit(pattern)


# ---------------------------------------------------------------------------
# Matching against a plain expression tree
# ---------------------------------------------------------------------------


def match_tree(pattern: Pattern, expression: LogicalExpression) -> Optional[Binding]:
    """Match a pattern against a plain tree; returns one binding or None."""
    binding: Binding = {}
    if _match_tree_into(pattern, expression, binding):
        return binding
    return None


def _match_tree_into(pattern, expression, binding) -> bool:
    if isinstance(pattern, AnyPattern):
        binding[pattern.name] = expression
        return True
    if pattern.operator != expression.operator:
        return False
    if len(pattern.inputs) != len(expression.inputs):
        return False
    if pattern.args_as is not None:
        binding[pattern.args_as] = expression.args
    return all(
        _match_tree_into(sub, node, binding)
        for sub, node in zip(pattern.inputs, expression.inputs)
    )


# ---------------------------------------------------------------------------
# Matching inside the memo
# ---------------------------------------------------------------------------


def match_memo(
    pattern: OpPattern,
    operator: str,
    args: Tuple,
    input_groups: Tuple[int, ...],
    expressions_of: Callable[[int], Iterator],
) -> Iterator[Binding]:
    """Match a pattern against a memo group expression.

    ``expressions_of(group_id)`` must yield the group's expressions as
    ``(operator, args, input_groups)`` triples.  Each yielded binding maps
    leaf names to ``group_leaf`` expressions and ``args_as`` names to
    argument tuples.  The caller (the search engine) is responsible for
    exploring input groups before matching, so that every equivalent
    expression is visible to nested pattern nodes.

    The walk follows the pattern's compiled plan (see
    :class:`OpPattern`): the top node's bindings, then one loop per
    nested ``OpPattern`` node, innermost last, each entered lazily when
    the loops around it have matched — so a rule fired mid-enumeration
    is seen by the loops still to run.
    """
    if pattern.operator != operator or len(pattern.inputs) != len(input_groups):
        return
    head, loops = pattern._plan  # type: ignore[attr-defined]
    binding: Binding = {}
    for name, index in head:
        binding[name] = args if index is None else group_leaf(input_groups[index])
    if not loops:
        yield binding
        return
    # scopes[k] is the (args, input groups) of level k: 0 is the top node,
    # k the expression loop k currently stands on.
    scopes: List[Tuple[Tuple, Tuple[int, ...]]] = [(args, input_groups)]
    pending = [iter(expressions_of(input_groups[loops[0][1]]))]
    innermost = len(loops)
    while pending:
        depth = len(pending)
        _, _, loop_operator, arity, actions = loops[depth - 1]
        for found_operator, found_args, found_groups in pending[-1]:
            if found_operator == loop_operator and len(found_groups) == arity:
                break
        else:
            pending.pop()
            continue
        del scopes[depth:]
        scopes.append((found_args, found_groups))
        for name, level, index in actions:
            level_args, level_groups = scopes[level]
            binding[name] = (
                level_args if index is None else group_leaf(level_groups[index])
            )
        if depth == innermost:
            # Keys keep the plan's order: each is first written in plan
            # order and later loops only overwrite values.
            yield dict(binding)
        else:
            source_level, source_index = loops[depth][0], loops[depth][1]
            pending.append(
                iter(expressions_of(scopes[source_level][1][source_index]))
            )
