"""Immutable logical-algebra expression trees (the optimizer's input).

"The user queries to be optimized by a generated optimizer are specified
as an algebra expression (tree) of logical operators.  […]  Operators can
have zero or more inputs; the number of inputs is not restricted."
(paper, Section 2.2)

Expressions are frozen and hashable; the memo derives its hash-table keys
from them.  Because expression trees are hashed constantly on the search
hot path (every memo insertion, every rule-application fingerprint), the
structural hash is computed once at construction and cached — ``hash()``
on an expression is a single attribute read, and equality checks bail out
early on hash mismatch before comparing structure.  Cached hashes are
process-local (Python randomizes string hashes per process), so pickling
drops them and unpickling recomputes.

Two special pseudo-operators support the rule machinery:

* ``GROUP_LEAF`` — a leaf that refers to a memo group by id.  Rule rewrite
  results are expressed over such leaves when matching inside the memo.
* no other pseudo-operators exist; plain trees never contain leaves.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Callable, Iterator, Tuple

from repro.errors import AlgebraError

__all__ = ["LogicalExpression", "GROUP_LEAF", "group_leaf", "is_group_leaf"]

GROUP_LEAF = "$group"
"""Operator name of a leaf referring to a memo group (rule-internal)."""


class LogicalExpression:
    """A node of a logical algebra expression tree.

    ``operator``
        The logical operator's name, as declared in the model
        specification (e.g. ``"join"``).
    ``args``
        Operator arguments as a hashable tuple — e.g. ``(predicate,)``
        for a select, ``(table_name,)`` for a get.  The framework treats
        them opaquely, exactly as the paper treats operator arguments.
    ``inputs``
        Input expressions; empty for leaves.

    Equality is structural; the hash is precomputed at construction so
    repeated hashing (the memo's hot path) costs one attribute read.
    A frozen value, slotted and filled through its slot descriptors
    (every rewrite builds several); pickling rebuilds through the
    constructor, so the hash is recomputed wherever a pickle is loaded.
    """

    __slots__ = ("operator", "args", "inputs", "_hash")

    operator: str
    args: Tuple
    inputs: Tuple["LogicalExpression", ...]
    _hash: int

    def __init__(
        self,
        operator: str,
        args: Tuple = (),
        inputs: Tuple["LogicalExpression", ...] = (),
    ):
        if not operator:
            raise AlgebraError("operator name must be non-empty")
        if type(args) is not tuple:
            args = tuple(args)
        if type(inputs) is not tuple:
            inputs = tuple(inputs)
        for node in inputs:
            if not isinstance(node, LogicalExpression):
                raise AlgebraError(
                    f"inputs of {operator!r} must be LogicalExpression, "
                    f"got {type(node).__name__}"
                )
        _set_operator(self, operator)
        _set_args(self, args)
        _set_inputs(self, inputs)
        _set_hash(self, hash((operator, args, inputs)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # String hashes are randomized per process: rebuilding through
        # the constructor recomputes the hash wherever the pickle loads.
        return (type(self), (self.operator, self.args, self.inputs))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LogicalExpression):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.operator == other.operator
            and self.args == other.args
            and self.inputs == other.inputs
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(operator={self.operator!r}, "
            f"args={self.args!r}, inputs={self.inputs!r})"
        )

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def is_leaf(self) -> bool:
        return not self.inputs

    def walk(self) -> Iterator["LogicalExpression"]:
        """Pre-order traversal of the tree."""
        yield self
        for node in self.inputs:
            yield from node.walk()

    def count_nodes(self) -> int:
        """Number of nodes in this tree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the tree (a leaf has depth 1)."""
        if not self.inputs:
            return 1
        return 1 + max(node.depth() for node in self.inputs)

    def with_inputs(self, inputs: Tuple["LogicalExpression", ...]) -> "LogicalExpression":
        """This node with the same operator and args over new inputs."""
        return LogicalExpression(self.operator, self.args, tuple(inputs))

    def map_leaves(
        self, transform: Callable[["LogicalExpression"], "LogicalExpression"]
    ) -> "LogicalExpression":
        """Rebuild the tree with every leaf replaced by ``transform(leaf)``."""
        if self.is_leaf:
            return transform(self)
        return self.with_inputs(tuple(node.map_leaves(transform) for node in self.inputs))

    def to_sexpr(self) -> str:
        """Compact s-expression rendering, e.g. ``(join [p] (get R) (get S))``."""
        parts = [self.operator]
        if self.args:
            rendered = ", ".join(str(arg) for arg in self.args)
            parts.append(f"[{rendered}]")
        parts.extend(node.to_sexpr() for node in self.inputs)
        return "(" + " ".join(parts) + ")"

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering for humans."""
        pad = "  " * indent
        line = pad + self.operator
        if self.args:
            line += " [" + ", ".join(str(arg) for arg in self.args) + "]"
        lines = [line]
        for node in self.inputs:
            lines.append(node.pretty(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_sexpr()


_set_operator = LogicalExpression.operator.__set__  # type: ignore[attr-defined]
_set_args = LogicalExpression.args.__set__  # type: ignore[attr-defined]
_set_inputs = LogicalExpression.inputs.__set__  # type: ignore[attr-defined]
_set_hash = LogicalExpression._hash.__set__  # type: ignore[attr-defined]

_GROUP_LEAVES: dict = {}


def group_leaf(group_id: int) -> LogicalExpression:
    """A leaf expression referring to memo group ``group_id``.

    Leaves are interned: the same group id always returns the identical
    object, so the rule machinery's binding fingerprints (which contain
    group leaves) hash and compare at pointer speed.  The table is tiny —
    one entry per distinct group id ever referenced — and group ids are
    small consecutive integers, so it is kept for the process lifetime.
    """
    leaf = _GROUP_LEAVES.get(group_id)
    if leaf is None:
        leaf = LogicalExpression(GROUP_LEAF, (group_id,))
        _GROUP_LEAVES[group_id] = leaf
    return leaf


def is_group_leaf(expression: LogicalExpression) -> bool:
    """True when ``expression`` is a memo-group reference leaf."""
    return expression.operator == GROUP_LEAF
