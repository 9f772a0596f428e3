"""Predicate and scalar-expression trees for selections and joins.

Predicates are the operator *arguments* the paper's rule language carries
around opaquely; they must therefore be immutable and hashable so that
logical expressions (and memo keys derived from them) are hashable.

The mini-language is deliberately small: column references, literals,
binary comparisons, and boolean connectives — enough for the paper's
select–join workloads, the SQL front-end, and the executor.

Predicates ride inside operator-argument tuples, so they are hashed on
every memo insertion and rule-application fingerprint.  The composite
classes therefore cache their structural hash (and the derived
``columns()`` sets the rewrite rules query constantly) per instance;
caches are process-local and stripped on pickling (string hashes are
randomized per process).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.errors import PredicateError

__all__ = [
    "Scalar",
    "ColumnRef",
    "Literal",
    "ComparisonOp",
    "Predicate",
    "Comparison",
    "Conjunction",
    "Disjunction",
    "Negation",
    "TruePredicate",
    "TRUE",
    "col",
    "lit",
    "eq",
    "conjunction_of",
    "split_conjuncts",
    "equi_join_pairs",
]


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


def _cached_hash(self) -> int:
    """Shared ``__hash__`` body: structural hash computed once per instance.

    Classes opting in set ``_hash_fields`` and assign
    ``__hash__ = _cached_hash`` in their body (an explicit ``__hash__``
    stops ``@dataclass`` from generating its own).  The hash mixes the
    class name so structurally identical nodes of different classes
    stay distinct, matching the generated ``__eq__``'s class check.
    """
    try:
        return self._hash  # one instance-dict probe once cached
    except AttributeError:
        pass
    fields = tuple([getattr(self, name) for name in self._hash_fields])
    cached = hash((type(self).__name__, fields))
    object.__setattr__(self, "_hash", cached)
    return cached


class _PickleWithoutCaches:
    """Strip per-instance caches (``_hash`` etc.) on pickling.

    Cached hashes are process-local (string hashing is randomized per
    process); one loaded from a pickle in another process would poison
    that process's hash tables.  Dropping every underscore key restores
    the lazy caches to their unset state on the other side.
    """

    def __getstate__(self):
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_")
        }

    def __setstate__(self, state):
        self.__dict__.update(state)


class Scalar(_PickleWithoutCaches):
    """Base class for scalar expressions (column references and literals)."""

    def columns(self) -> FrozenSet[str]:
        """The set of column names this expression references."""
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, object]):
        """Evaluate this expression against a row (a name → value mapping)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Scalar):
    """A reference to a column by (possibly qualified) name."""

    name: str

    _hash_fields = ("name",)
    __hash__ = _cached_hash

    def columns(self) -> FrozenSet[str]:
        """The singleton set of this column's name."""
        return frozenset((self.name,))

    def evaluate(self, row: Mapping[str, object]):
        """The row's value for this column."""
        try:
            return row[self.name]
        except KeyError:
            raise PredicateError(f"row has no column {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Scalar):
    """A constant value."""

    value: object

    def columns(self) -> FrozenSet[str]:
        """Literals reference no columns."""
        return frozenset()

    def evaluate(self, row: Mapping[str, object]):
        """The constant itself."""
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return repr(self.value)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class ComparisonOp(enum.Enum):
    """Binary comparison operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def apply(self, left, right) -> bool:
        """Evaluate ``left <op> right``."""
        if self is ComparisonOp.EQ:
            return left == right
        if self is ComparisonOp.NE:
            return left != right
        if self is ComparisonOp.LT:
            return left < right
        if self is ComparisonOp.LE:
            return left <= right
        if self is ComparisonOp.GT:
            return left > right
        return left >= right

    @property
    def flipped(self) -> "ComparisonOp":
        """The operator with its operands swapped (``a < b`` → ``b > a``)."""
        return _FLIPPED[self]


_FLIPPED = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}


class Predicate(_PickleWithoutCaches):
    """Base class for boolean predicates."""

    def columns(self) -> FrozenSet[str]:
        """The set of column names this predicate references."""
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """Whether the predicate holds for ``row``."""
        raise NotImplementedError

    def conjuncts(self) -> Tuple["Predicate", ...]:
        """This predicate split into top-level AND-ed conjuncts."""
        return (self,)

    @property
    def is_true(self) -> bool:
        return False


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate; the argument of a cross product join."""

    def columns(self) -> FrozenSet[str]:
        """TRUE references no columns."""
        return frozenset()

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """Always true."""
        return True

    def conjuncts(self) -> Tuple[Predicate, ...]:
        """TRUE contributes no conjuncts."""
        return ()

    @property
    def is_true(self) -> bool:
        return True

    def __str__(self) -> str:
        return "true"


TRUE = TruePredicate()


@dataclass(frozen=True)
class Comparison(Predicate):
    """A binary comparison between two scalar expressions."""

    op: ComparisonOp
    left: Scalar
    right: Scalar

    _hash_fields = ("op", "left", "right")
    __hash__ = _cached_hash

    def columns(self) -> FrozenSet[str]:
        """Columns referenced on either side (computed once per instance)."""
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = self.left.columns() | self.right.columns()
            object.__setattr__(self, "_columns", cached)
        return cached

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """Apply the comparison to the row's values."""
        return self.op.apply(self.left.evaluate(row), self.right.evaluate(row))

    def column_pair(self) -> Optional[Tuple[str, str]]:
        """``(left_col, right_col)`` when this compares two columns, else None."""
        if isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef):
            return (self.left.name, self.right.name)
        return None

    def column_literal(self) -> Optional[Tuple[str, ComparisonOp, object]]:
        """``(column, op, value)`` when this compares a column to a literal.

        The comparison is normalized so the column is on the left.
        """
        if isinstance(self.left, ColumnRef) and isinstance(self.right, Literal):
            return (self.left.name, self.op, self.right.value)
        if isinstance(self.left, Literal) and isinstance(self.right, ColumnRef):
            return (self.right.name, self.op.flipped, self.left.value)
        return None

    def __str__(self) -> str:
        cached = self.__dict__.get("_str")
        if cached is None:
            cached = f"{self.left} {self.op.value} {self.right}"
            object.__setattr__(self, "_str", cached)
        return cached


@dataclass(frozen=True)
class Conjunction(Predicate):
    """The AND of two or more predicates, flattened and deduplicated."""

    parts: Tuple[Predicate, ...]

    _hash_fields = ("parts",)
    __hash__ = _cached_hash

    def __post_init__(self):
        if len(self.parts) < 2:
            raise PredicateError("a conjunction needs at least two parts")

    def columns(self) -> FrozenSet[str]:
        """Union of the parts' columns (computed once per instance)."""
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = frozenset()
            for part in self.parts:
                cached |= part.columns()
            object.__setattr__(self, "_columns", cached)
        return cached

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """True when every part holds."""
        return all(part.evaluate(row) for part in self.parts)

    def conjuncts(self) -> Tuple[Predicate, ...]:
        """The flattened parts (computed once per instance)."""
        cached = self.__dict__.get("_conjuncts")
        if cached is None:
            result = []
            for part in self.parts:
                result.extend(part.conjuncts())
            cached = tuple(result)
            object.__setattr__(self, "_conjuncts", cached)
        return cached

    def __str__(self) -> str:
        return " and ".join(
            f"({part})" if isinstance(part, Disjunction) else str(part)
            for part in self.parts
        )


@dataclass(frozen=True)
class Disjunction(Predicate):
    """The OR of two or more predicates."""

    parts: Tuple[Predicate, ...]

    _hash_fields = ("parts",)
    __hash__ = _cached_hash

    def __post_init__(self):
        if len(self.parts) < 2:
            raise PredicateError("a disjunction needs at least two parts")

    def columns(self) -> FrozenSet[str]:
        """Union of the parts' columns (computed once per instance)."""
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = frozenset()
            for part in self.parts:
                cached |= part.columns()
            object.__setattr__(self, "_columns", cached)
        return cached

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """True when any part holds."""
        return any(part.evaluate(row) for part in self.parts)

    def __str__(self) -> str:
        return " or ".join(str(part) for part in self.parts)


@dataclass(frozen=True)
class Negation(Predicate):
    """The NOT of a predicate."""

    part: Predicate

    _hash_fields = ("part",)
    __hash__ = _cached_hash

    def columns(self) -> FrozenSet[str]:
        """Columns of the negated predicate."""
        return self.part.columns()

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """True when the inner predicate does not hold."""
        return not self.part.evaluate(row)

    def __str__(self) -> str:
        return f"not ({self.part})"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(left, right) -> Comparison:
    """Equality comparison; strings become column refs, others literals."""
    return Comparison(ComparisonOp.EQ, _as_scalar(left), _as_scalar(right))


def _as_scalar(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return ColumnRef(value)
    return Literal(value)


def conjunction_of(parts: Iterable[Predicate]) -> Predicate:
    """AND together predicates; () → TRUE, a single part is returned as-is.

    Conjuncts are flattened, deduplicated, and put in a canonical order so
    that the same logical predicate always produces the same value — this
    keeps the optimizer's hash table of expressions free of spurious
    duplicates when rules reassemble predicates in different orders.
    """
    flattened = []
    seen = set()
    for part in parts:
        for conjunct in part.conjuncts():
            if conjunct not in seen:
                seen.add(conjunct)
                flattened.append(conjunct)
    if not flattened:
        return TRUE
    if len(flattened) == 1:
        return flattened[0]
    flattened.sort(key=str)
    return Conjunction(tuple(flattened))


def split_conjuncts(
    predicate: Predicate, available: FrozenSet[str]
) -> Tuple[Predicate, Predicate]:
    """Split a predicate into (parts decidable on ``available``, the rest).

    The first element of the returned pair is the conjunction of those
    top-level conjuncts that reference only columns in ``available``; the
    second is the conjunction of the remaining conjuncts.  This is the
    routing primitive the join associativity rule uses to move predicate
    parts to the join where their columns first become available.
    """
    inside, outside = [], []
    for conjunct in predicate.conjuncts():
        if conjunct.columns() <= available:
            inside.append(conjunct)
        else:
            outside.append(conjunct)
    return conjunction_of(inside), conjunction_of(outside)


def equi_join_pairs(
    predicate: Predicate,
    left_columns: FrozenSet[str],
    right_columns: FrozenSet[str],
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Extract equi-join key pairs ``((l, r), …)`` from a join predicate.

    Returns None when any conjunct is not an equality between one column
    from each side — i.e. when the predicate is not a pure equi-join, in
    which case merge join and hash join do not apply.
    """
    pairs = []
    for conjunct in predicate.conjuncts():
        if not isinstance(conjunct, Comparison) or conjunct.op is not ComparisonOp.EQ:
            return None
        pair = conjunct.column_pair()
        if pair is None:
            return None
        left_name, right_name = pair
        if left_name in left_columns and right_name in right_columns:
            pairs.append((left_name, right_name))
        elif right_name in left_columns and left_name in right_columns:
            pairs.append((right_name, left_name))
        else:
            return None
    if not pairs:
        return None
    return tuple(pairs)
