"""Logical properties and physical property vectors.

"Logical properties are attached to equivalence classes — sets of
equivalent logical expressions and plans — whereas physical properties
are attached to specific plans and algorithm choices."  (paper,
Section 2.2)

The search engine treats the physical property vector as an abstract data
type with equality and *cover* comparisons supplied by the model
specification.  :class:`PhysProps` is the batteries-included vector that
all bundled models use; a model may substitute any hashable type plus its
own cover function.

Sort keys are *sets* of equivalent column names: after a merge join on
``r.k = s.k`` the output is simultaneously sorted on ``r.k`` and ``s.k``,
so its sort key is ``{r.k, s.k}``.  A required key (usually a singleton)
is covered when it is a subset of the provided key.  This is how
optimizers exploit "interesting orderings" across joins on shared keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Optional, Tuple, Union

from repro.catalog.schema import Schema
from repro.catalog.statistics import ColumnStatistics
from repro.errors import AlgebraError

__all__ = [
    "SortKey",
    "sort_key",
    "Partitioning",
    "hash_partitioned",
    "PhysProps",
    "ANY_PROPS",
    "sorted_on",
    "LogicalProperties",
]


SortKey = FrozenSet[str]
"""A set of mutually equal column names defining one sort position."""


def sort_key(spec: Union[str, Iterable[str]]) -> SortKey:
    """Normalize a column name or iterable of equivalent names to a SortKey."""
    if isinstance(spec, str):
        return frozenset((spec,))
    key = frozenset(spec)
    if not key:
        raise AlgebraError("a sort key must name at least one column")
    return key


def _normalize_order(order: Iterable) -> Tuple[SortKey, ...]:
    return tuple(sort_key(item) for item in order)


@dataclass(frozen=True)
class Partitioning:
    """Horizontal partitioning across parallel processing nodes.

    ``scheme`` is a model-defined label (e.g. ``"hash"``, ``"range"``,
    ``"round_robin"``); ``keys`` are the partitioning columns (each a
    :data:`SortKey`-style equivalence set); ``degree`` is the number of
    partitions.  Two inputs of a parallel join are *compatible* when they
    use the same scheme and degree and their key columns are pairwise
    equivalent (paper Section 3: "any partitioning of join inputs across
    multiple processing nodes is acceptable if both inputs are partitioned
    using compatible partitioning rules").
    """

    scheme: str
    keys: Tuple[SortKey, ...] = ()
    degree: int = 1

    def __post_init__(self):
        object.__setattr__(self, "keys", _normalize_order(self.keys))
        if self.degree < 1:
            raise AlgebraError("partitioning degree must be at least 1")

    def satisfies(self, required: "Partitioning") -> bool:
        """True when data partitioned this way satisfies ``required``."""
        if self.scheme != required.scheme or self.degree != required.degree:
            return False
        if len(self.keys) != len(required.keys):
            return False
        return all(
            required_key <= provided_key
            for provided_key, required_key in zip(self.keys, required.keys)
        )

    def __str__(self) -> str:
        keys = ", ".join("|".join(sorted(key)) for key in self.keys)
        return f"{self.scheme}({keys})x{self.degree}"


def hash_partitioned(columns: Iterable, degree: int) -> Partitioning:
    """Hash partitioning on ``columns`` across ``degree`` nodes."""
    return Partitioning("hash", tuple(columns), degree)


@dataclass(frozen=True)
class PhysProps:
    """The default physical property vector.

    ``sort_order``
        Major-to-minor sort keys; empty means "no particular order".
    ``partitioning``
        How the data is spread across parallel nodes; None means the data
        is on a single node (serial).
    ``flags``
        Model-defined boolean-ish properties as ``(name, value)`` pairs,
        e.g. ``("assembled", True)`` for the OODB model's assembledness
        or ``("unique", True)`` for duplicate-free results.
    """

    sort_order: Tuple[SortKey, ...] = ()
    partitioning: Optional[Partitioning] = None
    flags: FrozenSet[Tuple[str, object]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "sort_order", _normalize_order(self.sort_order))
        object.__setattr__(self, "flags", frozenset(self.flags))
        # Property vectors are goal-key components: they are hashed on
        # every winner/failure lookup, so the structural hash is paid
        # once here.  Process-local; see __getstate__.
        object.__setattr__(
            self, "_hash", hash((self.sort_order, self.partitioning, self.flags))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        object.__setattr__(
            self, "_hash", hash((self.sort_order, self.partitioning, self.flags))
        )

    # -- queries ----------------------------------------------------------

    @property
    def is_any(self) -> bool:
        """True when this vector imposes no requirement at all."""
        return not self.sort_order and self.partitioning is None and not self.flags

    def covers(self, required: "PhysProps") -> bool:
        """True when data with *these* properties satisfies ``required``.

        Sort: the required order must be a prefix of the provided order,
        position by position, with each required key a subset of the
        provided key.  Partitioning: no requirement, or compatible.
        Flags: required flags must all be present.
        """
        if len(required.sort_order) > len(self.sort_order):
            return False
        for provided_key, required_key in zip(self.sort_order, required.sort_order):
            if not required_key <= provided_key:
                return False
        if required.partitioning is not None:
            if self.partitioning is None:
                return False
            if not self.partitioning.satisfies(required.partitioning):
                return False
        return required.flags <= self.flags

    def flag(self, name: str, default=None):
        """The value of flag ``name``, or ``default`` when absent."""
        for flag_name, value in self.flags:
            if flag_name == name:
                return value
        return default

    # -- derivations ------------------------------------------------------

    def without_sort(self) -> "PhysProps":
        """This vector with the sort-order component removed."""
        return PhysProps((), self.partitioning, self.flags)

    def without_partitioning(self) -> "PhysProps":
        """This vector with the partitioning component removed."""
        return PhysProps(self.sort_order, None, self.flags)

    def without_flag(self, name: str) -> "PhysProps":
        """This vector with every ``name`` flag removed."""
        remaining = frozenset(
            (flag_name, value) for flag_name, value in self.flags if flag_name != name
        )
        return PhysProps(self.sort_order, self.partitioning, remaining)

    def with_sort(self, order: Iterable) -> "PhysProps":
        """This vector with its sort order replaced by ``order``."""
        return PhysProps(tuple(order), self.partitioning, self.flags)

    def with_partitioning(self, partitioning: Optional[Partitioning]) -> "PhysProps":
        """This vector with its partitioning replaced."""
        return PhysProps(self.sort_order, partitioning, self.flags)

    def with_flag(self, name: str, value=True) -> "PhysProps":
        """This vector with flag ``name`` set to ``value``."""
        return PhysProps(
            self.sort_order,
            self.partitioning,
            self.without_flag(name).flags | {(name, value)},
        )

    def only_sort(self) -> "PhysProps":
        """Just the sort component (the excluding vector a sort enforcer uses)."""
        return PhysProps(self.sort_order, None, frozenset())

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_any:
            return "any"
        parts = []
        if self.sort_order:
            rendered = ", ".join("|".join(sorted(key)) for key in self.sort_order)
            parts.append(f"sorted({rendered})")
        if self.partitioning is not None:
            parts.append(f"partitioned[{self.partitioning}]")
        for name, value in sorted(self.flags, key=lambda item: item[0]):
            parts.append(f"{name}={value}")
        return " ".join(parts)


ANY_PROPS = PhysProps()
"""The empty requirement: any plan satisfies it."""


def sorted_on(*columns) -> PhysProps:
    """Shorthand: a property vector requiring a sort order."""
    return PhysProps(sort_order=tuple(columns))


@dataclass(frozen=True)
class LogicalProperties:
    """Properties shared by every expression of an equivalence class.

    ``schema`` and ``cardinality`` are the paper's examples ("include
    schema, expected size, etc."); ``column_stats`` carries distinct-value
    estimates forward so selectivity estimation works on intermediate
    results; ``tables`` is the set of base tables contributing rows, used
    by rule conditions and for consistency checks.
    """

    schema: Schema
    cardinality: float
    column_stats: Mapping[str, ColumnStatistics] = field(default_factory=dict, compare=False, hash=False)
    tables: FrozenSet[str] = frozenset()
    #: The schema's column names as a set; rule conditions and cost
    #: functions read it on every binding, so it is set at construction.
    column_names: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "column_stats", dict(self.column_stats))
        object.__setattr__(self, "tables", frozenset(self.tables))
        object.__setattr__(self, "column_names", frozenset(self.schema.column_names))

    def column_stat(self, name: str) -> Optional[ColumnStatistics]:
        """Statistics for column ``name``, or None when unknown."""
        return self.column_stats.get(name)

    def consistent_with(self, other: "LogicalProperties", tolerance: float = 1e-6) -> bool:
        """Consistency check between two derivations of the same class.

        All expressions of a group must agree on the schema's column
        *set* (column order may differ across join orders) and on the
        cardinality estimate — the paper's "one of many consistency
        checks".
        """
        if self.column_names != other.column_names:
            return False
        if self.tables != other.tables:
            return False
        scale = max(1.0, abs(self.cardinality), abs(other.cardinality))
        return abs(self.cardinality - other.cardinality) <= tolerance * scale

    def __str__(self) -> str:
        return (
            f"card={self.cardinality:.1f} tables={{{', '.join(sorted(self.tables))}}} "
            f"schema={self.schema.describe()}"
        )
