"""Relation schemas: typed, ordered column lists.

Schemas are the backbone of the *logical properties* the paper attaches to
equivalence classes ("Logical properties can be derived from the logical
algebra expression and include schema, expected size, etc.").  They are
immutable so they can live inside frozen dataclasses and memo keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownColumnError

__all__ = ["ColumnType", "Column", "Schema"]


class ColumnType(enum.Enum):
    """The small set of column types the synthetic workloads need."""

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"

    @property
    def default_width(self) -> int:
        """Default storage width in bytes for a value of this type."""
        return _DEFAULT_WIDTHS[self]


_DEFAULT_WIDTHS = {
    ColumnType.INTEGER: 4,
    ColumnType.FLOAT: 8,
    ColumnType.STRING: 20,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column with a storage width in bytes."""

    name: str
    type: ColumnType = ColumnType.INTEGER
    width: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.width is None:
            object.__setattr__(self, "width", self.type.default_width)
        elif self.width <= 0:
            raise SchemaError(f"column {self.name!r} has non-positive width")

    def renamed(self, new_name: str) -> "Column":
        """Return a copy of this column under a different name."""
        return Column(new_name, self.type, self.width)

    def qualified(self, qualifier: str) -> "Column":
        """Return this column renamed to ``qualifier.name``.

        Used by the SQL front-end to disambiguate columns of aliased
        tables; a column that is already qualified is returned unchanged.
        """
        if "." in self.name:
            return self
        return self.renamed(f"{qualifier}.{self.name}")


@dataclass(frozen=True)
class Schema:
    """An ordered, immutable collection of uniquely named columns."""

    columns: Tuple[Column, ...] = ()
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not isinstance(self.columns, tuple):
            object.__setattr__(self, "columns", tuple(self.columns))
        index = {}
        for position, column in enumerate(self.columns):
            if column.name in index:
                raise SchemaError(f"duplicate column name: {column.name!r}")
            index[column.name] = position
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_column_names", tuple(index))

    @classmethod
    def of(cls, *specs) -> "Schema":
        """Build a schema from column names, ``(name, type)`` pairs, or Columns.

        >>> Schema.of("a", ("b", ColumnType.STRING)).column_names
        ('a', 'b')
        """
        columns = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
            elif isinstance(spec, str):
                columns.append(Column(spec))
            else:
                name, column_type = spec
                columns.append(Column(name, column_type))
        return cls(tuple(columns))

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._column_names  # type: ignore[attr-defined]

    @property
    def row_width(self) -> int:
        """Total storage width of one row in bytes."""
        return sum(column.width for column in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._index

    def column(self, column_name: str) -> Column:
        """Return the column with ``column_name`` or raise UnknownColumnError."""
        try:
            return self.columns[self._index[column_name]]
        except KeyError:
            raise UnknownColumnError(column_name, self) from None

    def index_of(self, column_name: str) -> int:
        """Return the ordinal position of ``column_name``."""
        try:
            return self._index[column_name]
        except KeyError:
            raise UnknownColumnError(column_name, self) from None

    def project(self, column_names: Sequence[str]) -> "Schema":
        """Return a schema containing only ``column_names``, in that order."""
        return Schema(tuple(self.column(name) for name in column_names))

    def concat(self, other: "Schema") -> "Schema":
        """Concatenate two schemas, e.g. for the output of a join.

        Raises :class:`SchemaError` on duplicate column names; the bundled
        models keep column names globally unique (via qualification) so a
        duplicate indicates a malformed query.
        """
        return Schema(self.columns + other.columns)

    def qualified(self, qualifier: str) -> "Schema":
        """Return this schema with every column qualified by ``qualifier``."""
        return Schema(tuple(column.qualified(qualifier) for column in self.columns))

    def prefixed(self, prefix: str) -> "Schema":
        """Rename every column to ``prefix.name``, unconditionally.

        Unlike :meth:`qualified`, already-dotted names are prefixed too —
        required when the same table is scanned twice under two aliases.
        """
        return Schema(
            tuple(column.renamed(f"{prefix}.{column.name}") for column in self.columns)
        )

    def intersection_names(self, other: "Schema") -> Tuple[str, ...]:
        """Column names present in both schemas, in this schema's order."""
        return tuple(name for name in self.column_names if name in other)

    def is_union_compatible(self, other: "Schema") -> bool:
        """True when both schemas have the same column types in order.

        Set operations (union, intersection, difference) require their
        inputs to be union compatible.
        """
        if len(self) != len(other):
            return False
        return all(
            a.type == b.type for a, b in zip(self.columns, other.columns)
        )

    def resolve(self, column_name: str) -> str:
        """Resolve a possibly unqualified name to the unique matching column.

        ``resolve("k")`` returns ``"r.k"`` when exactly one column's
        unqualified suffix is ``k``.  Exact matches win.  Ambiguity or a
        missing column raises :class:`UnknownColumnError`.
        """
        if column_name in self._index:
            return column_name
        suffix = "." + column_name
        matches = [name for name in self.column_names if name.endswith(suffix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise UnknownColumnError(column_name, self)
        raise SchemaError(
            f"ambiguous column {column_name!r}: matches {', '.join(matches)}"
        )

    def describe(self) -> str:
        """Human-readable one-line description of the schema."""
        parts = ", ".join(
            f"{column.name} {column.type.value}({column.width})"
            for column in self.columns
        )
        return f"({parts})"
