"""The catalog: the registry of stored tables, schemas, and statistics.

A generated optimizer consults the catalog through the logical property
functions (schema and cardinality derivation) and through the cost
functions (page counts).  The executor additionally stores the actual
rows here so plans can run.

A search reads one :class:`CatalogSnapshot`, the version that was
current when it started: :meth:`Catalog.snapshot` is one reference
read, and a write publishes a new version instead of changing the one
a search is reading.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.catalog.schema import Schema
from repro.catalog.statistics import DEFAULT_PAGE_SIZE, TableStatistics
from repro.errors import CatalogError, UnknownTableError

__all__ = ["TableEntry", "CatalogSnapshot", "Catalog"]


@dataclass
class TableEntry:
    """One stored table: name, schema, statistics, and (optionally) rows."""

    name: str
    schema: Schema
    statistics: TableStatistics
    rows: Optional[List[dict]] = None

    @property
    def has_rows(self) -> bool:
        return self.rows is not None


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class CatalogSnapshot:
    """One version of a :class:`Catalog`, never changed once published.

    What a search, its checker and a cache key read, so that all three
    see the same statistics however writers race them.  It carries the
    catalog's whole reader surface; :meth:`Catalog.snapshot` returns the
    current one, and the catalog's own readers read it.  Entries are
    shared with the versions before and after it: a write replaces the
    entry it changes, it never changes an entry in place.
    """

    _tables: Mapping[str, TableEntry]
    _versions: Mapping[str, int]
    statistics_version: int
    page_size: int

    def __repr__(self) -> str:
        return f"<catalog snapshot @v{self.statistics_version}: {len(self._tables)} tables>"

    def snapshot(self) -> "CatalogSnapshot":
        """This version itself: a snapshot reads as a catalog that never moves."""
        return self

    def table_version(self, name: str) -> int:
        """The version at which ``name`` last changed.

        Raises :class:`UnknownTableError` for unregistered names.
        """
        try:
            return self._versions[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def table(self, name: str) -> TableEntry:
        """Look up a table; unknown names raise UnknownTableError."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> Tuple[str, ...]:
        """Registered table names, in registration order."""
        return tuple(self._tables)

    def tables(self) -> Iterable[TableEntry]:
        """All registered table entries."""
        return self._tables.values()

    def pages(self, name: str) -> int:
        """Page count of a stored table under this catalog's page size."""
        return self.table(name).statistics.pages(self.page_size)


class Catalog:
    """A mutable registry of tables keyed by name.

    Workload generators, the data generator, the feedback loop and the
    server's ``/admin/statistics`` write to it; every search reads one
    :meth:`snapshot` of it.

    Every mutation — registering, replacing, or dropping a table, or
    updating its statistics — bumps a **monotonic statistics version**,
    recorded globally and per table.  The version is what makes plans
    cacheable across queries: a cached plan is valid exactly as long as
    the versions of the tables it reads are unchanged, so the
    :class:`~repro.service.OptimizerService` keys its cache on them and
    needs no TTLs.

    The catalog is **copy-on-write**: its state is one immutable
    :class:`CatalogSnapshot`, and a mutation builds the next one and
    publishes it with one reference store.  Writers serialize on one
    lock, so concurrent writes from several threads never lose one;
    readers take no lock.  The readers below read the current version,
    each call afresh: code that must see one version across several
    reads takes a :meth:`snapshot` and reads that.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0:
            raise CatalogError("page_size must be positive")
        self._lock = threading.Lock()
        self._current = CatalogSnapshot({}, {}, 0, page_size)

    def snapshot(self) -> CatalogSnapshot:
        """The current version, whole and unchanging: one reference read."""
        return self._current

    # -- writers ---------------------------------------------------------

    def _publish(self, tables: Dict[str, TableEntry], name: str) -> CatalogSnapshot:
        """Publish ``tables`` as the next version, ``name`` the table that
        changed (absent from ``tables`` when dropped); the caller holds
        the writers' lock."""
        current = self._current
        version = current.statistics_version + 1
        versions = dict(current._versions)
        if name in tables:
            versions[name] = version
        else:
            del versions[name]
        self._current = CatalogSnapshot(tables, versions, version, current.page_size)
        return self._current

    def update_statistics(self, name: str, statistics: TableStatistics) -> CatalogSnapshot:
        """Replace a table's statistics (a stats mutation); return the
        version this write published.

        The table keeps its schema and rows; its version (and the global
        statistics version) is bumped, invalidating any cached plans
        that depend on it.
        """
        with self._lock:
            entry = self._current.table(name)
            if entry.rows is not None and len(entry.rows) != int(statistics.row_count):
                raise CatalogError(
                    f"table {name!r}: new statistics claim {statistics.row_count} "
                    f"rows but the table stores {len(entry.rows)} rows"
                )
            tables = dict(self._current._tables)
            tables[name] = dataclasses.replace(entry, statistics=statistics)
            return self._publish(tables, name)

    def add_table(
        self,
        name: str,
        schema: Schema,
        statistics: TableStatistics,
        rows: Optional[List[dict]] = None,
    ) -> TableEntry:
        """Register a table; re-registering an existing name is an error."""
        with self._lock:
            if name in self._current:
                raise CatalogError(f"table {name!r} already registered")
            return self._register(name, schema, statistics, rows)

    def replace_table(
        self,
        name: str,
        schema: Schema,
        statistics: TableStatistics,
        rows: Optional[List[dict]] = None,
    ) -> TableEntry:
        """Register a table, replacing any existing entry of the same name."""
        with self._lock:
            return self._register(name, schema, statistics, rows)

    def _register(
        self,
        name: str,
        schema: Schema,
        statistics: TableStatistics,
        rows: Optional[List[dict]],
    ) -> TableEntry:
        if rows is not None and len(rows) != int(statistics.row_count):
            raise CatalogError(
                f"table {name!r}: statistics claim {statistics.row_count} rows "
                f"but {len(rows)} rows were supplied"
            )
        entry = TableEntry(name=name, schema=schema, statistics=statistics, rows=rows)
        tables = dict(self._current._tables)
        tables.pop(name, None)  # a replaced table registers anew, last
        tables[name] = entry
        self._publish(tables, name)
        return entry

    def drop_table(self, name: str) -> None:
        """Remove a table; unknown names raise UnknownTableError."""
        with self._lock:
            tables = dict(self._current._tables)
            if tables.pop(name, None) is None:
                raise UnknownTableError(name)
            self._publish(tables, name)

    # -- readers: the current version's -----------------------------------

    @property
    def page_size(self) -> int:
        """The page size page counts are computed under."""
        return self._current.page_size

    @property
    def statistics_version(self) -> int:
        """The global monotonic version; bumped by every mutation."""
        return self._current.statistics_version

    def table_version(self, name: str) -> int:
        """:meth:`CatalogSnapshot.table_version` of the current version."""
        return self._current.table_version(name)

    def table(self, name: str) -> TableEntry:
        """Look up a table; unknown names raise UnknownTableError."""
        return self._current.table(name)

    def __contains__(self, name: str) -> bool:
        return name in self._current

    def table_names(self) -> Tuple[str, ...]:
        """Registered table names, in registration order."""
        return self._current.table_names()

    def tables(self) -> Iterable[TableEntry]:
        """All registered table entries."""
        return self._current.tables()

    def pages(self, name: str) -> int:
        """Page count of a stored table under this catalog's page size."""
        return self._current.pages(name)
