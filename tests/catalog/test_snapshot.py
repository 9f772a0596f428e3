"""Catalog snapshots: one immutable version, and writers that lose nothing.

:meth:`Catalog.snapshot` returns the current version; a write publishes
the next one and never changes a published one.  Writers serialize on
one lock, so concurrent writes from several threads are all kept.
"""

from __future__ import annotations

import threading

import pytest

from repro.catalog import Catalog, CatalogSnapshot, Schema, TableStatistics
from repro.errors import UnknownTableError

WRITERS = 4
WRITES = 500


def _catalog(names=("r", "s")) -> Catalog:
    catalog = Catalog(page_size=1000)
    for name in names:
        catalog.add_table(name, Schema.of("k"), TableStatistics(100, 10))
    return catalog


def test_a_snapshot_does_not_move_when_the_catalog_does():
    catalog = _catalog()
    before = catalog.snapshot()
    entry = before.table("r")
    published = catalog.update_statistics("r", TableStatistics(400, 10))
    assert isinstance(before, CatalogSnapshot)
    assert before.table("r") is entry
    assert entry.statistics.row_count == 100  # not changed in place
    assert before.pages("r") == 1 and catalog.pages("r") == 4
    assert published is catalog.snapshot()
    assert published.statistics_version == before.statistics_version + 1
    assert published.table_version("r") == published.statistics_version
    assert published.table_version("s") == before.table_version("s")
    assert published.table("s") is before.table("s")  # unchanged entries shared
    assert published.table("r").schema is entry.schema


def test_a_snapshot_carries_the_reader_surface():
    catalog = _catalog()
    snapshot = catalog.snapshot()
    catalog.drop_table("s")
    catalog.add_table("t", Schema.of("k"), TableStatistics(5, 10))
    assert snapshot.table_names() == ("r", "s")
    assert [entry.name for entry in snapshot.tables()] == ["r", "s"]
    assert "s" in snapshot and "t" not in snapshot
    assert snapshot.page_size == 1000
    assert snapshot.snapshot() is snapshot
    with pytest.raises(UnknownTableError):
        snapshot.table("t")
    with pytest.raises(UnknownTableError):
        snapshot.table_version("t")
    with pytest.raises(AttributeError):
        snapshot.statistics_version = 0
    assert catalog.table_names() == ("r", "t")


def test_concurrent_writers_lose_no_write_and_every_snapshot_is_one_version():
    names = [f"t{number}" for number in range(WRITERS)]
    catalog = _catalog(names)
    start = catalog.statistics_version
    last: dict = {}
    failures = []
    barrier = threading.Barrier(WRITERS)

    def writer(name: str) -> None:
        try:
            barrier.wait()
            for rows in range(1, WRITES + 1):
                published = catalog.update_statistics(name, TableStatistics(rows, 10))
            last[name] = published.table_version(name)
        except BaseException as error:  # reported by the test thread
            failures.append(error)

    threads = [threading.Thread(target=writer, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    seen = []
    while any(thread.is_alive() for thread in threads):
        snapshot = catalog.snapshot()
        if not seen or snapshot is not seen[-1]:
            seen.append(snapshot)
    for thread in threads:
        thread.join()
    assert failures == []
    assert catalog.statistics_version == start + WRITERS * WRITES
    for name in names:
        assert catalog.table_version(name) == last[name]
        assert catalog.table(name).statistics.row_count == WRITES
    seen.append(catalog.snapshot())
    previous = None
    for snapshot in seen:
        versions = [snapshot.table_version(name) for name in names]
        assert snapshot.statistics_version >= max(versions)
        rows = [snapshot.table(name).statistics.row_count for name in names]
        if previous is not None:  # versions, and each table's writes, in order
            assert snapshot.statistics_version >= previous[0]
            assert all(now >= then for now, then in zip(rows, previous[1]))
        previous = (snapshot.statistics_version, rows)
