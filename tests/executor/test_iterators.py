"""Unit tests for the Volcano iterators (open/next/close protocol)."""

import pytest

from repro.algebra.predicates import Comparison, ComparisonOp, col, eq
from repro.catalog import Catalog, Schema, TableStatistics
from repro.errors import ExecutionError
from repro.executor.iterators import (
    Exchange,
    FileScan,
    Filter,
    FilterScan,
    HashAggregate,
    HashDistinct,
    HashJoin,
    MergeExcept,
    MergeIntersect,
    MergeJoin,
    NestedLoopsJoin,
    Project,
    Sort,
    SortedAggregate,
    UnionAll,
)
from repro.executor.runtime import ExecutionContext


def make_context(tables):
    """Catalog + context from {name: rows(list of dicts)}."""
    catalog = Catalog()
    for name, rows in tables.items():
        columns = tuple(rows[0].keys()) if rows else (f"{name}.k",)
        catalog.add_table(
            name,
            Schema.of(*columns),
            TableStatistics(len(rows), 100),
            rows=rows,
        )
    return ExecutionContext(catalog)


R_ROWS = [{"r.k": k % 3, "r.v": k} for k in range(6)]
S_ROWS = [{"s.k": k % 3, "s.w": 10 + k} for k in range(3)]


@pytest.fixture
def context():
    return make_context({"r": R_ROWS, "s": S_ROWS})


def test_file_scan_emits_all_rows(context):
    rows = FileScan(context, "r").drain()
    assert rows == R_ROWS
    assert context.stats.rows_scanned == 6


def test_file_scan_counts_pages(context):
    # 6 rows of 100 bytes, 40 rows per 4096-byte page → 1 page.
    FileScan(context, "r").drain()
    assert context.stats.pages_read == 1


def test_file_scan_alias_renames_columns(context):
    scan = FileScan(context, "r", alias="x")
    assert scan.output_columns == ("x.r.k", "x.r.v")
    rows = scan.drain()
    assert rows[0]["x.r.k"] == 0


def test_file_scan_requires_rows():
    catalog = Catalog()
    catalog.add_table("empty", Schema.of("e.k"), TableStatistics(5, 100))
    with pytest.raises(ExecutionError):
        FileScan(ExecutionContext(catalog), "empty")


def test_open_twice_rejected(context):
    scan = FileScan(context, "r")
    scan.open()
    with pytest.raises(ExecutionError):
        scan.open()


def test_next_before_open_rejected(context):
    with pytest.raises(ExecutionError):
        FileScan(context, "r").next()


def test_filter(context):
    rows = Filter(context, FileScan(context, "r"), eq("r.k", 1)).drain()
    assert [row["r.v"] for row in rows] == [1, 4]


def test_filter_scan(context):
    rows = FilterScan(context, "r", None, eq("r.k", 1)).drain()
    assert [row["r.v"] for row in rows] == [1, 4]


def test_project(context):
    rows = Project(context, FileScan(context, "r"), ["r.v"]).drain()
    assert rows[0] == {"r.v": 0}


def test_project_missing_column(context):
    iterator = Project(context, FileScan(context, "r"), ["nope"])
    with pytest.raises(ExecutionError):
        iterator.drain()


def test_sort(context):
    rows = Sort(context, FileScan(context, "r"), ["r.k", "r.v"]).drain()
    keys = [(row["r.k"], row["r.v"]) for row in rows]
    assert keys == sorted(keys)
    assert context.stats.rows_sorted == 6
    assert context.stats.pages_written >= 1


def test_merge_join_with_duplicates(context):
    left = Sort(context, FileScan(context, "r"), ["r.k"])
    right = Sort(context, FileScan(context, "s"), ["s.k"])
    rows = MergeJoin(context, left, right, [("r.k", "s.k")]).drain()
    # Every r row matches exactly one s row here (s keys are unique).
    assert len(rows) == 6
    assert all(row["r.k"] == row["s.k"] for row in rows)


def test_merge_join_duplicate_groups_on_both_sides():
    rows_a = [{"a.k": 1}, {"a.k": 1}, {"a.k": 2}]
    rows_b = [{"b.k": 1}, {"b.k": 1}, {"b.k": 3}]
    context = make_context({"a": rows_a, "b": rows_b})
    result = MergeJoin(
        context, FileScan(context, "a"), FileScan(context, "b"), [("a.k", "b.k")]
    ).drain()
    assert len(result) == 4  # 2 × 2 matches on key 1


def test_hash_join(context):
    rows = HashJoin(
        context, FileScan(context, "r"), FileScan(context, "s"), [("r.k", "s.k")]
    ).drain()
    assert len(rows) == 6
    assert context.stats.hash_build_rows == 6
    assert context.stats.hash_probe_rows == 3


def test_hash_join_matches_merge_join(context):
    hashed = HashJoin(
        context, FileScan(context, "r"), FileScan(context, "s"), [("r.k", "s.k")]
    ).drain()
    merged = MergeJoin(
        context,
        Sort(context, FileScan(context, "r"), ["r.k"]),
        Sort(context, FileScan(context, "s"), ["s.k"]),
        [("r.k", "s.k")],
    ).drain()
    canonical = lambda rows: sorted(tuple(sorted(r.items())) for r in rows)
    assert canonical(hashed) == canonical(merged)


def test_nested_loops_join_arbitrary_predicate(context):
    predicate = Comparison(ComparisonOp.LT, col("r.v"), col("s.w"))
    rows = NestedLoopsJoin(
        context, FileScan(context, "r"), FileScan(context, "s"), predicate
    ).drain()
    assert all(row["r.v"] < row["s.w"] for row in rows)
    assert len(rows) == 18  # r.v in 0..5 all < s.w in 10..12


def test_hash_aggregate(context):
    rows = HashAggregate(
        context,
        FileScan(context, "r"),
        ["r.k"],
        [("n", "count", None), ("total", "sum", "r.v"), ("top", "max", "r.v")],
    ).drain()
    by_key = {row["r.k"]: row for row in rows}
    assert by_key[0] == {"r.k": 0, "n": 2, "total": 3, "top": 3}
    assert by_key[1]["total"] == 5
    assert len(rows) == 3


def test_sorted_aggregate_matches_hash_aggregate(context):
    hash_rows = HashAggregate(
        context, FileScan(context, "r"), ["r.k"], [("n", "count", None)]
    ).drain()
    sorted_rows = SortedAggregate(
        context,
        Sort(context, FileScan(context, "r"), ["r.k"]),
        ["r.k"],
        [("n", "count", None)],
    ).drain()
    assert sorted(map(str, hash_rows)) == sorted(map(str, sorted_rows))


def test_aggregate_avg_and_min(context):
    rows = HashAggregate(
        context,
        FileScan(context, "s"),
        [],
        [("lo", "min", "s.w"), ("mean", "avg", "s.w")],
    ).drain()
    assert rows == [{"lo": 10, "mean": 11.0}]


def test_unknown_aggregate_rejected(context):
    with pytest.raises(ExecutionError):
        HashAggregate(context, FileScan(context, "r"), [], [("x", "median", "r.v")])


def test_union_all(context):
    rows = UnionAll(
        context, [FileScan(context, "s"), FileScan(context, "s")]
    ).drain()
    assert len(rows) == 6


def test_hash_distinct():
    rows = [{"a.k": 1}, {"a.k": 1}, {"a.k": 2}]
    context = make_context({"a": rows})
    result = HashDistinct(context, FileScan(context, "a")).drain()
    assert len(result) == 2


def test_merge_intersect():
    rows_a = [{"a.k": 1}, {"a.k": 2}, {"a.k": 2}, {"a.k": 4}]
    rows_b = [{"b.k": 2}, {"b.k": 3}, {"b.k": 4}]
    context = make_context({"a": rows_a, "b": rows_b})
    result = MergeIntersect(
        context, FileScan(context, "a"), FileScan(context, "b"), [("a.k", "b.k")]
    ).drain()
    assert [row["a.k"] for row in result] == [2, 4]


def test_merge_except():
    rows_a = [{"a.k": 1}, {"a.k": 2}, {"a.k": 2}, {"a.k": 4}]
    rows_b = [{"b.k": 2}, {"b.k": 3}]
    context = make_context({"a": rows_a, "b": rows_b})
    result = MergeExcept(
        context, FileScan(context, "a"), FileScan(context, "b"), [("a.k", "b.k")]
    ).drain()
    assert [row["a.k"] for row in result] == [1, 4]


def test_exchange_preserves_rows(context):
    rows = Exchange(context, FileScan(context, "r"), ["r.k"], degree=4).drain()
    assert len(rows) == 6
    assert context.stats.exchanges == 6
    # All rows with the same key land in the same partition (contiguous).
    keys = [row["r.k"] for row in rows]
    seen = set()
    for key in keys:
        if key in seen:
            assert keys[keys.index(key):].count(key) >= 1
        seen.add(key)


def test_exchange_rejects_bad_degree(context):
    with pytest.raises(ExecutionError):
        Exchange(context, FileScan(context, "r"), ["r.k"], degree=0)


def test_operator_open_close_balance(context):
    Filter(context, FileScan(context, "r"), eq("r.k", 0)).drain()
    assert context.stats.operators_opened == context.stats.operators_closed == 2
