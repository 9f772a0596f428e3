"""Smoke tests for the benchmark harness (tiny configurations)."""

import pytest

from repro.bench.ablations import (
    run_bushy_ablation,
    run_executor_validation,
    run_failure_ablation,
    run_glue_ablation,
    run_promise_ablation,
    run_pruning_ablation,
    run_setops_orders,
    run_systemr_comparison,
)
from repro.bench.figure4 import Figure4Config, render_figure4, run_figure4
from repro.bench.reporting import Table, geometric_mean, render_log_chart


def test_geometric_mean():
    assert geometric_mean([1, 100]) == pytest.approx(10.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([5]) == pytest.approx(5.0)


def test_table_rendering():
    table = Table("Title", ["a", "bee"])
    table.add_row(1, 2.5)
    table.add_row("x", "—")
    table.add_note("a note")
    text = table.render()
    assert "Title" in text
    assert "bee" in text
    assert "note: a note" in text


def test_log_chart_handles_missing_points():
    chart = render_log_chart(
        "t", [2, 3, 4], [("s", "o", [1.0, None, 100.0])], width=20, height=5
    )
    assert "o" in chart
    assert "(no data)" not in chart


def test_log_chart_empty():
    assert "(no data)" in render_log_chart("t", [1], [("s", "o", [None])])


@pytest.fixture(scope="module")
def tiny_figure4():
    config = Figure4Config(sizes=(2, 3, 4), queries_per_size=3, seed=7)
    return run_figure4(config)


def test_figure4_runs_and_has_rows(tiny_figure4):
    assert [row.n_relations for row in tiny_figure4.rows] == [2, 3, 4]
    for row in tiny_figure4.rows:
        assert row.volcano_time > 0
        assert row.volcano_cost > 0
        assert row.exodus_cost is None or row.exodus_cost > 0


def test_figure4_shape_quality_equal_small(tiny_figure4):
    """Paper: plan quality is equal for moderately complex queries."""
    for row in tiny_figure4.rows:
        if row.quality_ratio is not None and row.n_relations <= 4:
            assert row.quality_ratio == pytest.approx(1.0, abs=0.15)


def test_figure4_mesh_exceeds_memo(tiny_figure4):
    for row in tiny_figure4.rows:
        if row.exodus_footprint is not None and row.n_relations >= 3:
            assert row.exodus_footprint > row.volcano_footprint


def test_figure4_rendering(tiny_figure4):
    text = render_figure4(tiny_figure4)
    assert "Figure 4" in text
    assert "volcano" in text
    assert "log scale" in text


def test_pruning_ablation_lossless():
    table = run_pruning_ablation(sizes=(3,), queries_per_size=2, seed=5)
    assert all(row[-1] == "yes" for row in table.rows)


def test_failure_ablation_lossless():
    table = run_failure_ablation(sizes=(3,), queries_per_size=2, seed=5)
    assert all(row[-1] == "yes" for row in table.rows)


def test_glue_ablation_penalty_at_least_one():
    table = run_glue_ablation(sizes=(4,), queries_per_size=3, seed=5)
    for row in table.rows:
        penalty = float(row[-1].rstrip("x"))
        assert penalty >= 0.999


def test_bushy_ablation_left_deep_never_cheaper():
    table = run_bushy_ablation(sizes=(4,), queries_per_size=3, seed=5)
    for row in table.rows:
        penalty = float(row[3].rstrip("x"))
        assert penalty >= 0.999


def test_systemr_comparison_agrees():
    table = run_systemr_comparison(sizes=(3,), queries_per_size=2, seed=5)
    assert all(row[-1] == "yes" for row in table.rows)


def test_setops_orders_alternatives_never_worse():
    table = run_setops_orders(row_counts=(2400,))
    for row in table.rows:
        # Offering the (second, first) order saves the result's sort.
        assert row[2] < row[1]


def test_promise_ablation_faster_but_never_better():
    table = run_promise_ablation(sizes=(4,), queries_per_size=3, seed=5)
    for row in table.rows:
        quality = float(row[6].rstrip("x"))
        assert quality >= 0.999
        # The learned-model variant runs exhaustive search, so its cost
        # column must equal the exhaustive one exactly.
        assert row[7] == row[4]


def test_executor_validation_rows_match():
    table = run_executor_validation(n_relations=2, queries=2, seed=3)
    for row in table.rows:
        assert row[2] > 0  # actual rows
        assert 0.2 <= float(row[3]) <= 5.0
        assert row[6] > 0  # actual scan pages read


def test_cli_quick(capsys):
    from repro.bench.__main__ import main

    code = main(["figure4", "--queries", "1", "--sizes", "2-3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "Figure 4" in captured.out


def test_figure4_csv_export(tiny_figure4):
    from repro.bench.figure4 import figure4_to_csv

    csv = figure4_to_csv(tiny_figure4)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("n_relations,")
    assert len(lines) == 1 + len(tiny_figure4.rows)
    # Every data line has the full column count.
    width = lines[0].count(",")
    assert all(line.count(",") == width for line in lines[1:])


def test_cli_csv_flag(tmp_path, capsys):
    from repro.bench.__main__ import main

    target = tmp_path / "fig4.csv"
    code = main(
        ["figure4", "--queries", "1", "--sizes", "2-2", "--csv", str(target)]
    )
    assert code == 0
    assert target.exists()
    assert target.read_text().startswith("n_relations")


def test_shape_complexity_star_exceeds_chain():
    from repro.bench.ablations import run_shape_complexity

    table = run_shape_complexity(sizes=(5,), queries_per_size=2, seed=3)
    for row in table.rows:
        ratio = float(row[-1].rstrip("x"))
        assert ratio > 1.0
