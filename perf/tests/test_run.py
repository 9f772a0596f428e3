"""The command end to end: it spawns workers and servers, so these are slow."""

import os
import shutil
import subprocess
import sys

from perf import run


def test_smoke_emits_every_declared_metric_and_nothing_fails():
    assert run.smoke(seed=2) == 0


def test_every_count_repeats_exactly_across_two_worker_spawns():
    units = {metric["name"]: metric["unit"] for metric in run.contract()["per_layer"]}
    exact = [name for name, unit in units.items() if unit in run.EXACT_UNITS]
    assert len(exact) > 15
    for workload in run.WORKLOADS:
        first, second = (run.run_workload(workload, 5, 0.0, 1, passes=2) for _ in range(2))
        assert first["failed"] == second["failed"] == 0
        for name in exact:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
        assert any(first["metrics"][name] for name in exact)


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(run.ROOT, "perf"), tmp_path / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )  # fmt: skip
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "search_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
