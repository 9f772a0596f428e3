"""BENCHMARK.json keeps to the builder's schema, and the program emits it."""

import json
import os
import re

import pytest

from perf import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    return run.contract()


def test_schema(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["command"] == ["python3", "perf/run.py"] and contract["paths"] == ["perf"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in contract[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= len(contract["end_to_end"]) <= 16 and 1 <= len(contract["per_layer"]) <= 128
    # 4 + 22 runs per workload, each with its set-ups, inside the driver's 3420 s.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 12) < 3420


def test_every_per_layer_metric_is_documented(contract):
    with open(os.path.join(run.ROOT, "perf", "README.md")) as handle:
        readme = handle.read()
    for metric in contract["per_layer"] + contract["end_to_end"]:
        assert f"`{metric['name']}`" in readme, metric["name"]


def test_the_last_line_holds_exactly_the_declared_metrics(contract):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {metric["name"]: metric["unit"] for metric in contract[section]}
        result = {
            "trace": trace, "correct": True, "attempted": 5, "failed": 0,
            "metrics": {name: 1.5 for name in declared},
        }  # fmt: skip
        line = json.loads(run.driver_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {name: entry["unit"] for name, entry in line["metrics"].items()} == declared
        assert all(set(entry) == {"value", "unit"} for entry in line["metrics"].values())


def results(environment, value):
    run_result = {"metrics": {"latency_ms_p50": value, "plan_cost_ratio": 1.0}, "failed": 0, "correct": True}
    return {"environment": environment, "runs": {"search_cold/end_to_end": run_result}}


def test_compare_refuses_other_environments_and_flags_moves_beyond_the_bound(contract):
    here = {"nproc": 2, "python": "3.11.7", "PYTHONHASHSEED": "0"}
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}["latency_ms_p50"]
    assert run.differences(results(here, 10.0), results(here, 10.0 * (1 + bound / 2))) == []
    assert run.differences(results(here, 10.0), results(here, 10.0 * (1 - bound / 2))) == []
    assert len(run.differences(results(here, 10.0), results(here, 10.0 * (1 + 2 * bound)))) == 1
    assert len(run.differences(results(here, 10.0), results(here, 10.0 * (1 - 2 * bound)))) == 1
    for other in ({**here, "nproc": 8}, {**here, "python": "3.12.0"}, {**here, "PYTHONHASHSEED": ""}):
        with pytest.raises(SystemExit):
            run.differences(results(here, 10.0), results(other, 10.0))
    moved = results(here, 10.0)
    moved["runs"]["search_cold/end_to_end"]["metrics"]["plan_cost_ratio"] = 1.0 + 1e-12
    assert len(run.differences(results(here, 10.0), moved)) == 1  # exact means exact
