"""``python -m repro.server`` end to end: the CLI and its engine processes.

The CLI runs every admitted search in a forked engine process
(:class:`~repro.server.engines.ProcessOptimizer`).  These tests start it
as a subprocess under ``-W error`` — on CPython 3.12 a fork from a
threaded process warns, and the warning then kills the child — and hold
its answers to an in-process :class:`~repro.service.OptimizerService`
over the same tables.  They also check its failure and exit paths:

* a dead engine process breaks the pool: cold requests get 503, the
  plan cache still answers, ``/health`` says ``ok: false``;
* SIGTERM drains and stops every engine process;
* an engine process outlives a SIGKILLed server by at most 2 s.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import pytest

import repro
from repro.catalog.statistics import ColumnStatistics, TableStatistics
from repro.server import ClientError, ServerClient
from repro.errors import ServiceError
from repro.server.__main__ import build_optimizer, build_parser, build_server
from repro.server.engines import ProcessOptimizer
from repro.server.protocol import cost_total
from repro.service import OptimizerService

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc, forks"
)

CHAIN_SQL = "SELECT * FROM r, s, t WHERE r.k = s.k AND s.k = t.k"
PAIR_SQL = "SELECT * FROM r, s WHERE r.k = s.k AND r.v = 1"
SHARED_SQL = "SELECT * FROM r, s, t WHERE r.k = s.k AND s.k = t.k AND r.v = 1"
POINT_SQL = "SELECT * FROM t WHERE t.k = 3"

_SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _state(pid: int) -> Optional[str]:
    """The process's state letter, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def _alive(pid: int) -> bool:
    return _state(pid) not in (None, "Z", "X")


def _children(pid: int) -> List[int]:
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid and fields[0] not in ("Z", "X"):
            found.append(int(entry))
    return found


def _wait_gone(pids, seconds: float) -> List[int]:
    """The pids still alive after waiting up to ``seconds``."""
    deadline = time.monotonic() + seconds
    left = [pid for pid in pids if _alive(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if _alive(pid)]
    return left


class Cli:
    """One ``python -W error -m repro.server --verify`` subprocess."""

    ARGS = ["--verify", "--max-concurrent", "2"]

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.process = subprocess.Popen(
            [sys.executable, "-W", "error", "-m", "repro.server", "--port", "0"]
            + self.ARGS,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.engines: List[int] = []
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://\S+", line)
            assert match is not None, f"server did not start: {line!r}"
            self.address = match.group(0)
            self.client = ServerClient(self.address)
            self.engines = _children(self.process.pid)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        if hasattr(self, "client"):
            self.client.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in _wait_gone(self.engines, 2.0):
            os.kill(pid, signal.SIGKILL)  # never leave one behind
        self.process.stdout.close()


@pytest.fixture
def cli():
    server = Cli()
    try:
        yield server
    finally:
        server.stop()


@pytest.fixture
def reference() -> OptimizerService:
    """An in-process verifying service over the CLI's tables."""
    service = build_server(build_parser().parse_args(Cli.ARGS)).service
    assert service.options.verify_plans
    return service


def _distinct(service: OptimizerService, column: str, distinct: float) -> Dict:
    """The body of a distinct-value bump, applied to ``service`` too."""
    table = column.split(".")[0]
    catalog = service.catalog
    current = catalog.table(table).statistics
    columns = dict(current.columns)
    old = columns[column]
    columns[column] = ColumnStatistics(
        distinct_values=float(distinct),
        min_value=old.min_value,
        max_value=old.max_value,
    )
    catalog.update_statistics(
        table,
        TableStatistics(
            row_count=current.row_count, row_width=current.row_width, columns=columns
        ),
    )
    return {"columns": {column: {"distinct_values": distinct}}}


def _served(payload) -> Tuple:
    return (
        payload["plan"],
        payload["sexpr"],
        payload["cost"],
        payload["cost_total"],
        payload["verified"],
        payload["cached"],
    )


def _expected(served) -> Tuple:
    return (
        served.plan.pretty(with_cost=False),
        served.plan.to_sexpr(),
        str(served.cost),
        cost_total(served.cost),
        served.verified,
        served.cached,
    )


def _compare(cli: Cli, reference: OptimizerService) -> None:
    optimized = cli.client.optimize(CHAIN_SQL)
    assert not optimized["cached"]
    assert _served(optimized) == _expected(reference.optimize(CHAIN_SQL))

    executed = cli.client.execute(POINT_SQL)
    local = reference.execute(POINT_SQL)
    assert _served(executed) == _expected(local.served)
    assert executed["row_count"] == len(local.rows)
    assert executed["max_q_error"] == local.max_q_error

    batch = cli.client.batch([PAIR_SQL, SHARED_SQL])
    together = reference.optimize_many([PAIR_SQL, SHARED_SQL])
    assert [_served(p) for p in batch["results"]] == [
        _expected(served) for served in together.results
    ]
    report = together.sharing_report
    assert report is not None and report.shared_plans
    assert batch["shared_plans"] == len(together.shared_plans)
    assert batch["sharing"] == {
        "independent_total": report.independent_total,
        "shared_total": report.shared_total,
        "shared_plans": len(report.shared_plans),
    }

    hit = cli.client.optimize(CHAIN_SQL)
    assert hit["cached"]
    assert _served(hit) == _expected(reference.optimize(CHAIN_SQL))
    # The engines check their own answers; the service checks in
    # process.  Both run the checker once per fresh answer.
    counters = ("verifications", "verify_violations", "verified_hits")
    served = cli.client.stats()["cache"]
    local = reference.cache.stats.as_dict()
    assert local["verifications"] > 0 and local["verified_hits"] > 0
    assert {name: served[name] for name in counters} == {
        name: local[name] for name in counters
    }


def test_cli_serves_what_the_in_process_service_serves(cli, reference):
    assert len(cli.engines) == 2
    _compare(cli, reference)
    bump = _distinct(reference, "s.k", 200)
    cli.client.update_statistics("s", bump)
    _compare(cli, reference)
    assert cli.client.health()["statistics_version"] == (
        reference.catalog.statistics_version
    )
    engines = cli.client.stats()["engines"]
    assert engines["processes"] == 2
    # One optimize and one shared batch each time, one execute: the
    # point query on t is still cached after the bump on s.
    assert engines["tasks"] == 5
    assert engines["cpu_seconds"] > 0
    assert engines["broken"] is False
    assert cli.client.stats()["cache"]["verify_violations"] == 0


def test_cold_request_racing_a_bump_sees_one_statistics_version(cli, reference):
    costs = {}
    for distinct in (50, 200):
        _distinct(reference, "s.k", distinct)
        costs[distinct] = cost_total(reference.optimize(CHAIN_SQL).cost)
    assert costs[50] != costs[200]
    writer = ServerClient(cli.address)
    served = []
    for round_ in range(12):
        distinct = 200 if round_ % 2 == 0 else 50
        bump = threading.Thread(
            target=writer.update_statistics,
            args=("s", {"columns": {"s.k": {"distinct_values": distinct}}}),
        )
        bump.start()
        served.append(cli.client.optimize(CHAIN_SQL)["cost_total"])
        bump.join()
    writer.close()
    assert set(served) <= set(costs.values()), (served, costs)


def test_dead_engine_breaks_the_pool_but_not_the_cache(cli):
    cached = cli.client.optimize(CHAIN_SQL)
    assert not cached["cached"]
    os.kill(cli.engines[0], signal.SIGKILL)
    deadline = time.monotonic() + 5
    while cli.client.health()["ok"] and time.monotonic() < deadline:
        time.sleep(0.05)
    with pytest.raises(ClientError) as refused:
        cli.client.optimize(PAIR_SQL)
    assert refused.value.status == 503
    again = cli.client.optimize(CHAIN_SQL)
    assert again["cached"] and again["plan"] == cached["plan"]
    health = cli.client.health()
    assert health["ok"] is False and health["broken"] is True
    assert cli.client.stats()["engines"]["broken"] is True


def test_sigterm_drains_and_stops_every_engine(cli):
    cli.client.optimize(CHAIN_SQL)
    assert cli.engines and all(_alive(pid) for pid in cli.engines)
    cli.process.send_signal(signal.SIGTERM)
    assert cli.process.wait(timeout=15) == 0
    assert _wait_gone(cli.engines, 0.5) == []


def test_engines_exit_after_the_server_is_killed(cli):
    cli.client.optimize(CHAIN_SQL)
    assert cli.engines
    cli.process.kill()
    cli.process.wait(timeout=15)
    assert _wait_gone(cli.engines, 2.0) == []


def test_engines_are_forked_only_from_a_single_threaded_process():
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        with pytest.raises(ServiceError, match="before any thread starts"):
            ProcessOptimizer(build_optimizer(build_parser().parse_args([])), 1)
    finally:
        release.set()
        waiter.join()
