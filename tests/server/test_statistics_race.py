"""Engines never serve a mixed or stale statistics version.

Two servers are raced, both built by ``build_server`` from the same
``--verify --max-concurrent 2`` arguments:

* the CLI, ``python -m repro.server``, whose searches run in engine
  processes, each sent a statistics snapshot only when the catalog's
  version has moved since that engine's last one;
* an in-process :class:`~repro.server.ServerThread`, whose searches run
  on its worker threads over the very catalog the writes change.

Two clients send cold ``/optimize`` and ``/execute`` requests while a
third posts statistics bumps to two tables in turn, paced so that a
request spans only a few versions.  Every served ``cost_total`` must
equal an in-process reference's at one of the versions that were
current at some moment of that request: a version bumped in before the
request was answered, and not bumped out before it was sent.  A search
that reads two versions, or a stale one, serves another version's
cost.  Every answer is checked against the snapshot its search read,
so no fresh plan fails the checker however the bumps race the searches.

Tier-1 runs 12 bumps; ``--wide-sweep`` runs 240.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from typing import Dict, List, Tuple

import pytest

from repro.server import ServerClient, ServerThread
from repro.server.__main__ import build_parser, build_server
from repro.server.protocol import cost_total

from tests.server.test_cli import Cli, _distinct

CHAIN_SQL = "SELECT * FROM r, s, t WHERE r.k = s.k AND s.k = t.k"
PAIR_SQL = "SELECT * FROM r, s WHERE r.k = s.k AND r.v = 1"

#: Bump ``i`` (from 1) writes ``s.k`` when odd and ``t.k`` when even,
#: taking that table's values in turn; version 0 is the CLI's own (50, 50).
VALUES = {"s": (200.0, 80.0, 50.0), "t": (120.0, 30.0, 50.0)}

State = Tuple[float, float]


def _states(bumps: int) -> List[State]:
    """The (s.k, t.k) distinct values after each bump, version 0 first."""
    states, current = [(50.0, 50.0)], {"s": 50.0, "t": 50.0}
    for number in range(1, bumps + 1):
        table = "s" if number % 2 else "t"
        current[table] = VALUES[table][(number // 2) % len(VALUES[table])]
        states.append((current["s"], current["t"]))
    return states


def _references(states: List[State]) -> Dict[Tuple[str, State], float]:
    """Each statement's reference ``cost_total`` under each state."""
    reference = build_server(build_parser().parse_args(Cli.ARGS)).service
    costs = {}
    for state in sorted(set(states)):
        _distinct(reference, "s.k", state[0])
        _distinct(reference, "t.k", state[1])
        for sql in (CHAIN_SQL, PAIR_SQL):
            costs[sql, state] = cost_total(reference.optimize(sql).cost)
    return costs


def _race(cli: Cli, states: List[State], seed: int):
    """Run the writer and both clients; every bump's (sent, acked) times
    and every answer's (statement, sent, answered, cost_total, cached)."""
    pacing = random.Random(seed)
    bumps: List[Tuple[float, float]] = []
    answers: List[Tuple[str, float, float, float, bool]] = []
    lock = threading.Lock()
    done = threading.Event()
    failures: List[BaseException] = []

    def writer() -> None:
        with ServerClient(cli.address) as client:
            for number in range(1, len(states)):
                table = "s" if number % 2 else "t"
                value = states[number][0 if table == "s" else 1]
                time.sleep(pacing.uniform(0.005, 0.04))
                sent = time.monotonic()
                client.update_statistics(
                    table, {"columns": {f"{table}.k": {"distinct_values": value}}}
                )
                bumps.append((sent, time.monotonic()))

    def reader(sql: str, execute: bool) -> None:
        with ServerClient(cli.address) as client:
            while not done.is_set():
                sent = time.monotonic()
                payload = client.execute(sql) if execute else client.optimize(sql)
                answered = time.monotonic()
                with lock:
                    answers.append(
                        (sql, sent, answered, payload["cost_total"], payload["cached"])
                    )

    def guarded(target, *args) -> None:
        try:
            target(*args)
        except BaseException as error:  # reported by the test thread
            failures.append(error)
            done.set()

    readers = [
        threading.Thread(target=guarded, args=(reader, CHAIN_SQL, False)),
        threading.Thread(target=guarded, args=(reader, PAIR_SQL, True)),
    ]
    for thread in readers:
        thread.start()
    try:
        guarded(writer)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in readers)
    if failures:
        raise failures[0]
    return bumps, answers


def _admissible(bumps, sent: float, answered: float) -> List[int]:
    """The versions current at some moment of a request sent and
    answered at these times: version ``i`` is current from a moment in
    bump ``i``'s (sent, acked) to a moment in bump ``i + 1``'s."""
    bumped_in = [float("-inf")] + [started for started, _ in bumps]
    bumped_out = [acked for _, acked in bumps] + [float("inf")]
    return [
        version
        for version in range(len(bumped_in))
        if bumped_in[version] < answered and bumped_out[version] > sent
    ]


class InProcess:
    """The CLI's server, built from its arguments, searching in this process.

    The interpreter hands the GIL from thread to thread every 10 µs
    while it runs (5 ms by default), so a write lands inside a search
    or between a search and its check far more often.
    """

    def __init__(self) -> None:
        args = build_parser().parse_args(Cli.ARGS + ["--port", "0"])
        self.thread = ServerThread(build_server(args)).start()
        self.address = self.thread.address
        self.client = ServerClient(self.address)
        self.interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

    def stop(self) -> None:
        sys.setswitchinterval(self.interval)
        self.client.close()
        self.thread.stop()


@pytest.fixture(params=[Cli, InProcess], ids=["cli", "in-process"])
def cli(request):
    server = request.param()
    try:
        yield server
    finally:
        server.stop()


def test_engines_never_serve_a_mixed_or_stale_statistics_version(cli, request):
    bumps = 240 if request.config.getoption("--wide-sweep") else 12
    states = _states(bumps)
    references = _references(states)
    bump_times, answers = _race(cli, states, seed=bumps)
    assert len(bump_times) == bumps
    wrong = []
    for sql, sent, answered, served, cached in answers:
        versions = _admissible(bump_times, sent, answered)
        expected = {references[sql, states[version]] for version in versions}
        if served not in expected:
            wrong.append((sql[:40], versions, served, sorted(expected)))
    assert wrong == [], wrong[:5]
    cold = sum(not cached for *_, cached in answers)
    assert cold >= bumps // 2, (cold, len(answers))
    assert cli.client.stats()["cache"]["verify_violations"] == 0
    assert cli.client.health()["statistics_version"] >= bumps
