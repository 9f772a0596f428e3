"""Shared fixtures for the optimizer-server tests.

Everything is built on the canonical drift scenario
(:func:`repro.feedback.drifted_workload`): a three-table executable
catalog whose plans, costs, and q-errors are seeded and deterministic,
so the tests can assert on guard decisions and counters exactly.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.feedback import drifted_workload
from repro.generator.generate import generate_optimizer
from repro.models.relational import relational_model
from repro.options import ServerOptions
from repro.server import OptimizerServer, ServerClient, ServerThread
from repro.service import OptimizerService, ServiceOptions

CHAIN_SQL = "SELECT * FROM r, s, t WHERE r.k = s.k AND s.k = t.k"
PAIR_SQL = "SELECT * FROM r, s WHERE r.k = s.k"
RANGE_SQL = "SELECT * FROM r WHERE r.v <= 40"


class CountingOptimizer:
    """Delegating wrapper that counts (and can slow down) engine runs.

    Everything except ``optimize`` passes straight through, so the
    service sees an ordinary engine; the tests see exactly how many
    optimizations actually ran.
    """

    def __init__(self, inner, delay_seconds: float = 0.0):
        self._inner = inner
        self.delay_seconds = delay_seconds
        self.runs = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def optimize(self, *args, **kwargs):
        with self._lock:
            self.runs += 1
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        return self._inner.optimize(*args, **kwargs)


class _ErrorRecords(logging.Handler):
    """Keeps every ERROR-or-worse record it is handed."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_unhandled_loop_errors():
    """Fail any test in which an ERROR record reaches the ``asyncio`` logger.

    An exception that escapes a connection handler or a task is logged
    by asyncio ("Unhandled exception in client_connected_cb"), not
    raised, so ``filterwarnings = ["error"]`` never sees it.
    """
    handler = _ErrorRecords()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged an unhandled error: "
            + "; ".join(record.getMessage() for record in handler.records)
        )


@pytest.fixture
def scenario():
    return drifted_workload()


@pytest.fixture
def counting(scenario):
    return CountingOptimizer(
        generate_optimizer(relational_model(), scenario.catalog)
    )


@pytest.fixture
def service(counting):
    return OptimizerService(counting, options=ServiceOptions(verify_plans=True))


@pytest.fixture
def server(service):
    return OptimizerServer(
        service,
        options=ServerOptions(max_concurrent=8, workers=8, verify_pins=True),
    )


@pytest.fixture
def harness(server):
    with ServerThread(server) as running:
        yield running


@pytest.fixture
def client(harness):
    with ServerClient(harness.address) as connected:
        yield connected


def corrupt_join_keys(client) -> None:
    """Seed the regressing refresh: join keys claimed non-selective.

    Claiming one distinct value for ``r.k`` and ``s.k`` makes every
    join estimate balloon (~29x on the chain join) and flips the chosen
    plan's structure — a refresh the guard must roll back when the
    incumbent's observed q-error says its estimates were accurate.
    """
    client.update_statistics(
        "r", {"columns": {"r.k": {"distinct_values": 1}}}
    )
    client.update_statistics(
        "s", {"columns": {"s.k": {"distinct_values": 1}}}
    )
