"""Admission control: bounded concurrency, fast-fail, graceful drain."""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import AdmissionError
from repro.options import ServerOptions
from repro.server import (
    AdmissionController,
    ClientError,
    OptimizerServer,
    ServerClient,
    ServerThread,
)

from tests.server.conftest import CHAIN_SQL, PAIR_SQL


def options(**overrides) -> ServerOptions:
    defaults = dict(max_concurrent=1, max_queue_depth=1,
                    queue_timeout_seconds=5.0)
    defaults.update(overrides)
    return ServerOptions(**defaults)


# ---------------------------------------------------------------- unit


def test_grants_up_to_max_concurrent():
    async def scenario():
        ctrl = AdmissionController(options(max_concurrent=2))
        await ctrl.acquire()
        await ctrl.acquire()
        assert ctrl.active == 2
        ctrl.release()
        ctrl.release()
        assert ctrl.active == 0
        assert ctrl.counters()["admitted"] == 2

    asyncio.run(scenario())


def test_queue_full_fast_fails():
    async def scenario():
        ctrl = AdmissionController(options(max_queue_depth=0))
        await ctrl.acquire()
        with pytest.raises(AdmissionError) as caught:
            await ctrl.acquire()
        assert caught.value.reason == "queue_full"
        assert caught.value.status == 429
        assert ctrl.counters()["rejected_busy"] == 1

    asyncio.run(scenario())


def test_queue_wait_times_out():
    async def scenario():
        ctrl = AdmissionController(options())
        await ctrl.acquire()
        with pytest.raises(AdmissionError) as caught:
            await ctrl.acquire(timeout=0.05)
        assert caught.value.reason == "timeout"
        assert ctrl.queued == 0  # the expired waiter left the queue
        assert ctrl.counters()["rejected_timeout"] == 1

    asyncio.run(scenario())


def test_release_transfers_slot_to_oldest_waiter():
    async def scenario():
        ctrl = AdmissionController(options(max_queue_depth=2))
        await ctrl.acquire()
        order = []

        async def waiter(name):
            await ctrl.acquire()
            order.append(name)

        first = asyncio.ensure_future(waiter("first"))
        await asyncio.sleep(0)  # let "first" enqueue before "second"
        second = asyncio.ensure_future(waiter("second"))
        await asyncio.sleep(0)
        assert ctrl.queued == 2
        ctrl.release()
        await first
        ctrl.release()
        await second
        assert order == ["first", "second"]
        assert ctrl.active == 1  # the last transfer is still held
        ctrl.release()
        assert ctrl.active == 0

    asyncio.run(scenario())


def test_drain_waits_for_active_work():
    async def scenario():
        ctrl = AdmissionController(options())
        assert await ctrl.drain(timeout=0.01)  # idle: already drained
        await ctrl.acquire()
        assert not await ctrl.drain(timeout=0.05)  # holder still active

        async def finish_later():
            await asyncio.sleep(0.05)
            ctrl.release()

        task = asyncio.ensure_future(finish_later())
        assert await ctrl.drain(timeout=2.0)
        await task

    asyncio.run(scenario())


# ------------------------------------------------------- through HTTP


def wait_for_active_slot(probe: ServerClient, deadline: float = 5.0) -> None:
    """Block until the server reports an optimization holding a slot.

    ``/stats`` is never admitted through the controller, so it works
    even while the server is saturated — which is exactly when we need
    it.
    """
    waited = 0.0
    while waited < deadline:
        if probe.stats()["admission"]["active"] >= 1:
            return
        time.sleep(0.01)
        waited += 0.01
    raise AssertionError("slow request never occupied a slot")


def test_server_fast_fails_when_saturated(service, counting):
    """One slot, no queue: a second distinct query gets a 429."""
    counting.delay_seconds = 1.0
    server = OptimizerServer(
        service, options=options(max_queue_depth=0, workers=2)
    )
    with ServerThread(server) as harness:
        def slow():
            with ServerClient(harness.address) as c:
                return c.optimize(CHAIN_SQL)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(slow)
            with ServerClient(harness.address) as fast:
                wait_for_active_slot(fast)
                with pytest.raises(ClientError) as caught:
                    fast.optimize(PAIR_SQL)
                assert caught.value.status == 429
                assert caught.value.reason == "queue_full"
                assert fast.stats()["admission"]["rejected_busy"] >= 1
            assert future.result()["cost_total"] > 0


def test_server_queue_timeout_maps_to_429(service, counting):
    counting.delay_seconds = 1.0
    server = OptimizerServer(
        service,
        options=options(max_queue_depth=4, queue_timeout_seconds=0.05,
                        workers=2),
    )
    with ServerThread(server) as harness:
        def slow():
            with ServerClient(harness.address) as c:
                return c.optimize(CHAIN_SQL)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(slow)
            with ServerClient(harness.address) as fast:
                wait_for_active_slot(fast)
                with pytest.raises(ClientError) as caught:
                    fast.optimize(PAIR_SQL)
                assert caught.value.status == 429
                assert caught.value.reason == "timeout"
            assert future.result()["cost_total"] > 0


def test_shutdown_drains_in_flight_requests(service, counting):
    """A request admitted before shutdown still gets its 200."""
    counting.delay_seconds = 0.4
    server = OptimizerServer(service, options=options(workers=2))
    harness = ServerThread(server)
    harness.start()
    try:
        def slow():
            with ServerClient(harness.address) as c:
                return c.optimize(CHAIN_SQL)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(slow)
            with ServerClient(harness.address) as probe:
                wait_for_active_slot(probe)
            harness.stop()
            answer = future.result(timeout=10.0)
            assert answer["cost_total"] > 0
            assert not answer["cached"]
    finally:
        harness.stop()


def test_deadline_budget_is_what_remains_after_the_queue(
    service, counting, monkeypatch
):
    """One slot, held ~0.5 s: the queued request's search gets the rest."""
    budgets = []
    optimize = counting.optimize

    def spy(*args, **kwargs):
        engine_options = kwargs.get("options")
        budgets.append(engine_options and engine_options.budget)
        return optimize(*args, **kwargs)

    monkeypatch.setattr(counting, "optimize", spy)
    counting.delay_seconds = 0.5
    server = OptimizerServer(service, options=options(workers=2))
    with ServerThread(server) as harness:
        def slow():
            with ServerClient(harness.address) as c:
                return c.optimize(CHAIN_SQL)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(slow)
            with ServerClient(harness.address) as queued:
                wait_for_active_slot(queued)
                answer = queued.optimize(PAIR_SQL, deadline_seconds=5.0)
                assert not answer["cached"] and not answer["degraded"]
            assert future.result()["cost_total"] > 0
    holder, waiter = budgets
    assert holder is None  # the slot holder asked for no deadline
    # Taken once the slot was granted, so the ~0.5 s in the queue are
    # gone from it; taken before queueing it would read 5.0.
    assert 3.5 <= waiter.deadline_seconds <= 4.7
