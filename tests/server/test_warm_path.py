"""The warm path: hits and pins are answered on the event loop.

A request resolves, pin-checks and looks up where it arrives; only a
miss takes an admission slot and a worker hop.  Counter trails are
pinned to the values the two-hop path (PR 22) left behind: every
request is still counted exactly once.  A hit is served under a
certificate the checker accepted — once per cached entry, not once per
request.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.options import ServerOptions
from repro.server import ClientError, OptimizerServer, ServerClient, ServerThread
from repro.server import app

from tests.server.conftest import CHAIN_SQL, PAIR_SQL
from tests.server.test_admission import wait_for_active_slot
from tests.service.test_verify_service import (
    corrupt_cached_certificate,
    swap_cached_plan,
)

POINT_SQL = "SELECT * FROM r WHERE r.k = 7"
OTHER_POINT_SQL = "SELECT * FROM r WHERE r.k = 9"  # same bucket, other literal

TIMINGS = ("hit_seconds", "engine_seconds")


def counters(client):
    stats = client.stats()
    cache = {k: v for k, v in stats["cache"].items() if k not in TIMINGS}
    return cache, stats["registry"]["counters"], stats["admission"]["admitted"]


# ---------------------------------------------------- (i) counter trails


def test_scripted_sequence_leaves_the_parent_counters(client, service):
    assert not client.optimize(POINT_SQL)["cached"]  # cold
    assert client.optimize(POINT_SQL)["cached"]  # exact hit
    assert client.optimize(OTHER_POINT_SQL)["parameterized"]  # template hit
    assert client.pin(CHAIN_SQL)["pinned"]  # cold, through /plans/pin
    assert client.optimize(CHAIN_SQL)["pinned"]  # pinned hit
    statement = client.prepare(POINT_SQL)["statement"]
    client.update_statistics("r", {"columns": {"r.v": {"distinct_values": 61.0}}})
    # The prepared statement's keys are stale: re-keyed, a miss, then a hit.
    assert not client.bind(statement, {"p0": 7})["cached"]
    assert client.bind(statement, {"p0": 7})["cached"]
    assert corrupt_cached_certificate(service) == 1
    requarantined = client.optimize(POINT_SQL)  # quarantined, re-optimized
    assert not requarantined["cached"] and requarantined["verified"]
    assert client.optimize(POINT_SQL)["cached"]

    cache, registry, admitted = counters(client)
    # Recorded at the parent commit (two-hop path), same script.
    assert cache == {
        "lookups": 11,
        "hits": 4,
        "misses": 6,
        "parameterized_hits": 1,
        "insertions": 7,
        "evictions": 0,
        "invalidations": 3,
        "degraded": 0,
        "shared_waits": 0,
        "verified_hits": 3,
        "verify_violations": 1,
        "quarantined": 1,
        # New with "verified once": the checker ran on the four fresh
        # answers, the pin's own check and the corrupted entry — on none
        # of the three verified hits.
        "verifications": 6,
    }
    assert registry == {
        "incumbents": 1,
        "pinned_hits": 1,
        "pins": 1,
        "pins_taken": 1,
        "quarantined": 0,
        "refreshes": 0,
        "rollbacks": 0,
        "unpins": 0,
    }
    # Four requests missed (cold, the pin's own optimization, the bind
    # after the bump, the quarantined entry); nothing else took a slot.
    # The parent admitted 8: every request but the pinned one.
    assert admitted == 4


def test_execute_and_batch_count_each_query_once(client):
    client.execute(PAIR_SQL)  # cold
    client.execute(PAIR_SQL)  # hit: executed on a worker, looked up once
    first = client.batch([CHAIN_SQL, PAIR_SQL, POINT_SQL])  # one hit, two cold
    again = client.batch([CHAIN_SQL, PAIR_SQL, POINT_SQL])  # all hits
    assert [r["cached"] for r in first["results"]] == [False, True, False]
    assert all(r["cached"] for r in again["results"])

    cache, registry, admitted = counters(client)
    # Recorded at the parent commit, same script.
    assert cache == {
        "lookups": 9,
        "hits": 5,
        "misses": 4,
        "parameterized_hits": 0,
        "insertions": 4,
        "evictions": 0,
        "invalidations": 0,
        "degraded": 0,
        "shared_waits": 0,
        "verified_hits": 5,
        "verify_violations": 0,
        "quarantined": 0,
        "verifications": 3,  # the three fresh answers, none of the five hits
    }
    assert registry["incumbents"] == 3
    # /execute runs its plan in a slot even on a hit; the all-hit batch
    # took none (the parent admitted all 4).
    assert admitted == 3

    def moved(delta):
        return {k: v for k, v in delta.items() if v and k not in TIMINGS}

    # The batch's own delta still covers its hits, found on the loop.
    assert moved(first["cache_stats"]) == {
        "lookups": 4, "hits": 1, "misses": 3, "insertions": 3, "verified_hits": 1,
        "verifications": 2,
    }
    assert moved(again["cache_stats"]) == {"lookups": 3, "hits": 3, "verified_hits": 3}


# ------------------------------------------------- (ii) who answers what


def test_hits_and_pins_stay_on_the_loop_thread(client, server, service, monkeypatch):
    seen = []

    def recording(name, function):
        def wrapper(*args, **kwargs):
            seen.append((name, threading.current_thread().name))
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        service, "verify_served", recording("verify", service.verify_served)
    )
    monkeypatch.setattr(
        server.registry, "pinned", recording("pin-check", server.registry.pinned)
    )

    def threads_of(call):
        del seen[:]
        call()
        return seen[:]

    def on_loop(record):
        return record[1] == "repro-server-loop"

    cold = threads_of(lambda: client.optimize(CHAIN_SQL))
    assert on_loop(cold[0]) and cold[0][0] == "pin-check"
    assert [name for name, _ in cold] == ["pin-check", "verify"]
    assert cold[1][1].startswith("repro-server_")  # the miss ran on a worker

    # The entry was verified before it was cached: a hit on it (by text
    # or through /bind) runs no checker and never leaves the loop.
    warm = threads_of(lambda: client.optimize(CHAIN_SQL))
    assert warm == [("pin-check", "repro-server-loop")]

    prepared = client.prepare(CHAIN_SQL)["statement"]
    bound = threads_of(lambda: client.bind(prepared))
    assert bound == [("pin-check", "repro-server-loop")]

    client.pin(CHAIN_SQL)
    pinned = threads_of(lambda: client.optimize(CHAIN_SQL))
    assert pinned == [("pin-check", "repro-server-loop")]

    # /execute still runs the plan on a worker — in a slot — hit or pin.
    before = client.stats()["admission"]["admitted"]
    assert client.execute(CHAIN_SQL)["pinned"]
    client.execute(PAIR_SQL)
    assert client.execute(PAIR_SQL)["cached"]
    assert client.stats()["admission"]["admitted"] == before + 3


# ------------------------------------------ (ii-b) verified once, served often


def test_a_cached_entry_is_verified_once_across_requests(client):
    assert client.optimize(CHAIN_SQL)["verified"]  # cold: verified on a worker
    before = client.stats()["cache"]
    answers = [client.optimize(CHAIN_SQL) for _ in range(6)]
    assert all(a["cached"] and a["verified"] for a in answers)
    after = client.stats()["cache"]
    assert after["verified_hits"] == before["verified_hits"] + 6
    assert after["verifications"] == before["verifications"] == 1
    assert after["verify_violations"] == after["quarantined"] == 0


def test_a_swapped_plan_is_caught_on_the_next_request(client, service):
    clean = client.optimize(CHAIN_SQL)
    pair = client.optimize(PAIR_SQL)
    assert client.optimize(CHAIN_SQL)["verified"]  # a verified hit first
    cached = {e.fingerprint.digest: e for e in service.cache.entries()}
    swap_cached_plan(
        service,
        cached[clean["fingerprint"]].fingerprint,
        cached[pair["fingerprint"]].plan,
    )
    before = client.stats()["cache"]

    served = client.optimize(CHAIN_SQL)
    assert not served["cached"] and served["verified"]
    assert served["sexpr"] == clean["sexpr"]
    after = client.stats()["cache"]
    assert after["verify_violations"] == before["verify_violations"] + 1
    assert after["quarantined"] == before["quarantined"] + 1
    assert after["verifications"] == before["verifications"] + 2
    assert client.optimize(CHAIN_SQL)["cached"]


# ------------------------------------- (iii) a hit needs no admission slot


def test_a_hit_is_served_while_the_server_is_saturated(service, counting):
    server = OptimizerServer(
        service,
        options=ServerOptions(max_concurrent=1, max_queue_depth=0, workers=2),
    )
    with ServerThread(server) as harness:
        with ServerClient(harness.address) as fast:
            assert not fast.optimize(PAIR_SQL)["cached"]
            counting.delay_seconds = 1.0

            def slow():
                with ServerClient(harness.address) as c:
                    return c.optimize(CHAIN_SQL)

            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(slow)
                wait_for_active_slot(fast)
                assert fast.optimize(PAIR_SQL)["cached"]  # 429'd before
                with pytest.raises(ClientError) as caught:
                    fast.optimize(POINT_SQL)  # a miss still is
                assert caught.value.status == 429
                admission = fast.stats()["admission"]
                assert admission["active"] == 1
                assert admission["admitted"] == 2  # the two cold searches
                assert future.result()["cost_total"] > 0


# ------------------------------------ (iv) the loop only does bounded work


def test_a_long_statement_is_resolved_off_the_loop(harness, server, monkeypatch):
    long_sql = "SELECT * FROM r WHERE " + " AND ".join(
        f"r.v <= {200 + n}" for n in range(200)
    )
    assert len(long_sql) > app._MAX_LOOP_SQL > len(CHAIN_SQL)
    threads = []
    translate = server._translate

    def slow_translate(sql):
        threads.append(threading.current_thread().name)
        if len(sql) > app._MAX_LOOP_SQL:
            time.sleep(0.4)
        return translate(sql)

    monkeypatch.setattr(server, "_translate", slow_translate)
    with ServerClient(harness.address) as probe:
        probe.health()  # connection up before the clock starts

        def long_request():
            with ServerClient(harness.address) as c:
                return c.optimize(long_sql)

        with ThreadPoolExecutor(max_workers=1) as pool:
            future = pool.submit(long_request)
            give_up = time.monotonic() + 5.0
            while not threads and time.monotonic() < give_up:
                time.sleep(0.005)
            started = time.perf_counter()
            probe.health()
            waited = time.perf_counter() - started
            assert not future.done()  # /health answered mid-translation
            assert future.result()["cost_total"] > 0
    assert waited < 0.1
    assert threads[0].startswith("repro-server_")

    del threads[:]
    with ServerClient(harness.address) as c:
        c.optimize(CHAIN_SQL)
    assert threads == ["repro-server-loop"]


# -------------------------------------------------- (v) single flight


def test_concurrent_identical_cold_requests_run_the_engine_once(
    harness, counting
):
    counting.delay_seconds = 0.3
    barrier = threading.Barrier(2)

    def ask():
        with ServerClient(harness.address) as c:
            barrier.wait()
            return c.optimize(CHAIN_SQL)

    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = [f.result() for f in [pool.submit(ask), pool.submit(ask)]]
    assert counting.runs == 1
    assert sorted(a["cached"] for a in answers) == [False, True]
    assert answers[0]["sexpr"] == answers[1]["sexpr"]
    with ServerClient(harness.address) as c:
        stats = c.stats()
    assert stats["cache"]["shared_waits"] == 1
    assert stats["cache"]["insertions"] == 1  # the chain has no literal
    # Both looked up on the loop, both missed, both were admitted.
    assert stats["cache"]["misses"] == stats["cache"]["lookups"] == 2
    assert stats["admission"]["admitted"] == 2


# ------------------------------- loop-side lookups beside worker-side writes


def test_loop_lookups_race_worker_inserts_and_statistics_writes(
    harness, service, monkeypatch
):
    """Hits on the loop thread, misses and writes on workers, one cache
    and one statement memo: nothing is answered under superseded keys."""
    sqls = [CHAIN_SQL, PAIR_SQL, POINT_SQL, OTHER_POINT_SQL]
    bump = {"columns": {"t.v": {"distinct_values": 123.0}}}
    catalog = service.catalog
    superseded = []

    def fresh_keys_only(function):
        # Whatever it returns is keyed under table versions no older
        # than those current when the call began.
        def wrapper(query, *args, **kwargs):
            began = {name: catalog.table_version(name) for name in "rst"}
            found = function(query, *args, **kwargs)
            key = found.exact if hasattr(found, "exact") else found.fingerprint
            for name, version in zip(key.tables, key.versions):
                if version < began[name]:
                    superseded.append((name, version, began[name]))
            return found

        return wrapper

    monkeypatch.setattr(service, "lookup", fresh_keys_only(service.lookup))
    monkeypatch.setattr(service, "optimize", fresh_keys_only(service.optimize))
    with ServerClient(harness.address) as c:
        c.update_statistics("t", bump)  # later writes only move versions
        expected = {sql: c.optimize(sql)["cost_total"] for sql in sqls}
    stop = threading.Event()

    def ask(offset):
        with ServerClient(harness.address) as c:
            return [
                (sql, c.optimize(sql)["cost_total"])
                for n in range(40)
                for sql in [sqls[(n + offset) % len(sqls)]]
            ]

    def write():
        with ServerClient(harness.address) as c:
            while not stop.is_set():
                c.update_statistics("t", bump)  # CHAIN's entries go stale
                time.sleep(0.002)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=5) as pool:
            writer = pool.submit(write)
            askers = [pool.submit(ask, offset) for offset in range(4)]
            try:
                answers = [pair for f in askers for pair in f.result(timeout=60)]
            finally:
                stop.set()
            writer.result(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 160
    assert all(cost == expected[sql] for sql, cost in answers)
    assert superseded == []
    with ServerClient(harness.address) as c:
        stats = c.stats()
    cache = stats["cache"]
    assert stats["server"]["errors"] == 0
    assert cache["lookups"] == (
        cache["hits"] + cache["parameterized_hits"] + cache["misses"]
    )
    assert cache["verify_violations"] == cache["quarantined"] == 0
    assert cache["invalidations"] > 0  # the writes did land mid-traffic
    # One memo entry per text, however many versions each was resolved at.
    memo = stats["server"]["statement_memo"]
    assert memo["entries"] == len(sqls) and memo["hits"] > 0
