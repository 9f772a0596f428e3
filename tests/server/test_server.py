"""End-to-end tests over the wire: optimize, prepare/bind, pins, guard."""

from __future__ import annotations

import http.client
import json
import socket
from urllib.parse import urlsplit

import pytest

from repro.generator.generate import generate_optimizer
from repro.models.relational import relational_model
from repro.options import ServerOptions
from repro.search.engine import SearchOptions
from repro.server import ClientError, OptimizerServer, ServerClient, ServerThread
from repro.service import OptimizerService, ServiceOptions

from tests.server.conftest import (
    CHAIN_SQL,
    PAIR_SQL,
    corrupt_join_keys,
)

POINT_SQL = "SELECT * FROM r WHERE r.k = 7"


# ------------------------------------------------------------ plumbing


def test_health(client):
    health = client.health()
    assert health["ok"] is True
    assert health["statistics_version"] >= 0


def test_unknown_endpoint_is_404(client):
    with pytest.raises(ClientError) as caught:
        client.request("GET", "/nope")
    assert caught.value.status == 404


def test_wrong_method_is_405(client):
    with pytest.raises(ClientError) as caught:
        client.request("GET", "/optimize")
    assert caught.value.status == 405


def test_missing_field_is_400(client):
    with pytest.raises(ClientError) as caught:
        client.request("POST", "/optimize", {"not_sql": 1})
    assert caught.value.status == 400


def test_malformed_json_is_400(harness):
    parts = urlsplit(harness.address)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=10.0
    )
    try:
        connection.request(
            "POST",
            "/optimize",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        response.read()
        assert response.status == 400
    finally:
        connection.close()


#: Raw requests whose framing the server must answer, never drop:
#: (bytes sent, shut the write side afterwards, expected status).
FRAMING = {
    "non-numeric content-length": (
        b"POST /optimize HTTP/1.1\r\nContent-Length: ten\r\n\r\n", False, 400
    ),
    "negative content-length": (
        b"POST /optimize HTTP/1.1\r\nContent-Length: -5\r\n\r\n", False, 400
    ),
    "body not utf-8": (
        b'POST /optimize HTTP/1.1\r\nContent-Length: 12\r\n\r\n{"sql": "\xff"}',
        False,
        400,
    ),
    "body shorter than its length": (
        b"POST /optimize HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}", True, 400
    ),
    "head line over the stream limit": (
        b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", False, 400
    ),
    "oversize body": (
        b"POST /optimize HTTP/1.1\r\nContent-Length: 5000000\r\n\r\n", False, 413
    ),
    "malformed request line": (b"GARBAGE\r\n\r\n", False, 400),
    "non-object json": (
        b"POST /optimize HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]", False, 400
    ),
    "bare-lf head": (b"GET /health HTTP/1.1\nConnection: close\n\n", False, 200),
}


@pytest.mark.parametrize("case", sorted(FRAMING))
def test_malformed_framing_is_answered_and_counted(harness, server, case):
    request, half_close, status = FRAMING[case]
    parts = urlsplit(harness.address)
    before = server.errors
    with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split(b" ")[1:2] == [str(status).encode()], response[:200]
    assert b"content-type: application/json" in head.lower()
    payload = json.loads(body)
    if status == 200:
        assert payload["ok"] is True and server.errors == before
    else:
        assert payload["error"] and server.errors == before + 1


def test_bad_sql_is_400(client):
    with pytest.raises(ClientError) as caught:
        client.optimize("SELECT * FROM nowhere")
    assert caught.value.status == 400


# -------------------------------------------------- optimize / engine fields


def test_cold_then_warm_optimize(client):
    cold = client.optimize(CHAIN_SQL)
    assert not cold["cached"]
    assert not cold["degraded"]
    assert cold["cost_total"] > 0
    assert cold["verified"] is True  # verify_plans=True in the fixture
    warm = client.optimize(CHAIN_SQL)
    assert warm["cached"]
    assert warm["sexpr"] == cold["sexpr"]
    assert warm["key"] == cold["key"]


def test_kernel_and_memory_knobs_keep_the_plan(client, scenario):
    """The kernel and memory-budget knobs live on the engine's options only.

    A server whose engine is built with the specialized kernel, or with
    a (generous) ``max_groups``, serves the same plan as the default
    engine; neither knob changes an exhaustive search's answer.
    """
    baseline = client.optimize(PAIR_SQL)

    def serve(options):
        engine = generate_optimizer(relational_model(), scenario.catalog, options)
        server = OptimizerServer(
            OptimizerService(engine, options=ServiceOptions(verify_plans=True)),
            options=ServerOptions(max_concurrent=2, workers=2),
        )
        with ServerThread(server) as running:
            with ServerClient(running.address) as other:
                return other.optimize(PAIR_SQL)

    specialized = serve(SearchOptions(kernel="specialized"))
    bounded = serve(SearchOptions(max_groups=10_000))
    assert specialized["cost_total"] > 0
    assert specialized["sexpr"] == baseline["sexpr"]
    assert bounded["sexpr"] == specialized["sexpr"]
    assert bounded["cost_total"] == baseline["cost_total"]


@pytest.mark.parametrize("kernel", ["imaginary", "compiled"])
def test_bad_kernel_hint_is_400(client, counting, kernel):
    """No wire value of ``kernel`` is accepted: the field itself is retired."""
    with pytest.raises(ClientError) as caught:
        client.optimize(CHAIN_SQL, kernel=kernel)
    assert caught.value.status == 400
    assert "unknown field 'kernel'" in str(caught.value)
    assert counting.runs == 0


@pytest.mark.parametrize(
    "endpoint",["optimize", "execute", "prepare", "bind", "batch", "pin"]
)
def test_engine_field_is_rejected_by_name(client, service, counting, endpoint):
    """A field that picks or steers the engine is a 400 naming it.

    The engine and its knobs are set once, on the engine's own options;
    a request may bound its run (``budget``, ``deadline_seconds``) and
    nothing else.  A refused request reaches neither cache nor engine.
    """
    statement = client.prepare(POINT_SQL)["statement"]
    send = {
        "optimize": lambda **field: client.optimize(CHAIN_SQL, **field),
        "execute": lambda **field: client.execute(CHAIN_SQL, **field),
        "prepare": lambda **field: client.prepare(CHAIN_SQL, **field),
        "bind": lambda **field: client.bind(statement, {"p0": 9}, **field),
        "batch": lambda **field: client.batch([CHAIN_SQL, PAIR_SQL], **field),
        "pin": lambda **field: client.pin(CHAIN_SQL, **field),
    }[endpoint]
    for field, value in (
        ("engine", "volcano"),
        ("kernel", "specialized"),
        ("promise", "static"),
    ):
        with pytest.raises(ClientError) as caught:
            send(**{field: value})
        assert caught.value.status == 400
        assert f"unknown field {field!r}" in str(caught.value)
    assert service.stats.lookups == 0
    assert counting.runs == 0


# ------------------------------------------------------- prepare / bind


def test_prepare_bind_roundtrip(client):
    prepared = client.prepare(POINT_SQL)
    assert prepared["statement"].startswith("stmt-")
    assert prepared["parameterized"]
    assert prepared["parameters"] == {"p0": 7}

    first = client.bind(prepared["statement"], {"p0": 9})
    assert not first["cached"]
    assert first["parameters"] == {"p0": 9}
    # A different equality literal shares the selectivity bucket, so the
    # second bind is a parameterized template hit — no engine run.
    second = client.bind(prepared["statement"], {"p0": 11})
    assert second["cached"] and second["parameterized"]
    assert second["sexpr"] != first["sexpr"]  # literals differ
    assert second["cost_total"] == first["cost_total"]

    # Unbound parameters fall back to the prepared literals.
    default = client.bind(prepared["statement"])
    assert default["parameters"] == {"p0": 7}


def test_bind_unknown_statement_is_404(client):
    with pytest.raises(ClientError) as caught:
        client.bind("stmt-doesnotexist", {"p0": 1})
    assert caught.value.status == 404


def test_bind_unknown_parameter_is_400(client):
    prepared = client.prepare(POINT_SQL)
    with pytest.raises(ClientError) as caught:
        client.bind(prepared["statement"], {"p9": 1})
    assert caught.value.status == 400


# --------------------------------------------------------------- batch


def test_batch_then_cached_batch(client):
    first = client.batch([CHAIN_SQL, PAIR_SQL])
    assert len(first["results"]) == 2
    assert all(r["cost_total"] > 0 for r in first["results"])
    again = client.batch([CHAIN_SQL, PAIR_SQL])
    assert all(r["cached"] for r in again["results"])
    for before, after in zip(first["results"], again["results"]):
        assert after["sexpr"] == before["sexpr"]


def test_batch_honours_budget(client, service):
    degraded = client.batch([CHAIN_SQL, PAIR_SQL], budget={"max_costings": 1})
    assert degraded["degraded_to_independent"]  # the shared run tripped it
    assert all(r["degraded"] for r in degraded["results"])
    assert len(service.cache) == 0  # degraded answers are never cached
    with pytest.raises(ClientError) as caught:
        client.batch([CHAIN_SQL], budget={"max_rows": 3})
    assert caught.value.status == 400  # still validated


# ------------------------------------------------------ pinning / guard


def test_pin_survives_statistics_bump_until_unpinned(client):
    cold = client.optimize(CHAIN_SQL)
    pin = client.pin(CHAIN_SQL, reason="latency SLO")
    assert pin["pinned"] and pin["verified"]

    before = client.health()["statistics_version"]
    bumped = client.update_statistics(
        "t", {"columns": {"t.v": {"distinct_values": 123.0}}}
    )
    assert bumped["statistics_version"] > before

    served = client.optimize(CHAIN_SQL)
    assert served["pinned"]
    assert served["sexpr"] == cold["sexpr"]  # the pin, not a re-optimization

    lifted = client.unpin(sql=CHAIN_SQL)
    assert lifted["unpinned"] and lifted["kind"] == "user"
    fresh = client.optimize(CHAIN_SQL)
    assert not fresh["pinned"]

    registry = client.plans()
    assert registry["counters"]["pinned_hits"] >= 1
    assert [e["kind"] for e in registry["events"]].count("pin") >= 1


def test_unpin_without_pin_is_404(client):
    with pytest.raises(ClientError) as caught:
        client.unpin(sql=CHAIN_SQL)
    assert caught.value.status == 404


def test_pin_refuses_degraded_plan(client):
    with pytest.raises(ClientError) as caught:
        client.pin(CHAIN_SQL, budget={"max_costings": 1})
    assert caught.value.status == 409


def test_regression_guard_rolls_back_seeded_refresh(client):
    """The acceptance scenario: a statistics lie must not evict a good plan."""
    executed = client.execute(CHAIN_SQL)  # adopt + observe real q-error
    assert executed["max_q_error"] is not None
    incumbent_sexpr = executed["sexpr"]

    corrupt_join_keys(client)

    served = client.optimize(CHAIN_SQL)
    assert served["guard"] is not None
    assert served["guard"]["action"] == "rollback"
    assert served["pinned"]
    assert served["sexpr"] == incumbent_sexpr  # incumbent still served

    stats = client.stats()
    registry = stats["registry"]
    assert registry["counters"]["rollbacks"] == 1
    assert any(e["kind"] == "rollback" for e in registry["events"])
    assert registry["quarantined"], "candidate plan was not quarantined"
    worst = registry["quarantined"][0]
    assert worst["cost_total"] > worst["allowed"]

    # Follow-up requests serve the rollback pin without re-optimizing.
    again = client.optimize(CHAIN_SQL)
    assert again["pinned"]
    assert again["sexpr"] == incumbent_sexpr
    assert [p["kind"] for p in registry["pins"]] == ["rollback"]


def bump_statistics(client):
    before = client.health()["statistics_version"]
    client.update_statistics("r", {"columns": {"r.v": {"distinct_values": 61.0}}})
    assert client.health()["statistics_version"] > before


def test_bind_serves_the_pin_across_a_statistics_bump(client):
    statement = client.prepare(POINT_SQL)["statement"]
    cold = client.optimize(POINT_SQL)
    client.pin(POINT_SQL)
    bump_statistics(client)

    bound = client.bind(statement, {"p0": 7})  # the pinned literal
    assert bound["key"] == cold["key"]
    assert bound["pinned"]
    assert bound["sexpr"] == cold["sexpr"]
    # Another literal is another query: not pinned, optimized as usual.
    other = client.bind(statement, {"p0": 9})
    assert not other["pinned"]


def test_batch_answers_a_pinned_member_from_the_pin(client, service, monkeypatch):
    cold = client.optimize(CHAIN_SQL)
    client.pin(CHAIN_SQL)
    bump_statistics(client)

    batched = []
    optimize_many = service.optimize_many

    def spy(queries, *args, **kwargs):
        batched.append(len(queries))
        return optimize_many(queries, *args, **kwargs)

    monkeypatch.setattr(service, "optimize_many", spy)
    pinned, fresh = client.batch([CHAIN_SQL, PAIR_SQL])["results"]
    assert pinned["pinned"]
    assert pinned["sexpr"] == cold["sexpr"]
    assert not fresh["pinned"] and fresh["cost_total"] > 0
    assert batched == [1]  # the pinned member never reached the optimizer

    # Every member pinned: nothing to optimize at all.
    client.pin(PAIR_SQL)
    both = client.batch([CHAIN_SQL, PAIR_SQL])
    assert all(result["pinned"] for result in both["results"])
    assert batched == [1]


# --------------------------------------------------------------- stats


def test_stats_shape_and_verification_clean(client):
    client.optimize(CHAIN_SQL)
    client.optimize(CHAIN_SQL)
    stats = client.stats()
    assert set(stats) == {
        "cache", "cache_entries", "admission", "registry", "server",
    }
    assert stats["cache"]["hits"] >= 1
    assert stats["cache"]["verify_violations"] == 0
    assert stats["cache_entries"] >= 1
    assert stats["server"]["requests"] >= 3
    assert stats["admission"]["admitted"] >= 1
