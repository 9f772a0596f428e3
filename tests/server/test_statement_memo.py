"""The statement memo: a repeated SQL text is resolved once.

Parse, translate, render and fingerprint happen the first time a text is
seen under a statistics version; afterwards the service hands back the
same :class:`~repro.service.Statement`.  One entry per live text — a
stale one is replaced in place — and the same bounded LRU class holds
the server's prepared statements.
"""

from __future__ import annotations

import pytest

from repro.errors import SqlError
from repro.server import ClientError, OptimizerServer, ServerClient, ServerThread
from repro.service import StatementLRU
from repro.service import service as service_module
from repro.service.cache import MAX_STATEMENTS
from repro.sql.translator import Translator

from tests.server.conftest import CHAIN_SQL, PAIR_SQL, RANGE_SQL

POINT_SQL = "SELECT * FROM r WHERE r.k = 7"
VOLATILE = ("elapsed_seconds",)


def spy(monkeypatch, owner, name):
    """Count calls of ``owner.name`` without changing what it does."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def stable(payload):
    return {k: v for k, v in payload.items() if k not in VOLATILE}


def memo(client):
    return client.stats()["server"]["statement_memo"]


# ------------------------------------------------------------ resolved once


def test_a_repeated_text_is_translated_once(client, monkeypatch):
    translated = spy(monkeypatch, Translator, "translate")
    cold = client.optimize(CHAIN_SQL)
    first, second = client.optimize(CHAIN_SQL), client.optimize(CHAIN_SQL)
    assert len(translated) == 1
    assert not cold["cached"] and first["cached"]
    assert stable(first) == stable(second)
    assert stable(first) == {**stable(cold), "cached": True, "guard": None}
    assert memo(client) == {"entries": 1, "hits": 2, "misses": 1}


def test_a_literal_variant_normalizes_once(client, monkeypatch):
    normalized = spy(monkeypatch, service_module, "normalize_literals")
    assert not client.optimize(POINT_SQL)["cached"]
    assert len(normalized) == 1  # the cold statement's own template keys
    variant = "SELECT * FROM r WHERE r.k = 9"  # same bucket, other literal
    before = client.stats()["cache"]
    answers = [client.optimize(variant) for _ in range(5)]
    assert all(a["cached"] and a["parameterized"] for a in answers)
    after = client.stats()["cache"]
    assert after["parameterized_hits"] == before["parameterized_hits"] + 5
    assert after["lookups"] == before["lookups"] + 10  # exact, then template
    assert len(normalized) == 2  # once for the variant, not once per request
    # An exact hit never normalizes at all.
    assert client.optimize(POINT_SQL)["cached"]
    assert len(normalized) == 2


def test_a_statistics_write_replaces_the_entry_in_place(client, monkeypatch):
    translated = spy(monkeypatch, Translator, "translate")
    first = client.optimize(PAIR_SQL)
    client.update_statistics("r", {"columns": {"r.v": {"distinct_values": 61.0}}})
    second = client.optimize(PAIR_SQL)
    assert len(translated) == 2  # re-resolved under the new version
    assert not second["cached"]
    assert second["fingerprint"] != first["fingerprint"]
    assert second["key"] == first["key"]
    assert memo(client)["entries"] == 1

    for round_ in range(50):
        client.update_statistics(
            "r", {"columns": {"r.v": {"distinct_values": 62.0 + round_}}}
        )
        assert client.optimize(PAIR_SQL)["verified"]
    assert memo(client)["entries"] == 1  # no superseded version is kept
    assert client.stats()["cache_entries"] == 1


def test_malformed_sql_is_never_memoized(client):
    errors = []
    for _ in range(2):
        with pytest.raises(ClientError) as caught:
            client.optimize("SELECT * FROM nowhere WHERE")
        errors.append((caught.value.status, str(caught.value)))
    assert errors[0] == errors[1] and errors[0][0] == 400
    assert memo(client)["entries"] == 0


def test_a_pinned_statement_is_served_under_its_memoized_key(client, monkeypatch):
    pinned = client.pin(CHAIN_SQL)
    translated = spy(monkeypatch, Translator, "translate")
    before = memo(client)["hits"]
    answers = [client.optimize(CHAIN_SQL) for _ in range(3)]
    assert all(a["pinned"] and a["key"] == pinned["key"] for a in answers)
    assert translated == []  # the pin's own request resolved the text
    assert memo(client)["hits"] == before + 3
    assert client.stats()["registry"]["counters"]["pinned_hits"] == 3
    # The pin survives a statistics write; its fingerprint is re-derived.
    client.update_statistics("t", {"columns": {"t.v": {"distinct_values": 9.0}}})
    moved = client.optimize(CHAIN_SQL)
    assert moved["pinned"] and moved["key"] == pinned["key"]
    assert moved["fingerprint"] != answers[0]["fingerprint"]


def test_the_service_memoizes_text_for_library_callers(service, monkeypatch):
    translated = spy(monkeypatch, Translator, "translate")
    statement = service.resolve(RANGE_SQL)
    assert service.resolve(RANGE_SQL) is statement
    assert not service.optimize(RANGE_SQL).cached
    assert service.optimize(RANGE_SQL).cached
    assert service.prepare(RANGE_SQL).exact is statement.exact
    assert len(translated) == 1
    # Not memoized: explicit props, over-long text, text that fails.
    service.resolve(RANGE_SQL, statement.props)
    long_sql = RANGE_SQL + " AND r.v <= 40" * 200
    assert len(long_sql) > service_module.MAX_MEMO_SQL
    service.resolve(long_sql)
    with pytest.raises(SqlError):
        service.resolve("SELECT FROM")
    assert len(service.statements) == 1


# ------------------------------------------------------------ one bounded LRU


def test_the_lru_evicts_the_least_recently_used():
    lru = StatementLRU(max_entries=3)
    for name in "abc":
        lru.put(name, name.upper())
    assert lru.get("a") == "A"  # refreshed: b is now the oldest
    lru.put("d", "D")
    assert len(lru) == 3
    assert lru.get("b") is None
    assert [lru.get(name) for name in "acd"] == ["A", "C", "D"]
    assert lru.counters() == {"entries": 3, "hits": 4, "misses": 1}


def test_a_stale_value_is_not_found_and_is_replaced_in_place():
    lru = StatementLRU(max_entries=3)
    lru.put("a", "old", stamp=1)
    assert lru.get("a", 1) == "old"
    assert lru.get("a", 2) is None  # a miss: the stamp moved
    lru.put("a", "new", stamp=2)
    assert len(lru) == 1 and lru.get("a", 2) == "new"


def test_bound_plus_one_texts_evict_the_oldest(service, monkeypatch):
    assert service.statements.max_entries == MAX_STATEMENTS
    service.statements = StatementLRU(max_entries=3)
    texts = [f"SELECT * FROM r WHERE r.k = {n}" for n in range(4)]
    first = service.resolve(texts[0])
    for text in texts[1:]:
        service.resolve(text)
    assert len(service.statements) == 3
    translated = spy(monkeypatch, Translator, "translate")
    assert service.resolve(texts[0]) is not first  # evicted: resolved again
    assert len(translated) == 1
    service.resolve(texts[3])
    assert len(translated) == 1  # still memoized


def test_prepared_statements_are_bounded(service):
    server = OptimizerServer(service)
    assert server._statements.max_entries == MAX_STATEMENTS
    server._statements = StatementLRU(max_entries=3)
    templates = [PAIR_SQL, CHAIN_SQL, RANGE_SQL, POINT_SQL]  # bound + 1
    with ServerThread(server) as harness, ServerClient(harness.address) as client:
        statements = [client.prepare(sql)["statement"] for sql in templates]
        assert len(set(statements)) == 4
        assert client.stats()["server"]["prepared_statements"] == 3
        with pytest.raises(ClientError) as caught:
            client.bind(statements[0])
        assert caught.value.status == 404
        assert "unknown statement" in str(caught.value)
        assert client.bind(statements[3], {"p0": 7})["cost_total"] > 0
        # Preparing the same template again is one entry, not two.
        assert client.prepare(POINT_SQL)["statement"] == statements[3]
        assert client.stats()["server"]["prepared_statements"] == 3
