"""A minimal blocking client for the optimizer server.

Pure stdlib (``http.client``), deliberately boring: one persistent
HTTP/1.1 connection, JSON in, JSON out, and a typed error.  It exists
so the tests, the throughput benchmark, and the round-trip example
talk to the server the way any out-of-process client would — through
the wire format, not through Python objects — while staying dependency
free.  Thread usage: one :class:`ServerClient` per thread (the
underlying connection is not locked).
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Mapping, Optional
from urllib.parse import urlsplit

from repro.errors import ServerError

__all__ = ["ClientError", "ServerClient"]


class ClientError(ServerError):
    """A non-2xx server response, carrying its status and JSON body."""

    def __init__(self, status: int, body: Mapping[str, Any]):
        message = str(body.get("error", f"HTTP {status}"))
        super().__init__(message, status=status)
        self.body = dict(body)

    @property
    def reason(self) -> Optional[str]:
        """The server's machine-readable rejection reason, if any."""
        value = self.body.get("reason")
        return value if isinstance(value, str) else None


class ServerClient:
    """Blocking JSON client over one keep-alive connection.

    >>> client = ServerClient("http://127.0.0.1:8725")
    >>> client.health()["ok"]
    True
    >>> answer = client.optimize("SELECT * FROM r, s WHERE r.k = s.k")
    >>> answer["cached"], answer["cost_total"]
    """

    def __init__(self, address: str, timeout: float = 30.0):
        parts = urlsplit(address)
        if parts.scheme not in ("", "http"):
            raise ServerError(f"unsupported scheme: {parts.scheme!r}")
        host = parts.hostname or address
        port = parts.port or 80
        self._connection = http.client.HTTPConnection(
            host, port, timeout=timeout
        )

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- transport -----------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One round trip; raises :class:`ClientError` on non-2xx."""
        payload = json.dumps(body or {}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        try:
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.HTTPException):
            # One reconnect: the server may have closed an idle
            # keep-alive connection under us.
            self._connection.close()
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        if not 200 <= response.status < 300:
            raise ClientError(response.status, decoded)
        return decoded

    # -- endpoints -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /health`` — liveness and the statistics version."""
        return self.request("GET", "/health")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats`` — cache, admission, registry, server counters."""
        return self.request("GET", "/stats")

    def plans(self) -> Dict[str, Any]:
        """``GET /plans`` — pins, quarantine, and registry events."""
        return self.request("GET", "/plans")

    def optimize(self, sql: str, **fields: Any) -> Dict[str, Any]:
        """Optimize ``sql``; extra ``fields`` are hints / deadline / budget."""
        return self.request("POST", "/optimize", {"sql": sql, **fields})

    def execute(self, sql: str, **fields: Any) -> Dict[str, Any]:
        """Optimize and run ``sql``; adds rows, stats, and q-error."""
        return self.request("POST", "/execute", {"sql": sql, **fields})

    def prepare(self, sql: str, **fields: Any) -> Dict[str, Any]:
        """Prepare ``sql``; returns a statement id and its parameters."""
        return self.request("POST", "/prepare", {"sql": sql, **fields})

    def bind(
        self,
        statement: str,
        parameters: Optional[Mapping[str, Any]] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Bind ``parameters`` to a prepared statement and optimize."""
        body = {"statement": statement, "parameters": dict(parameters or {})}
        body.update(fields)
        return self.request("POST", "/bind", body)

    def batch(self, queries: List[str], **fields: Any) -> Dict[str, Any]:
        """Optimize ``queries`` together (shared memo when they miss)."""
        return self.request("POST", "/batch", {"queries": queries, **fields})

    def pin(self, sql: str, reason: str = "", **fields: Any) -> Dict[str, Any]:
        """Optimize ``sql`` and pin its (verified) plan."""
        body = {"sql": sql, "reason": reason}
        body.update(fields)
        return self.request("POST", "/plans/pin", body)

    def unpin(
        self, sql: Optional[str] = None, key: Optional[str] = None
    ) -> Dict[str, Any]:
        """Lift a pin, addressed by ``sql`` or registry ``key``."""
        body: Dict[str, Any] = {}
        if key is not None:
            body["key"] = key
        if sql is not None:
            body["sql"] = sql
        return self.request("POST", "/plans/unpin", body)

    def update_statistics(
        self, table: str, statistics: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """Merge new ``statistics`` into ``table`` (bumps versions)."""
        return self.request(
            "POST",
            "/admin/statistics",
            {"table": table, "statistics": dict(statistics)},
        )

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain in-flight work and stop."""
        return self.request("POST", "/admin/shutdown")
