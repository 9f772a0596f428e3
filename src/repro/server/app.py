"""The long-lived optimizer server: asyncio HTTP/JSON over the service.

:class:`OptimizerServer` promotes an
:class:`~repro.service.OptimizerService` from a library object to a
process boundary: a small HTTP/1.1 server (stdlib asyncio streams, no
framework) that many clients share.  The division of labor:

* the **event loop** parses requests, recognises a repeated statement
  text (the service's statement memo), answers cache hits and pinned
  plans where they arrive, runs admission control
  (:class:`~repro.server.admission.AdmissionController`) for the
  rest, and writes responses — it never blocks on optimization;
* a **thread pool** runs the unbounded work (engine runs, plan
  execution, over-long statements); the service underneath is
  thread-safe (locked cache, single-flight deduplication), so
  concurrent requests share one plan cache correctly.  Under
  ``python -m repro.server`` a thread only hands the search to an
  engine process (:class:`~repro.server.engines.ProcessOptimizer`);
* the **plan registry** (:class:`~repro.server.registry.PlanRegistry`)
  sits in front of the service: pinned keys are served without
  touching the optimizer at all, and every fresh answer is routed
  through the regression guard before it reaches the wire.

Endpoints (all bodies JSON):

====================  ====================================================
``GET  /health``      liveness (false once an engine process died)
``GET  /stats``       cache, admission, engine counters, registry state
``GET  /plans``       pins, quarantined refreshes, recent events
``POST /optimize``    ``{"sql": ...}`` (+ budget, deadline) → plan payload
``POST /execute``     optimize + run the plan + feedback round trip
``POST /prepare``     parameterize a SQL statement server-side
``POST /bind``        bind parameters to a prepared statement → plan
``POST /batch``       ``{"queries": [...]}`` → multi-query optimization
``POST /plans/pin``   pin the served plan for a query
``POST /plans/unpin`` lift a pin (operator pins and guard rollbacks)
``POST /admin/statistics``  update one table's statistics (versioned)
``POST /admin/shutdown``    begin graceful drain
====================  ====================================================

A request bounds its own run and nothing else.  Two top-level fields
of any optimize-like body do that: ``budget``
(:class:`~repro.options.ResourceBudget`) bounds each engine run it
starts, and ``deadline_seconds`` bounds the whole request — queue wait
included; whatever remains once a slot is granted becomes the
optimization's wall-clock budget.  Engine knobs are the engine's own
options: a body naming ``engine``, ``kernel`` or ``promise`` is a 400.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.catalog.catalog import CatalogSnapshot
from repro.catalog.statistics import ColumnStatistics, TableStatistics
from repro.errors import ReproError, ServerError
from repro.executor import ExecutionStats, execute_plan
from repro.options import ResourceBudget, ServerOptions
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    cost_total,
    executed_payload,
    is_number,
    number,
    parse_budget,
    parse_deadline,
    require,
    served_payload,
)
from repro.server.registry import PlanRegistry
from repro.service.cache import StatementLRU
from repro.service.fingerprint import stable_key
from repro.service.service import (
    MAX_MEMO_SQL,
    BatchResult,
    ExecutedResult,
    OptimizerService,
    PreparedQuery,
    ServedResult,
)
from repro.sql.normalize import bind_expression, normalize_literals

__all__ = ["OptimizerServer", "ServerThread"]

_MAX_BODY = 4 * 1024 * 1024
_CUT_OFF = "request head cut off by the end of the stream"
#: Bytes one socket read may take: the stream reader's own buffer limit.
#: asyncio's default (256 KiB) allocates and shrinks that much per read,
#: and whenever the heap's top sits near glibc's trim threshold — which
#: the process's allocation history alone decides — the heap is trimmed
#: and regrown on every request (+15-20 µs of system time per warm
#: request on a 2-CPU Linux container, Python 3.11).
_READ_SIZE = 64 * 1024
#: A request carrying more SQL text than this is resolved and looked up
#: on a worker: parse, translate, render and verify all grow with the
#: statement, and the event loop only does bounded work.  The same text
#: is kept out of the statement memo (at most ``MAX_STATEMENTS`` entries,
#: like the prepared statements): one constant, ``MAX_MEMO_SQL``.
_MAX_LOOP_SQL = MAX_MEMO_SQL


class _Answer(NamedTuple):
    """One query's trip through :meth:`OptimizerServer._serve`.

    ``served`` is what goes on the wire — the incumbent's plan after a
    guard rollback.  ``guard`` is None where the registry never judged:
    cache hits, degraded answers, and plans served straight from a pin.
    """

    query: Any
    key: str
    served: ServedResult
    pinned: bool
    guard: Optional[Dict[str, Any]]

    def payload(self) -> Dict[str, Any]:
        return served_payload(
            self.served, self.key, pinned=self.pinned, guard=self.guard
        )


def _searched_under(query: PreparedQuery, served: ServedResult) -> CatalogSnapshot:
    """The catalog version ``served`` was searched under when fresh, else
    the one ``query``'s cache key was derived from."""
    result = served.result
    if result is not None and result.catalog is not None:
        return result.catalog
    return query.catalog


class OptimizerServer:
    """One optimizer service, served."""

    def __init__(
        self,
        service: OptimizerService,
        *,
        options: Optional[ServerOptions] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.options = options or ServerOptions()
        self.host = host
        self.port = port
        self.admission = AdmissionController(self.options)
        self.registry = PlanRegistry(options=self.options)
        self._executor = ThreadPoolExecutor(
            max_workers=self.options.workers,
            thread_name_prefix="repro-server",
        )
        self._statements = StatementLRU()  # id -> (prepared, normalized, size)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._connection_tasks: set = set()
        self._shutdown = asyncio.Event()
        self._started = time.time()
        self.requests = 0
        self.errors = 0
        self._routes: Dict[
            Tuple[str, str], Callable[[Mapping[str, Any]], Any]
        ] = {
            ("GET", "/health"): self._handle_health,
            ("GET", "/stats"): self._handle_stats,
            ("GET", "/plans"): self._handle_plans,
            ("POST", "/optimize"): self._handle_optimize,
            ("POST", "/execute"): self._handle_execute,
            ("POST", "/prepare"): self._handle_prepare,
            ("POST", "/bind"): self._handle_bind,
            ("POST", "/batch"): self._handle_batch,
            ("POST", "/plans/pin"): self._handle_pin,
            ("POST", "/plans/unpin"): self._handle_unpin,
            ("POST", "/admin/statistics"): self._handle_statistics,
            ("POST", "/admin/shutdown"): self._handle_shutdown,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or ``/admin/shutdown``)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self._drain_and_close()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, tear down."""
        self._shutdown.set()
        await self._drain_and_close()

    async def _drain_and_close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Graceful drain: admitted optimizations get drain_seconds to
        # finish; the executor then shuts down without cancelling them
        # (they hold no loop resources).
        await self.admission.drain(timeout=self.options.drain_seconds)
        # Idle keep-alive connections sit in a read; closing their
        # transports delivers EOF and their handler tasks exit cleanly.
        for writer in list(self._connections):
            writer.close()
        tasks = [t for t in self._connection_tasks if not t.done()]
        if tasks:
            _done, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True, cancel_futures=True)

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        writer.transport.max_size = _READ_SIZE  # type: ignore[attr-defined]
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while not self._shutdown.is_set():
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.options.request_timeout_seconds,
                    )
                except asyncio.TimeoutError:
                    break
                except ServerError as error:
                    # Unparseable request: answer, then drop the
                    # connection — framing can no longer be trusted.
                    self.errors += 1
                    data = json.dumps({"error": str(error)}).encode("utf-8")
                    writer.write(
                        (
                            f"HTTP/1.1 {error.status} "
                            f"{_REASONS.get(error.status, 'Bad Request')}\r\n"
                            f"Content-Type: application/json\r\n"
                            f"Content-Length: {len(data)}\r\n"
                            "Connection: close\r\n"
                            "\r\n"
                        ).encode("ascii")
                        + data
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._dispatch(method, path, body)
                data = json.dumps(payload).encode("utf-8")
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    "\r\n"
                ).encode("ascii")
                writer.write(head + data)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], Mapping[str, Any]]]:
        """One HTTP/1.1 request off the stream, or None at EOF.

        Bad framing raises :class:`ServerError`, which is answered and
        counted; no exception escapes to asyncio's handler.  A head that
        the end of the stream cuts off before its blank line is bad
        framing too: it is never dispatched.
        """
        try:
            line = await reader.readline()
            if not line:
                return None
            if not line.endswith(b"\n"):
                raise ServerError(_CUT_OFF)
            try:
                method, target, _version = line.decode("ascii").split(None, 2)
            except ValueError:
                raise ServerError("malformed request line") from None
            headers: Dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n"):
                    break
                if not raw.endswith(b"\n"):  # end of stream before the blank line
                    raise ServerError(_CUT_OFF)
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip().lower()
        except ValueError:  # a line longer than the stream's limit
            raise ServerError("request head line too long") from None
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdecimal():
            raise ServerError(f"invalid Content-Length: {declared!r}")
        length = int(declared)
        if length > _MAX_BODY:
            raise ServerError("request body too large", status=413)
        body: Mapping[str, Any] = {}
        if length:
            try:
                parsed = json.loads(await reader.readexactly(length))
            except asyncio.IncompleteReadError:
                raise ServerError("request body shorter than its length") from None
            except ValueError as error:  # not JSON, or not UTF-8
                raise ServerError(f"invalid JSON body: {error}") from None
            if not isinstance(parsed, Mapping):
                raise ServerError("request body must be a JSON object")
            body = parsed
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    async def _dispatch(
        self, method: str, path: str, body: Mapping[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        self.requests += 1
        handler = self._routes.get((method, path))
        if handler is None:
            if any(route_path == path for _, route_path in self._routes):
                return 405, {"error": f"method {method} not allowed on {path}"}
            return 404, {"error": f"no such endpoint: {path}"}
        try:
            payload = handler(body)
            if asyncio.iscoroutine(payload):
                payload = await payload
            return 200, payload
        except ServerError as error:
            self.errors += 1
            response = {"error": str(error)}
            reason = getattr(error, "reason", None)
            if reason is not None:
                response["reason"] = reason
            return error.status, response
        except ReproError as error:
            self.errors += 1
            return 400, {"error": f"{type(error).__name__}: {error}"}
        except Exception as error:  # pragma: no cover - defensive
            self.errors += 1
            return 500, {"error": f"internal error: {error}"}

    # -- shared request plumbing ---------------------------------------

    async def _in_thread(self, fn: Callable[[], Any]) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn
        )

    def _translate(self, sql: str) -> PreparedQuery:
        """SQL text → what :meth:`_serve` resolves a request to, through
        the service's statement memo: a repeated text is not parsed,
        translated, rendered or fingerprinted again."""
        return self.service.resolve(sql)

    async def _serve(
        self,
        body: Mapping[str, Any],
        size: int,
        resolve: Callable[[], List[PreparedQuery]],
        work: Callable[..., Any],
        *,
        served_work: Optional[Callable[[ServedResult, bool], None]] = None,
        managed: bool = True,
    ) -> List[_Answer]:
        """The one path every optimize-like request takes.

        On the event loop: budget → resolve (memoized per statement
        text) → stable key → pin check → cache lookup
        (:meth:`OptimizerService.lookup`: counted, and verified, like
        any hit).  A pin or a hit is answered right there.  Only a
        query that missed goes on: admission slot → budget → one worker
        hop → regression guard, where ``work(missed, budget, deadline)``
        returns one :class:`ServedResult` per miss.

        The loop only does bounded work: a request carrying more than
        ``_MAX_LOOP_SQL`` characters of SQL (``size``) takes its first
        stage on a worker too.  ``served_work(served, pinned)`` is what
        ``/execute`` still has to run, in a slot on a worker, for an
        answer that needed no optimization.  ``managed=False`` is
        ``/plans/pin``, which must see the optimizer's own answer: no
        pin, no guard.
        """
        started = time.monotonic()
        budget = parse_budget(body)
        deadline = parse_deadline(body)

        def check() -> List[Tuple[PreparedQuery, str, bool, Any]]:
            rows = []
            for query in resolve():
                key = query.key
                pin = self.registry.pinned(key) if managed else None
                if pin is None:
                    found = self.service.lookup(query)
                else:
                    found = ServedResult(
                        plan=pin.plan,
                        cost=pin.cost_total,
                        required=pin.required,
                        fingerprint=query.exact,
                        cached=True,
                        certificate=pin.certificate,
                        verified=pin.verified,
                    )
                rows.append((query, key, pin is not None, found))
            return rows

        rows = check() if size <= _MAX_LOOP_SQL else await self._in_thread(check)
        missed = [found for *_, found in rows if isinstance(found, PreparedQuery)]

        def run() -> List[ServedResult]:
            fresh = iter(work(missed, budget, deadline) if missed else ())
            results = []
            for _query, _key, pinned, found in rows:
                if isinstance(found, PreparedQuery):
                    found = next(fresh)
                elif served_work is not None:
                    served_work(found, pinned)
                results.append(found)
            return results

        if missed or served_work is not None:
            async with self.admission.slot(
                deadline and min(deadline, self.options.queue_timeout_seconds)
            ):
                if deadline is not None:
                    # What the request has left once it holds a slot
                    # becomes the run's wall clock.
                    remaining = max(0.05, deadline - (time.monotonic() - started))
                    budget = ResourceBudget.tighten(budget, remaining)
                results = await self._in_thread(run)
        else:
            results = [found for *_, found in rows]  # no slot, no thread
        answers = []
        for (query, key, pinned, _found), served in zip(rows, results):
            guard = None
            if pinned:
                self.registry.record_pinned_hit(key)
            elif managed and not (served.cached or served.degraded):
                # Fresh non-degraded answers go through the regression
                # guard, at the version they were searched under; a
                # rollback swaps in the incumbent's plan.
                decision = self.registry.admit(
                    key,
                    served.plan,
                    cost_total(served.cost),
                    served.required,
                    certificate=served.certificate,
                    statistics_version=_searched_under(query, served).statistics_version,
                )
                guard = {
                    "action": decision.action,
                    "allowed": decision.allowed,
                    "detail": decision.detail,
                }
                if decision.rolled_back:
                    pinned = True
                    served = dataclasses.replace(
                        served, plan=decision.plan, result=None
                    )
            answers.append(_Answer(query, key, served, pinned, guard))
        return answers

    def _optimize_each(self, queries, budget, deadline) -> List[ServedResult]:
        return [self.service.optimize(query, budget=budget) for query in queries]

    # -- endpoints -----------------------------------------------------

    def _engines(self) -> Dict[str, Any]:
        """The engine processes' counters; none when searches run here."""
        counters = getattr(self.service.optimizer, "counters", None)
        if counters is None:
            return {"processes": 0, "tasks": 0, "cpu_seconds": 0.0, "broken": False}
        return counters()

    def _handle_health(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        broken = self._engines()["broken"]
        return {
            "ok": not broken,
            "broken": broken,
            "statistics_version": self.service.catalog.statistics_version,
            "uptime_seconds": time.time() - self._started,
        }

    def _handle_stats(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        cache = self.service.cache.stats.snapshot()
        return {
            "cache": cache.counters(),
            "cache_entries": len(self.service.cache),
            "admission": self.admission.counters(),
            "registry": self.registry.state(),
            "engines": self._engines(),
            "server": {
                "requests": self.requests,
                "errors": self.errors,
                "prepared_statements": len(self._statements),
                "statement_memo": self.service.statements.counters(),
                "inflight_optimizations": self.service.single_flight.inflight(),
                "uptime_seconds": time.time() - self._started,
            },
        }

    def _handle_plans(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        return self.registry.state()

    async def _handle_optimize(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        sql = require(body, "sql", str)
        [answer] = await self._serve(
            body, len(sql), lambda: [self._translate(sql)], self._optimize_each
        )
        return answer.payload()

    async def _handle_execute(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        sql = require(body, "sql", str)
        executed: Optional[ExecutedResult] = None

        def run_fresh(queries, budget, deadline) -> List[ServedResult]:
            nonlocal executed
            [query] = queries
            executed = self.service.execute(query, budget=budget)
            return [executed.served]

        def run_served(served: ServedResult, pinned: bool) -> None:
            nonlocal executed
            if not pinned:  # a cache hit: executed like a fresh answer
                executed = self.service.execute(served)
                return
            # A pinned key executes its pinned plan verbatim.  The run
            # is uninstrumented on purpose: an operator override is not
            # evidence about the optimizer's estimates.
            stats = ExecutionStats()
            rows = execute_plan(
                served.plan, self.service.catalog, stats, instrument=False
            )
            executed = ExecutedResult(served=served, rows=rows, stats=stats)

        [answer] = await self._serve(
            body,
            len(sql),
            lambda: [self._translate(sql)],
            run_fresh,
            served_work=run_served,
        )
        assert executed is not None
        served_from_pin = answer.pinned and answer.guard is None
        if not served_from_pin:
            # Fold the execution evidence into the incumbent — this is
            # what arms the regression guard for this key.
            self.registry.observe(
                answer.key,
                executed.served.plan,
                max_q_error=executed.max_q_error,
                work=float(executed.stats.rows_scanned + executed.stats.rows_emitted),
            )
        # After a mid-request rollback the rows ran the candidate once,
        # but the *served plan* is the incumbent's.
        return executed_payload(
            dataclasses.replace(executed, served=answer.served),
            answer.key,
            pinned=answer.pinned,
            guard=answer.guard,
        )

    async def _handle_prepare(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        sql = require(body, "sql", str)
        parse_budget(body)  # nothing to bound here; a bad budget is still a 400

        def build():
            prepared = self.service.prepare(sql)
            # prepare() normalized the literals already unless the text
            # has none or parameterized caching is off.
            normalized = prepared.normalized
            if normalized is None:
                normalized = normalize_literals(
                    prepared.expression,
                    prepared.catalog,
                    buckets=self.service.options.selectivity_buckets,
                )
            return prepared, normalized

        prepared, normalized = await self._in_thread(build)
        statement = "stmt-" + stable_key(
            normalized.template, prepared.props
        )[:16]
        self._statements.put(statement, (prepared, normalized, len(sql)))
        return {
            "statement": statement,
            "parameters": dict(normalized.bindings),
            "parameterized": normalized.is_parameterized,
            "bucket_key": [list(entry) for entry in normalized.bucket_key],
        }

    async def _handle_bind(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        statement = require(body, "statement", str)
        entry = self._statements.get(statement)
        if entry is None:
            raise ServerError(f"unknown statement: {statement!r}", status=404)
        prepared, normalized, size = entry
        values = body.get("parameters") or {}
        if not isinstance(values, Mapping):
            raise ServerError("parameters must be an object")
        unknown = set(values) - set(normalized.bindings)
        if unknown:
            raise ServerError(
                f"unknown parameters {sorted(unknown)}; "
                f"statement has {sorted(normalized.bindings)}"
            )
        for name, value in values.items():
            if not (isinstance(value, str) or is_number(value)):
                raise ServerError(
                    f"parameter {name!r} must be a number or a string, "
                    f"got {value!r}"
                )
        # Unbound parameters keep the literals of the prepared text.
        merged = {**dict(normalized.bindings), **dict(values)}
        [answer] = await self._serve(
            body,
            size,
            lambda: [
                self.service.resolve(
                    bind_expression(normalized.template, merged), prepared.props
                )
            ],
            self._optimize_each,
        )
        payload = answer.payload()
        payload["statement"] = statement
        payload["parameters"] = {
            name: merged[name] for name in sorted(merged)
        }
        return payload

    async def _handle_batch(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        sqls = require(body, "queries", list)
        if not sqls or not all(isinstance(q, str) for q in sqls):
            raise ServerError("queries must be a non-empty list of SQL strings")
        batch = BatchResult(results=())
        before = self.service.stats.counters()

        def optimize_together(queries, budget, deadline):
            # Only the members that missed, optimized together.  The
            # request deadline goes to optimize_many whole (it splits it
            # itself); the budget bounds each run it starts.
            nonlocal batch
            batch = self.service.optimize_many(
                queries, deadline_seconds=deadline, budget=budget
            )
            return batch.results

        answers = await self._serve(
            body,
            sum(map(len, sqls)),
            lambda: [self._translate(sql) for sql in sqls],
            optimize_together,
        )
        after = self.service.stats.counters()
        report = batch.sharing_report
        return {
            "results": [answer.payload() for answer in answers],
            "shared_plans": len(batch.shared_plans),
            "sharing": (
                {
                    "independent_total": report.independent_total,
                    "shared_total": report.shared_total,
                    "shared_plans": len(report.shared_plans),
                }
                if report is not None and report.shared_plans
                else None
            ),
            "degraded_to_independent": batch.degraded_to_independent,
            # This request's lookups (on the loop) and engine runs.
            "cache_stats": {name: after[name] - before[name] for name in after},
        }

    async def _handle_pin(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        sql = require(body, "sql", str)
        reason = str(body.get("reason", ""))
        [answer] = await self._serve(
            body,
            len(sql),
            lambda: [self._translate(sql)],
            self._optimize_each,
            managed=False,
        )
        served, key = answer.served, answer.key
        catalog = _searched_under(answer.query, served)
        if served.degraded:
            raise ServerError(
                "refusing to pin a degraded (budget-tripped) plan", status=409
            )
        verified = False
        if self.options.verify_pins and served.certificate is not None:
            ok = await self._in_thread(
                lambda: self.service.verify_served(
                    answer.query.expression, served.plan, served.certificate, catalog
                )
            )
            if ok is False:
                raise ServerError(
                    "refusing pin: plan certificate failed verification",
                    status=409,
                )
            verified = bool(ok)
        pin = self.registry.pin(
            key,
            served.plan,
            cost_total(served.cost),
            served.required,
            certificate=served.certificate,
            kind="user",
            verified=verified,
            statistics_version=catalog.statistics_version,
            reason=reason,
        )
        return {
            "key": key,
            "pinned": True,
            "verified": pin.verified,
            "cost_total": pin.cost_total,
            "plan": pin.plan.pretty(with_cost=False),
            "pinned_version": pin.pinned_version,
        }

    async def _handle_unpin(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        key = body.get("key")
        if key is None:
            sql = require(body, "sql", str)
            key = (await self._in_thread(lambda: self._translate(sql))).key
        elif not isinstance(key, str):
            raise ServerError("key must be a string")
        pin = self.registry.unpin(
            key, statistics_version=self.service.catalog.statistics_version
        )
        if pin is None:
            raise ServerError(f"no pin for key {key!r}", status=404)
        return {"key": key, "unpinned": True, "kind": pin.kind}

    async def _handle_statistics(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        table = require(body, "table", str)
        raw = require(body, "statistics", dict)
        catalog = self.service.catalog
        if table not in catalog:
            raise ServerError(f"unknown table: {table!r}", status=404)
        current = catalog.table(table).statistics
        columns = dict(current.columns)
        given = raw.get("columns", {})
        if not isinstance(given, Mapping):
            raise ServerError("columns must be an object")
        for name, spec in given.items():
            if not isinstance(spec, Mapping):
                raise ServerError(f"column {name!r} statistics must be an object")
            distinct = spec.get(
                "distinct_values",
                getattr(columns.get(name), "distinct_values", 1.0),
            )
            columns[name] = ColumnStatistics(
                distinct_values=float(
                    number(f"column {name!r} distinct_values", distinct)
                ),
                min_value=spec.get(
                    "min_value", getattr(columns.get(name), "min_value", None)
                ),
                max_value=spec.get(
                    "max_value", getattr(columns.get(name), "max_value", None)
                ),
            )
        updated = TableStatistics(
            row_count=float(
                number("row_count", raw.get("row_count", current.row_count))
            ),
            row_width=int(
                number("row_width", raw.get("row_width", current.row_width))
            ),
            columns=columns,
        )
        published = await self._in_thread(
            lambda: catalog.update_statistics(table, updated)
        )
        # This write's own versions: a later write may have landed since.
        return {
            "table": table,
            "row_count": updated.row_count,
            "table_version": published.table_version(table),
            "statistics_version": published.statistics_version,
        }

    async def _handle_shutdown(self, body: Mapping[str, Any]) -> Dict[str, Any]:
        # Respond first, then trip the shutdown event: serve_forever()
        # stops accepting and drains what is in flight.
        asyncio.get_running_loop().call_soon(self._shutdown.set)
        return {"ok": True, "draining": self.admission.active}


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServerThread:
    """An :class:`OptimizerServer` on a background event loop.

    The in-process harness used by the tests, the benchmark, and the
    round-trip example: start it, talk to ``http://host:port`` from
    any number of plain blocking clients, stop it.

    >>> harness = ServerThread(server)
    >>> harness.start()
    >>> client = ServerClient(harness.address)
    >>> ...
    >>> harness.stop()
    """

    def __init__(self, server: OptimizerServer):
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._done = threading.Event()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        """Run the server on a daemon thread; block until it is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=timeout):
            raise ServerError("server failed to start in time", status=500)
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main():
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
            self._done.set()
            self._ready.set()  # unblock start() on failure

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, timeout: float = 10.0) -> None:
        """Trigger graceful shutdown and join the loop thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server._shutdown.set)
        self._done.wait(timeout=timeout)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
