"""Searches in engine processes: the CLI server's optimizer.

A Volcano search reads the model specification and the catalog's
statistics and nothing else; its memo, winners and failures are built
for one optimization and dropped after it.  That makes the search the
one part of the served optimizer that can run in another process, off
the server's GIL.  :class:`ProcessOptimizer` does that: it wraps a
generated :class:`~repro.search.VolcanoOptimizer` and runs each
``optimize``/``optimize_batch`` in one of its forked engine processes,
while the caller — :class:`~repro.service.OptimizerService` — sees the
same :class:`~repro.search.Optimizer` it always did.  Plan cache,
single-flight, admission and the regression guard stay in the server.

* **One pipe per engine.**  Each engine process owns one
  :func:`multiprocessing.Pipe`.  The calling thread takes an idle
  engine, sends the task down its pipe, blocks on the answer and gives
  the engine back: no pool threads stand between a search and its
  caller.
* **Most recently idle first.**  The idle engines are a stack, so the
  engine that answered last takes the next task: a run of cold
  searches keeps to the engines that are warm, and a statistics bump
  reaches only the engines that search after it.
* **The engine checks its own answer.**  A task that records
  certificates has each answer checked in the engine
  (:func:`repro.verify.verify_plan`, against the statistics snapshot it
  searched) and the verdict returned as
  :attr:`OptimizationResult.verified <repro.search.OptimizationResult>`,
  which the service takes as the answer's check.  The sharing pass's
  certificates, cache hits and pins are checked in the server.
* **Fork only while single-threaded.**  The processes inherit the built
  optimizer (spec closures cannot be pickled, and the catalog's rows
  are not copied), and they are forked in the constructor, before any
  thread exists.
* **Statistics only when stale.**  Each task is built from one
  :meth:`~repro.catalog.Catalog.snapshot` of the server's catalog.  An
  engine is sent every table's statistics from it when its version is
  not the one that engine last received, and nothing otherwise; it
  applies the tables that differ from its own before it searches, so a
  search never sees a statistics bump land half-way.  The results carry
  that snapshot as :attr:`OptimizationResult.catalog
  <repro.search.OptimizationResult>`: the statistics the engine
  searched under, as the server holds them.
* **Failures fail loudly.**  Once one engine process has died, every
  later search raises :class:`~repro.errors.ServerError` with status
  503, even while its siblings live, and
  :attr:`ProcessOptimizer.broken` turns true.  There is no respawn —
  forking from the now-threaded server is what CPython 3.12 deprecates.
* **Lifecycle.**  The processes ignore SIGINT (the server drains), exit
  on :meth:`ProcessOptimizer.close`, which closes the server's end of
  each pipe (every engine closed the server's ends it inherited when it
  was forked, so that reaches its own engine as end-of-file), and exit
  within a second of their parent's death.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue
import signal
import threading
import time
from multiprocessing.connection import Connection, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.properties import PhysProps
from repro.catalog.statistics import TableStatistics
from repro.errors import ServerError, ServiceError
from repro.model.cost import INFINITE_COST
from repro.search.engine import OptimizationResult, SearchOptions, VolcanoOptimizer
from repro.verify import verify_plan

__all__ = ["ProcessOptimizer"]

#: How often an engine process checks that its parent is still alive.
_PARENT_POLL_SECONDS = 0.2


def _serve(
    optimizer: VolcanoOptimizer,
    connection: Connection,
    inherited: Sequence[Connection],
    parent: int,
) -> None:
    """An engine process (forked: nothing here is pickled).

    It closes the server's ends of every pipe it inherited, its own and
    its elder siblings', so that each end the server closes reaches its
    engine as end-of-file.  Then it answers tasks until that happens.
    """
    for end in inherited:
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_watch_parent, args=(parent,), name="repro-engine-watch", daemon=True
    ).start()
    try:
        while True:
            connection.send(_search(optimizer, *connection.recv()))
    except (EOFError, OSError):  # the server closed its end, or died
        pass


def _watch_parent(parent: int) -> None:
    """Exit once the server that forked this process is gone."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(0)


def _search(
    engine: VolcanoOptimizer,
    queries: Sequence[Any],
    props: Optional[PhysProps],
    limit: Any,
    options: SearchOptions,
    statistics: Optional[Dict[str, TableStatistics]],
    batch: bool,
) -> Tuple[Any, float]:
    """One task in an engine process: ``(answers or error, CPU seconds)``.

    ``statistics`` is None when this engine already holds the version
    the task runs under.  ``answers`` is one tuple of
    :class:`OptimizationResult` fields per query, all in one pickle, so
    plan nodes that a batch's results share are still shared when they
    arrive; the last field is the checker's verdict under
    ``options.certificates`` and None otherwise.  An error is returned,
    not raised: the server raises it for this search alone, and the
    engine serves on.
    """
    started = time.process_time()
    catalog = engine.catalog
    try:
        for name, table in (statistics or {}).items():
            if catalog.table(name).statistics != table:
                catalog.update_statistics(name, table)
        if batch:
            results = engine.optimize_batch(
                queries, props, limit=limit, options=options
            )
        else:
            results = [
                engine.optimize(queries[0], props, limit=limit, options=options)
            ]
        answers = [
            (
                result.plan,
                result.cost,
                result.required,
                result.stats,
                result.degraded,
                result.budget_report,
                result.certificate,
                _verdict(engine, query, result) if options.certificates else None,
            )
            for query, result in zip(queries, results)
        ]
    except Exception as error:  # the caller raises it; the engine serves on
        return error, time.process_time() - started
    return answers, time.process_time() - started


def _verdict(
    engine: VolcanoOptimizer, query: Any, result: OptimizationResult
) -> Optional[bool]:
    """The checker's verdict on one answer, under the statistics the
    engine searched it under; None when it carries no certificate."""
    if result.certificate is None:
        return None
    return verify_plan(
        engine.spec,
        query,
        result.plan,
        result.certificate,
        catalog=result.catalog,
        estimator=engine.estimator,
    ).ok


def _refused() -> ServerError:
    return ServerError(
        "an engine process died: cold searches are refused until the "
        "server restarts",
        status=503,
    )


class _Engine:
    """One engine process, the server's end of its pipe, and the
    statistics version it was last sent (None: not yet sent)."""

    __slots__ = ("process", "connection", "statistics_version")

    def __init__(self, process: Any, connection: Connection) -> None:
        self.process = process
        self.connection = connection
        self.statistics_version: Optional[int] = None


class _SharedMemo:
    """What a batch's results carry in place of the engine process's memo.

    The memo stays in the engine process.  The results of one
    ``optimize_batch`` share one of these, which is all the sharing pass
    asks of ``result.memo``: that the plans come from one memo.
    """

    __slots__ = ()


class ProcessOptimizer:
    """A :class:`~repro.search.VolcanoOptimizer` whose searches run in
    ``processes`` forked engine processes, one pipe each.

    >>> engine = ProcessOptimizer(generate_optimizer(spec, catalog), 4)
    >>> service = OptimizerService(engine)     # built before any thread
    >>> ...
    >>> engine.close()

    A search runs on the calling thread's behalf in the engine that
    became idle last; a caller finding none idle waits for one.  Results
    carry no memo (``memo=None``; a batch's results share one
    placeholder), and everything else a search returns: plan, cost,
    required properties, stats, the degraded flag, the budget report and
    the certificate.  Under ``options.certificates`` each result also
    carries the engine's check of its certificate (``verified``; None
    when it has none).  ``catalog`` is the server's own snapshot whose
    statistics the engine searched under; it never crosses the pipe.
    """

    def __init__(self, optimizer: VolcanoOptimizer, processes: int) -> None:
        if threading.active_count() > 1:
            raise ServiceError(
                "ProcessOptimizer forks its engine processes: build it before "
                "any thread starts"
            )
        self.spec = optimizer.spec
        self.catalog = optimizer.catalog
        self.options = optimizer.options
        self.estimator = optimizer.estimator
        self.processes = processes
        self.tasks = 0
        self.cpu_seconds = 0.0
        self._lock = threading.Lock()
        self._failed = False
        self._closed = False
        context = multiprocessing.get_context("fork")
        ends: List[Connection] = []
        self._engines: List[_Engine] = []
        # Frozen, the inherited objects are left out of the engine
        # processes' garbage collections, which would otherwise touch,
        # and so copy, every page of them.
        gc.freeze()
        try:
            for number in range(processes):
                mine, theirs = context.Pipe()
                ends.append(mine)
                process = context.Process(
                    target=_serve,
                    args=(optimizer, theirs, tuple(ends), os.getpid()),
                    name=f"repro-engine-{number}",
                    daemon=True,
                )
                process.start()
                theirs.close()
                self._engines.append(_Engine(process, mine))
        finally:
            gc.unfreeze()
        self._sentinels = [engine.process.sentinel for engine in self._engines]
        self._idle: "queue.LifoQueue[_Engine]" = queue.LifoQueue()
        for engine in self._engines:
            self._idle.put(engine)

    # -- the Optimizer surface -------------------------------------------

    def optimize(
        self,
        query: Any,
        props: Optional[PhysProps] = None,
        *,
        limit: Any = INFINITE_COST,
        options: Optional[SearchOptions] = None,
    ) -> OptimizationResult:
        """:meth:`VolcanoOptimizer.optimize`, in an engine process."""
        [result] = self._run([query], props, limit, options, batch=False)
        return result

    def optimize_batch(
        self,
        queries: Sequence[Any],
        props: Optional[PhysProps] = None,
        *,
        limit: Any = INFINITE_COST,
        options: Optional[SearchOptions] = None,
    ) -> List[OptimizationResult]:
        """:meth:`VolcanoOptimizer.optimize_batch`, in one engine process."""
        return self._run(list(queries), props, limit, options, batch=True)

    def _run(self, queries, props, limit, options, *, batch: bool):
        if self.broken:
            raise _refused()
        engine = self._idle.get()
        try:
            snapshot = self.catalog.snapshot()
            version = snapshot.statistics_version
            statistics = None
            if version != engine.statistics_version:
                statistics = {entry.name: entry.statistics for entry in snapshot.tables()}
            task = (
                queries,
                props,
                limit,
                options if options is not None else self.options,
                statistics,
                batch,
            )
            try:
                engine.connection.send(task)
                answers, cpu = engine.connection.recv()
            except (EOFError, OSError):
                self._failed = True
                raise _refused() from None
            if not isinstance(answers, Exception):
                engine.statistics_version = version
        finally:
            self._idle.put(engine)
        with self._lock:
            self.tasks += 1
            self.cpu_seconds += cpu
        if isinstance(answers, Exception):
            raise answers
        memo: Any = _SharedMemo() if batch else None
        return [
            OptimizationResult(
                plan=plan,
                cost=cost,
                required=required,
                stats=stats,
                memo=memo,
                degraded=degraded,
                budget_report=budget_report,
                certificate=certificate,
                verified=verified,
                catalog=snapshot,
            )
            for plan, cost, required, stats, degraded, budget_report, certificate, verified
            in answers
        ]

    # -- state -----------------------------------------------------------

    @property
    def broken(self) -> bool:
        """True once an engine process has died (there is no recovery)."""
        if not self._failed and wait(self._sentinels, 0):
            self._failed = True
        return self._failed

    def counters(self) -> Dict[str, Any]:
        """``/stats``' ``engines`` object."""
        with self._lock:
            tasks, cpu = self.tasks, self.cpu_seconds
        return {
            "processes": self.processes,
            "tasks": tasks,
            "cpu_seconds": cpu,
            "broken": self.broken,
        }

    def close(self) -> None:
        """Stop the engine processes, after any search still running."""
        if self._closed:
            return
        self._closed = True
        for _ in self._engines:
            self._idle.get()  # every engine back: none is searching
        for engine in self._engines:
            engine.connection.close()  # its engine reads end-of-file
        for engine in self._engines:
            engine.process.join()
