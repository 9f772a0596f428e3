"""Searches in engine processes: the CLI server's optimizer.

A Volcano search reads the model specification and the catalog's
statistics and nothing else; its memo, winners and failures are built
for one optimization and dropped after it.  That makes the search the
one part of the served optimizer that can run in another process, off
the server's GIL.  :class:`ProcessOptimizer` does that: it wraps a
generated :class:`~repro.search.VolcanoOptimizer` and runs each
``optimize``/``optimize_batch`` in a process of a ``fork`` pool, while
the caller — :class:`~repro.service.OptimizerService` — sees the same
:class:`~repro.search.Optimizer` it always did.  Plan cache,
single-flight, admission, verification and the regression guard stay in
the server.

* **Fork only while single-threaded.**  The processes inherit the built
  optimizer (spec closures cannot be pickled, and the catalog's rows
  are not copied), and they are forked in the constructor, before any
  thread exists.
* **One statistics snapshot per task.**  A task carries a consistent
  copy of every table's statistics; the process applies the ones that
  differ from its own before it searches, so a search never sees a
  statistics bump land half-way.
* **Failures fail loudly.**  A process that dies breaks the pool: every
  later search raises :class:`~repro.errors.ServerError` with status
  503, and :attr:`ProcessOptimizer.broken` turns true.  There is no
  respawn — forking from the now-threaded server is what CPython 3.12
  deprecates.
* **Lifecycle.**  The processes ignore SIGINT (the server drains), exit
  on :meth:`ProcessOptimizer.close`, and exit within a second of their
  parent's death.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.properties import PhysProps
from repro.catalog.catalog import Catalog
from repro.catalog.statistics import TableStatistics
from repro.errors import ReproError, ServerError, ServiceError
from repro.model.cost import INFINITE_COST
from repro.search.engine import OptimizationResult, SearchOptions, VolcanoOptimizer

__all__ = ["ProcessOptimizer"]

#: How often an engine process checks that its parent is still alive.
_PARENT_POLL_SECONDS = 0.2

#: The optimizer an engine process searches with; set once, when it starts.
_engine: Optional[VolcanoOptimizer] = None


def _start(optimizer: VolcanoOptimizer, parent: int) -> None:
    """Initialise one engine process (forked: nothing here is pickled)."""
    global _engine
    _engine = optimizer
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_watch_parent, args=(parent,), name="repro-engine-watch", daemon=True
    ).start()


def _watch_parent(parent: int) -> None:
    """Exit once the server that forked this process is gone."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(0)


def _search(
    queries: Sequence[Any],
    props: Optional[PhysProps],
    limit: Any,
    options: SearchOptions,
    statistics: Dict[str, TableStatistics],
    batch: bool,
) -> Tuple[Any, float]:
    """One task in an engine process: ``(answers or error, CPU seconds)``.

    ``answers`` is one tuple of :class:`OptimizationResult` fields per
    query, all in one pickle, so plan nodes that a batch's results share
    are still shared when they arrive.
    """
    started = time.process_time()
    assert _engine is not None
    catalog = _engine.catalog
    try:
        for name, table in statistics.items():
            if catalog.table(name).statistics != table:
                catalog.update_statistics(name, table)
        if batch:
            results = _engine.optimize_batch(
                queries, props, limit=limit, options=options
            )
        else:
            results = [
                _engine.optimize(queries[0], props, limit=limit, options=options)
            ]
    except ReproError as error:
        return error, time.process_time() - started
    answers = [
        (
            result.plan,
            result.cost,
            result.required,
            result.stats,
            result.degraded,
            result.budget_report,
            result.certificate,
        )
        for result in results
    ]
    return answers, time.process_time() - started


def _statistics(catalog: Catalog) -> Dict[str, TableStatistics]:
    """Every table's statistics, all of one statistics version."""
    while True:
        version = catalog.statistics_version
        tables = {entry.name: entry.statistics for entry in catalog.tables()}
        if catalog.statistics_version == version:
            return tables


class _SharedMemo:
    """What a batch's results carry in place of the engine process's memo.

    The memo stays in the engine process.  The results of one
    ``optimize_batch`` share one of these, which is all the sharing pass
    asks of ``result.memo``: that the plans come from one memo.
    """

    __slots__ = ()


class ProcessOptimizer:
    """A :class:`~repro.search.VolcanoOptimizer` whose searches run in a
    pool of ``processes`` forked engine processes.

    >>> engine = ProcessOptimizer(generate_optimizer(spec, catalog), 4)
    >>> service = OptimizerService(engine)     # built before any thread
    >>> ...
    >>> engine.close()

    Results carry no memo (``memo=None``; a batch's results share one
    placeholder), and everything else a search returns: plan, cost,
    required properties, stats, the degraded flag, the budget report and
    the certificate.
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
        before = set(multiprocessing.active_children())
        self._pool = ProcessPoolExecutor(
            max_workers=processes,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start,
            initargs=(optimizer, os.getpid()),
        )
        # With the fork start method the first task forks every process
        # at once, before the pool starts its own threads.  Frozen, the
        # inherited objects are left out of the engine processes' garbage
        # collections, which would otherwise touch, and so copy, every
        # page of them.
        gc.freeze()
        try:
            self._pool.submit(os.getpid).result()
        finally:
            gc.unfreeze()
        self._engines = [
            process
            for process in multiprocessing.active_children()
            if process not in before
        ]

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
        task = (
            queries,
            props,
            limit,
            options if options is not None else self.options,
            _statistics(self.catalog),
            batch,
        )
        try:
            answers, cpu = self._pool.submit(_search, *task).result()
        except BrokenProcessPool:
            self._failed = True
            raise ServerError(
                "an engine process died: cold searches are refused until the "
                "server restarts",
                status=503,
            ) from None
        with self._lock:
            self.tasks += 1
            self.cpu_seconds += cpu
        if isinstance(answers, ReproError):
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
            )
            for plan, cost, required, stats, degraded, budget_report, certificate
            in answers
        ]

    # -- state -----------------------------------------------------------

    @property
    def broken(self) -> bool:
        """True once an engine process has died (the pool never recovers)."""
        return self._failed or not all(
            process.is_alive() for process in self._engines
        )

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
        self._pool.shutdown(wait=True, cancel_futures=True)
