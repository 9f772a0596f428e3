"""Process-pool fan-out for :meth:`OptimizerService.optimize_many`.

Optimizing a batch of queries is embarrassingly parallel — each engine
run owns its memo, and the engines are reentrant — but the *optimizer
object* is not picklable (model specifications carry rule closures).
The driver therefore uses the ``fork`` start method: the optimizer is
the pool's initializer argument, which a forked worker inherits by
memory image (fork never pickles a ``Process``'s arguments), and the
initializer stores it in the worker's own module global.  Only plain data
crosses the pipe afterwards: queries, property vectors, options, and
slim :class:`~repro.search.OptimizationResult` payloads (no memo, no
tracer), all of which pickle cleanly — the expression/predicate/property
classes strip their process-local cached hashes on ``__getstate__``.

Exceptions are shipped back as values (pre-tested for picklability, with
a :class:`~repro.errors.ServiceError` fallback) so the parent can
re-raise deterministically — the failure of the *earliest* query in
input order wins, regardless of completion order.

On platforms without ``fork`` the service falls back to its serial path;
see :meth:`OptimizerService.optimize_many`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.errors import ReproError, ServiceError
from repro.search.engine import OptimizationResult

__all__ = ["WorkItem", "WorkOutcome", "fork_available", "run_batch"]

# The optimizer of this worker process, set by _init_worker when the
# pool starts it.  Never set in the parent, so concurrent batches of
# different services cannot hand a worker the other one's optimizer.
_WORKER_OPTIMIZER: Any = None


def _init_worker(optimizer) -> None:
    global _WORKER_OPTIMIZER
    _WORKER_OPTIMIZER = optimizer


@dataclass(frozen=True)
class WorkItem:
    """One query dispatched to the pool (everything here is picklable)."""

    index: int
    query: object
    props: object
    options: Optional[object] = None
    seeds: Tuple = ()


@dataclass(frozen=True)
class WorkOutcome:
    """What a worker sends back: a slim result or a shipped exception."""

    index: int
    result: Optional[OptimizationResult] = None
    error: Optional[BaseException] = None


def _portable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a ServiceError."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServiceError(f"{type(exc).__name__}: {exc}")


def _worker_optimize(item: WorkItem) -> WorkOutcome:
    kwargs = {}
    if item.options is not None:
        kwargs["options"] = item.options
    if item.seeds:
        kwargs["preoptimized"] = item.seeds
    try:
        result = _WORKER_OPTIMIZER.optimize(item.query, item.props, **kwargs)
    except ReproError as exc:
        return WorkOutcome(index=item.index, error=_portable_exception(exc))
    # Strip the memo and trace: neither is picklable (the context holds
    # resolver closures) nor useful to the parent.
    slim = OptimizationResult(
        plan=result.plan,
        cost=result.cost,
        required=result.required,
        stats=result.stats,
        degraded=result.degraded,
        budget_report=result.budget_report,
        certificate=result.certificate,
    )
    return WorkOutcome(index=item.index, result=slim)


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def run_batch(
    optimizer, items: Sequence[WorkItem], max_workers: int
) -> Tuple[WorkOutcome, ...]:
    """Optimize ``items`` on a forked process pool; outcomes in input order.

    The caller guarantees ``fork_available()`` and ``max_workers >= 2``.
    Results arrive in the same order as ``items`` (``Executor.map``
    preserves ordering regardless of completion order), which is what
    makes ``optimize_many`` deterministic.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(max_workers, len(items)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(optimizer,),
    ) as pool:
        return tuple(pool.map(_worker_optimize, items))
