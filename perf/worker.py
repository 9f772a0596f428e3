"""The process that runs one workload: a fresh interpreter, ``PYTHONHASHSEED=0``.

Protocol with ``perf/run.py``, over stdout: set up, run the untimed warm-up
pass, print ``READY``; measure; print ``RESULT <json>``.  Other lines are
report text for the reader.  With ``--setup-only`` it exits after ``READY``.

For ``search_cold`` and ``batch_shared`` this process is the process under
test; for ``serve_*`` it is the load generator and the server it starts is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.generator.generate import generate_optimizer
from repro.models.relational import relational_model
from repro.service import OptimizerService, ServiceOptions

from perf import workloads
from perf.measure import Passes, environment, peak_rss_mb, timed_metrics
from perf.reference import (
    Answer,
    failure,
    optimal_cost,
    plan_cost_ratio,
    server_catalog,
    sql_optimal_cost,
)
from perf.serve import Clients, ServerProcess

MIN_PASSES = 10  # the lower decile needs them; a slow box runs past --seconds to get them
HARD_CAP_SECONDS = 100.0  # ... but never past the driver's 180 s limit


@dataclass
class PassResult:
    """One replayed pass: per slot its latency and its answers."""

    latencies: List[float]
    answers: List[List[Answer]]  # [slot][query]: 8 per batch slot, else 1
    wall: float
    extras: List[Answer] = field(default_factory=list)  # operations outside the slots (writes)


def guarded(operation, *arguments) -> List[Answer]:
    """Run one in-process operation; an exception is its failed answer."""
    try:
        return operation(*arguments)
    except Exception as error:  # the pass must go on; the failure is counted
        return [Answer(error=f"{type(error).__name__}: {error}")]


def timed_pass(slots, ops, operation, recorder=None) -> PassResult:
    """One in-process pass: ``operation(slot, op)`` per slot, each timed.

    With a ``recorder`` every operation runs inside an ``op`` span, so the
    spans the operation records itself hang off its slot.
    """
    latencies, answers = [], []
    begun = time.perf_counter()
    for slot, op in zip(slots, ops):
        started = time.perf_counter()
        if recorder is None:
            answer = guarded(operation, slot, op)
        else:
            with recorder.span("op", slot):
                answer = guarded(operation, slot, op)
        latencies.append(time.perf_counter() - started)
        answers.append(answer)
    return PassResult(latencies, answers, time.perf_counter() - begun)


class Workload:
    """What the measuring loops need from a workload."""

    name = ""
    slots: List[str] = []  # one label per operation slot of a pass
    keys: List[List[object]] = []  # [slot][query]: the distinct query answered there

    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    @property
    def pid(self) -> int:
        """The process under test."""
        return os.getpid()

    @property
    def queries_per_pass(self) -> int:
        return sum(len(keys) for keys in self.keys)

    def run_pass(self, recorders=None) -> PassResult:
        raise NotImplementedError

    def references(self) -> Dict[object, float]:
        """Optimal cost per distinct query (computed after the timed phase)."""
        raise NotImplementedError

    def expectations(self, history: Sequence[PassResult]) -> List[str]:
        """Ways the run was not the workload its name promises."""
        return []


class SearchCold(Workload):
    name = "search_cold"

    def __init__(self, seed: int):
        self.spec = relational_model()
        self.ops = workloads.search_cold(seed)
        self.slots = [f"q{i}" for i in range(len(self.ops))]
        self.keys = [[slot] for slot in self.slots]

    def search(self, op, options=None) -> List[Answer]:
        optimizer = generate_optimizer(self.spec, op.catalog, options)
        result = optimizer.optimize(op.query, op.props)
        return [Answer(cost=result.cost.total(), degraded=result.degraded)]

    def run_pass(self, recorders=None, options=None) -> PassResult:
        return timed_pass(self.slots, self.ops, lambda slot, op: self.search(op, options))

    def references(self) -> Dict[object, float]:
        return {
            slot: optimal_cost(self.spec, op.catalog, op.query, op.props)
            for slot, op in zip(self.slots, self.ops)
        }


class BatchShared(Workload):
    name = "batch_shared"
    options = ServiceOptions(verify_plans=True)  # certificates on

    def __init__(self, seed: int):
        self.spec = relational_model()
        self.ops = workloads.batch_shared(seed)
        self.slots = [f"b{i}" for i in range(len(self.ops))]
        self.keys = [
            [f"{slot}q{j}" for j in range(len(op.queries))]
            for slot, op in zip(self.slots, self.ops)
        ]
        # slot -> the last pass's (SharingReport, CacheStats delta, SearchStats);
        # the BatchResult itself would keep every batch's memo alive.
        self.last: Dict[str, tuple] = {}

    def serve(self, slot: str, op, optimizer=None) -> List[Answer]:
        optimizer = optimizer or generate_optimizer(self.spec, op.catalog)
        batch = OptimizerService(optimizer, options=self.options).optimize_many(
            op.queries, op.props
        )
        self.last[slot] = (batch.sharing_report, batch.cache_stats, batch.results[0].result.stats)
        return [
            Answer(cost=served.cost.total(), degraded=served.degraded, verified=served.verified)
            for served in batch.results
        ]

    def run_pass(self, recorders=None) -> PassResult:
        return timed_pass(self.slots, self.ops, self.serve)

    def references(self) -> Dict[object, float]:
        return {
            key: optimal_cost(self.spec, op.catalog, query, op.props)
            for keys, op in zip(self.keys, self.ops)
            for key, query in zip(keys, op.queries)
        }

    def expectations(self, history: Sequence[PassResult]) -> List[str]:
        unmet = []
        for slot, answers in zip(self.slots, history[-1].answers):
            report = self.last[slot][0] if slot in self.last else None
            if report is None or len(report.plans) != len(answers):
                unmet.append(f"{slot}: the batch did not run through the shared memo")
            elif not report.shared_total <= report.independent_total:
                unmet.append(f"{slot}: sharing made the batch dearer")
        return unmet


class Serve(Workload):
    """``serve_warm`` and ``serve_mixed``: the server subprocess under two clients."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = workloads.BUILDERS[name](seed)
        self.cold = [flag for flags in workloads.cold_slots(self.workload) for flag in flags]
        self.statement_of = [index for requests in self.workload.requests for index in requests]
        self.keys = [[f"s{index}"] for index in self.statement_of]

    def __enter__(self) -> "Serve":
        with contextlib.ExitStack() as stack:
            self.server = stack.enter_context(ServerProcess(self.workload))
            self.clients = stack.enter_context(Clients(self.server.address, self.workload))
            self.slots = self.clients.slots
            for answer in self.clients.prime():
                if failure(answer, None):
                    raise RuntimeError(f"priming the cache failed: {answer.error}")
            self.stack = stack.pop_all()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stack.close()

    @property
    def pid(self) -> int:
        return self.server.pid

    def run_pass(self, recorders=None) -> PassResult:
        latencies, answers, written, wall = self.clients.run_pass(recorders)
        return PassResult(latencies, [[answer] for answer in answers], wall, written)

    def references(self) -> Dict[object, float]:
        spec = relational_model()
        catalog = server_catalog(self.workload.tables)
        return {
            f"s{index}": sql_optimal_cost(spec, catalog, self.workload.statements[index].sql)
            for index in sorted(set(self.statement_of))
        }

    def expectations(self, history: Sequence[PassResult]) -> List[str]:
        """Every request is a hit, except exactly the cold slots after a write."""
        expected_cold = self.cold if self.workload.writes else [False] * len(self.cold)
        unmet = []
        for number, result in enumerate(history):
            for slot, answers, cold in zip(self.slots, result.answers, expected_cold):
                if answers[0].error is None and answers[0].cached == cold:
                    unmet.append(f"pass {number} {slot}: cached={answers[0].cached}, cold={cold}")
        return unmet


def build(name: str, seed: int) -> Workload:
    if name == "search_cold":
        return SearchCold(seed)
    if name == "batch_shared":
        return BatchShared(seed)
    return Serve(name, seed)


def replay(workload: Workload, seconds: float, passes: Optional[int]) -> List[PassResult]:
    """Replay the pass for ``seconds`` (or exactly ``passes`` times)."""
    history: List[PassResult] = []
    begun = time.perf_counter()
    while True:
        history.append(workload.run_pass())
        elapsed = time.perf_counter() - begun
        if passes is not None:
            if len(history) >= passes:
                return history
        elif (elapsed >= seconds and len(history) >= MIN_PASSES) or elapsed >= HARD_CAP_SECONDS:
            return history


def judge(
    workload: Workload,
    history: Sequence[PassResult],
    references: Optional[Dict[object, float]] = None,
) -> Dict[str, object]:
    """Count failed operations against the reference; never drop one."""
    if references is None:
        references = workload.references()

    def answered(answers: List[Answer], index: int) -> Answer:
        # An operation that raised answers once for all its queries.
        return answers[min(index, len(answers) - 1)]

    attempted = failed = 0
    reasons: List[str] = []
    for result in history:
        for keys, answers in zip(workload.keys, result.answers):
            for index, key in enumerate(keys):
                attempted += 1
                reason = failure(answered(answers, index), references[key])
                if reason is not None:
                    failed += 1
                    reasons.append(f"{key}: {reason}")
        for answer in result.extras:
            attempted += 1
            reason = failure(answer, None)
            if reason is not None:
                failed += 1
                reasons.append(f"write: {reason}")
    costs = {
        key: answered(answers, index).cost
        for keys, answers in zip(workload.keys, history[-1].answers)
        for index, key in enumerate(keys)
    }
    served = {key: references[key] for key, cost in costs.items() if cost is not None}
    unmet = workload.expectations(history)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not unmet,
        "problems": (reasons + unmet)[:10],
        "plan_cost_ratio": plan_cost_ratio(costs, served) if served else 0.0,
    }


def measure(workload: Workload, seconds: float, passes: Optional[int]) -> Dict[str, object]:
    """The untraced run: every end-to-end metric but ``setup_s``."""
    history = replay(workload, seconds, passes)
    rss = peak_rss_mb(workload.pid)
    timed = Passes()
    for result in history:
        timed.add(result.latencies, result.wall)
    verdict = judge(workload, history)
    metrics = timed_metrics(timed, workload.queries_per_pass)
    metrics["peak_rss_mb"] = rss
    metrics["plan_cost_ratio"] = verdict.pop("plan_cost_ratio")
    return {
        **verdict,
        "metrics": metrics,
        "passes": len(timed),
        "raw_median_ms": timed.raw_median_ms(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, help="replay exactly this many passes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    with build(args.workload, args.seed) as workload:
        workload.run_pass()  # warm-up: caches fill, lazy imports finish
        print("READY", flush=True)
        if args.setup_only:
            return 0
        gc.collect()
        gc.freeze()  # the set-up heap is not the collector's business; it stays on
        if args.trace:
            from perf import layers

            result = layers.measure(workload, args.seconds, args.passes)
        else:
            result = measure(workload, args.seconds, args.passes)
    result.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        digest=workloads.digest(args.workload, args.seed),
        environment=environment(),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
