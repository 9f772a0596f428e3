"""The traced run: one number per layer, measured from outside.

Spans are recorded here, around each call into a layer's public function
(``repro.sql.parser.parse``, ``OptimizerService.optimize``, the engine behind
a proxy, ``verify_plan``, ...); nothing inside ``src/`` is instrumented.
Timed values use the end-to-end estimator -- the lower decile of a slot across
replays, then the median over slots -- and counts come from one pass, so they
do not depend on how many replays fitted into the run.

A run alternates its *arms* round by round (plain pass, traced pass, the same
pass with one option changed), so arms that are compared saw the same
neighbours on the box.  The ``serve_*`` runs add an in-process *staged replay*
of the pass: each request walks parse -> translate -> ``service.optimize`` ->
payload on a replica of the server's catalog and service, which is what splits
a round trip into layers.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.generator.generate import generate_optimizer
from repro.generator.kernel import kernel_for
from repro.models.relational import relational_model
from repro.search import SearchOptions
from repro.search.sharing import SharingOptions, plan_sharing
from repro.server.protocol import served_payload
from repro.server.registry import stable_key
from repro.service import OptimizerService, ServiceOptions
from repro.sql.normalize import normalize_literals
from repro.sql.parser import parse
from repro.sql.translator import Translator
from repro.verify import verify_plan

from perf import trace
from perf.measure import Passes, cpu_seconds, lower_decile
from perf.reference import Answer, failure, server_catalog
from perf.worker import (
    BatchShared,
    PassResult,
    SearchCold,
    Serve,
    Workload,
    guarded,
    judge,
    timed_pass,
)

MAX_ROUNDS = 10
MIN_ROUNDS = 3
HERE = os.path.dirname(os.path.abspath(__file__))


def rounds(seconds: float, passes: Optional[int], share: float = 1.0) -> Iterator[int]:
    """Round numbers until ``share`` of the run's seconds is used (3..10 rounds)."""
    begun = time.perf_counter()
    number = 0
    while True:
        yield number
        number += 1
        if passes is not None:
            if number >= passes:
                return
        elif number >= MAX_ROUNDS or (
            number >= MIN_ROUNDS and time.perf_counter() - begun >= seconds * share
        ):
            return


class TracedOptimizer:
    """A search engine with a span around each call into it."""

    def __init__(self, optimizer, recorder: trace.Recorder):
        self._optimizer = optimizer
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._optimizer, name)

    def optimize(self, *args, **kwargs):
        with self._recorder.span("search.optimize"):
            return self._optimizer.optimize(*args, **kwargs)

    def optimize_batch(self, *args, **kwargs):
        with self._recorder.span("search.batch"):
            return self._optimizer.optimize_batch(*args, **kwargs)


def count_calls(call) -> int:
    """Python-level function calls made by ``call``: the noise-free CPU proxy."""
    count = 0

    def hook(frame, event, argument):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def median(values: Iterable[float]) -> float:
    """The median over slots; 0 for a layer with no slots on this workload."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def overhead_pct(base: Passes, other: Passes) -> float:
    return 100.0 * (other.wall() / base.wall() - 1.0)


def search_counts(stats: Sequence) -> Dict[str, float]:
    """The engine's own counters, summed over the searches of one pass."""

    def total(field: str) -> int:
        return sum(getattr(item, field) for item in stats)

    def rate(hits: str, misses: str) -> float:
        attempts = total(hits) + total(misses)
        return total(hits) / attempts if attempts else 0.0

    return {
        "search.costings": total("algorithm_costings"),
        "search.rules_fired": total("rules_fired"),
        "search.groups": total("groups_created"),
        "search.expressions": total("expressions_created"),
        "search.winner_hits": total("winner_hits"),
        "search.binding_hit_rate": rate("binding_cache_hits", "binding_cache_misses"),
        "search.moves_hit_rate": rate("moves_cache_hits", "moves_cache_misses"),
    }


def by_relations(values: Dict[str, float], relations: Dict[str, int]) -> Dict[str, float]:
    """``search.optimize_ms_n<k>``: the Figure 4 curve, mean per complexity level."""
    levels: Dict[int, List[float]] = {}
    for slot, value in values.items():
        levels.setdefault(relations[slot], []).append(value)
    return {
        f"search.optimize_ms_n{level}": 1e3 * statistics.mean(found)
        for level, found in levels.items()
        if 4 <= level <= 8
    }


# ---------------------------------------------------------------------------
# search_cold
# ---------------------------------------------------------------------------


def search_cold(workload: SearchCold, seconds: float, passes: Optional[int]):
    recorder = trace.Recorder()
    # The generated-kernel cache stays inside the checkout.
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(HERE, "out", "kernels")
    started = time.perf_counter()
    kernel = kernel_for(workload.spec, "specialized", force=True)
    kernel_build = time.perf_counter() - started
    certified = SearchOptions(certificates=True)
    specialized = SearchOptions(kernel=kernel)
    largest = [
        (slot, op) for slot, op in zip(workload.slots, workload.ops) if op.relations == 8
    ]

    def traced_search(stats: Optional[list]):
        def search(slot, op):
            with recorder.span("search.build"):
                optimizer = generate_optimizer(workload.spec, op.catalog)
            with recorder.span("search.optimize"):
                result = optimizer.optimize(op.query, op.props)
            if stats is not None:
                stats.append(result.stats)
            return [Answer(cost=result.cost.total(), degraded=result.degraded)]

        return search

    plain, traced, with_certificates = Passes(), Passes(), Passes()
    kernel_samples: Dict[str, List[float]] = {slot: [] for slot, _ in largest}
    history: List[PassResult] = []
    first_stats: list = []
    unmet: List[str] = []
    for number in rounds(seconds, passes):
        interpreted = workload.run_pass()
        for arm, result in (
            (plain, interpreted),
            (
                traced,
                timed_pass(
                    workload.slots,
                    workload.ops,
                    traced_search(first_stats if number == 0 else None),
                    recorder,
                ),
            ),
            (with_certificates, workload.run_pass(options=certified)),
        ):
            arm.add(result.latencies, result.wall)
            history.append(result)
        for slot, op in largest:
            started = time.perf_counter()
            answer = guarded(workload.search, op, specialized)
            kernel_samples[slot].append(time.perf_counter() - started)
            if answer[0].cost != interpreted.answers[workload.slots.index(slot)][0].cost:
                unmet.append(f"{slot}: the specialized kernel changed the plan cost")
    calls = count_calls(workload.run_pass)

    spans = recorder.spans()
    plain_slots = dict(zip(workload.slots, plain.slot_values()))
    relations = {slot: op.relations for slot, op in zip(workload.slots, workload.ops)}
    metrics = {
        **by_relations(trace.slot_values(spans, "search.optimize"), relations),
        **search_counts(first_stats),
        "search.build_us": 1e6 * median(trace.slot_values(spans, "search.build").values()),
        "search.py_calls_per_query": calls / len(workload.ops),
        "search.certify_overhead_pct": 100.0
        * (sum(with_certificates.slot_values()) / sum(plain.slot_values()) - 1.0),
        "generator.kernel_build_ms": 1e3 * kernel_build,
        "generator.kernel_speedup_n8": sum(plain_slots[slot] for slot, _ in largest)
        / sum(lower_decile(samples) for samples in kernel_samples.values()),
        "trace.overhead_pct": overhead_pct(plain, traced),
    }
    searched = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("search."))
    print(
        f"   search.* spans cover {searched / sum(traced.walls):.1%} of a traced search_cold pass; "
        "no sql.*, service.*, server.* span exists on this path"
    )
    return metrics, spans, history, unmet, None


# ---------------------------------------------------------------------------
# batch_shared
# ---------------------------------------------------------------------------


def batch_shared(workload: BatchShared, seconds: float, passes: Optional[int]):
    recorder = trace.Recorder()
    spec = workload.spec
    certified = SearchOptions(certificates=True)  # what verify_plans switches on

    def traced_serve(slot, op):
        optimizer = TracedOptimizer(generate_optimizer(spec, op.catalog), recorder)
        with recorder.span("service.optimize_many"):
            return workload.serve(slot, op, optimizer)

    def direct_pass() -> None:
        """The layers below ``optimize_many``, called directly."""
        for slot, keys, op in zip(workload.slots, workload.keys, workload.ops):
            optimizer = generate_optimizer(spec, op.catalog, certified)
            with recorder.span("search.batch.direct", slot):
                outcomes = optimizer.optimize_batch(op.queries, op.props)
            with recorder.span("search.sharing", slot):
                plan_sharing(outcomes, spec, op.catalog, options=SharingOptions())
            for key, query, outcome in zip(keys, op.queries, outcomes):
                with recorder.span("verify.plan", key):
                    verify_plan(spec, query, outcome.plan, outcome.certificate, catalog=op.catalog)

    plain, traced = Passes(), Passes()
    history: List[PassResult] = []
    for _ in rounds(seconds, passes):
        for arm, result in (
            (plain, workload.run_pass()),
            (traced, timed_pass(workload.slots, workload.ops, traced_serve, recorder)),
        ):
            arm.add(result.latencies, result.wall)
            history.append(result)
        direct_pass()

    spans = recorder.spans()
    reports, cache, engine = zip(*(workload.last[slot] for slot in workload.slots))
    lookups = sum(stats.lookups for stats in cache)
    searched = trace.slot_values(spans, "search.batch.direct")
    shared = trace.slot_values(spans, "search.sharing")
    served = dict(zip(workload.slots, plain.slot_values()))
    independent = sum(report.independent_total for report in reports)
    metrics = {
        **search_counts(engine),
        "search.batch_ms": 1e3 * median(searched.values()),
        "search.sharing_ms": 1e3 * median(shared.values()),
        "search.shared_groups": sum(report.materialized for report in reports),
        "search.savings_fraction": sum(report.savings for report in reports) / independent,
        "service.batch_overhead_ms": 1e3
        * median([served[slot] - searched[slot] - shared[slot] for slot in workload.slots]),
        "service.hit_rate": sum(s.hits + s.parameterized_hits for s in cache) / lookups,
        "service.insertions": sum(stats.insertions for stats in cache),
        "verify.plan_us": 1e6 * median(trace.slot_values(spans, "verify.plan").values()),
        "trace.overhead_pct": overhead_pct(plain, traced),
    }
    inside = sum(s["end"] - s["start"] for s in spans if s["name"] == "search.batch")
    print(
        f"   search.batch spans cover {inside / sum(traced.walls):.1%} of a traced batch_shared pass "
        f"(the rest: sharing pass, certificates re-checked, cache, service); "
        f"the batches' shared plans cost {1 - metrics['search.savings_fraction']:.4f} of their independent plans"
    )
    return metrics, spans, history, [], None


# ---------------------------------------------------------------------------
# serve_warm, serve_mixed
# ---------------------------------------------------------------------------


def staged_replay(workload: Serve, recorder: trace.Recorder, seconds: float, passes: Optional[int]):
    """The pass, request by request, through each layer's public function.

    Returns what the first replay saw: per slot whether it was a cache hit,
    the engine's counters of the cold searches, and the staged answers.
    """
    serve = workload.workload
    spec = relational_model()
    catalog = server_catalog(serve.tables)
    translator = Translator(catalog)
    verified = OptimizerService(
        TracedOptimizer(generate_optimizer(spec, catalog), recorder),
        options=ServiceOptions(verify_plans=True),
    )
    # The hit path without the re-verify; kept only where no write would
    # force it to repeat every cold search too.
    unverified = None if serve.writes else OptimizerService(generate_optimizer(spec, catalog))
    for index in serve.prime:
        translation = translator.translate(serve.statements[index].sql)
        verified.optimize(translation.expression, translation.required)
        if unverified is not None:
            unverified.optimize(translation.expression, translation.required)
    recorder.records.clear()  # priming is set-up, not part of the replayed pass

    cached: Dict[str, bool] = {}
    answers: Dict[str, Answer] = {}
    stats: list = []
    for number in rounds(seconds, passes, share=0.5):
        for table in serve.writes:
            catalog.update_statistics(table, catalog.table(table).statistics)
        for slot, index in zip(workload.slots, workload.statement_of):
            sql = serve.statements[index].sql
            with recorder.span("op", slot):
                with recorder.span("sql.parse"):
                    statement = parse(sql)
                with recorder.span("sql.translate"):
                    translation = translator.translate_statement(statement)
                expression, props = translation.expression, translation.required
                with recorder.span("service.optimize"):
                    served = verified.optimize(expression, props)
                with recorder.span("server.payload"):
                    json.dumps(served_payload(served, stable_key(expression, props)))
            # Beside the operation, not inside it: these repeat work it contains.
            with recorder.span("sql.normalize", slot):
                normalize_literals(expression, catalog, buckets=verified.options.selectivity_buckets)
            if unverified is not None:
                with recorder.span("service.optimize.unverified", slot):
                    unverified.optimize(expression, props)
            if not served.cached:
                with recorder.span("verify.plan", slot):
                    verify_plan(spec, expression, served.plan, served.certificate, catalog=catalog)
            if number == 0:
                cached[slot] = served.cached
                answers[slot] = Answer(
                    cost=served.cost.total(),
                    degraded=served.degraded,
                    verified=None if served.parameterized else served.verified,
                )
                if served.result is not None:
                    stats.append(served.result.stats)
    return cached, stats, answers


def serve(workload: Serve, seconds: float, passes: Optional[int]):
    clients = workload.clients
    recorders = [trace.Recorder(f"c{client}-") for client in range(len(clients.connections))]
    plain, traced = Passes(), Passes()
    history: List[PassResult] = []
    before = after = None
    requests = 0
    cpu = cpu_seconds(workload.pid)
    for number in rounds(seconds, passes, share=0.5):
        if number == 0:
            before = clients.stats()
        result = workload.run_pass()
        if number == 0:
            after = clients.stats()
        plain.add(result.latencies, result.wall)
        history.append(result)
        result = workload.run_pass(recorders)
        traced.add(result.latencies, result.wall)
        history.append(result)
        requests += 2 * (len(workload.slots) + len(workload.workload.writes))
    cpu = cpu_seconds(workload.pid) - cpu

    stage = trace.Recorder("r-")
    cached, stats, staged_answers = staged_replay(workload, stage, seconds, passes)
    spans = [span for recorder in recorders for span in recorder.spans()] + stage.spans()

    def delta(section: str, counter: str) -> float:
        return after[section][counter] - before[section][counter]

    def values(name: str) -> Dict[str, float]:
        return trace.slot_values(spans, name)

    live = dict(zip(workload.slots, plain.slot_values()))
    staged, inside, searched = values("op"), values("service.optimize"), values("search.optimize")
    hits = [slot for slot in workload.slots if cached[slot]]
    cold = [slot for slot in workload.slots if not cached[slot]]
    relations = dict(
        zip(workload.slots, (workload.workload.statements[i].relations for i in workload.statement_of))
    )
    without_verify = values("service.optimize.unverified")
    metrics = {
        **by_relations({slot: searched[slot] for slot in cold}, relations),
        **(search_counts(stats) if stats else {}),
        "sql.parse_us": 1e6 * median(values("sql.parse").values()),
        "sql.translate_us": 1e6 * median(values("sql.translate").values()),
        "sql.normalize_us": 1e6 * median(values("sql.normalize").values()),
        "service.hit_us": 1e6 * median([inside[slot] for slot in hits]),
        "service.miss_overhead_us": 1e6 * median([inside[slot] - searched[slot] for slot in cold]),
        "service.hit_rate": (delta("cache", "hits") + delta("cache", "parameterized_hits"))
        / delta("cache", "lookups"),
        "service.parameterized_hits": delta("cache", "parameterized_hits"),
        "service.invalidations": delta("cache", "invalidations"),
        "service.insertions": delta("cache", "insertions"),
        "service.shared_waits": delta("cache", "shared_waits"),
        "server.wire_us": 1e6 * median([live[slot] - staged[slot] for slot in workload.slots]),
        "server.payload_us": 1e6 * median(values("server.payload").values()),
        "server.cpu_ms_per_request": 1e3 * cpu / requests,
        # The second /stats request counted itself.
        "server.requests": delta("server", "requests") - 1,
        "server.errors": delta("server", "errors"),
        "server.admitted": delta("admission", "admitted"),
        "server.rejected": delta("admission", "rejected_busy") + delta("admission", "rejected_timeout"),
        "server.cold_not_search_pct": 100.0
        * median([1.0 - searched[slot] / live[slot] for slot in cold]),
        "verify.plan_us": 1e6 * median(values("verify.plan").values()),
        "verify.hit_overhead_us": 1e6
        * median([inside[slot] - without_verify[slot] for slot in hits if slot in without_verify]),
        "trace.overhead_pct": overhead_pct(plain, traced),
    }

    shares = trace.layer_shares([s for s in stage.spans() if s["parent"] or s["name"] == "op"])
    print(
        "   staged replay, self time by layer: "
        + "  ".join(f"{layer} {share:.1%}" for layer, share in shares.items())
    )
    engine = sum(searched[slot] for slot in cold)
    print(
        f"   search.* spans cover {engine / sum(live.values()):.1%} of the live request time of a "
        f"{workload.name} pass"
    )
    if cold:
        print(
            f"   of a cold {workload.name} request, {metrics['server.cold_not_search_pct']:.1f} % "
            f"is not search (median over {len(cold)} cold slots: live round trip "
            f"{1e3 * median([live[s] for s in cold]):.2f} ms, the engine's share of it "
            f"{1e3 * median([searched[s] for s in cold]):.2f} ms)"
        )
    references = workload.references()
    unmet = [
        f"staged {slot}: {reason}"
        for slot, key in zip(workload.slots, workload.keys)
        if (reason := failure(staged_answers[slot], references[key[0]])) is not None
    ]
    return metrics, spans, history, unmet, references


def measure(workload: Workload, seconds: float, passes: Optional[int]) -> Dict[str, object]:
    """The traced run of ``workload``: every per-layer metric, zero where absent."""
    # By name, not by class: the worker's classes live in ``__main__`` there.
    traced = {"search_cold": search_cold, "batch_shared": batch_shared}.get(workload.name, serve)
    metrics, spans, history, unmet, references = traced(workload, seconds, passes)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = [metric["name"] for metric in json.load(handle)["per_layer"]]
    undeclared = set(metrics) - set(declared)
    if undeclared:
        raise RuntimeError(f"metrics measured but not declared in BENCHMARK.json: {undeclared}")
    trace.write(
        os.path.join(HERE, "out", f"trace-{workload.name}.json"),
        spans,
        {"workload": workload.name, "layer_shares": trace.layer_shares(spans)},
    )
    verdict = judge(workload, history, references)
    verdict.pop("plan_cost_ratio")
    verdict["problems"] = (verdict["problems"] + unmet)[:10]
    verdict["correct"] = verdict["correct"] and not unmet
    return {
        **verdict,
        # A layer this workload does not reach has no spans here: its metrics are 0.
        "metrics": {name: float(metrics.get(name, 0.0)) for name in declared},
        "passes": len(history),
        "spans": len(spans),
    }
