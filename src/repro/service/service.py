"""The optimizer service: cross-query plan caching over any engine.

The paper optimizes each query from scratch — "the memo is
reinitialized for each query being optimized."  Real systems front such
an optimizer with a *plan cache*: the same (or a structurally
equivalent) query should not pay for directed dynamic programming
twice.  :class:`OptimizerService` is that front:

* **exact caching** — a query's canonical fingerprint (normalized
  logical expression + required physical properties + per-table
  statistics versions) indexes a bounded LRU of finished plans;
* **parameterized caching** — queries differing only in literal
  constants share one entry when every replaced comparison lands in the
  same selectivity bucket (:mod:`repro.sql.normalize`); the cached
  template plan is re-bound to the new constants on a hit;
* **invalidation by versioning** — every catalog mutation bumps a
  monotonic statistics version, so stale entries can never be hit (the
  fingerprint changes) and are swept out lazily on the next call;
* **resolve once** — a query resolved under one catalog snapshot, with
  its keys, is one :class:`PreparedQuery`; the statement memo holds one
  per SQL text, so a repeated text is not parsed again, and a statistics
  write re-keys it instead of translating it again; an answer is
  checked against the snapshot it was searched or keyed under.

The service programs against the :class:`~repro.search.Optimizer`
protocol, so it wraps the Volcano engine or either comparison baseline
interchangeably.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import ANY_PROPS, PhysProps
from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.catalog.schema import Schema
from repro.dynamic import bind_plan
from repro.errors import BudgetExceededError, UnknownTableError
from repro.executor import ExecutionStats, execute_plan
from repro.feedback import (
    FeedbackPolicy,
    FeedbackReport,
    FeedbackStore,
    RefreshResult,
    observed_report,
    refresh_statistics,
)
from repro.options import (
    BudgetReport,
    OptionsBase,
    ResourceBudget,
    check_positive,
)
from repro.search.engine import OptimizationResult
from repro.search.sharing import (
    SharedPlan,
    SharingOptions,
    SharingReport,
    plan_sharing,
)
from repro.service.cache import CacheEntry, CacheStats, PlanCache, StatementLRU
from repro.service.fingerprint import Fingerprint, fingerprint, stable_key
from repro.service.singleflight import SingleFlight
from repro.sql.normalize import normalize_literals, parameterize_plan
from repro.verify.certificate import PlanCertificate

__all__ = [
    "ServiceOptions",
    "ServedResult",
    "BatchResult",
    "PreparedQuery",
    "ExecutedResult",
    "OptimizerService",
]

#: Anything ``optimize``/``optimize_many``/``prepare`` accepts as a query.
QueryLike = Union[str, LogicalExpression, "PreparedQuery"]

#: A query's cache keys: (exact, template or None, normalized or None).
_Keys = Tuple[Fingerprint, Optional[Fingerprint], Any]

#: SQL text longer than this is never memoized (it bounds the statement
#: memo's keys) — and a server resolves it off its event loop, because
#: parse, translate and render all grow with the statement.
MAX_MEMO_SQL = 2048


@dataclass(frozen=True, kw_only=True)
class ServiceOptions(OptionsBase):
    """Policy knobs of an :class:`OptimizerService`.

    Engine knobs (default budget, ``min_promise``, kernel) are not among
    them: the wrapped engine's own options are the one place they are
    set, and a request may only bound its one run (``budget=``).

    ``max_entries``
        LRU bound of the plan cache.
    ``parameterized``
        Also cache under the literal-normalized template, so queries
        differing only in constants can share entries.  A parameterized
        hit returns the template's plan re-bound to the new constants —
        plan shape and cost are those of the cached optimization, which
        agree exactly for equality predicates (selectivity is
        value-independent) and approximately, within one selectivity
        bucket, for range predicates.  Disable for byte-exact answers on
        every hit.
    ``selectivity_buckets``
        How finely range-predicate selectivities are quantized; more
        buckets mean fewer cross-literal hits but tighter cost fidelity.
    ``feedback_policy``
        Drift policy for :meth:`OptimizerService.execute`'s adaptive
        loop.  When set, every instrumented execution's feedback is
        checked against it and drifted tables get their statistics
        refreshed (:func:`repro.feedback.refresh_statistics`) — bumping
        their catalog versions so exactly the affected cache entries go
        stale and the next optimization of those queries is fresh.
        When None (the default), executions still record feedback
        telemetry but statistics are never rewritten.
    ``sharing``
        Multi-query optimization policy for :meth:`optimize_many`
        (:class:`~repro.search.sharing.SharingOptions`).  When enabled
        and the wrapped engine supports batch optimization, a batch's
        cache misses are optimized over one shared memo and a
        greedy sharing pass proposes materialized common subplans; see
        :class:`BatchResult.sharing_report`.  Individual answers are
        unaffected — sharing only adds the batch-level report.
    ``verify_plans``
        Serve every plan under a provenance certificate the independent
        checker (:func:`repro.verify.verify_plan`) accepted under the
        statistics it is served under.  Fresh answers are verified
        before caching — a violation is still served (the plan may be
        fine; the *certificate* failed) but never cached.  An engine
        that returns its own verdict
        (:attr:`~repro.search.OptimizationResult.verified`, checked
        under the statistics it searched) is taken at its word, and the
        checker is not run a second time.  A cache hit
        is verified **once** per ``(plan, certificate)`` pair: the
        entry records the objects the checker accepted
        (:attr:`CacheEntry.accepted`) and is served without a second
        run while they are the very objects it holds; any other entry
        is verified on the hit, and a failing one is **quarantined**:
        dropped from the cache, counted under ``stats.quarantined``,
        and the query transparently re-optimized.  Multi-query sharing
        rewrites are verified end to
        end (every rewritten consumer and every materialized producer);
        a violating sharing pass is discarded wholesale, so an
        unverified shared plan is never served — the independent
        per-query answers stand.  Engines that support it are switched
        to certificate recording automatically
        (:attr:`~repro.search.SearchOptions.certificates`); engines
        that emit no certificate are served unverified.  Defaults to
        off: verification re-walks every served plan.
    """

    max_entries: int = 512
    parameterized: bool = True
    selectivity_buckets: int = 10
    feedback_policy: Optional[FeedbackPolicy] = None
    sharing: SharingOptions = field(default_factory=SharingOptions)
    verify_plans: bool = False

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("max_entries", self.max_entries)
        check_positive("selectivity_buckets", self.selectivity_buckets)


@dataclass(frozen=True)
class ServedResult:
    """One answer from the service: the plan plus how it was produced.

    ``cached`` is True when the plan came from the cache (``fresh``
    otherwise); ``parameterized`` further marks template hits whose
    literals were re-bound.  ``result`` carries the engine's full
    :class:`~repro.search.OptimizationResult` for fresh answers and is
    None for cache hits (the memo is not retained in the cache).
    ``degraded`` marks a fresh answer produced under a tripped resource
    budget: valid, but not proven optimal, and never cached.

    ``certificate`` is the plan's provenance certificate
    (:class:`~repro.verify.PlanCertificate`) when the engine recorded
    one; ``verified`` is True only when
    :attr:`ServiceOptions.verify_plans` is on and the independent
    checker accepted exactly this plan and certificate under the
    statistics the answer is served under (on this fresh run, or when
    the cache entry behind this hit was verified).
    """

    plan: PhysicalPlan
    cost: object
    required: PhysProps
    fingerprint: Fingerprint
    cached: bool
    parameterized: bool = False
    degraded: bool = False
    elapsed_seconds: float = 0.0
    result: Optional[OptimizationResult] = None
    certificate: Optional[PlanCertificate] = None
    verified: bool = False

    def __str__(self) -> str:
        source = "cache" if self.cached else "fresh"
        if self.parameterized:
            source += " (parameterized)"
        return f"[{source}] plan cost {self.cost}\n{self.plan.pretty()}"


@dataclass(frozen=True, eq=False)
class PreparedQuery:
    """A query resolved once under one catalog snapshot, with its keys.

    What :meth:`OptimizerService.resolve` derives, and the statement memo
    holds, so a repeated query need not derive it again: ``expression``,
    ``props``, the expression's ``sexpr`` rendering, the ``exact``
    fingerprint and, lazily, the version-independent :attr:`key`.
    All of them, and ``template`` — ``(template_key, normalized)``, set
    once by the service when first needed — are derived from ``catalog``,
    one :class:`~repro.catalog.CatalogSnapshot`, which a hit under these
    keys is verified against.  Pass one wherever the service takes a
    query; a stale one (the catalog has moved on) is re-keyed, never
    trusted.

    ``missed`` marks the copy :meth:`OptimizerService.lookup` returns for
    a miss: the cache has been consulted (and counted) under these keys,
    so :meth:`~OptimizerService.optimize` goes straight to
    single-flight and the engine instead of looking up again.
    """

    expression: LogicalExpression
    props: PhysProps
    exact: Fingerprint
    catalog: CatalogSnapshot
    sexpr: Optional[str] = None
    template: Optional[Tuple[Optional[Fingerprint], Any]] = None
    missed: bool = False

    @property
    def statistics_version(self) -> int:
        """The statistics version of :attr:`catalog`."""
        return self.catalog.statistics_version

    @cached_property
    def key(self) -> str:
        """The query's :func:`~repro.service.fingerprint.stable_key`."""
        return stable_key(self.expression, self.props, sexpr=self.sexpr)

    @property
    def keys(self) -> _Keys:
        """The cache keys: ``(exact, template_key, normalized)``."""
        return (self.exact, *(self.template or (None, None)))

    @property
    def template_key(self) -> Optional[Fingerprint]:
        """The template's fingerprint; None without one (or not yet derived)."""
        return self.keys[1]

    @property
    def normalized(self) -> Any:
        """The literal normalization behind :attr:`template_key`, or None."""
        return self.keys[2]

    def __str__(self) -> str:
        kind = "parameterized" if self.template_key is not None else "exact"
        return f"<prepared {kind} query @v{self.statistics_version}>"


@dataclass(frozen=True)
class BatchResult:
    """Everything :meth:`OptimizerService.optimize_many` learned.

    ``results`` holds one :class:`ServedResult` per input query, in
    input order — exactly what :meth:`~OptimizerService.optimize` would
    have produced for each.  On top of that, the batch-level view:

    ``shared_plans``
        Materialized common subplans the multi-query sharing pass
        chose (empty when sharing is off, fewer than two queries
        missed, or nothing was worth materializing).  Execute them in
        order against one ``intermediates`` store, then the rewritten
        consumer plans in ``sharing_report`` against the same store.
    ``sharing_report``
        The full :class:`~repro.search.sharing.SharingReport` —
        rewritten plans, candidate counts, independent vs. shared
        total cost — or None when the sharing pass did not run.
    ``cache_stats``
        A :class:`~repro.service.cache.CacheStats` *delta*: only this
        batch's lookups, hits, misses, and engine/hit seconds.
    ``budget_report``
        When the whole-batch optimization tripped its resource budget,
        the :class:`~repro.options.BudgetReport` of the trip; the
        batch then degraded to independent per-query optimization.
    ``consumer_certificates`` / ``producer_certificates``
        With :attr:`ServiceOptions.verify_plans` on and a sharing pass
        that verified clean: the pass's own certificates — one per
        rewritten consumer plan in ``sharing_report.plans`` (scans
        bound to named intermediates) and one ``producer``-kind
        certificate per materialized shared plan.  Empty when
        verification is off, nothing was materialized, or the sharing
        pass was quarantined (it failed verification or could not be
        certified).
    """

    results: Tuple[ServedResult, ...]
    shared_plans: Tuple[SharedPlan, ...] = ()
    sharing_report: Optional[SharingReport] = None
    cache_stats: Optional[CacheStats] = None
    budget_report: Optional[BudgetReport] = None
    consumer_certificates: Tuple[Optional[PlanCertificate], ...] = ()
    producer_certificates: Tuple[Optional[PlanCertificate], ...] = ()

    @property
    def degraded_to_independent(self) -> bool:
        """True when the batch budget tripped and MQO was abandoned."""
        return self.budget_report is not None

    def __str__(self) -> str:
        lines = [f"batch of {len(self.results)} queries"]
        if self.sharing_report is not None:
            lines.append(str(self.sharing_report))
        if self.budget_report is not None:
            lines.append("degraded to independent plans (budget tripped)")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExecutedResult:
    """One optimize–execute round trip through the service.

    ``served`` is how the plan was obtained (cache hit, fresh,
    degraded); ``rows`` and ``stats`` are the execution's output and
    counters.  When the run was instrumented, ``report`` joins the
    optimizer's estimates with the observed cardinalities and
    ``refresh`` records any statistics refresh the feedback triggered
    (None when no drift policy is active or nothing drifted).
    """

    served: ServedResult
    rows: List[dict]
    stats: ExecutionStats
    report: Optional[FeedbackReport] = None
    refresh: Optional[RefreshResult] = None

    @property
    def plan(self) -> PhysicalPlan:
        return self.served.plan

    @property
    def refreshed(self) -> bool:
        """Whether this execution's feedback triggered a statistics refresh."""
        return self.refresh is not None and self.refresh.did_refresh

    @property
    def max_q_error(self) -> float:
        """The report's worst per-operator q-error (1.0 uninstrumented)."""
        return self.report.max_q_error if self.report is not None else 1.0


class OptimizerService:
    """A caching front over any :class:`~repro.search.Optimizer`.

    >>> service = OptimizerService(generate_optimizer(model, catalog))
    >>> first = service.optimize(query)        # cold: runs the engine
    >>> again = service.optimize(query)        # warm: served from cache
    >>> again.cached and again.plan == first.plan
    True
    """

    def __init__(
        self,
        optimizer,
        options: Optional[ServiceOptions] = None,
    ):
        self.optimizer = optimizer
        self.catalog: Catalog = optimizer.catalog
        self.options = options or ServiceOptions()
        self.cache = PlanCache(max_entries=self.options.max_entries)
        feedback_buckets = (
            self.options.feedback_policy.buckets
            if self.options.feedback_policy is not None
            else self.options.selectivity_buckets
        )
        self.feedback = FeedbackStore(buckets=feedback_buckets)
        # Serializes ``execute``'s feedback step across server worker
        # threads: a report is folded in and the refresh that consumes it
        # runs before any other report is recorded.
        self._feedback_lock = threading.Lock()
        # Per-fingerprint deduplication of concurrent cold optimizations:
        # when the service is shared across threads (repro.server), one
        # engine run per cold key, every concurrent requester shares it.
        self.single_flight: SingleFlight[ServedResult] = SingleFlight()
        # The statement memo: SQL text -> (PreparedQuery, the schemas of
        # the tables it reads, as translated), one entry per live text.
        self.statements = StatementLRU()
        self._seen_version = self.catalog.statistics_version

    # ------------------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """The cache's operation counters."""
        return self.cache.stats

    def prepare(
        self,
        query: QueryLike,
        props: Optional[PhysProps] = None,
    ) -> PreparedQuery:
        """Compute a query's cache keys once, for reuse across calls.

        :meth:`resolve` with the template keys derived — for SQL text,
        the statement memo's own object.  A stale one is safe to pass
        to :meth:`optimize`: it is re-keyed transparently.
        """
        return self._templated(self.resolve(query, props))

    def _templated(self, query: PreparedQuery) -> PreparedQuery:
        """``query`` with its template keys, derived once, when first needed."""
        if query.template is None:
            object.__setattr__(query, "template", self._template_keys(query))
        return query

    def lookup(
        self,
        query: QueryLike,
        props: Optional[PhysProps] = None,
        *,
        sexpr: Optional[str] = None,
    ) -> Union[ServedResult, PreparedQuery]:
        """The cache-only half of :meth:`optimize`; never runs the engine.

        A hit is the :class:`ServedResult` :meth:`optimize` returns,
        counted and (under ``verify_plans``) verified.  A miss is a copy
        of the resolved query, marked ``missed`` (the memoized one never
        is): hand it to :meth:`optimize`, :meth:`execute` or
        :meth:`optimize_many` and the request is counted once — unless
        the statistics moved in between, when it is re-keyed and looked
        up afresh like any stale query.  The work is bounded by the
        query's size, so a server can do it on its event loop.

        Keys are those :meth:`resolve` found or derived (from ``sexpr``,
        the expression's rendering, when the caller already has it):
        the exact fingerprint at once, the template keys only once the
        exact lookup has missed — an exact hit never normalizes
        literals, a memoized statement at most once.  Hit latency is
        *service-side* (the lookup cost paid now), never the original
        optimization's elapsed time; it accumulates under
        ``stats.hit_seconds``.
        """
        statement = self.resolve(query, props, sexpr=sexpr)
        if statement.missed:
            return statement  # that very miss, still fresh: nothing to count
        started = time.perf_counter()
        self._sweep_if_stale()
        entry = self.cache.get(statement.exact)
        quarantined = False
        if entry is not None:
            served = self._serve_exact(entry, statement, started)
            if served is not None:
                return served
            quarantined = True
        template_key, normalized = self._templated(statement).template
        if template_key is not None and quarantined:
            # The template entry came from the same (now distrusted)
            # optimization as the quarantined exact entry: drop it too.
            self.cache.remove(template_key)
        elif template_key is not None:
            entry = self.cache.get(template_key)
            if entry is not None:
                plan = bind_plan(entry.plan, normalized.bindings)
                elapsed = time.perf_counter() - started
                self.cache.stats.bump(hit_seconds=elapsed)
                return ServedResult(
                    plan=plan,
                    cost=entry.cost,
                    required=entry.required,
                    fingerprint=template_key,
                    cached=True,
                    parameterized=True,
                    elapsed_seconds=elapsed,
                )
        return dataclasses.replace(statement, missed=True)

    def resolve(
        self,
        query: QueryLike,
        props: Optional[PhysProps] = None,
        *,
        sexpr: Optional[str] = None,
    ) -> PreparedQuery:
        """Coerce any accepted query form to a :class:`PreparedQuery`.

        Everything is derived from one :meth:`~repro.catalog.Catalog.snapshot`
        of the catalog, the one the result carries.  SQL text is
        **resolved once**: parsed, translated, rendered and
        fingerprinted the first time it is seen, then served from the
        statement memo (:attr:`statements`) as the same object while the
        snapshot is current.  Every catalog mutation publishes a new
        one, and a stale entry is replaced in place:
        re-keyed from its stored expression, props and rendering, and
        translated again only when a table it reads no longer has the
        schema it was translated against (``replace_table``,
        ``drop_table``).  Never memoized: text that fails to parse or
        translate (it raises), text longer than ``MAX_MEMO_SQL``, text
        required under explicit ``props``.

        A :class:`PreparedQuery` of the current snapshot (and the same
        ``props``) comes back as it is; a stale one is re-keyed from its
        expression, never trusted.
        """
        catalog = self.catalog.snapshot()
        text: Optional[str] = None
        schemas: Optional[Tuple[Schema, ...]] = None
        if isinstance(query, str) and props is None and len(query) <= MAX_MEMO_SQL:
            text = query
            memoized = self.statements.get(text, catalog)
            if memoized is not None:
                return memoized[0]
            stale = self.statements.peek(text)
            if stale is not None and _translated_against(catalog, *stale):
                query, schemas = stale  # re-keyed below, not translated again
        if isinstance(query, PreparedQuery):
            if query.catalog is catalog and (props is None or props == query.props):
                return query
            if props is None:
                props = query.props
            if sexpr is None:
                sexpr = query.sexpr
            query = query.expression
        elif isinstance(query, str):
            from repro.sql.translator import Translator

            translation = Translator(catalog).translate(query)
            if props is None:
                props = translation.required
            query = translation.expression
        if props is None:
            props = self._default_props()
        if sexpr is None:
            sexpr = query.to_sexpr()  # rendered once, digested twice
        statement = PreparedQuery(
            query,
            props,
            fingerprint(query, props, catalog, sexpr=sexpr),
            catalog,
            sexpr,
        )
        if text is not None:
            if schemas is None:  # the ones it was just translated against
                schemas = tuple(
                    catalog.table(name).schema for name in statement.exact.tables
                )
            self.statements.put(text, (statement, schemas), catalog)
        return statement

    def optimize(
        self,
        query: QueryLike,
        props: Optional[PhysProps] = None,
        *,
        budget: Optional[ResourceBudget] = None,
    ) -> ServedResult:
        """Serve the cheapest plan for ``query``, from cache when possible.

        ``query`` may be a logical expression, a SQL string, or a
        :class:`PreparedQuery` from :meth:`prepare` (which skips the
        fingerprinting work when still fresh).

        Lookup order: exact fingerprint first (byte-identical answer),
        then — when enabled — the literal-normalized template at the
        query's selectivity bucket (plan re-bound to these literals).
        A miss runs the wrapped engine and caches both forms.

        ``budget`` bounds this one engine run (overriding the engine's
        own default, ``optimizer.options.budget``).  A degraded answer —
        the engine's budget tripped and it fell back to its anytime plan
        — is served with ``degraded=True`` but not cached, and is
        counted in ``stats.degraded``.

        Concurrent misses of the same fingerprint are **single-flight**
        deduplicated: the first caller runs the engine, every caller
        that arrives while that run is in flight waits and shares its
        answer (counted under ``stats.shared_waits`` and served with
        ``cached=True`` — from the requester's side it is
        indistinguishable from a warm hit).  Followers share the
        leader's answer as-is, so a follower's own ``budget`` does not
        shape the shared plan.
        """
        found = self.lookup(query, props)
        if isinstance(found, ServedResult):
            return found
        started = time.perf_counter()
        expression, props = found.expression, found.props
        exact, template_key, _ = found.keys

        def miss() -> ServedResult:
            # Late-leader re-check: this thread's lookup missed, but
            # another flight may have populated the entry before we won
            # the flight.  peek() is uncounted, so the common cold path
            # keeps its exact historical counter trail; a found entry is
            # counted and verified exactly like a first-lookup hit.
            entry = self.cache.peek(exact)
            if entry is not None:
                self.cache.stats.bump(lookups=1, hits=1)
                served = self._serve_exact(entry, found, started)
                if served is not None:
                    return served
                if template_key is not None:
                    self.cache.remove(template_key)
            result = self.optimizer.optimize(
                expression, props, options=self._engine_options(budget)
            )
            if result.stats is not None:
                self.cache.stats.bump(engine_seconds=result.stats.elapsed_seconds)
            return self._serve_fresh(found, result, started)

        served, leader = self.single_flight.do(exact.digest, miss)
        if not leader:
            # Shared wait: another request's engine run answered this
            # one.  Byte-identical plan, no second optimization.
            self.cache.stats.bump(shared_waits=1)
            served = dataclasses.replace(
                served,
                cached=not served.degraded,
                elapsed_seconds=time.perf_counter() - started,
                result=None,
            )
        return served

    def _template_keys(
        self, query: PreparedQuery
    ) -> Tuple[Optional[Fingerprint], Any]:
        """A query's ``(template_key, normalized)``, or ``(None, None)``.

        The one place literals are normalized and the template
        fingerprint derived, both under the query's own snapshot; None
        when parameterized caching is off or the query has no literal to
        replace.
        """
        if not self.options.parameterized:
            return None, None
        normalized = normalize_literals(
            query.expression, query.catalog, buckets=self.options.selectivity_buckets
        )
        if not normalized.is_parameterized:
            return None, None
        template_key = fingerprint(
            normalized.template,
            query.props,
            query.catalog,
            bucket_key=tuple(
                (op, bucket) for _, op, bucket in normalized.bucket_key
            ),
        )
        return template_key, normalized

    def _serve_exact(
        self, entry: CacheEntry, query: PreparedQuery, started: float
    ) -> Optional[ServedResult]:
        """Wrap an exact-fingerprint entry as a hit, or quarantine it.

        Under ``verify_plans`` it is served only under a certificate
        the checker accepted, under the snapshot ``query``'s keys were
        derived from: an entry still holding the very plan and
        certificate it was verified with (:attr:`CacheEntry.verified`)
        is served as it stands — the checker is a pure function of what
        that mark and the exact fingerprint pin — and any other entry
        is verified now and, passing, marked.  None means it failed:
        the entry has been dropped and counted, and the caller must
        treat the lookup as a miss — dropping the sibling template
        entry rather than falling back to it — so a fresh (verified)
        optimization answers instead.
        """
        verified = False
        if self.options.verify_plans and entry.certificate is not None:
            ok: Optional[bool] = True
            if not entry.verified:
                ok = self.verify_served(
                    query.expression, entry.plan, entry.certificate, query.catalog
                )
                if ok is False:
                    self.cache.remove(entry.fingerprint)
                    self.cache.stats.bump(verify_violations=1, quarantined=1)
                    return None
                if ok:
                    self.cache.accept(entry)
            verified = bool(ok)
        elapsed = time.perf_counter() - started
        self.cache.stats.bump(verified_hits=int(verified), hit_seconds=elapsed)
        return ServedResult(
            plan=entry.plan,
            cost=entry.cost,
            required=entry.required,
            fingerprint=entry.fingerprint,
            cached=True,
            elapsed_seconds=elapsed,
            certificate=entry.certificate,
            verified=verified,
        )

    def _serve_fresh(
        self, query: PreparedQuery, result: OptimizationResult, started: float
    ) -> ServedResult:
        """One fresh engine answer to ``query``: verify, cache, wrap.

        Shared by the single-query miss and the shared-memo batch.
        The answer is checked against the snapshot its search read (the
        query's own, for an engine that does not record one).  Engine
        time is accounted by the caller, once per engine *run* (a
        shared-memo batch is one run behind many answers).
        """
        degraded = bool(getattr(result, "degraded", False))
        certificate = getattr(result, "certificate", None)
        ok: Optional[bool] = None
        if self.options.verify_plans:
            # An engine that checked its own answer (under the snapshot
            # it searched) has run this answer's checker already.
            ok = getattr(result, "verified", None)
            if ok is None:
                ok = self.verify_served(
                    query.expression,
                    result.plan,
                    certificate,
                    result.catalog or query.catalog,
                )
            else:
                self.cache.stats.bump(verifications=1)
            if ok is False:
                self.cache.stats.bump(verify_violations=1)
        # Degraded answers are served but never cached.  Neither is one
        # whose own certificate fails the checker (the plan may still
        # be fine): the cache must hold only verifiable entries.
        if degraded:
            self.cache.stats.bump(degraded=1)
        elif ok is not False:
            self._store(query.keys, result, verified=bool(ok))
        return ServedResult(
            plan=result.plan,
            cost=result.cost,
            required=result.required,
            fingerprint=query.exact,
            cached=False,
            degraded=degraded,
            elapsed_seconds=time.perf_counter() - started,
            result=result,
            certificate=certificate,
            verified=bool(ok),
        )

    def verify_served(
        self,
        query: LogicalExpression,
        plan: PhysicalPlan,
        certificate: Optional[PlanCertificate],
        catalog: CatalogSnapshot,
    ) -> Optional[bool]:
        """Re-check a plan against its certificate; None when impossible.

        The independent checker behind :attr:`ServiceOptions.verify_plans`
        — public so callers *above* the service (the server, before it
        pins a plan) get exactly the per-answer check: True (verified),
        False (violation), or None, against ``catalog``: the snapshot the
        plan was searched under, or the one a cached plan's key was
        derived from.  Verification needs a model specification and a
        certificate; engines without either (or runs with recording off)
        are served unverified, not rejected.  Every run of the checker
        counts under ``stats.verifications``.
        """
        spec = getattr(self.optimizer, "spec", None)
        if spec is None or certificate is None:
            return None
        from repro.verify import verify_plan

        self.cache.stats.bump(verifications=1)
        report = verify_plan(
            spec,
            query,
            plan,
            certificate,
            catalog=catalog,
            estimator=getattr(self.optimizer, "estimator", None),
        )
        return report.ok

    def optimize_many(
        self,
        queries,
        props: Optional[PhysProps] = None,
        *,
        deadline_seconds: Optional[float] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> "BatchResult":
        """Serve a batch of queries, sharing work across them.

        Returns a :class:`BatchResult`: per-query answers in input
        order (each exactly what :meth:`optimize` would have produced),
        plus the batch-level sharing report and cache-stats delta.

        The warm plan cache is consulted *before* any engine run, each
        query is looked up once, and duplicate queries within the batch
        are optimized once — keyed on the cache fingerprint, so with
        parameterized caching enabled two queries differing only in
        same-bucket literals also count as duplicates.  Fresh answers
        are cached so later batches (and later duplicates) hit.

        When ``options.sharing`` is enabled (the default) and more than
        one query misses, the misses are optimized over **one shared
        memo** (the wrapped engine's ``optimize_batch``), so
        cross-query common subexpressions collide; a greedy sharing pass
        (Volcano-SH style) then proposes materialized common subplans —
        see :attr:`BatchResult.sharing_report`.  Each query's own served
        plan is unchanged; the rewritten consumer plans live only in
        the report.  A budget trip during the shared run degrades the
        batch to independent per-query optimization (recorded in
        :attr:`BatchResult.budget_report`).  Otherwise every miss is
        optimized on its own, in input order.

        ``deadline_seconds`` is a *batch* deadline: the shared run gets
        it whole; on the independent path it is split evenly into
        per-query wall-clock budgets over the cache misses, composing
        with ``budget`` (or the engine's default) by taking the tighter
        deadline.  Per-query budget semantics are unchanged: a query
        whose budget trips degrades (anytime plan, flagged
        ``degraded=True``) and is served but never cached.

        A query the engine cannot optimize raises its
        :class:`~repro.errors.ReproError` out of the batch.
        """
        queries = list(queries)
        stats_before = self.cache.stats.counters()

        # Duplicate queries in one batch are optimized once; the rest
        # are served from the cache the first occurrence populates.
        # Dedup keys on the *cache* fingerprint — the template digest
        # when the query parameterizes — so same-bucket literal
        # variants dispatch once and the rest re-bind from the cache.
        # A duplicate keeps its keys but not its ``missed`` mark: it is
        # looked up again, where it hits (or, behind a degraded first
        # occurrence, misses and re-runs).
        results: List[Optional[ServedResult]] = [None] * len(queries)
        missed: Dict[int, PreparedQuery] = {}
        dispatch: List[int] = []
        seen_digests: set = set()
        for index, query in enumerate(queries):
            found = self.lookup(query, props)
            if isinstance(found, ServedResult):
                results[index] = found
                continue
            exact, template_key, _ = found.keys
            digest = (
                template_key.digest if template_key is not None else exact.digest
            )
            if digest in seen_digests:
                found = dataclasses.replace(found, missed=False)
            else:
                seen_digests.add(digest)
                dispatch.append(index)
            missed[index] = found

        # The batch deadline goes whole to the shared run and is split
        # evenly over the misses on the independent path.
        base_budget = budget if budget is not None else self.optimizer.options.budget
        per_query_budget = base_budget
        if deadline_seconds is not None and dispatch:
            per_query_budget = ResourceBudget.tighten(
                base_budget, deadline_seconds / len(dispatch)
            )
        sharing_report: Optional[SharingReport] = None
        batch_budget_report: Optional[BudgetReport] = None
        consumer_certs: Tuple[Optional[PlanCertificate], ...] = ()
        producer_certs: Tuple[Optional[PlanCertificate], ...] = ()
        if (
            len(dispatch) > 1
            and self.options.sharing.enabled
            and hasattr(self.optimizer, "optimize_batch")
            and len({missed[index].props for index in dispatch}) == 1
        ):
            (
                sharing_report,
                batch_budget_report,
                consumer_certs,
                producer_certs,
            ) = self._optimize_batch_shared(
                missed,
                dispatch,
                ResourceBudget.tighten(base_budget, deadline_seconds),
                results,
            )
        # Every miss the shared run did not serve, in input order: a
        # first occurrence runs the engine without a second lookup, a
        # duplicate hits what it cached.  Degraded answers were never
        # cached, so their duplicates re-run with the same budget —
        # preserving single-query semantics exactly.
        for index, found in missed.items():
            if results[index] is None:
                results[index] = self.optimize(found, budget=per_query_budget)
        return BatchResult(
            results=tuple(results),  # type: ignore[arg-type]
            shared_plans=(
                sharing_report.shared_plans if sharing_report is not None else ()
            ),
            sharing_report=sharing_report,
            cache_stats=self._stats_delta(stats_before),
            budget_report=batch_budget_report,
            consumer_certificates=consumer_certs,
            producer_certificates=producer_certs,
        )

    def _optimize_batch_shared(
        self,
        missed: Dict[int, PreparedQuery],
        dispatch: List[int],
        batch_budget: Optional[ResourceBudget],
        results: List[Optional[ServedResult]],
    ) -> Tuple[
        Optional[SharingReport],
        Optional[BudgetReport],
        Tuple[Optional[PlanCertificate], ...],
        Tuple[Optional[PlanCertificate], ...],
    ]:
        """Optimize the cache misses over one shared memo; fill ``results``.

        Returns ``(report, None, consumers, producers)`` on success —
        every dispatched index served and cached, with the
        sharing pass's consumer/producer certificates when verification
        is on and they checked out (a pass that fails or cannot be
        certified is quarantined) — or ``(None, budget_report, (), ())``
        when the batch-wide budget tripped, leaving ``results``
        untouched so the caller can fall back to independent per-query
        optimization with split budgets.
        """
        expressions = [missed[index].expression for index in dispatch]
        props = missed[dispatch[0]].props
        started = time.perf_counter()
        try:
            outcomes = self.optimizer.optimize_batch(
                expressions, props, options=self._engine_options(batch_budget)
            )
        except BudgetExceededError as error:
            return None, error.report, (), ()
        # All outcomes share one SearchStats: account the engine time
        # exactly once, not once per result.
        if outcomes and outcomes[0].stats is not None:
            self.cache.stats.bump(engine_seconds=outcomes[0].stats.elapsed_seconds)
        for index, result in zip(dispatch, outcomes):
            results[index] = self._serve_fresh(missed[index], result, started)
        catalog = outcomes[0].catalog  # the one snapshot the batch searched
        report = plan_sharing(
            outcomes,
            self.optimizer.spec,
            catalog,
            options=self.options.sharing,
            estimator=getattr(self.optimizer, "estimator", None),
        )
        if not (self.options.verify_plans and report.shared_plans):
            return report, None, (), ()
        certified = bool(report.consumer_certificates)
        if certified and self._verify_sharing(report, expressions, catalog):
            return (
                report,
                None,
                report.consumer_certificates,
                report.producer_certificates,
            )
        # Quarantine the whole sharing pass: an uncertified or unverified
        # shared rewrite is never surfaced.  The independent (already
        # verified) per-query answers stand.
        self.cache.stats.bump(verify_violations=int(certified), quarantined=1)
        return SharingReport(plans=tuple(r.plan for r in outcomes)), None, (), ()

    def _verify_sharing(
        self, report: SharingReport, expressions, catalog: CatalogSnapshot
    ) -> bool:
        """Do every rewritten consumer and every materialized producer
        pass the independent checker under the pass's own certificates,
        against the snapshot the batch was searched under?"""
        consumers = zip(expressions, report.plans, report.consumer_certificates)
        producers = [
            (certificate.source, shared.plan, certificate)
            for shared, certificate in zip(report.shared_plans, report.producer_certificates)
        ]
        return all(
            self.verify_served(query, plan, certificate, catalog) is True
            for query, plan, certificate in [*consumers, *producers]
        )

    def _stats_delta(self, before: dict) -> CacheStats:
        after = self.cache.stats.counters()
        return CacheStats(
            **{name: after[name] - value for name, value in before.items()}
        )

    def execute(
        self,
        query: Union[QueryLike, ServedResult],
        props: Optional[PhysProps] = None,
        *,
        budget: Optional[ResourceBudget] = None,
        instrument: bool = True,
        policy: Optional[FeedbackPolicy] = None,
    ) -> ExecutedResult:
        """Optimize ``query``, run its plan, and close the feedback loop.

        ``query``, ``props`` and ``budget`` are exactly :meth:`optimize`'s
        and are forwarded to it unchanged; an answer already served (a
        :meth:`lookup` hit) is executed as it stands.

        The adaptive path of the service: the plan (cached or fresh) is
        executed with per-operator instrumentation, the observed
        cardinalities are joined against the optimizer's estimates into
        a :class:`~repro.feedback.FeedbackReport`, and the report is
        folded into :attr:`feedback`.  When a drift policy is active
        (``policy`` argument, or ``options.feedback_policy``) and the
        accumulated feedback crosses its q-error threshold, the drifted
        tables' statistics are refreshed through the catalog's
        versioned API — which invalidates exactly the cache entries
        reading those tables, so the *next* optimization of an affected
        query transparently re-plans against fresh statistics while
        every other cached plan stays warm.

        Degraded plans (budget-tripped optimizations) record feedback
        telemetry but never trigger a refresh: a knowingly cut-short
        plan is not evidence that the statistics are wrong.  Nor is a
        template hit's plan: its estimates are those of the cached
        optimization's literals, not the ones bound into it.  With
        ``instrument=False`` the run is observation-free — no per-node
        counters, no report, no refresh.
        """
        served = (
            query
            if isinstance(query, ServedResult)
            else self.optimize(query, props, budget=budget)
        )
        stats = ExecutionStats()
        rows = execute_plan(
            served.plan, self.catalog, stats, instrument=instrument
        )
        report: Optional[FeedbackReport] = None
        refresh: Optional[RefreshResult] = None
        if instrument:
            report = observed_report(
                served.plan,
                stats,
                degraded=served.degraded,
                rebound=served.parameterized,
            )
            policy = policy if policy is not None else self.options.feedback_policy
            with self._feedback_lock:
                self.feedback.record(report)
                if policy is not None and not served.degraded:
                    refresh = refresh_statistics(
                        self.catalog, self.feedback, policy=policy
                    )
        return ExecutedResult(
            served=served,
            rows=rows,
            stats=stats,
            report=report,
            refresh=refresh,
        )

    # ------------------------------------------------------------------

    def invalidate(self, table: Optional[str] = None) -> int:
        """Drop cached plans: those reading ``table``, or all stale ones."""
        if table is not None:
            return self.cache.invalidate_table(table)
        dropped = self.cache.purge_stale(self.catalog)
        self._seen_version = self.catalog.statistics_version
        return dropped

    def clear(self) -> None:
        """Drop every cached plan."""
        self.cache.clear()

    def __len__(self) -> int:
        return len(self.cache)

    # ------------------------------------------------------------------

    def _default_props(self) -> PhysProps:
        spec = getattr(self.optimizer, "spec", None)
        return getattr(spec, "any_props", ANY_PROPS)

    def _sweep_if_stale(self) -> None:
        """Lazily drop entries invalidated by catalog mutations.

        Cheap in the steady state: a single version comparison.  Only
        when the catalog has actually moved does the sweep walk the
        cache, and it drops exactly the entries whose tables changed.
        """
        version = self.catalog.statistics_version
        if version != self._seen_version:
            self.cache.purge_stale(self.catalog)
            self._seen_version = version

    def _engine_options(self, budget: Optional[ResourceBudget]):
        """The wrapped engine's options for one run, or None if unchanged.

        Two things are folded in: a per-request ``budget`` (every engine
        options class carries one), and certificate recording under
        ``verify_plans`` for engines whose options expose it.  Every
        other knob is the engine's own.  None (the common case) means
        the engine runs with exactly the options it was built with.
        """
        options = self.optimizer.options
        changed = {}
        if budget is not None:
            changed["budget"] = budget
        if (
            self.options.verify_plans
            and getattr(options, "certificates", None) is False
        ):
            changed["certificates"] = True
        return options.replace(**changed) if changed else None

    def _store(
        self, keys: _Keys, result: OptimizationResult, verified: bool = False
    ) -> None:
        """Cache a fresh answer; ``verified`` when the checker accepted it."""
        exact, template_key, normalized = keys
        entry = CacheEntry(
            fingerprint=exact,
            plan=result.plan,
            cost=result.cost,
            required=result.required,
            certificate=getattr(result, "certificate", None),
        )
        self.cache.put(entry.marked() if verified else entry)
        if template_key is not None:
            template_plan = parameterize_plan(result.plan, normalized.replacements)
            self.cache.put(
                CacheEntry(
                    fingerprint=template_key,
                    plan=template_plan,
                    cost=result.cost,
                    required=result.required,
                    parameterized=True,
                )
            )


def _translated_against(
    catalog: CatalogSnapshot, statement: PreparedQuery, schemas: Tuple[Schema, ...]
) -> bool:
    """Whether every table ``statement`` reads still has ``schemas`` in ``catalog``."""
    try:
        return all(
            catalog.table(name).schema is schema
            for name, schema in zip(statement.exact.tables, schemas)
        )
    except UnknownTableError:  # dropped
        return False
