"""The Volcano search engine: directed dynamic programming.

This implements the paper's Figure 2 (``FindBestPlan``) over the memo:

* a *goal* is a pair of equivalence class and physical property vector;
* winners and failures are memoized per goal, and the entries are
  *limit-free*: a goal is searched once, to its optimum, and the caller's
  cost limit only accepts or rejects the answer (a deliberate deviation
  from Figure 2, see DESIGN.md);
* moves are (1) transformations, (2) algorithms that can deliver the
  required properties, (3) enforcers for required properties — ordered by
  promise, all pursued under exhaustive search;
* each goal prunes under its own tightening bound — the best complete
  candidate so far — which abandons a candidate's remaining inputs and
  cuts moves on their local cost (the paper's ``while TotalCost <
  Limit``, with the limit not carried *into* a sub-goal's search);
* enforcer inputs are optimized with a *relaxed* property vector and an
  *excluding* property vector so algorithms that could have satisfied the
  enforced property directly are not considered redundantly.

Logical exploration (transformations) runs to closure over the reachable
memo before costing starts: under exhaustive search every reachable
equivalence class participates in some candidate plan, so this performs
exactly the work Figure 2 performs, while guaranteeing that group merges
(which invalidate cached winners) never interleave with costing.  The
goal-*directed* part of "directed dynamic programming" — optimizing only
the (class, property) pairs that larger plans actually request — is
preserved untouched and is where the efficiency against EXODUS comes
from.

Two production concerns layer on top of the paper's algorithm:

* **Reentrancy.**  All per-run state (memo, context, stats, tracer,
  budget meter) lives in a :class:`_SearchRun`
  object created by ``optimize()`` and threaded through the search, so
  one engine instance can serve concurrent ``optimize()`` calls — each
  with its own ``options=`` override — without interference.
* **Resource governance.**  A :class:`~repro.options.ResourceBudget` on
  :class:`SearchOptions` bounds wall-clock time, costings, and rule
  firings.  When a budget trips, the engine *degrades* instead of dying:
  it stops opening new moves, reuses any memoized winner for the root
  goal, falls back to a deterministic greedy implementation pass over
  the explored memo (:func:`repro.search.extract.greedy_plan`), and
  returns a result flagged ``degraded=True`` with a typed
  :class:`~repro.options.BudgetReport`.  Only when no valid plan exists
  at all does it raise :class:`~repro.errors.BudgetExceededError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import ANY_PROPS, PhysProps
from repro.catalog.catalog import Catalog
from repro.catalog.selectivity import SelectivityEstimator
from repro.errors import (
    BudgetExceededError,
    OptimizationFailedError,
    PlanValidationError,
    ReproError,
    SearchError,
)
from repro.model.context import OptimizerContext
from repro.model.cost import Cost, INFINITE_COST
from repro.model.patterns import match_memo
from repro.model.rules import ImplementationRule, TransformationRule
from repro.model.spec import (
    AlgorithmDef,
    AlgorithmNode,
    EnforcerApplication,
    ModelSpecification,
)
from repro.options import (
    BudgetMeter,
    BudgetReport,
    BudgetTripped,
    OptionsBase,
    ResourceBudget,
    check_kernel,
    check_positive,
)
from repro.search.certify import CertificateBuilder, ClaimRecord
from repro.search.memo import GoalKey, Group, Memo, Winner
from repro.search.tracing import SearchStats, Tracer
from repro.verify.certificate import PlanCertificate

__all__ = [
    "SearchOptions",
    "OptimizationResult",
    "VolcanoOptimizer",
]


@dataclass(frozen=True, kw_only=True)
class SearchOptions(OptionsBase):
    """Knobs of the search engine.

    The defaults give the paper's exhaustive directed dynamic
    programming; the ablation benchmarks flip individual flags.

    ``branch_and_bound``
        Prune inside each goal by the best complete candidate found so
        far: a move whose local cost already exceeds it is skipped, and
        a candidate's remaining inputs are abandoned (their goals not
        searched) once it does.  The bound is the goal's own — a
        caller's limit is an accept test on the answer, never the
        starting bound of a sub-goal's search — so memoized winners are
        optima whoever asked first.  Off, every applicable move of every
        reached goal is costed in full; plans and costs are identical.
    ``cache_failures``
        Memoize goals for which *no plan exists* ("failures that can
        save future optimization effort").  A failure carries no limit:
        a goal whose optimum merely exceeds a caller's limit memoizes
        its winner instead.  Off, an infeasible goal is searched again
        on every request; plans and costs are identical.
    ``min_promise``
        Transformation rules with promise strictly below this threshold
        are skipped — the paper's hook for heuristic guidance ("Pursuing
        all moves or only a selected few is a major heuristic placed
        into the hands of the optimizer implementor").  The default of
        ``None`` pursues everything (exhaustive search).  Implementation
        and enforcer moves are never skipped: pruning them could make
        feasible goals unsatisfiable, so heuristics shape the *logical*
        search space only.
    ``check_consistency``
        Run the paper's consistency checks (logical property agreement in
        every class; final plan satisfies the requested properties).
    ``max_groups``
        Memory budget expressed in equivalence classes; exceeding it
        raises :class:`~repro.errors.SearchError`.
    ``budget``
        A :class:`~repro.options.ResourceBudget` bounding search effort
        (wall-clock deadline, costing quota, rule-firing quota).  When a
        limit trips, the engine degrades gracefully and flags the result
        ``degraded=True``; see :mod:`repro.search.engine`.
    ``trace``
        Record a human-readable search trace (slow; for debugging).
    ``certificates``
        Record per-node provenance claims during costing and attach a
        :class:`~repro.verify.certificate.PlanCertificate` to the
        result, verifiable by :func:`repro.verify.verify_plan`.
    ``kernel``
        The specialized search kernel to run with (see
        :mod:`repro.generator.kernel`): ``None`` or ``"interpreted"``
        walks pattern objects (the baseline), ``"specialized"`` resolves
        the generated pure-Python kernel for this engine's model.  A
        pre-built :class:`~repro.generator.kernel.SearchKernel` is also
        accepted.  Kernels only swap the binding enumerators; plans,
        costs, and certificates are byte-identical across tiers.
    """

    branch_and_bound: bool = True
    cache_failures: bool = True
    min_promise: Optional[float] = None
    check_consistency: bool = True
    max_groups: Optional[int] = None
    budget: Optional[ResourceBudget] = None
    trace: bool = False
    certificates: bool = False
    kernel: Optional[object] = None

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("max_groups", self.max_groups)
        check_kernel(self.kernel)


@dataclass
class OptimizationResult:
    """The common optimization outcome of every :class:`Optimizer`.

    :class:`VolcanoOptimizer` returns it directly (with a live memo);
    :class:`~repro.exodus.ExodusResult` and
    :class:`~repro.systemr.SystemRResult` subclass it, so any engine's
    answer carries ``plan``, ``cost``, ``required``, and ``stats`` —
    the contract the :class:`~repro.service.OptimizerService` and the
    benchmarks rely on.  ``memo``/``root_group`` are only populated by
    the memo-based engines.  The memo lives exactly as long as something
    holds ``result.memo``.  Not even ``memo.context`` keeps it alive: the
    context's group-leaf resolver holds the memo weakly, so resolving a
    group leaf through a context that outlived its memo raises
    :class:`~repro.errors.SearchError`.

    ``degraded`` marks an *anytime* answer: a resource budget tripped
    mid-search and the plan is valid (it satisfies ``required``) but not
    proven optimal; ``budget_report`` then records which limit fired and
    how far the search had progressed.

    ``certificate`` (populated when :attr:`SearchOptions.certificates`
    is on) is the plan's provenance record, independently checkable via
    :func:`repro.verify.verify_plan`.
    """

    plan: PhysicalPlan
    cost: Cost
    required: PhysProps = ANY_PROPS
    stats: Optional[SearchStats] = None
    memo: Optional[Memo] = None
    trace: Optional[str] = None
    root_group: Optional[int] = None
    degraded: bool = False
    budget_report: Optional[BudgetReport] = None
    certificate: Optional["PlanCertificate"] = None

    def __str__(self) -> str:
        status = " (DEGRADED)" if self.degraded else ""
        return f"plan cost {self.cost}{status}\n{self.plan.pretty()}"


class _AlgorithmMove:
    """One costed candidate source: an implementation rule binding.

    ``algorithm`` is the rule's :class:`~repro.model.spec.AlgorithmDef`,
    resolved once when the move is built.  ``applicability`` memoizes
    ``(algorithm, node, alternatives, local cost)`` per required
    property vector: move objects live in the
    per-run moves cache and are revisited once per property goal on
    their group, and the model calls are pure within a run.  Keying the
    cache on the move object itself (instead of a run-global dict keyed
    by the full move identity) makes the hit path one small-dict probe.
    """

    __slots__ = ("rule", "algorithm", "args", "input_groups", "applicability", "node")

    def __init__(
        self,
        rule: ImplementationRule,
        algorithm: AlgorithmDef,
        args: Tuple,
        input_groups: Tuple[int, ...],
    ):
        self.rule = rule
        self.algorithm = algorithm
        self.args = args
        self.input_groups = input_groups
        self.applicability: Dict = {}
        # The AlgorithmNode is required-independent; built lazily once
        # per move (see _move_applicability) instead of once per goal.
        self.node: Optional[AlgorithmNode] = None


class _SearchRun:
    """All per-run state of one ``optimize()`` call.

    Created at the entry point (:meth:`VolcanoOptimizer._new_run`) and
    threaded through every search method, so engine instances hold no
    mutable per-query state: two threads (or a re-entrant caller) can
    optimize through one engine concurrently, each run carrying its own
    memo, stats, tracer, and budget meter.  The context and stats are
    the memo's own.
    """

    __slots__ = (
        "options",
        "memo",
        "context",
        "stats",
        "tracer",
        "meter",
        "metered",
        "claims",
        "kernel",
    )

    def __init__(self, options: SearchOptions, memo: Memo, kernel):
        self.options = options
        self.memo = memo
        self.context = memo.context
        self.stats = memo.stats
        self.tracer = Tracer(enabled=options.trace)
        self.meter = BudgetMeter(options.budget)
        # Budget accounting is skipped entirely on unbudgeted runs: the
        # meter's counters are only ever read in trip reports, so with
        # no (or an unbounded) budget the checks are pure overhead.
        self.metered = self.meter.armed
        # The specialized search kernel (None = interpreted paths).
        self.kernel = kernel
        # Provenance claims for certificate construction: id(plan node)
        # → (plan, ClaimRecord).  Keeping the plan in the value pins its
        # id, so reused ids always carry a fresh, overwritten record.
        self.claims: Optional[Dict[int, Tuple[PhysicalPlan, ClaimRecord]]] = (
            {} if options.certificates else None
        )

    def trace(self, kind: str, detail: str, depth: int) -> None:
        if self.tracer.enabled:
            self.tracer.emit(kind, detail, depth)


def _dispatch_pairs(rules):
    """Rules keyed by top operator, each with an empty matcher slot."""
    table: Dict[str, List] = {}
    for rule in rules:
        table.setdefault(rule.top_operator, []).append((rule, None))
    return {operator: tuple(pairs) for operator, pairs in table.items()}


class VolcanoOptimizer:
    """A generated optimizer: model-specific tables + the shared engine.

    Instances are produced by :func:`repro.generator.generate_optimizer`
    (or constructed directly); one instance can optimize many queries,
    sequentially or concurrently.  Per the paper, the memo of partial
    results "is reinitialized for each query being optimized".
    """

    def __init__(
        self,
        spec: ModelSpecification,
        catalog: Catalog,
        options: Optional[SearchOptions] = None,
        estimator: Optional[SelectivityEstimator] = None,
    ):
        spec.validate()
        self.spec = spec
        self.catalog = catalog
        self.options = options or SearchOptions()
        self.estimator = estimator
        # Compiled dispatch tables (the generator's "very fast pattern
        # matching"): rules indexed by their pattern's top operator.
        # Entries are (rule, matcher) pairs so a specialized kernel can
        # slot its generated matchers in without a second code path;
        # matcher None means "interpret the pattern".
        self._transformations: Dict[
            str, Tuple[Tuple[TransformationRule, None], ...]
        ] = _dispatch_pairs(spec.transformations)
        self._implementations: Dict[
            str, Tuple[Tuple[ImplementationRule, None], ...]
        ] = _dispatch_pairs(spec.implementations)
        # Post-optimize hooks: callables invoked with each
        # OptimizationResult while its memo is still live.  This is the
        # attachment point for runtime invariant checkers such as
        # :class:`repro.lint.MemoAuditor`.
        self.post_optimize_hooks: List[Callable[["OptimizationResult"], None]] = []

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def optimize(
        self,
        query: LogicalExpression,
        props: Optional[PhysProps] = None,
        *,
        limit: Cost = INFINITE_COST,
        options: Optional[SearchOptions] = None,
    ) -> OptimizationResult:
        """Find the cheapest plan for ``query`` delivering ``props``.

        This is the unified :class:`~repro.search.Optimizer` entry
        point: ``props`` is the goal's physical property vector
        (defaulting to the model's "any" vector) and ``options``
        overrides this instance's :class:`SearchOptions` for this call
        only.

        ``limit`` is the user-supplied cost limit of Figure 2 — "typically
        infinity for a user query, but the user interface may permit users
        to set their own limits to 'catch' unreasonable queries".

        One query is a batch of one: the same solve loop as
        :meth:`optimize_batch` over a memo "reinitialized for each query
        being optimized", except that a budget trip degrades to an
        anytime answer instead of raising.

        Raises :class:`OptimizationFailedError` when no plan satisfying
        the goal exists within the limit, and
        :class:`~repro.errors.BudgetExceededError` when a resource
        budget tripped *and* not even a degraded plan could be built.
        """
        return self._solve([query], props, limit, options, degrade=True)[0]

    def optimize_batch(
        self,
        queries: Sequence[LogicalExpression],
        props: Optional[PhysProps] = None,
        *,
        limit: Cost = INFINITE_COST,
        options: Optional[SearchOptions] = None,
    ) -> List[OptimizationResult]:
        """Optimize a batch of queries against one shared memo.

        The multi-query substrate: every query's expression tree is
        merged into a single AND-OR DAG (hash-consing makes cross-query
        common subexpressions collide structurally), each root is driven
        to its goal in input order, and winners memoized while solving
        one query are reused verbatim by the next — so a subplan shared
        by several queries is optimized once and is the *same*
        :class:`~repro.algebra.plans.PhysicalPlan` object in every
        result, which is what :func:`repro.search.sharing.plan_sharing`
        keys on.

        Each root is explored and solved incrementally before the next
        root is inserted, so every query sees exactly the closure a
        single-query optimization would have seen plus already-settled
        knowledge — plans are byte-identical to per-query runs, and
        :meth:`optimize` is this loop over a batch of one.  All
        results share one :class:`SearchStats`, one memo, and one
        :class:`~repro.options.BudgetMeter`: the budget governs the
        whole batch, and a trip raises
        :class:`~repro.errors.BudgetExceededError` (callers degrade by
        falling back to per-query optimization, where the anytime
        machinery applies).
        """
        return self._solve(queries, props, limit, options, degrade=False)

    def _solve(
        self,
        queries: Sequence[LogicalExpression],
        props: Optional[PhysProps],
        limit: Cost,
        options: Optional[SearchOptions],
        *,
        degrade: bool,
    ) -> List[OptimizationResult]:
        """The one solve loop: insert, explore to closure, FindBestPlan.

        Roots are solved in input order over one run.  A budget trip
        degrades the query when ``degrade`` (a single query) and raises
        :class:`~repro.errors.BudgetExceededError` for the run otherwise.
        Aborted runs carry their partial stats on the raised error.
        """
        options = options if options is not None else self.options
        required = props if props is not None else self.spec.any_props
        started = time.perf_counter()
        run = self._new_run(options)
        memo, stats, tracer = run.memo, run.stats, run.tracer
        try:
            solved: List[Tuple[int, Winner, Optional[BudgetReport]]] = []
            for query in queries:
                root = memo.insert_expression(query)
                report: Optional[BudgetReport] = None
                try:
                    self._explore_closure(run, root)
                    winner = self._find_best_plan(
                        run, root, required, limit, excluded=None, depth=0
                    )
                except BudgetTripped as trip:
                    if not degrade:
                        stats.budget_trips += 1
                        report = run.meter.report(trip.phase, best_cost=None)
                        raise BudgetExceededError(
                            f"batch optimization budget exhausted "
                            f"({report.tripped} during {report.phase}) after "
                            f"{len(solved)} of {len(queries)} queries",
                            report=report,
                            stats=stats,
                        )
                    winner, report = self._degrade(run, root, required, limit, trip)
                self._check_winner(run, winner, required, limit)
                # Extract immediately: a later root's closure may merge
                # groups and clear memoized winners, but the Winner
                # object (and its plan) stays valid.
                solved.append((root, winner, report))
            rendered = tracer.render() if tracer.enabled else None
            # One builder per run: winners shared across results get
            # identical frontier subexpressions in every certificate,
            # which the sharing pass's certifier relies on.
            builder = (
                CertificateBuilder(self.spec, memo, run.claims)
                if options.certificates
                else None
            )
            results: List[OptimizationResult] = []
            for query, (root, winner, report) in zip(queries, solved):
                certificate = (
                    builder.certify(
                        query,
                        winner.plan,
                        required,
                        degraded=report is not None,
                        engine=type(self).__name__,
                    )
                    if builder is not None
                    else None
                )
                result = OptimizationResult(
                    plan=winner.plan,
                    cost=winner.cost,
                    required=required,
                    stats=stats,
                    memo=memo,
                    trace=rendered,
                    root_group=memo.canonical(root),
                    degraded=report is not None,
                    budget_report=report,
                    certificate=certificate,
                )
                for hook in self.post_optimize_hooks:
                    hook(result)
                results.append(result)
            return results
        except ReproError as error:
            if getattr(error, "stats", None) is None:
                error.stats = stats
            raise
        finally:
            # Success, degradation, and abort all account elapsed time
            # (the stats object is shared with the results).
            stats.elapsed_seconds = time.perf_counter() - started

    def _new_run(
        self, options: SearchOptions, memo: Optional[Memo] = None
    ) -> _SearchRun:
        """Per-run state for one search under ``options``.

        A fresh memo (with its own context and stats) unless ``memo``
        continues one a previous run built.
        """
        if memo is None:
            memo = Memo(
                OptimizerContext(self.spec, self.catalog, self.estimator),
                check_consistency=options.check_consistency,
                max_groups=options.max_groups,
            )
        return _SearchRun(options, memo, self._resolve_kernel(options))

    def _check_winner(
        self,
        run: _SearchRun,
        winner: Optional[Winner],
        required: PhysProps,
        limit: Cost,
    ) -> None:
        """Raise unless ``winner`` is a plan delivering ``required``."""
        if winner is None:
            raise OptimizationFailedError(
                f"no plan for goal [{required}] within limit {limit}"
            )
        if run.options.check_consistency and not self.spec.props_cover(
            winner.plan.properties, required
        ):
            raise PlanValidationError(
                f"chosen plan delivers [{winner.plan.properties}] which does "
                f"not satisfy the goal [{required}]"
            )

    def _resolve_kernel(self, options: SearchOptions):
        """Resolve ``options.kernel`` to a bound SearchKernel (or None).

        Imported lazily: the default (interpreted) path never touches
        the generator package, and the generator package imports this
        module.
        """
        if options.kernel is None:
            return None
        from repro.generator.kernel import resolve_kernel

        return resolve_kernel(self.spec, options.kernel)

    # ------------------------------------------------------------------
    # Anytime degradation (resource governance)
    # ------------------------------------------------------------------

    def _degrade(
        self,
        run: _SearchRun,
        root: int,
        required: PhysProps,
        limit: Cost,
        trip: BudgetTripped,
    ) -> Tuple[Winner, BudgetReport]:
        """Best-effort completion after a budget trip.

        In order of preference: the root goal's memoized winner (the
        trip happened after it was solved), else a deterministic greedy
        implementation pass over whatever the search explored
        (:func:`repro.search.extract.greedy_plan`).  Nothing found is
        the only case that escalates to
        :class:`~repro.errors.BudgetExceededError` — and nothing is
        memoized on this path, so a degraded dead end is never confused
        with a proven optimization failure.
        """
        from repro.search.extract import greedy_plan

        run.stats.budget_trips += 1
        memo = run.memo
        gid = memo.canonical(root)
        winner = memo.group(gid).winners.get((required, None))
        if winner is not None and not winner.cost <= limit:
            winner = None
        if winner is None:
            plan = greedy_plan(memo, run.context, gid, required, claims=run.claims)
            if plan is not None and plan.cost <= limit:
                run.stats.greedy_plans += 1
                winner = Winner(plan, plan.cost)
        report = run.meter.report(
            trip.phase, best_cost=winner.cost if winner is not None else None
        )
        run.trace("budget", str(report), 0)
        if winner is None:
            raise BudgetExceededError(
                f"optimization budget exhausted ({report.tripped} during "
                f"{report.phase}) and no valid plan exists for goal "
                f"[{required}] within limit {limit}",
                report=report,
                stats=run.stats,
            )
        return winner, report

    # ------------------------------------------------------------------
    # Logical exploration (transformation moves)
    # ------------------------------------------------------------------

    def _explore_closure(self, run: _SearchRun, root: int) -> None:
        """Apply transformation rules to fixpoint over the reachable memo.

        One demand-ordered descent from the root closes every class the
        first time it is visited; the sweeps after it confirm that, and
        are where a rule set that discovers an equality late (a merge
        reopens the classes it touched) reaches its fixpoint.
        """
        memo, stats = run.memo, run.stats
        stats.exploration_passes += 1
        changed = self._explore_group(run, root)
        while changed:
            changed = False
            stats.exploration_passes += 1
            for gid in memo.reachable(root):
                changed |= self._explore_group(run, gid)

    def _explore_group(self, run: _SearchRun, gid: int) -> bool:
        """Explore a group unless it is explored or on the exploration stack.

        A group met while ``exploring`` is skipped: its own loop re-reads
        its expression list and picks up whatever is appended meanwhile.
        True when the memo changed.
        """
        group = run.memo.group(gid)
        if group.explored or group.exploring:
            return False
        group.exploring = True
        try:
            return self._explore_expressions(run, group.id)
        finally:
            # Also when a budget trip propagates through; ``gid`` resolves
            # to the surviving group if a merge replaced this one.
            run.memo.group(gid).exploring = False

    def _explore_expressions(self, run: _SearchRun, gid: int) -> bool:
        """Rule application over a group's expressions, inputs first.

        Each expression's input groups are explored before its rules are
        matched, and every group a rewrite creates is explored before
        the next binding fires — so a rule that reaches into a group
        sees it complete, and re-deriving an existing expression is a
        hash-table hit rather than a second class to merge later.
        """
        memo, stats, context = run.memo, run.stats, run.context
        options, meter = run.options, run.meter
        expressions_of = memo.expressions_of
        changed = False
        index = 0
        # Kernelized runs dispatch through the kernel's (rule, matcher)
        # tables — same rule objects in the same order, with a generated
        # matcher alongside; everything below is tier-independent.
        transformations = (
            run.kernel.transformation_dispatch
            if run.kernel is not None
            else self._transformations
        )
        # The expression list can grow (and the group object change via a
        # merge) while we iterate, so re-fetch by canonical id each step.
        while index < len(memo.group(gid).expressions):
            gid = memo.canonical(gid)
            group = memo.group(gid)
            mexpr = group.expressions[index]
            index += 1
            for input_gid in mexpr.input_groups:
                if self._explore_group(run, input_gid):
                    changed = True
                    group = memo.group(gid)
            for rule, matcher in transformations.get(mexpr.operator, ()):
                if run.metered:
                    meter.check("exploration")
                if (
                    options.min_promise is not None
                    and rule.promise < options.min_promise
                ):
                    stats.moves_pruned += 1
                    continue
                condition = rule.condition
                bindings = (
                    matcher(mexpr.args, mexpr.input_groups, expressions_of)
                    if matcher is not None
                    else match_memo(
                        rule.pattern,
                        mexpr.operator,
                        mexpr.args,
                        mexpr.input_groups,
                        expressions_of,
                    )
                )
                for binding in bindings:
                    # Bindings are built in pattern-traversal order, so
                    # equal bindings always itemize identically — the
                    # tuple is as injective as a frozenset and cheaper.
                    # One probe: a fingerprint already applied leaves the
                    # set's size unchanged.
                    applied = group.applied
                    seen = len(applied)
                    applied.add((rule.name, mexpr, tuple(binding.items())))
                    if len(applied) == seen:
                        continue
                    stats.rule_bindings_tried += 1
                    if condition is not None and not condition(binding, context):
                        continue
                    results = rule.rewrite(binding, context)
                    if results is None:
                        continue
                    if isinstance(results, LogicalExpression):
                        results = [results]
                    for new_expression in results:
                        stats.rules_fired += 1
                        if run.metered:
                            meter.charge_rule_firing()
                        added, created = memo.add_rewrite(
                            new_expression, gid, (mexpr, rule, binding)
                        )
                        changed |= added
                        for new_gid in created:
                            self._explore_group(run, new_gid)
                        gid = memo.canonical(gid)
                        group = memo.group(gid)
        memo.group(gid).explored = True
        return changed

    # ------------------------------------------------------------------
    # FindBestPlan (Figure 2)
    # ------------------------------------------------------------------

    def _find_best_plan(
        self,
        run: _SearchRun,
        gid: int,
        required: PhysProps,
        limit: Cost,
        excluded: Optional[PhysProps],
        depth: int,
    ) -> Optional[Winner]:
        memo, stats = run.memo, run.stats
        group = memo.group(gid)
        gid = group.id
        key: GoalKey = memo.goal_key(required, excluded)
        stats.find_best_plan_calls += 1
        if run.metered:
            run.meter.check("costing")
        if run.tracer.enabled:  # skip f-string rendering on the hot path
            run.trace("goal", f"g{gid} [{required}] limit={limit}", depth)

        # "if the pair LogExpr and PhysProp is in the look-up table" —
        # entries are limit-free: a winner is the goal's optimum, a
        # failure means no plan exists, and ``limit`` only accepts or
        # rejects the answer.
        winner = group.winners.get(key)
        if winner is not None:
            stats.winner_hits += 1
            if winner.cost <= limit:
                return winner
            return None
        if key in group.failures:
            stats.failure_hits += 1
            return None
        if group.is_in_progress(key):
            # A cycle through equivalent goals (e.g. mutually inverse
            # rules): the outer invocation will produce the plan.
            return None

        best: Optional[Winner] = None
        if excluded is not None:
            # An excluded goal costs a subset of its plain goal's
            # candidates in the same order, so a plain winner outside
            # the excluded region is its first strict minimum too.
            plain = self._find_best_plan(
                run, gid, required, INFINITE_COST, None, depth
            )
            if plain is not None and not self.spec.props_cover(
                plain.plan.properties, excluded
            ):
                best = plain
        if best is None:
            group.mark_in_progress(key)
            try:
                best = self._optimize_goal(run, gid, required, excluded, depth)
            finally:
                # Unwinds on success AND on a budget trip propagating
                # through, so aborted searches leave no stale marks.
                memo.group(gid).unmark_in_progress(key)

        group = memo.group(gid)
        if best is not None:
            group.winners[key] = best
            if run.tracer.enabled:
                run.trace("winner", f"g{gid} [{required}] cost={best.cost}", depth)
            return best if best.cost <= limit else None
        if run.options.cache_failures:
            group.failures.add(key)
        if run.tracer.enabled:
            run.trace("failure", f"g{gid} [{required}] limit={limit}", depth)
        return None

    def _optimize_goal(
        self,
        run: _SearchRun,
        gid: int,
        required: PhysProps,
        excluded: Optional[PhysProps],
        depth: int,
    ) -> Optional[Winner]:
        """Generate, order, and pursue moves for one goal, to its optimum.

        The goal is searched under its *own* tightening bound — none
        until a candidate completes, then the best cost so far — never
        under the caller's limit, so the result is the goal's optimum
        (or ``None``: no plan exists) whoever asked first.  The bound
        still abandons a candidate's remaining inputs and cuts moves on
        their local cost; pruning is strict, so it never hides a plan
        that ties the best.

        The first strictly cheaper candidate wins: algorithm moves in
        pursuit order (see :meth:`_algorithm_moves`), then enforcer
        moves in specification order, so at equal cost the earlier move
        keeps the goal.

        The move loop is the engine's hottest code: the algorithm-move
        pursuit (Figure 2's "TotalCost := cost of the algorithm; for
        each input while TotalCost < Limit") is written inline rather
        than as a helper, input sub-goals take a memoized-winner fast
        path that bypasses the :meth:`_find_best_plan` call, and cost
        bounds compare by their precomputed float totals.  Every
        counter, meter charge, claim, and selection rule is unchanged —
        tracing runs route through the full ``_find_best_plan`` so goal
        lines are still emitted.
        """
        memo, stats, context = run.memo, run.stats, run.context
        group = memo.group(gid)
        moves = self._algorithm_moves(run, group)

        spec = self.spec
        metered, tracing = run.metered, run.tracer.enabled
        b_and_b = run.options.branch_and_bound
        claims = run.claims
        best: Optional[Winner] = None
        bound = INFINITE_COST
        for move in moves:
            if metered:
                run.meter.check("costing")
            entry = move.applicability.get(required)
            if entry is None:
                entry = self._move_applicability(run, group, move, required)
            algorithm, node, alternatives, local = entry
            if not alternatives:
                continue
            bound_total = bound._total
            candidate: Optional[Winner] = None
            for input_requirements in alternatives:
                if len(input_requirements) != len(move.input_groups):
                    raise SearchError(
                        f"algorithm {algorithm.name!r} returned "
                        f"{len(input_requirements)} input requirements for "
                        f"{len(move.input_groups)} inputs"
                    )
                stats.algorithm_costings += 1
                if metered:
                    run.meter.charge_costing()
                # "TotalCost := cost of the algorithm"
                total = local
                if b_and_b and bound_total < total._total:
                    stats.moves_pruned += 1
                    continue
                # "for each input I while TotalCost < Limit …"
                input_winners: List[Winner] = []
                abandoned = False
                for input_gid, input_required in zip(
                    move.input_groups, input_requirements
                ):
                    # Memoized-winner fast path of _find_best_plan: the
                    # overwhelmingly common case once the memo warms up.
                    # Counter/meter order matches the full function.
                    sub_group = memo.group(input_gid)
                    winner = (
                        sub_group.winners.get((input_required, None))
                        if not tracing
                        else None
                    )
                    if winner is not None:
                        stats.find_best_plan_calls += 1
                        if metered:
                            run.meter.check("costing")
                        stats.winner_hits += 1
                        sub = (
                            winner
                            if winner.cost._total <= bound_total - total._total
                            else None
                        )
                    else:
                        sub = self._find_best_plan(
                            run, input_gid, input_required, bound - total,
                            None, depth + 1,
                        )
                    if sub is None:
                        stats.inputs_abandoned += 1
                        abandoned = True
                        break
                    total = total + sub.cost
                    input_winners.append(sub)
                    if b_and_b and bound_total < total._total:
                        stats.inputs_abandoned += 1
                        abandoned = True
                        break
                if abandoned:
                    continue
                delivered = algorithm.derive_props(
                    context,
                    node,
                    tuple([winner.plan.properties for winner in input_winners]),
                )
                if not spec.props_cover(delivered, required):
                    # The applicability function over-promised; skip (a
                    # stricter model could raise here).
                    continue
                if excluded is not None and spec.props_cover(delivered, excluded):
                    # "since merge-join is able to satisfy the excluding
                    # properties, it would not be considered a suitable
                    # algorithm for the sort input."
                    stats.moves_pruned += 1
                    continue
                plan = PhysicalPlan(
                    algorithm.name,
                    move.args,
                    tuple(winner.plan for winner in input_winners),
                    properties=delivered,
                    cost=total,
                )
                if claims is not None:
                    claims[id(plan)] = (
                        plan,
                        ClaimRecord(
                            rule=move.rule.name,
                            gid=group.id,
                            input_groups=move.input_groups,
                            local=local,
                            output=node.output,
                            inputs=node.inputs,
                        ),
                    )
                if candidate is None or total._total < candidate.cost._total:
                    candidate = Winner(plan, total)
            if candidate is None:
                continue
            if best is None or candidate.cost < best.cost:
                best = candidate
                if b_and_b and candidate.cost < bound:
                    bound = candidate.cost
        # Enforcer moves: "enforcers for required PhysProp".
        if not required.is_any:
            for enforcer_name in self.spec.enforcers:
                for application in self.spec.enforcer_applications(
                    enforcer_name, run.context, required, group.logical_props
                ):
                    if run.metered:
                        run.meter.check("costing")
                    candidate = self._pursue_enforcer(
                        run, gid, enforcer_name, application, required, bound,
                        excluded, depth,
                    )
                    if candidate is None:
                        continue
                    if best is None or candidate.cost < best.cost:
                        best = candidate
                        if run.options.branch_and_bound and candidate.cost < bound:
                            bound = candidate.cost
        return best

    def _algorithm_moves(self, run: _SearchRun, group: Group) -> List[_AlgorithmMove]:
        """Implementation-rule bindings over every expression of a group.

        Memoized per group: the same group is typically optimized for
        several property goals, and the binding enumeration is identical
        for each (promises are goal-independent).  The cache records
        which groups the pattern matcher read and is dropped exactly
        when any of them changes — see
        :meth:`repro.search.memo.Memo.cached_moves`.  The returned list
        is already in pursuit order; a fresh list is returned on every
        call so the caller may consume it freely.

        Pursuit order (``docs/search-internals.md``, "Promise and move
        ordering") is a stable sort on descending ``rule.promise``:
        equal-promise moves keep discovery order.  The sort is paid once
        per group, not once per goal.
        """
        memo, context = run.memo, run.context
        cached = memo.cached_moves(group.id)
        if cached is not None:
            return list(cached)
        probes = {group.id: group.version}
        expressions_of = memo.probing_expressions_of(probes)
        implementations = (
            run.kernel.implementation_dispatch
            if run.kernel is not None
            else self._implementations
        )
        moves: List[_AlgorithmMove] = []
        seen = set()
        canonical = memo.canonical
        # Rules name algorithms the specification declares (validated).
        algorithms = self.spec.algorithms
        for mexpr in group.expressions:
            for rule, matcher in implementations.get(mexpr.operator, ()):
                condition, input_names = rule.condition, rule.input_names
                bindings = (
                    matcher(mexpr.args, mexpr.input_groups, expressions_of)
                    if matcher is not None
                    else match_memo(
                        rule.pattern,
                        mexpr.operator,
                        mexpr.args,
                        mexpr.input_groups,
                        expressions_of,
                    )
                )
                for binding in bindings:
                    run.stats.rule_bindings_tried += 1
                    if condition is not None and not condition(binding, context):
                        continue
                    if rule.build_args is not None:
                        args = tuple(rule.build_args(binding, context))
                    else:
                        args = mexpr.args
                    input_groups = tuple(
                        [canonical(binding[name].args[0]) for name in input_names]
                    )
                    fingerprint = (rule.algorithm, args, input_groups)
                    if fingerprint in seen:
                        continue
                    seen.add(fingerprint)
                    moves.append(
                        _AlgorithmMove(
                            rule, algorithms[rule.algorithm], args, input_groups
                        )
                    )
        moves.sort(key=lambda move: -move.rule.promise)
        memo.store_moves(group.id, probes, tuple(moves))
        return moves

    def _move_applicability(
        self,
        run: _SearchRun,
        group: Group,
        move: _AlgorithmMove,
        required: PhysProps,
    ):
        """Cached ``(algorithm, node, alternatives, local_cost)`` for a move.

        ``applicability`` and ``cost`` are pure functions of the
        algorithm node and the required properties, and the same move is
        re-evaluated once per property goal on its group — memoizing
        them per run removes the bulk of repeated model-code work.  The
        cache rides on the move object itself (one entry per required
        vector), which is sound because move objects live exactly as
        long as their group's moves-cache entry: any change to a matched
        group drops the moves and their caches together.  Budget accounting is
        untouched: callers still charge one costing per alternative
        pursued, so degraded/anytime semantics are byte-compatible.
        The caller has already missed ``move.applicability``.
        """
        memo = run.memo
        algorithm = move.algorithm
        node = move.node
        if node is None:
            node = AlgorithmNode(
                move.args,
                group.logical_props,
                tuple([memo.logical_props(gid) for gid in move.input_groups]),
            )
            move.node = node
        alternatives = algorithm.applicability(run.context, node, required)
        local = algorithm.cost(run.context, node) if alternatives else None
        entry = (algorithm, node, alternatives, local)
        move.applicability[required] = entry
        return entry

    def _pursue_enforcer(
        self,
        run: _SearchRun,
        gid: int,
        enforcer_name: str,
        application: EnforcerApplication,
        required: PhysProps,
        bound: Cost,
        excluded: Optional[PhysProps],
        depth: int,
    ) -> Optional[Winner]:
        memo, context, stats = run.memo, run.context, run.stats
        enforcer = self.spec.enforcer(enforcer_name)
        if application.relaxed == required:
            raise SearchError(
                f"enforcer {enforcer_name!r} did not relax the goal [{required}]"
            )
        if excluded is not None and self.spec.props_cover(
            application.delivered, excluded
        ):
            stats.moves_pruned += 1
            return None
        group = memo.group(gid)
        node = AlgorithmNode(
            application.args, group.logical_props, (group.logical_props,)
        )
        stats.enforcer_costings += 1
        if run.metered:
            run.meter.charge_costing()
        # "TotalCost := cost of the enforcer" …
        local = enforcer.cost(context, node)
        total = local
        if run.options.branch_and_bound and bound < total:
            stats.moves_pruned += 1
            return None
        # … "call FindBestPlan for LogExpr with new [relaxed] PhysProp",
        # excluding algorithms that could satisfy the enforced property.
        sub = self._find_best_plan(
            run, gid, application.relaxed, bound - total, application.excluded,
            depth + 1,
        )
        if sub is None:
            return None
        total = total + sub.cost
        if run.options.branch_and_bound and bound < total:
            return None
        if not self.spec.props_cover(application.delivered, required):
            return None
        plan = PhysicalPlan(
            enforcer_name,
            application.args,
            (sub.plan,),
            properties=application.delivered,
            cost=total,
            is_enforcer=True,
        )
        if run.claims is not None:
            run.claims[id(plan)] = (
                plan,
                ClaimRecord(
                    rule=None,
                    gid=gid,
                    input_groups=(gid,),
                    local=local,
                    output=group.logical_props,
                    inputs=(group.logical_props,),
                    enforcer=True,
                    required=required,
                ),
            )
        return Winner(plan, total)
