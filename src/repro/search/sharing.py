"""Multi-query sharing over a batch-scoped memo (Volcano-SH/RU style).

After :meth:`VolcanoOptimizer.optimize_batch` has optimized every query
of a batch against one shared memo, hash-consing has already made the
cross-query common subexpressions collide structurally — and because
``FindBestPlan`` memoizes :class:`~repro.search.memo.Winner` objects per
(group, goal), a subplan shared by several winning plans is literally
the *same* :class:`~repro.algebra.plans.PhysicalPlan` object in all of
them.  :func:`plan_sharing` exploits that: it detects subplans that
occur at least twice across the batch (by object identity), costs
materializing each candidate once against re-deriving it at every
occurrence, and greedily rewrites the winners to read the materialized
intermediate — the monotone greedy heuristic of Roy et al., *Efficient
and Extensible Algorithms for Multi Query Optimization* (Volcano-SH /
Volcano-RU).

The benefit of materializing a candidate ``S`` with ``N`` occurrences::

    benefit(S) = N * cost(S) - (cost(S) + mat(S) + N * scan(S))

i.e. what the batch pays today minus computing ``S`` once, writing it
out, and reading it back ``N`` times.  ``mat`` and ``scan`` come from
the model's own ``materialize`` / ``scan_intermediate`` algorithm
definitions, so the trade-off is priced in the same currency as every
other plan.  The greedy loop only ever accepts candidates with benefit
strictly above ``min_benefit``, so the shared plan set is provably never
more expensive than the independent plans it replaces.

The pass also certifies its own rewrites.  When every input result
carries a certificate, each node's :class:`~repro.verify.certificate.NodeClaim`
and frontier are indexed once at entry, and every node the pass makes
records its claim as it is made: a rebuilt node keeps its original's, a
``scan_intermediate`` and a ``materialize`` node get claims priced with
the very cost objects the pass summed.  The report then carries a
consumer certificate per rewritten plan (scans bound to its
``intermediates``) and a ``producer``-kind certificate per materialized
intermediate, for the independent checker to re-verify.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import LogicalProperties
from repro.catalog.catalog import Catalog
from repro.catalog.selectivity import SelectivityEstimator
from repro.errors import OptionsError, ReproError
from repro.model.context import OptimizerContext
from repro.model.patterns import match_tree
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.options import OptionsBase, check_positive
from repro.verify.certificate import KIND_PRODUCER, NodeClaim, PlanCertificate

__all__ = [
    "SharingOptions",
    "SharedPlan",
    "SharingReport",
    "plan_sharing",
]

MATERIALIZE = "materialize"
SCAN_INTERMEDIATE = "scan_intermediate"


@dataclass(frozen=True, kw_only=True)
class SharingOptions(OptionsBase):
    """Knobs of the multi-query sharing pass.

    ``enabled``
        Master switch: when off, ``optimize_many`` optimizes every cache
        miss in its own per-query memo exactly as before.
    ``min_benefit``
        A candidate is materialized only when its estimated benefit is
        *strictly* greater than this (in cost-model units).  Zero — the
        default — already guarantees the shared plan set is never more
        expensive than the independent plans.
    ``max_materializations``
        Upper bound on materialized intermediates per batch; the greedy
        loop stops early when no candidate clears ``min_benefit``.
    """

    enabled: bool = True
    min_benefit: float = 0.0
    max_materializations: int = 4

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("max_materializations", self.max_materializations)
        if self.min_benefit < 0:
            raise OptionsError(
                f"min_benefit must be non-negative, got {self.min_benefit!r}"
            )


@dataclass(frozen=True)
class SharedPlan:
    """One materialized intermediate: produce once, scan ``consumers`` times.

    ``plan`` is the producer — a ``materialize`` node over the shared
    subplan — executable by :func:`repro.executor.execute_plan` with a
    shared ``intermediates`` store.  ``cost`` is its cumulative cost
    (compute the subplan + write it out); ``rows`` the estimated
    cardinality of the intermediate.
    """

    name: str
    plan: PhysicalPlan
    cost: object
    rows: float
    consumers: int


@dataclass(frozen=True)
class SharingReport:
    """What the sharing pass did to one batch.

    ``plans`` are the rewritten per-query plans in input order (equal to
    the independent plans when nothing was shared); ``shared_plans`` the
    producers in dependency order — executing them front to back always
    materializes an intermediate before anything scans it.
    ``independent_total`` and ``shared_total`` are the summed estimated
    costs before and after sharing; the greedy loop guarantees
    ``shared_total <= independent_total``.

    ``consumer_certificates`` (one per plan, input order) and
    ``producer_certificates`` (one per shared plan, same order) are the
    pass's own certificates for its rewrites; both are empty when the
    pass did not run or any input lacks an indexable certificate.
    """

    plans: Tuple[PhysicalPlan, ...]
    shared_plans: Tuple[SharedPlan, ...] = ()
    candidates_considered: int = 0
    independent_total: float = 0.0
    shared_total: float = 0.0
    consumer_certificates: Tuple[PlanCertificate, ...] = ()
    producer_certificates: Tuple[PlanCertificate, ...] = ()

    @property
    def materialized(self) -> int:
        return len(self.shared_plans)

    @property
    def savings(self) -> float:
        return self.independent_total - self.shared_total

    def __str__(self) -> str:
        return (
            f"{self.materialized} shared of {self.candidates_considered} "
            f"candidates, total {self.independent_total:.1f} -> "
            f"{self.shared_total:.1f}"
        )


class _Unindexable(Exception):
    """Internal: an input certificate's claims do not align with its plan."""


class _SharingState:
    """Bookkeeping of one :func:`plan_sharing` run.

    Everything is keyed by ``id(node)`` — object identity is what the
    memo's winner sharing gives us — so the state pins every node it has
    seen in ``keepalive`` to keep ids stable for the run's lifetime.

    ``claims`` and ``frontiers`` hold every node's certificate claim and
    logical frontier; ``claims`` is None when some input result carries
    no indexable certificate (the pass then runs uncertified).
    ``local_costs`` holds the exact local cost of every node whose cost
    is known without subtraction: the claimed ones, and every node the
    pass makes.
    """

    def __init__(self, context: OptimizerContext, results: Sequence):
        self.context = context
        self.keepalive: List[PhysicalPlan] = []
        self._mirrors: Dict[int, Optional[LogicalExpression]] = {}
        self._props: Dict[int, Optional[LogicalProperties]] = {}
        self.claims: Optional[Dict[int, NodeClaim]] = {}
        self.frontiers: Dict[int, LogicalExpression] = {}
        impls = {rule.name: rule for rule in context.spec.implementations}
        try:
            for result in results:
                certificate = getattr(result, "certificate", None)
                if certificate is None:
                    raise _Unindexable("no certificate")
                if len(certificate.claims) != sum(1 for _ in result.plan.walk()):
                    raise _Unindexable("claim count")
                self._index(
                    result.plan, certificate.frontier, certificate.claims, [0], impls
                )
        except (_Unindexable, KeyError):
            self.claims, self.frontiers = None, {}
        self.local_costs: Dict[int, object] = (
            {key: claim.local for key, claim in self.claims.items()}
            if self.claims is not None
            else {}
        )

    def _index(self, node, frontier, claims, counter, impls) -> None:
        """Index one plan's pre-order claims, deriving child frontiers
        from each node's implementation-rule match on its frontier."""
        claim = claims[counter[0]]
        counter[0] += 1
        if claim.algorithm != node.algorithm:
            raise _Unindexable("claims misaligned")
        self.claims[id(node)] = claim
        if frontier is not None:
            self.frontiers.setdefault(id(node), frontier)
        if node.is_enforcer or claim.enforcer:
            subs = [frontier] * len(node.inputs)
        elif claim.rule is None:
            raise _Unindexable("algorithm node without a rule claim")
        else:
            rule = impls.get(claim.rule)
            binding = (
                match_tree(rule.pattern, frontier)
                if rule is not None and frontier is not None
                else None
            )
            if binding is not None:
                subs = [binding.get(name) for name in rule.input_names]
            else:
                subs = [None] * len(node.inputs)
            if len(subs) != len(node.inputs):
                raise _Unindexable("rule arity")
        for child, sub in zip(node.inputs, subs):
            self._index(child, sub, claims, counter, impls)

    def _mirror(self, node: PhysicalPlan) -> Optional[LogicalExpression]:
        """The node's logical mirror (identity-memoized)."""
        key = id(node)
        if key in self._mirrors:
            return self._mirrors[key]
        # Imported lazily: repro.feedback pulls in workload helpers that
        # must not load during repro.search package initialization.
        from repro.feedback.estimates import node_mirror

        inputs = tuple(self._mirror(child) for child in node.inputs)
        mirror = node_mirror(node, inputs)
        self._mirrors[key] = mirror
        self.keepalive.append(node)
        return mirror

    def props_of(self, node: PhysicalPlan) -> Optional[LogicalProperties]:
        """Logical properties of a plan node, via its logical mirror.

        Derivation goes through the model's own property functions —
        the same numbers the cost model consumed during the search.
        """
        key = id(node)
        if key in self._props:
            return self._props[key]
        mirror = self._mirror(node)
        props: Optional[LogicalProperties] = None
        if mirror is not None:
            try:
                props = self.context.logical_props(mirror)
            except (ReproError, KeyError):
                props = None
        self._props[key] = props
        return props

    def inherit(
        self, old: PhysicalPlan, new: PhysicalPlan, claim: Optional[NodeClaim] = None
    ) -> None:
        """A rewritten node computes the same rows as its original.

        It keeps the original's frontier, and its claim unless ``claim``
        (a new node's own) is given.
        """
        self._props[id(new)] = self.props_of(old)
        self.keepalive.append(new)
        if self.claims is not None:
            self.claims[id(new)] = claim if claim is not None else self.claims[id(old)]
            frontier = self.frontiers.get(id(old))
            if frontier is not None:
                self.frontiers[id(new)] = frontier

    def claimed(
        self, plan: PhysicalPlan
    ) -> Tuple[Tuple[NodeClaim, ...], Dict[str, LogicalExpression]]:
        """A plan's pre-order claims and the frontier of each
        intermediate it scans (``KeyError`` when one is unknown)."""
        claims: List[NodeClaim] = []
        intermediates: Dict[str, LogicalExpression] = {}
        for node in plan.walk():
            claims.append(self.claims[id(node)])
            if node.algorithm == SCAN_INTERMEDIATE:
                intermediates[node.args[0]] = self.frontiers[id(node)]
        return tuple(claims), intermediates


def _local_cost(state: _SharingState, node: PhysicalPlan) -> Optional[object]:
    """The node's own cost: claimed or recorded exactly, else by subtraction."""
    recorded = state.local_costs.get(id(node))
    if recorded is not None:
        return recorded
    cost = node.cost
    if cost is None:
        return None
    for child in node.inputs:
        if child.cost is None:
            return None
        cost = cost - child.cost
    return cost


def _rebuild(
    state: _SharingState,
    node: PhysicalPlan,
    new_inputs: Tuple[PhysicalPlan, ...],
) -> PhysicalPlan:
    """Replace a node's inputs, recomputing its cumulative cost."""
    local = _local_cost(state, node)
    cost = local
    if cost is not None:
        for child in new_inputs:
            if child.cost is None:
                cost = None
                break
            cost = cost + child.cost
    rebuilt = dataclasses.replace(node, inputs=new_inputs, cost=cost)
    if local is not None:
        state.local_costs[id(rebuilt)] = local
    state.inherit(node, rebuilt)
    return rebuilt


def _rewrite(
    state: _SharingState,
    node: PhysicalPlan,
    cache: Dict[int, PhysicalPlan],
) -> PhysicalPlan:
    """Apply one round's replacement map, preserving object identity.

    The cache is shared across *all* plans of the round, so a subtree
    shared by several consumers rewrites to one shared object — which
    keeps later rounds able to detect (and materialize) it again.
    """
    hit = cache.get(id(node))
    if hit is not None:
        return hit
    new_inputs = tuple(_rewrite(state, child, cache) for child in node.inputs)
    if all(new is old for new, old in zip(new_inputs, node.inputs)):
        cache[id(node)] = node
        return node
    rebuilt = _rebuild(state, node, new_inputs)
    cache[id(node)] = rebuilt
    return rebuilt


def _count_occurrences(
    working: Sequence[PhysicalPlan],
) -> Tuple[Dict[int, int], Dict[int, PhysicalPlan]]:
    """Occurrences of every interior subplan across the working set.

    Counted by object identity with a plain tree walk, so a subplan the
    memo shared between two queries (or twice within one plan) counts
    once per occurrence.  Leaves are skipped: materializing a base-table
    scan just trades one scan for an equivalent one plus a write.
    """
    counts: Dict[int, int] = {}
    nodes: Dict[int, PhysicalPlan] = {}
    for plan in working:
        stack = [plan]
        while stack:
            node = stack.pop()
            stack.extend(node.inputs)
            if not node.inputs or node.cost is None:
                continue
            key = id(node)
            counts[key] = counts.get(key, 0) + 1
            nodes.setdefault(key, node)
    return counts, nodes


def _dependency_order(shared: Sequence[SharedPlan]) -> Tuple[SharedPlan, ...]:
    """Producers ordered so every scanned intermediate is produced first.

    A later greedy round can materialize a subplan *inside* an earlier
    producer's feed, making the earlier producer depend on the later
    one; a topological sort over scan references restores an executable
    front-to-back order.  The dependency graph is acyclic by
    construction (a shared subplan is a strict subtree of any producer
    that scans it).
    """
    by_name = {plan.name: plan for plan in shared}
    ordered: List[SharedPlan] = []
    done: set = set()
    visiting: set = set()
    for item in shared:
        _visit_producer(item, by_name, done, visiting, ordered)
    return tuple(ordered)


def _visit_producer(
    item: SharedPlan,
    by_name: Dict[str, SharedPlan],
    done: set,
    visiting: set,
    ordered: List[SharedPlan],
) -> None:
    """Append ``item`` to ``ordered`` after every producer it scans.

    A module-level function rather than a closure: a closure that calls
    itself is a function <-> cell cycle left for the cyclic collector.
    """
    if item.name in done:
        return
    if item.name in visiting:  # pragma: no cover - acyclic by construction
        raise ReproError(f"cyclic materialization {item.name!r}")
    visiting.add(item.name)
    for node in item.plan.walk():
        if node.algorithm == SCAN_INTERMEDIATE and node.args[0] in by_name:
            _visit_producer(by_name[node.args[0]], by_name, done, visiting, ordered)
    visiting.discard(item.name)
    done.add(item.name)
    ordered.append(item)


def plan_sharing(
    results: Sequence,
    spec: ModelSpecification,
    catalog: Catalog,
    options: Optional[SharingOptions] = None,
    estimator: Optional[SelectivityEstimator] = None,
) -> SharingReport:
    """Greedy multi-query sharing over a batch's winning plans.

    ``results`` are the :class:`~repro.search.engine.OptimizationResult`
    objects of one :meth:`VolcanoOptimizer.optimize_batch` call — their
    plans must come from one shared memo for identity-based detection to
    see anything.  Returns a :class:`SharingReport`; when nothing is
    shareable (or sharing is disabled, or the model declares no
    ``materialize``/``scan_intermediate`` algorithms) the report simply
    echoes the independent plans.

    When every result carries a certificate, rewritten costs re-add from
    the exact local costs the engine claimed, and the report carries the
    pass's consumer and producer certificates (see :class:`SharingReport`).
    """
    options = options if options is not None else SharingOptions()
    plans = tuple(result.plan for result in results)
    independent_total = sum(
        result.cost.total() for result in results if result.cost is not None
    )
    report = SharingReport(
        plans=plans,
        independent_total=independent_total,
        shared_total=independent_total,
    )
    if not options.enabled or len(plans) < 2:
        return report
    if MATERIALIZE not in spec.algorithms or SCAN_INTERMEDIATE not in spec.algorithms:
        return report
    memo = getattr(results[0], "memo", None)
    if memo is None or any(
        getattr(result, "memo", None) is not memo for result in results[1:]
    ):
        return report

    context = OptimizerContext(spec, catalog, estimator)
    state = _SharingState(context, results)
    mat_def = spec.algorithm(MATERIALIZE)
    scan_def = spec.algorithm(SCAN_INTERMEDIATE)

    working: List[PhysicalPlan] = list(plans)
    shared: List[SharedPlan] = []
    candidates_considered = 0

    while len(shared) < options.max_materializations:
        counts, nodes = _count_occurrences(working)
        best: Optional[PhysicalPlan] = None
        best_benefit = options.min_benefit
        best_count = 0
        for key, node in nodes.items():
            occurrences = counts[key]
            if occurrences < 2:
                continue
            props = state.props_of(node)
            if props is None:
                continue
            candidates_considered += 1
            mat_local = mat_def.cost(
                context, AlgorithmNode((), props, (props,))
            ).total()
            scan_local = scan_def.cost(
                context, AlgorithmNode((), props, ())
            ).total()
            cost_s = node.cost.total()
            benefit = occurrences * cost_s - (
                cost_s + mat_local + occurrences * scan_local
            )
            # Strictly-better wins; ties keep the first (deterministic
            # walk order), so the pass is reproducible run to run.
            if benefit > best_benefit:
                best, best_benefit, best_count = node, benefit, occurrences
        if best is None:
            break

        props = state.props_of(best)
        assert props is not None  # filtered above
        name = f"__mqo_{len(shared)}"
        columns = tuple(props.schema.column_names)
        row_width = max(1, props.schema.row_width)
        mat_cost = mat_def.cost(
            context, AlgorithmNode((name, row_width), props, (props,))
        )
        scan_cost = scan_def.cost(
            context, AlgorithmNode((name, columns, row_width), props, ())
        )
        producer = PhysicalPlan(
            MATERIALIZE,
            (name, row_width),
            (best,),
            properties=best.properties,
            cost=None if best.cost is None else best.cost + mat_cost,
        )
        scan_node = PhysicalPlan(
            SCAN_INTERMEDIATE,
            (name, columns, row_width),
            (),
            properties=best.properties,
            cost=scan_cost,
        )
        state.inherit(best, producer, NodeClaim(MATERIALIZE, mat_cost, props, (props,)))
        state.inherit(best, scan_node, NodeClaim(SCAN_INTERMEDIATE, scan_cost, props, ()))
        state.local_costs[id(producer)] = mat_cost
        state.local_costs[id(scan_node)] = scan_cost

        cache: Dict[int, PhysicalPlan] = {id(best): scan_node}
        working = [_rewrite(state, plan, cache) for plan in working]
        working.append(producer)
        shared.append(
            SharedPlan(
                name=name,
                plan=producer,
                cost=producer.cost,
                rows=props.cardinality,
                consumers=best_count,
            )
        )
        # Earlier producers may have been rewritten this round (the new
        # intermediate can live inside their feeds) — refresh them.
        for index in range(len(shared) - 1):
            refreshed = working[len(plans) + index]
            if refreshed is not shared[index].plan:
                shared[index] = dataclasses.replace(
                    shared[index], plan=refreshed, cost=refreshed.cost
                )

    shared_total = sum(
        plan.cost.total() for plan in working if plan.cost is not None
    )
    rewritten, ordered = tuple(working[: len(plans)]), _dependency_order(shared)
    consumers: Tuple[PlanCertificate, ...] = ()
    producers: Tuple[PlanCertificate, ...] = ()
    if state.claims is not None:
        try:
            consumers, producers = _certificates(
                state, spec, results, rewritten, ordered
            )
        except KeyError:  # a shared node without a frontier: uncertifiable
            consumers, producers = (), ()
    return SharingReport(
        plans=rewritten,
        shared_plans=ordered,
        candidates_considered=candidates_considered,
        independent_total=independent_total,
        shared_total=shared_total,
        consumer_certificates=consumers,
        producer_certificates=producers,
    )


def _certificates(
    state: _SharingState,
    spec: ModelSpecification,
    results: Sequence,
    rewritten: Sequence[PhysicalPlan],
    shared: Sequence[SharedPlan],
) -> Tuple[Tuple[PlanCertificate, ...], Tuple[PlanCertificate, ...]]:
    """(consumer, producer) certificates from the claims the pass recorded.

    A consumer keeps its input certificate's source, chain and frontier;
    a producer's source *is* the frontier of the subplan it materializes.
    """
    consumers = []
    for result, plan in zip(results, rewritten):
        claims, intermediates = state.claimed(plan)
        consumers.append(
            dataclasses.replace(
                result.certificate,
                claims=claims,
                claimed_cost=plan.cost,
                intermediates=intermediates,
            )
        )
    producers = []
    for item in shared:
        claims, intermediates = state.claimed(item.plan)
        source = state.frontiers[id(item.plan)]
        producers.append(
            PlanCertificate(
                kind=KIND_PRODUCER,
                source=source,
                required=spec.any_props,
                frontier=source,
                steps=(),
                claims=claims,
                claimed_cost=item.plan.cost,
                intermediates=intermediates,
                engine="sharing",
            )
        )
    return tuple(consumers), tuple(producers)
