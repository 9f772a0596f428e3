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
definitions, evaluated over the logical properties ``S`` carries
(:attr:`PhysicalPlan.logical`, the equivalence class's own), so the
trade-off is priced in the same currency as every other plan.  A node
rebuilt over rewritten inputs re-adds its inputs' costs to the local
cost it carries (:attr:`PhysicalPlan.local`).  The greedy loop only
ever accepts candidates with strictly positive benefit, so the shared
plan set is provably never more expensive than the independent plans
it replaces.

The pass also certifies its own rewrites.  When every input result
carries a certificate, each node's logical frontier is indexed once at
entry (from the certificate's frontier and each node's implementation
rule), and every node the pass makes inherits its original's.  Claims
are read off the nodes themselves
(:func:`~repro.verify.certificate.node_claim`): a rebuilt node keeps
its original's rule and cost terms, and a ``scan_intermediate`` and a
``materialize`` node carry the very cost objects the pass summed.  The
report then carries a consumer certificate per rewritten plan (scans
bound to its ``intermediates``) and a ``producer``-kind certificate per
materialized intermediate, for the independent checker to re-verify.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.catalog.selectivity import SelectivityEstimator
from repro.errors import ReproError
from repro.model.context import OptimizerContext
from repro.model.patterns import match_tree
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.options import OptionsBase, check_positive
from repro.verify.certificate import KIND_PRODUCER, PlanCertificate, node_claim

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
    ``max_materializations``
        Upper bound on materialized intermediates per batch; the greedy
        loop stops early when no candidate has a strictly positive
        benefit.
    """

    enabled: bool = True
    max_materializations: int = 4

    def validate(self) -> None:
        """Check field invariants; raise :class:`OptionsError` on failure."""
        check_positive("max_materializations", self.max_materializations)


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
    """Internal: an input plan's frontiers cannot be derived."""


class _SharingState:
    """Bookkeeping of one :func:`plan_sharing` run.

    Everything is keyed by ``id(node)`` — object identity is what the
    memo's winner sharing gives us — so the state pins every node it has
    seen in ``keepalive`` to keep ids stable for the run's lifetime.

    ``frontiers`` holds every node's logical frontier; it is empty when
    some input result carries no certificate, or one whose
    reconstruction failed (the pass then runs uncertified).
    """

    def __init__(self, spec: ModelSpecification, results: Sequence):
        self.keepalive: List[PhysicalPlan] = []
        self.frontiers: Dict[int, LogicalExpression] = {}
        impls = {rule.name: rule for rule in spec.implementations}
        try:
            for result in results:
                certificate = getattr(result, "certificate", None)
                if certificate is None or not certificate.claims:
                    raise _Unindexable("no certificate")
                self._index(result.plan, certificate.frontier, impls)
        except _Unindexable:
            self.frontiers = {}

    def _index(self, node, frontier, impls) -> None:
        """Index one plan's frontiers, deriving child frontiers from
        each node's implementation-rule match on its own."""
        if frontier is not None:
            self.frontiers.setdefault(id(node), frontier)
        if node.is_enforcer:
            subs = [frontier] * len(node.inputs)
        elif node.rule is None:
            raise _Unindexable("algorithm node without a rule")
        else:
            rule = impls.get(node.rule)
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
            self._index(child, sub, impls)

    def inherit(self, old: PhysicalPlan, new: PhysicalPlan) -> None:
        """A rewritten node computes the same rows as its original: it
        keeps the original's frontier."""
        self.keepalive.append(new)
        frontier = self.frontiers.get(id(old))
        if frontier is not None:
            self.frontiers[id(new)] = frontier

    def intermediates(self, plan: PhysicalPlan) -> Dict[str, LogicalExpression]:
        """The frontier of each intermediate a plan scans (``KeyError``
        when one is unknown)."""
        return {
            node.args[0]: self.frontiers[id(node)]
            for node in plan.walk()
            if node.algorithm == SCAN_INTERMEDIATE
        }


def _rebuild(
    state: _SharingState,
    node: PhysicalPlan,
    new_inputs: Tuple[PhysicalPlan, ...],
) -> PhysicalPlan:
    """Replace a node's inputs, re-adding their costs to its local cost."""
    cost = node.local
    if cost is not None:
        for child in new_inputs:
            if child.cost is None:
                cost = None
                break
            cost = cost + child.cost
    rebuilt = dataclasses.replace(node, inputs=new_inputs, cost=cost)
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
    catalog: Union[Catalog, CatalogSnapshot],
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

    Candidates are priced over the logical properties each plan node
    carries, and rewritten costs re-add from each node's local cost;
    when every result carries a certificate, the report also carries
    the pass's consumer and producer certificates (see
    :class:`SharingReport`).
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
    state = _SharingState(spec, results)
    mat_def = spec.algorithm(MATERIALIZE)
    scan_def = spec.algorithm(SCAN_INTERMEDIATE)

    working: List[PhysicalPlan] = list(plans)
    shared: List[SharedPlan] = []
    candidates_considered = 0

    while len(shared) < options.max_materializations:
        counts, nodes = _count_occurrences(working)
        best: Optional[PhysicalPlan] = None
        best_benefit = 0.0
        best_count = 0
        for key, node in nodes.items():
            occurrences = counts[key]
            if occurrences < 2:
                continue
            props = node.logical
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

        props = best.logical
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
            logical=props,
            local=mat_cost,
        )
        scan_node = PhysicalPlan(
            SCAN_INTERMEDIATE,
            (name, columns, row_width),
            (),
            properties=best.properties,
            cost=scan_cost,
            logical=props,
            local=scan_cost,
        )
        state.inherit(best, producer)
        state.inherit(best, scan_node)

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
    if state.frontiers:
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
    """(consumer, producer) certificates for the rewritten plans.

    A consumer keeps its input certificate's source, chain and frontier;
    a producer's source *is* the frontier of the subplan it materializes.
    """
    consumers = []
    for result, plan in zip(results, rewritten):
        consumers.append(
            dataclasses.replace(
                result.certificate,
                claims=tuple(node_claim(node) for node in plan.walk()),
                claimed_cost=plan.cost,
                intermediates=state.intermediates(plan),
            )
        )
    producers = []
    for item in shared:
        source = state.frontiers[id(item.plan)]
        producers.append(
            PlanCertificate(
                kind=KIND_PRODUCER,
                source=source,
                required=spec.any_props,
                frontier=source,
                steps=(),
                claims=tuple(node_claim(node) for node in item.plan.walk()),
                claimed_cost=item.plan.cost,
                intermediates=state.intermediates(item.plan),
                engine="sharing",
            )
        )
    return tuple(consumers), tuple(producers)
