"""Certificate construction: turn a solved memo into provenance proofs.

The search engines record, at every plan-node creation, a tiny
:class:`ClaimRecord` (which implementation rule fired, in which group,
with which cost terms).  This module turns those records plus the solved
memo into the :class:`~repro.verify.certificate.PlanCertificate` the
independent checker (:func:`repro.verify.verify_plan`) consumes:

* the **frontier** — the logical expression the plan structurally
  implements — is reconstructed by one function that reads the search's
  own implementation moves on each node's group
  (:meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`, handed
  to the builder as ``moves``) and realizes the claimed move's binding
  (or, for a plan from a memo-less engine, the first move that justifies
  the node) — the certifier enumerates no rule bindings of its own;
* the **derivation chain** proving source ⟶ frontier is read from the
  search's own record: the memo keeps, per member, the rewrite that
  first brought it into its class (:attr:`Memo.derivations`), and
  walking those pointers back from the frontier's member to the
  source's gives the rule firings, each replayed on the concrete tree
  into a :class:`DerivationStep` the checker can replay on plain trees;
* per-node :class:`NodeClaim` objects carry the exact cost terms and
  logical properties the engine used, so cost reproduction (P3xx) is an
  exact equality, not a tolerance test.

Construction is best-effort by design: the builder never raises out of
:meth:`CertificateBuilder.certify` — any reconstruction failure yields a
certificate the *checker* will flag (empty claims → P002, missing chain
→ P401).  The checker stays the single source of truth.

:class:`SharingCertifier` extends certificates across the multi-query
sharing pass: consumer plans keep their source/chain/frontier but get
re-aligned claims (scan nodes reference the certificate's
``intermediates``), and every materialized producer gets a
``producer``-kind certificate of its own.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.expressions import GROUP_LEAF, LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import LogicalProperties, PhysProps
from repro.errors import ReproError, SearchError
from repro.model.cost import Cost
from repro.model.patterns import AnyPattern, match_tree
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.search.memo import GroupExpression, Memo
from repro.search.sharing import MATERIALIZE, SCAN_INTERMEDIATE, SharingReport
from repro.verify.certificate import (
    KIND_DEGRADED,
    KIND_PRODUCER,
    KIND_SEARCH,
    DerivationStep,
    NodeClaim,
    PlanCertificate,
)

if TYPE_CHECKING:
    from repro.search.engine import _AlgorithmMove

__all__ = [
    "ClaimRecord",
    "CertificateBuilder",
    "SharingCertifier",
    "certify_result",
    "standalone_certificate",
]

#: Upper bound on derivation-chain length; beyond it the builder gives
#: up and emits a chain-less certificate (P401 at verification) rather
#: than looping.  Real chains are short — the bound is a backstop.
CHAIN_STEP_BUDGET = 8000
_DERIVE_DEPTH_LIMIT = 200


@dataclass(frozen=True)
class ClaimRecord:
    """What an engine knew when it created one plan node.

    ``rule`` names the implementation rule (None for enforcers; plan
    nodes with no record — plans from memo-less engines, certified
    through :func:`standalone_certificate` — get a justifying rule
    searched for by the builder).  ``gid`` and
    ``input_groups`` locate the node in the memo (−1 when unknown).
    ``local``/``output``/``inputs`` are the exact cost term and logical
    properties the cost function consumed.
    """

    rule: Optional[str]
    gid: int
    input_groups: Tuple[int, ...]
    local: Cost
    output: LogicalProperties
    inputs: Tuple[LogicalProperties, ...]
    enforcer: bool = False
    required: Optional[PhysProps] = None


class _ChainFail(Exception):
    """Internal: certificate reconstruction failed (best-effort fallback)."""


class CertificateBuilder:
    """Builds certificates for plans of one solved memo.

    One builder per engine run (or batch): its caches are keyed by node
    identity, so winners shared across a batch's results get the *same*
    frontier subexpressions in every certificate — which is what lets
    the sharing pass tie ``scan_intermediate`` references back to their
    producers structurally.
    """

    def __init__(
        self,
        spec: ModelSpecification,
        memo: Memo,
        claims: Optional[Mapping[int, object]],
        moves: Callable[[int], Sequence[_AlgorithmMove]],
    ):
        self.spec = spec
        self.memo = memo
        self.context = memo.context
        self.claims = claims if claims is not None else {}
        #: ``gid`` → the search's implementation moves on that group
        #: (:meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`).
        self.moves = moves
        #: id(plan node) → frontier subexpression (exposed for sharing).
        self.frontiers: Dict[int, LogicalExpression] = {}
        self._records: Dict[int, ClaimRecord] = {}
        self._resolve_cache: Dict[LogicalExpression, Optional[int]] = {}
        self._repr_cache: Dict[int, LogicalExpression] = {}
        self._keepalive: List[PhysicalPlan] = []
        self._steps: List[DerivationStep] = []
        self._budget = 0

    # -- public entry --------------------------------------------------------

    def certify(
        self,
        source: LogicalExpression,
        plan: PhysicalPlan,
        required: PhysProps,
        *,
        degraded: bool = False,
        engine: str = "",
    ) -> PlanCertificate:
        """Best-effort certificate for one (source, plan) pair.

        Never raises: reconstruction failures surface as certificates
        the independent checker rejects, not as engine errors.
        """
        kind = KIND_DEGRADED if degraded else KIND_SEARCH
        claims: Tuple[NodeClaim, ...] = ()
        frontier = source
        steps: Tuple[DerivationStep, ...] = ()
        try:
            root_gid = self._resolve(source)
            if root_gid is None:
                raise _ChainFail("the source expression is not in the memo")
            self._frontier_of(plan, root_gid)
            frontier = self.frontiers[id(plan)]
            claims = tuple(self._node_claim(node) for node in plan.walk())
        except (_ChainFail, ReproError, KeyError):
            frontier, claims = source, ()
        if claims and frontier != source:
            try:
                steps = self._derive(source, frontier)
            except (_ChainFail, ReproError):
                steps = ()
        return PlanCertificate(
            kind=kind,
            source=source,
            required=required,
            frontier=frontier,
            steps=steps,
            claims=claims,
            claimed_cost=plan.cost,
            engine=engine,
        )

    # -- claims and frontiers ------------------------------------------------

    def _node_claim(self, node: PhysicalPlan) -> NodeClaim:
        record = self._records[id(node)]
        return NodeClaim(
            algorithm=node.algorithm,
            local=record.local,
            output=record.output,
            inputs=record.inputs,
            rule=record.rule,
            enforcer=record.enforcer or node.is_enforcer,
            required=record.required,
        )

    def _frontier_of(self, node: PhysicalPlan, gid: int) -> LogicalExpression:
        cached = self.frontiers.get(id(node))
        if cached is not None:
            return cached
        gid = self.memo.canonical(gid)
        # Engines store (plan, record) pairs: the plan pins the id.
        entry = self.claims.get(id(node))
        record = None if entry is None else entry[1]
        if node.is_enforcer:
            if record is None:
                record = self._synthesize_enforcer(node, gid)
            if len(node.inputs) != 1:
                raise _ChainFail("enforcer arity")
            frontier = self._frontier_of(node.inputs[0], gid)
        else:
            record, frontier = self._frontier_search(node, gid, record)
        self._records[id(node)] = record
        self.frontiers[id(node)] = frontier
        self._keepalive.append(node)
        return frontier

    def _synthesize_enforcer(self, node: PhysicalPlan, gid: int) -> ClaimRecord:
        enforcer = self.spec.enforcers.get(node.algorithm)
        if enforcer is None:
            raise _ChainFail(f"unknown enforcer {node.algorithm!r}")
        props = self.memo.group(gid).logical_props
        local = enforcer.cost(self.context, AlgorithmNode(node.args, props, (props,)))
        return ClaimRecord(
            rule=None,
            gid=gid,
            input_groups=(gid,),
            local=local,
            output=props,
            inputs=(props,),
            enforcer=True,
            required=node.properties,
        )

    def _frontier_search(
        self, node: PhysicalPlan, gid: int, record: Optional[ClaimRecord]
    ) -> Tuple[ClaimRecord, LogicalExpression]:
        """The node's frontier in group ``gid`` and the record justifying it.

        Candidates are the search's own moves on the group that build the
        node's algorithm with the node's arguments.  A record that names a
        rule pins that rule and its canonical input groups, and keeps the
        engine's exact cost terms.  With no record (a plan from a
        memo-less engine, certified over a fresh closure by
        :func:`standalone_certificate`) the first move that justifies the
        node is taken and its cost terms are recomputed.
        """
        canonical = self.memo.canonical
        pinned = record if record is not None and record.rule is not None else None
        pinned_groups = (
            () if pinned is None else tuple(canonical(g) for g in pinned.input_groups)
        )
        for move in self.moves(gid):
            rule = move.rule
            if rule.algorithm != node.algorithm or move.args != node.args:
                continue
            leaf_gids = tuple(canonical(g) for g in move.input_groups)
            if pinned is not None:
                if rule.name != pinned.rule or leaf_gids != pinned_groups:
                    continue
            elif len(leaf_gids) != len(node.inputs):
                continue
            try:
                children = [
                    self._frontier_of(child, g)
                    for child, g in zip(node.inputs, leaf_gids)
                ]
            except _ChainFail:
                continue
            frontier = self._realize_rule(rule, move.binding, gid, children)
            if frontier is None:
                continue
            if pinned is not None:
                return pinned, frontier
            output = self.memo.group(gid).logical_props
            inputs = tuple(self.memo.logical_props(g) for g in leaf_gids)
            local = move.algorithm.cost(
                self.context, AlgorithmNode(node.args, output, inputs)
            )
            return (
                ClaimRecord(
                    rule=rule.name,
                    gid=gid,
                    input_groups=leaf_gids,
                    local=local,
                    output=output,
                    inputs=inputs,
                ),
                frontier,
            )
        raise _ChainFail(f"no move justifies {node.algorithm!r} in g{gid}")

    def _realize_rule(self, rule, binding, gid: int, children):
        """The rule's pattern in group ``gid`` with the plan inputs'
        frontiers at its leaves, or None when it does not land there."""
        leaf_map = dict(zip(rule.input_names, children))
        frontier = self._realize(
            rule.pattern, binding, gid, lambda name, _gid: leaf_map[name]
        )
        if frontier is None or self._resolve(frontier) != gid:
            return None
        return frontier

    def _realize(
        self,
        pattern,
        binding: dict,
        gid: int,
        leaf: Callable[[str, int], LogicalExpression],
    ) -> Optional[LogicalExpression]:
        """A concrete expression in group ``gid`` shaped like the
        (operator) ``pattern`` under a member binding, or None when no
        member realizes it; ``leaf(name, gid)`` fills each pattern leaf."""
        memo = self.memo
        for member in list(memo.group(gid).expressions):
            if member.operator != pattern.operator:
                continue
            if len(member.input_groups) != len(pattern.inputs):
                continue
            if pattern.args_as is not None and binding.get(pattern.args_as) != (
                member.args
            ):
                continue
            inputs: List[LogicalExpression] = []
            for sub, raw_gid in zip(pattern.inputs, member.input_groups):
                sub_gid = memo.canonical(raw_gid)
                if isinstance(sub, AnyPattern):
                    bound = binding.get(sub.name)
                    if bound is None or memo.canonical(bound.args[0]) != sub_gid:
                        break
                    inputs.append(leaf(sub.name, sub_gid))
                else:
                    child = self._realize(sub, binding, sub_gid, leaf)
                    if child is None:
                        break
                    inputs.append(child)
            else:
                return LogicalExpression(member.operator, member.args, tuple(inputs))
        return None

    # -- resolution ----------------------------------------------------------

    def _resolve(self, tree: LogicalExpression) -> Optional[int]:
        """The canonical group a concrete tree lands in (pure lookups)."""
        if tree.operator == GROUP_LEAF:
            return self.memo.canonical(tree.args[0])
        if tree in self._resolve_cache:
            return self._resolve_cache[tree]
        member = self._member_of(tree)
        gid = None if member is None else self.memo._table.get(member)
        gid = None if gid is None else self.memo.canonical(gid)
        self._resolve_cache[tree] = gid
        return gid

    def _member_of(self, tree: LogicalExpression) -> Optional[GroupExpression]:
        """The tree's top as a (canonical) group expression."""
        gids = []
        for child in tree.inputs:
            gid = self._resolve(child)
            if gid is None:
                return None
            gids.append(gid)
        return GroupExpression(tree.operator, tree.args, tuple(gids))

    def _canon_member(self, member: GroupExpression) -> GroupExpression:
        canonical = tuple(self.memo.canonical(g) for g in member.input_groups)
        if canonical == member.input_groups:
            return member
        return GroupExpression(member.operator, member.args, canonical)

    def _representative(self, gid: int) -> LogicalExpression:
        cached = self._repr_cache.get(gid)
        if cached is not None:
            return cached
        try:
            tree = self.memo.representative_expression(gid)
        except SearchError as error:
            raise _ChainFail(str(error)) from error
        self._repr_cache[gid] = tree
        return tree

    # -- the derivation chain ------------------------------------------------

    def _derive(
        self, source: LogicalExpression, target: LogicalExpression
    ) -> Tuple[DerivationStep, ...]:
        self._steps = []
        self._budget = CHAIN_STEP_BUDGET
        result = self._derive_rec(source, target, (), 0)
        if result != target:
            raise _ChainFail("derived endpoint is not the frontier")
        return tuple(self._steps)

    def _derive_rec(
        self,
        current: LogicalExpression,
        target: LogicalExpression,
        path: Tuple[int, ...],
        depth: int,
    ) -> LogicalExpression:
        if current == target:
            return current
        if depth > _DERIVE_DEPTH_LIMIT:
            raise _ChainFail("derivation recursion limit")
        gid = self._resolve(current)
        if gid is None or self._resolve(target) != gid:
            raise _ChainFail("derivation endpoints are in different groups")
        cur = current
        cur_member = self._member_of(cur)
        target_member = self._member_of(target)
        if cur_member is None or target_member is None:
            raise _ChainFail("unresolvable member")
        if cur_member != target_member:
            edges = self._member_path(gid, cur_member, target_member)
            for edge in edges:
                cur = self._apply_edge(cur, path, edge, depth)
            if self._member_of(cur) != target_member:
                raise _ChainFail("edge replay drifted off the member path")
        children = tuple(
            self._derive_rec(child, goal, path + (index,), depth + 1)
            for index, (child, goal) in enumerate(zip(cur.inputs, target.inputs))
        )
        return cur.with_inputs(children)

    def _member_path(
        self, gid: int, src: GroupExpression, dst: GroupExpression
    ) -> List[tuple]:
        """The ``(rule, binding, target)`` firings that took the class
        from ``src`` to ``dst``: the memo's first-derivation pointers,
        walked back from ``dst`` and returned in firing order."""
        edges: List[tuple] = []
        member, seen = dst, {dst}
        while member != src:
            origin = self.memo.derivations.get(member)
            if origin is None:
                raise _ChainFail(f"no derivation of {member} from {src} in g{gid}")
            source, rule, binding = origin
            edges.append((rule, binding, member))
            member = self._canon_member(source)
            if member in seen:
                raise _ChainFail(f"derivation pointers cycle in g{gid}")
            seen.add(member)
        edges.reverse()
        return edges

    def _apply_edge(
        self,
        tree: LogicalExpression,
        path: Tuple[int, ...],
        edge: tuple,
        depth: int,
    ) -> LogicalExpression:
        """Fire one member-graph edge on the concrete working tree.

        Nested pattern positions may first need the concrete child
        reshaped into the member the binding matched — those reshapes
        recurse through :meth:`_derive_rec` and record their own steps.
        """
        rule, binding, target_member = edge
        children = list(tree.inputs)
        for index, sub in enumerate(rule.pattern.inputs):
            if isinstance(sub, AnyPattern):
                continue
            if self._shape_matches(sub, children[index], binding):
                continue
            child_gid = self._resolve(children[index])
            if child_gid is None:
                raise _ChainFail("unresolvable child during reshape")
            goal = self._realize(
                sub, binding, child_gid, lambda _name, g: self._representative(g)
            )
            if goal is None:
                raise _ChainFail("no member realizes the nested pattern")
            children[index] = self._derive_rec(
                children[index], goal, path + (index,), depth + 1
            )
        reshaped = tree.with_inputs(tuple(children))
        concrete = match_tree(rule.pattern, reshaped)
        if concrete is None:
            raise _ChainFail(f"rule {rule.name!r} lost its match on replay")
        try:
            if not rule.applies(concrete, self.context):
                raise _ChainFail(f"rule {rule.name!r} condition flipped on replay")
            results = rule.rewrite(concrete, self.context)
        except ReproError as error:
            raise _ChainFail(str(error)) from error
        if results is None:
            results = []
        elif isinstance(results, LogicalExpression):
            results = [results]
        for output in results:
            if output.operator == GROUP_LEAF:
                continue
            if self._member_of(output) == target_member:
                self._budget -= 1
                if self._budget <= 0:
                    raise _ChainFail("derivation step budget exhausted")
                self._steps.append(DerivationStep(rule.name, path, output))
                return output
        raise _ChainFail(f"rule {rule.name!r} did not reproduce the edge")

    def _shape_matches(self, pattern, tree: LogicalExpression, binding) -> bool:
        """Does the concrete tree already realize the member binding?"""
        if isinstance(pattern, AnyPattern):
            bound = binding.get(pattern.name)
            return (
                bound is not None
                and self._resolve(tree) == self.memo.canonical(bound.args[0])
            )
        if tree.operator != pattern.operator:
            return False
        if len(tree.inputs) != len(pattern.inputs):
            return False
        if pattern.args_as is not None and tree.args != binding.get(pattern.args_as):
            return False
        return all(
            self._shape_matches(sub, child, binding)
            for sub, child in zip(pattern.inputs, tree.inputs)
        )


# ---------------------------------------------------------------------------
# Sharing-pass certification
# ---------------------------------------------------------------------------


class SharingCertifier:
    """Carry certificates across :func:`repro.search.sharing.plan_sharing`.

    Usage: feed every pre-sharing (plan, certificate) pair through
    :meth:`add_result`, hand :attr:`local_costs` to ``plan_sharing`` (so
    rewritten cumulative costs stay exactly reproducible), then call
    :meth:`certify` with the report to get consumer certificates (claims
    re-aligned to the rewritten plans, scans bound to ``intermediates``)
    and one ``producer``-kind certificate per materialized intermediate.
    """

    def __init__(self, spec: ModelSpecification, context):
        self.spec = spec
        self.context = context
        self._impl_by_name = {rule.name: rule for rule in spec.implementations}
        self.claims: Dict[int, NodeClaim] = {}
        self.frontiers: Dict[int, LogicalExpression] = {}
        self._keepalive: List[PhysicalPlan] = []

    def add_result(
        self, plan: PhysicalPlan, certificate: Optional[PlanCertificate]
    ) -> bool:
        """Index one pre-sharing plan's claims and frontiers by node id."""
        if certificate is None:
            return False
        if len(certificate.claims) != sum(1 for _ in plan.walk()):
            return False
        try:
            self._index(plan, certificate.frontier, certificate.claims, [0])
        except (_ChainFail, KeyError):
            return False
        return True

    @property
    def local_costs(self) -> Dict[int, Cost]:
        """id(node) → the engine's exact local cost, for ``plan_sharing``."""
        return {key: claim.local for key, claim in self.claims.items()}

    def _index(self, node, frontier, claims, counter) -> None:
        claim = claims[counter[0]]
        counter[0] += 1
        if claim.algorithm != node.algorithm:
            raise _ChainFail("claims misaligned")
        self.claims[id(node)] = claim
        if frontier is not None:
            self.frontiers.setdefault(id(node), frontier)
        self._keepalive.append(node)
        if node.is_enforcer or claim.enforcer:
            subs = [frontier] * len(node.inputs)
        elif claim.rule is None:
            raise _ChainFail("algorithm node without a rule claim")
        else:
            rule = self._impl_by_name.get(claim.rule)
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
                raise _ChainFail("rule arity")
        for child, sub in zip(node.inputs, subs):
            self._index(child, sub, claims, counter)

    def certify(
        self,
        report: SharingReport,
        originals: Sequence[PhysicalPlan],
        certificates: Sequence[Optional[PlanCertificate]],
    ) -> Tuple[List[Optional[PlanCertificate]], List[Optional[PlanCertificate]]]:
        """(consumer certificates, producer certificates) for a report."""
        scan_props = {
            plan.name: getattr(plan, "props", None) for plan in report.shared_plans
        }
        original_best: Dict[str, PhysicalPlan] = {}
        consumers: List[Optional[PlanCertificate]] = []
        for original, rewritten, certificate in zip(
            originals, report.plans, certificates
        ):
            if certificate is None:
                consumers.append(None)
                continue
            claims: List[NodeClaim] = []
            intermediates: Dict[str, LogicalExpression] = {}
            try:
                self._realign(
                    original, rewritten, claims, intermediates,
                    original_best, scan_props,
                )
            except (_ChainFail, KeyError):
                consumers.append(None)
                continue
            consumers.append(
                dataclasses.replace(
                    certificate,
                    claims=tuple(claims),
                    claimed_cost=rewritten.cost,
                    intermediates=dict(intermediates),
                )
            )
        producers: List[Optional[PlanCertificate]] = []
        mat_def = self.spec.algorithms.get(MATERIALIZE)
        for shared in report.shared_plans:
            best_original = original_best.get(shared.name)
            props = scan_props.get(shared.name)
            best_rewritten = shared.plan.inputs[0] if shared.plan.inputs else None
            source = (
                self.frontiers.get(id(best_original))
                if best_original is not None
                else None
            )
            if (
                best_original is None
                or best_rewritten is None
                or props is None
                or source is None
                or mat_def is None
            ):
                producers.append(None)
                continue
            local = mat_def.cost(
                self.context, AlgorithmNode(shared.plan.args, props, (props,))
            )
            claims = [
                NodeClaim(
                    algorithm=MATERIALIZE,
                    local=local,
                    output=props,
                    inputs=(props,),
                )
            ]
            intermediates = {}
            try:
                self._realign(
                    best_original, best_rewritten, claims, intermediates,
                    original_best, scan_props,
                )
            except (_ChainFail, KeyError):
                producers.append(None)
                continue
            producers.append(
                PlanCertificate(
                    kind=KIND_PRODUCER,
                    source=source,
                    required=self.spec.any_props,
                    frontier=source,
                    steps=(),
                    claims=tuple(claims),
                    claimed_cost=shared.plan.cost,
                    intermediates=dict(intermediates),
                    engine="sharing",
                )
            )
        return consumers, producers

    def _realign(
        self, original, rewritten, out, intermediates, original_best, scan_props
    ) -> None:
        """Parallel walk original ↔ rewritten, emitting pre-order claims."""
        if rewritten is original:
            for node in rewritten.walk():
                claim = self.claims.get(id(node))
                if claim is None:
                    raise _ChainFail("untracked original node")
                out.append(claim)
            return
        if (
            rewritten.algorithm == SCAN_INTERMEDIATE
            and original.algorithm != SCAN_INTERMEDIATE
            and rewritten.args
            and rewritten.args[0] in scan_props
        ):
            name = rewritten.args[0]
            frontier = self.frontiers.get(id(original))
            props = scan_props.get(name)
            if frontier is None or props is None:
                raise _ChainFail("scan without a producer frontier")
            intermediates[name] = frontier
            original_best.setdefault(name, original)
            claim = NodeClaim(
                algorithm=SCAN_INTERMEDIATE,
                local=rewritten.cost,
                output=props,
                inputs=(),
            )
            out.append(claim)
            self.claims.setdefault(id(rewritten), claim)
            self.frontiers.setdefault(id(rewritten), frontier)
            self._keepalive.append(rewritten)
            return
        claim = self.claims.get(id(rewritten))
        if claim is None:
            claim = self.claims.get(id(original))
        if (
            claim is None
            or rewritten.algorithm != original.algorithm
            or len(rewritten.inputs) != len(original.inputs)
        ):
            raise _ChainFail("rewritten node does not mirror its original")
        out.append(claim)
        self.claims.setdefault(id(rewritten), claim)
        frontier = self.frontiers.get(id(original))
        if frontier is not None:
            self.frontiers.setdefault(id(rewritten), frontier)
        self._keepalive.append(rewritten)
        for child_original, child_rewritten in zip(
            original.inputs, rewritten.inputs
        ):
            self._realign(
                child_original, child_rewritten, out, intermediates,
                original_best, scan_props,
            )


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def certify_result(
    result,
    spec: ModelSpecification,
    source: LogicalExpression,
    *,
    catalog,
    estimator=None,
    engine: str = "",
) -> PlanCertificate:
    """Certificate for a memo-less engine's result (EXODUS, System R).

    Goes through :func:`standalone_certificate`, which explores a fresh
    closure memo over the source to reconstruct provenance.  (A Volcano
    result carries its own certificate when
    :attr:`~repro.search.SearchOptions.certificates` is on.)
    """
    return standalone_certificate(
        spec,
        catalog,
        source,
        result.plan,
        result.required,
        estimator=estimator,
        degraded=bool(getattr(result, "degraded", False)),
        engine=engine or type(result).__name__.replace("Result", ""),
    )


def standalone_certificate(
    spec: ModelSpecification,
    catalog,
    source: LogicalExpression,
    plan: PhysicalPlan,
    required: PhysProps,
    *,
    estimator=None,
    degraded: bool = False,
    engine: str = "",
) -> PlanCertificate:
    """Certify a plan with no memo: build a fresh logical closure first.

    Used for engines that do not expose a memo (the EXODUS and System R
    baselines).  Rule attribution and cost terms are synthesized from
    the closure memo and the explorer's own implementation moves on it,
    so the certificate is exactly as strong as the claim that the plan's
    choices are re-derivable from the model.
    """
    # Imported here: this module must not depend on the engine at import
    # time (the engine imports ClaimRecord from us).
    from repro.search.engine import VolcanoOptimizer

    explorer = VolcanoOptimizer(spec, catalog, estimator=estimator)
    run = explorer._new_run(explorer.options)
    root = run.memo.insert_expression(source)
    explorer._explore_closure(run, root)
    builder = CertificateBuilder(spec, run.memo, None, explorer._run_moves(run))
    return builder.certify(
        source, plan, required, degraded=degraded, engine=engine
    )
