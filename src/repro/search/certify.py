"""Certificate construction: turn a solved memo into provenance proofs.

Every plan node the memo engines build carries what its certificate
claims about it: the implementation rule or enforcer goal that placed
it, its logical properties and its local cost
(:class:`~repro.algebra.plans.PhysicalPlan`).  This module turns a plan
and the solved memo into the
:class:`~repro.verify.certificate.PlanCertificate` the independent
checker (:func:`repro.verify.verify_plan`) consumes:

* the **frontier** — the logical expression the plan structurally
  implements — is reconstructed by one function that reads the search's
  own implementation moves on each node's group
  (:meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`, handed
  to the builder as ``moves``) and realizes the binding of the move the
  node names (or, for a plan from a memo-less engine, the first move that
  justifies the node) — the certifier enumerates no rule bindings of its
  own;
* the **derivation chain** proving source ⟶ frontier is read from the
  search's own record: the memo keeps, per member, the rewrite that
  first brought it into its class (:attr:`Memo.derivations`), and
  walking those pointers back from the frontier's member to the
  source's gives the rule firings, each replayed on the concrete tree
  into a :class:`DerivationStep` the checker can replay on plain trees;
* per-node :class:`NodeClaim` objects, read off the nodes
  (:func:`~repro.verify.certificate.node_claim`), carry the exact cost
  terms and logical properties the engine used, so cost reproduction
  (P3xx) is an exact equality, not a tolerance test.  A node of a
  memo-less engine's plan names no rule and is priced again over the
  closure memo.

Construction is best-effort by design: the builder never raises out of
:meth:`CertificateBuilder.certify` — any reconstruction failure yields a
certificate the *checker* will flag (empty claims → P002, missing chain
→ P401).  The checker stays the single source of truth.

Certificates for the multi-query sharing pass's rewrites are built by
the pass itself (:func:`repro.search.sharing.plan_sharing`) from the
frontiers of these certificates and the claims of its own nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.expressions import GROUP_LEAF, LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import PhysProps
from repro.errors import ReproError, SearchError
from repro.model.patterns import AnyPattern, match_tree
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.search.memo import GroupExpression, Memo
from repro.verify.certificate import (
    KIND_DEGRADED,
    KIND_SEARCH,
    DerivationStep,
    NodeClaim,
    PlanCertificate,
    node_claim,
)

if TYPE_CHECKING:
    from repro.search.engine import _AlgorithmMove

__all__ = [
    "CertificateBuilder",
    "certify_result",
    "standalone_certificate",
]

#: Upper bound on derivation-chain length; beyond it the builder gives
#: up and emits a chain-less certificate (P401 at verification) rather
#: than looping.  Real chains are short — the bound is a backstop.
CHAIN_STEP_BUDGET = 8000
_DERIVE_DEPTH_LIMIT = 200


class _ChainFail(Exception):
    """Internal: certificate reconstruction failed (best-effort fallback)."""


class CertificateBuilder:
    """Builds certificates for plans of one solved memo.

    One builder per engine run (or batch): its caches are keyed by node
    identity, so a winner shared across a batch's results is
    reconstructed once and gets the same frontier in every certificate.
    """

    def __init__(
        self,
        spec: ModelSpecification,
        memo: Memo,
        moves: Callable[[int], Sequence[_AlgorithmMove]],
    ):
        self.spec = spec
        self.memo = memo
        self.context = memo.context
        #: ``gid`` → the search's implementation moves on that group
        #: (:meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`).
        self.moves = moves
        #: id(plan node) → (frontier subexpression, the node's claim).
        self._frontiers: Dict[int, Tuple[LogicalExpression, NodeClaim]] = {}
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
            frontier = self._frontier_of(plan, root_gid)
            claims = tuple(self._frontiers[id(node)][1] for node in plan.walk())
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

    def _frontier_of(self, node: PhysicalPlan, gid: int) -> LogicalExpression:
        cached = self._frontiers.get(id(node))
        if cached is not None:
            return cached[0]
        gid = self.memo.canonical(gid)
        move: Optional[_AlgorithmMove] = None
        if node.is_enforcer:
            if len(node.inputs) != 1:
                raise _ChainFail("enforcer arity")
            frontier = self._frontier_of(node.inputs[0], gid)
            leaf_gids: Tuple[int, ...] = (gid,)
            placed = node.required is not None
        else:
            move, leaf_gids, frontier = self._frontier_search(node, gid)
            placed = node.rule is not None
        claim = (
            node_claim(node)
            if placed
            else self._priced_again(node, gid, move, leaf_gids)
        )
        self._frontiers[id(node)] = (frontier, claim)
        self._keepalive.append(node)
        return frontier

    def _priced_again(
        self,
        node: PhysicalPlan,
        gid: int,
        move: Optional[_AlgorithmMove],
        leaf_gids: Tuple[int, ...],
    ) -> NodeClaim:
        """The claim for a node of a memo-less engine's plan, priced over
        the closure memo's logical properties.

        Such a node names no rule or goal, and its own annotations need
        not be the claim: EXODUS prices a node over its input mesh
        nodes' properties, which can differ in the last bits from those
        of the plans it extracts for those inputs' classes.  ``move`` is
        the justifying move (None for an enforcer, whose goal is taken to
        be what it delivers).
        """
        if move is None:
            enforcer = self.spec.enforcers.get(node.algorithm)
            if enforcer is None:
                raise _ChainFail(f"unknown enforcer {node.algorithm!r}")
            cost = enforcer.cost
        else:
            cost = move.algorithm.cost
        output = self.memo.logical_props(gid)
        inputs = tuple(self.memo.logical_props(g) for g in leaf_gids)
        return NodeClaim(
            node.algorithm,
            cost(self.context, AlgorithmNode(node.args, output, inputs)),
            output,
            inputs,
            rule=None if move is None else move.rule.name,
            enforcer=move is None,
            required=node.properties if move is None else None,
        )

    def _frontier_search(
        self, node: PhysicalPlan, gid: int
    ) -> Tuple[_AlgorithmMove, Tuple[int, ...], LogicalExpression]:
        """The node's frontier in group ``gid``, with the move that
        justifies it and that move's canonical input groups.

        Candidates are the search's own moves on the group that build the
        node's algorithm with the node's arguments.  A node that names its
        rule pins the move that built it: that rule, over input classes
        whose logical properties are its children's.  A node with no rule
        (a plan from a memo-less engine, certified over a fresh closure
        by :func:`standalone_certificate`) takes the first move that
        justifies it.
        """
        canonical = self.memo.canonical
        pinned = node.rule
        inputs = tuple(child.logical for child in node.inputs)
        for move in self.moves(gid):
            rule = move.rule
            if rule.algorithm != node.algorithm or move.args != node.args:
                continue
            if pinned is not None and rule.name != pinned:
                continue
            leaf_gids = tuple(canonical(g) for g in move.input_groups)
            if len(leaf_gids) != len(node.inputs):
                continue
            if pinned is not None and inputs != tuple(
                self.memo.logical_props(g) for g in leaf_gids
            ):
                continue
            try:
                children = [
                    self._frontier_of(child, g)
                    for child, g in zip(node.inputs, leaf_gids)
                ]
            except _ChainFail:
                continue
            frontier = self._realize_rule(rule, move.binding, gid, children)
            if frontier is not None:
                return move, leaf_gids, frontier
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
    # time (the engine imports CertificateBuilder from us).
    from repro.search.engine import VolcanoOptimizer

    explorer = VolcanoOptimizer(spec, catalog, estimator=estimator)
    run = explorer._new_run(explorer.options)
    root = run.memo.insert_expression(source)
    explorer._explore_closure(run, root)
    builder = CertificateBuilder(spec, run.memo, explorer._run_moves(run))
    return builder.certify(
        source, plan, required, degraded=degraded, engine=engine
    )
