"""Certificate construction: turn a solved memo into provenance proofs.

Every plan node the Volcano engine builds carries what its certificate
claims about it: the implementation rule or enforcer goal that placed
it, its logical properties and its local cost
(:class:`~repro.algebra.plans.PhysicalPlan`).  This module turns a plan
and the solved memo into the
:class:`~repro.verify.certificate.PlanCertificate` the independent
checker (:func:`repro.verify.verify_plan`) consumes, reading only the
search's own record:

* the **frontier** — the logical expression the plan structurally
  implements — is reconstructed by one function that reads the search's
  own implementation moves on each node's group
  (:meth:`~repro.search.engine.VolcanoOptimizer._algorithm_moves`, handed
  to the builder as ``moves``) and realizes the binding of the move the
  node names — the certifier enumerates no rule bindings of its own;
* the **derivation chain** proving source ⟶ frontier is read from the
  memo, which keeps, per member, the rewrite that first brought it into
  its class and the expression that rewrite returned
  (:attr:`Memo.derivations`).  Walking those pointers back from the
  frontier's member to the source's gives the rule firings; each step's
  tree is the recorded output with the concrete subtrees the firing
  matched at its group leaves.  No rule code runs here: the checker,
  which replays every step, is the one place that runs it on a
  certificate;
* per-node :class:`NodeClaim` objects, read off the nodes
  (:func:`~repro.verify.certificate.node_claim`), carry the exact cost
  terms and logical properties the engine used, so cost reproduction
  (P3xx) is an exact equality, not a tolerance test.

Construction is best-effort by design: the builder never raises out of
:meth:`CertificateBuilder.certify` — any reconstruction failure yields a
certificate the *checker* will flag (empty claims → P002, missing chain
→ P401).  An algorithm node that names no rule, such as a memo-less
engine's or a hand-built one, gets the claim-less certificate.  The
checker stays the single source of truth.

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

__all__ = ["CertificateBuilder"]

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

    def __init__(self, memo: Memo, moves: Callable[[int], Sequence[_AlgorithmMove]]):
        self.memo = memo
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
        if node.is_enforcer:
            if len(node.inputs) != 1:
                raise _ChainFail("enforcer arity")
            frontier = self._frontier_of(node.inputs[0], gid)
        else:
            frontier = self._frontier_search(node, gid)
        self._frontiers[id(node)] = (frontier, node_claim(node))
        self._keepalive.append(node)
        return frontier

    def _frontier_search(self, node: PhysicalPlan, gid: int) -> LogicalExpression:
        """The node's frontier in group ``gid``.

        The node names its rule, which pins the move that built it: that
        rule with the node's arguments, over input classes whose logical
        properties are its children's.
        """
        if node.rule is None:
            raise _ChainFail(f"{node.algorithm!r} names no rule")
        canonical = self.memo.canonical
        inputs = tuple(child.logical for child in node.inputs)
        for move in self.moves(gid):
            rule = move.rule
            if rule.name != node.rule or move.args != node.args:
                continue
            leaf_gids = tuple(canonical(g) for g in move.input_groups)
            if len(leaf_gids) != len(node.inputs) or inputs != tuple(
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
                return frontier
        raise _ChainFail(f"no move of {node.rule!r} builds the node in g{gid}")

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
        """The ``(rule, binding, output)`` firings that took the class
        from ``src`` to ``dst``: the memo's first-derivation pointers,
        walked back from ``dst`` and returned in firing order."""
        edges: List[tuple] = []
        member, seen = dst, {dst}
        while member != src:
            origin = self.memo.derivations.get(member)
            if origin is None:
                raise _ChainFail(f"no derivation of {member} from {src} in g{gid}")
            edges.append(origin[1:])
            member = self._canon_member(origin[0])
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
        """Take one member-graph edge on the concrete working tree: the
        step's tree is the edge's recorded output over the concrete
        subtrees the rule's pattern matches.

        Nested pattern positions may first need the concrete child
        reshaped into the member the binding matched — those reshapes
        recurse through :meth:`_derive_rec` and record their own steps.
        """
        rule, binding, output = edge
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
        concrete = match_tree(rule.pattern, tree.with_inputs(tuple(children)))
        if concrete is None:
            raise _ChainFail(f"rule {rule.name!r} does not match the working tree")
        # Each group leaf the firing bound stands for the concrete
        # subtree bound to the same pattern name.
        subtrees = {
            bound: concrete[name]
            for name, bound in binding.items()
            if isinstance(bound, LogicalExpression)
        }
        self._budget -= 1
        if self._budget <= 0:
            raise _ChainFail("derivation step budget exhausted")
        step = output.map_leaves(lambda leaf: subtrees.get(leaf, leaf))
        self._steps.append(DerivationStep(rule.name, path, step))
        return step

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
