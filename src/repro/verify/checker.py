"""The independent plan verifier: ``verify_plan``.

Given only the model specification, the input expression, the plan, and
its :class:`~repro.verify.certificate.PlanCertificate`, re-check every
claim the optimizer made — no memo, no engine state:

* **P0xx** — the certificate is well-formed and aligned with the plan;
* **P1xx / P401 / P404** — the transformation chain replays: every step
  is a lawful rule application, and the endpoint is exactly the
  recorded logical frontier (degraded plans without a chain fall back
  to the :mod:`~repro.verify.normalize` normal form — they still run
  every other check, never verifying vacuously);
* **P402 / P403** — the frontier *corresponds* to the plan: walking
  both in lockstep, every algorithm node is produced by its claimed
  implementation rule from the frontier subtree (pattern match,
  condition, arguments), enforcers and ``materialize`` pass the
  frontier through, and every ``scan_intermediate`` resolves to a
  materialized intermediate the certificate defines;
* **P2xx** — re-running ``derive_props`` reproduces each node's
  physical properties, enforcer applications honor their contracts,
  and the root covers the required goal;
* **P3xx** — re-invoking the cost ADT over the claimed logical
  properties reproduces every local cost *exactly*, cumulative costs
  re-add to every node's recorded cost in plan order, and the root
  equals the claimed total.

All P-codes are errors; a plan verifies iff its report is empty.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.lint.diagnostics import LintReport
from repro.model.patterns import match_tree
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.verify.certificate import (
    CERTIFICATE_KINDS,
    KIND_DEGRADED,
    NodeClaim,
    PlanCertificate,
)
from repro.verify.normalize import equivalent

__all__ = ["VerifyReport", "verify_plan"]

# The sharing pass's utility algorithms, by convention shared across the
# bundled models.  The checker treats them structurally (frontier
# passthrough / intermediate reference) but still reproduces their costs
# from the model's own definitions.
_MATERIALIZE = "materialize"
_SCAN_INTERMEDIATE = "scan_intermediate"


class VerifyReport(LintReport):
    """A :class:`~repro.lint.diagnostics.LintReport` over P-codes.

    Every P-code is an error, so :attr:`ok` is simply "no diagnostics".
    """

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _subtree_at(
    tree: LogicalExpression, path: Sequence[int]
) -> Optional[LogicalExpression]:
    node = tree
    for index in path:
        if not isinstance(index, int) or index < 0 or index >= len(node.inputs):
            return None
        node = node.inputs[index]
    return node


def _replace_at(
    tree: LogicalExpression, path: Sequence[int], after: LogicalExpression
) -> LogicalExpression:
    if not path:
        return after
    children = list(tree.inputs)
    children[path[0]] = _replace_at(tree.inputs[path[0]], path[1:], after)
    return tree.with_inputs(tuple(children))


class _Checker:
    def __init__(
        self,
        spec: ModelSpecification,
        report: VerifyReport,
        catalog: Optional[Union[Catalog, CatalogSnapshot]],
        estimator,
    ):
        from repro.model.context import OptimizerContext

        self.spec = spec
        self.report = report
        self.have_catalog = catalog is not None
        self.context = OptimizerContext(
            spec, catalog if catalog is not None else Catalog(), estimator
        )
        self.transformations = {rule.name: rule for rule in spec.transformations}
        self.implementations = {rule.name: rule for rule in spec.implementations}
        self.certificate: Optional[PlanCertificate] = None
        self.claims: tuple = ()
        self.index = 0

    # -- P0xx: shape ---------------------------------------------------------

    def check_shape(
        self,
        query: LogicalExpression,
        plan: PhysicalPlan,
        certificate: Optional[PlanCertificate],
    ) -> bool:
        if not isinstance(certificate, PlanCertificate):
            self.report.add(
                "P001",
                "certificate",
                "no certificate attached"
                if certificate is None
                else f"expected a PlanCertificate, got {type(certificate).__name__}",
            )
            return False
        if certificate.kind not in CERTIFICATE_KINDS:
            self.report.add(
                "P001", "certificate", f"unknown certificate kind {certificate.kind!r}"
            )
            return False
        if not all(isinstance(claim, NodeClaim) for claim in certificate.claims):
            self.report.add("P001", "certificate", "claims are not NodeClaim objects")
            return False
        if certificate.source != query:
            self.report.add(
                "P003",
                "certificate",
                "the certificate's source expression is not the query being verified",
            )
        node_count = sum(1 for _ in plan.walk())
        if node_count != len(certificate.claims):
            self.report.add(
                "P002",
                "certificate",
                f"the plan has {node_count} node(s) but the certificate "
                f"carries {len(certificate.claims)} claim(s)",
            )
            return False
        self.certificate = certificate
        self.claims = certificate.claims
        return True

    # -- P1xx / P401 / P404: the derivation chain ----------------------------

    def check_chain(self, certificate: PlanCertificate) -> None:
        endpoint = self._replay_chain(certificate)
        if endpoint is None:
            return  # a step was unlawful; P1xx already recorded
        if endpoint == certificate.frontier:
            return  # equivalence proven by replay
        if certificate.kind == KIND_DEGRADED and not certificate.steps:
            # A budget-tripped plan may legitimately carry no chain; the
            # normalizer must then prove the frontier equivalent.
            if not equivalent(certificate.source, certificate.frontier):
                self.report.add(
                    "P404",
                    "certificate",
                    "degraded certificate has no derivation chain and the "
                    "frontier does not share the source's normal form",
                )
            return
        self.report.add(
            "P401",
            "certificate",
            f"replaying {len(certificate.steps)} step(s) from the source "
            "does not produce the recorded frontier",
        )

    def _replay_chain(
        self, certificate: PlanCertificate
    ) -> Optional[LogicalExpression]:
        current = certificate.source
        for number, step in enumerate(certificate.steps):
            subject = f"step {number} ({step.rule})"
            rule = self.transformations.get(step.rule)
            if rule is None:
                self.report.add(
                    "P101", subject, "not a transformation rule of this model"
                )
                return None
            target = _subtree_at(current, step.path)
            if target is None:
                self.report.add(
                    "P102",
                    subject,
                    f"path {tuple(step.path)} does not address a subtree",
                )
                return None
            binding = match_tree(rule.pattern, target)
            if binding is None:
                self.report.add(
                    "P102",
                    subject,
                    f"the rule's pattern does not match the subtree at "
                    f"{tuple(step.path)}",
                )
                return None
            try:
                if not rule.applies(binding, self.context):
                    self.report.add(
                        "P103", subject, "the rule's condition rejects the binding"
                    )
                    return None
                result = rule.rewrite(binding, self.context)
            except Exception as error:
                self.report.add(
                    "P103", subject, f"condition/rewrite raised {error!r}"
                )
                return None
            outputs = (
                [] if result is None else result if isinstance(result, list) else [result]
            )
            if not any(step.after == output for output in outputs):
                self.report.add(
                    "P104",
                    subject,
                    "the step's after-expression is not among the rule's "
                    "rewrite outputs for this binding",
                )
                return None
            current = _replace_at(current, step.path, step.after)
        return current

    # -- the lockstep plan/frontier walk -------------------------------------

    def check_plan(self, plan: PhysicalPlan, certificate: PlanCertificate) -> None:
        self.index = 0
        self._walk(plan, certificate.frontier)
        if plan.cost != certificate.claimed_cost:
            self.report.add(
                "P302",
                "plan root",
                f"plan cost {plan.cost} does not equal the certificate's "
                f"claimed cost {certificate.claimed_cost}",
            )
        try:
            covers = self.spec.props_cover(plan.properties, certificate.required)
        except Exception:
            covers = False
        if not covers:
            self.report.add(
                "P204",
                "plan root",
                f"delivered properties [{plan.properties}] do not cover the "
                f"required goal [{certificate.required}]",
            )

    def _walk(
        self, node: PhysicalPlan, frontier: Optional[LogicalExpression]
    ) -> None:
        claim = self.claims[self.index]
        subject = f"node {self.index} ({node.algorithm})"
        self.index += 1
        if claim.algorithm != node.algorithm:
            self.report.add(
                "P002",
                subject,
                f"the pre-order claim names {claim.algorithm!r}, not the "
                f"plan node's {node.algorithm!r}",
            )
            child_frontiers: List[Optional[LogicalExpression]] = [None] * len(
                node.inputs
            )
        elif node.is_enforcer or claim.enforcer:
            self._check_enforcer(node, claim, subject)
            child_frontiers = [frontier] * len(node.inputs)
        elif node.algorithm == _MATERIALIZE and claim.rule is None:
            self._check_utility_cost(node, claim, subject)
            if len(node.inputs) != 1:
                self.report.add(
                    "P402", subject, "materialize must have exactly one input"
                )
            child_frontiers = [frontier] * len(node.inputs)
        elif node.algorithm == _SCAN_INTERMEDIATE and claim.rule is None:
            self._check_scan(node, claim, frontier, subject)
            child_frontiers = []
        else:
            child_frontiers = self._check_algorithm(node, claim, frontier, subject)

        # P301: the cumulative cost re-adds exactly, in plan order.
        if node.cost is None or claim.local is None:
            self.report.add("P301", subject, "the node or its claim has no cost")
        else:
            total = claim.local
            broken = False
            for child in node.inputs:
                if child.cost is None:
                    broken = True
                    break
                total = total + child.cost
            if broken or node.cost != total:
                self.report.add(
                    "P301",
                    subject,
                    f"recorded cost {node.cost} != claimed local {claim.local} "
                    "plus the inputs' recorded costs",
                )

        self._check_logical_claim(node, claim, frontier, subject)
        for child, sub in zip(node.inputs, child_frontiers):
            self._walk(child, sub)

    # -- per-node checks ------------------------------------------------------

    def _check_algorithm(
        self,
        node: PhysicalPlan,
        claim: NodeClaim,
        frontier: Optional[LogicalExpression],
        subject: str,
    ) -> List[Optional[LogicalExpression]]:
        blanks: List[Optional[LogicalExpression]] = [None] * len(node.inputs)
        algorithm = self.spec.algorithms.get(node.algorithm)
        if algorithm is None:
            self.report.add(
                "P201", subject, "not an algorithm of this model specification"
            )
            return blanks
        cnode = AlgorithmNode(node.args, claim.output, claim.inputs)
        self._check_local_term(algorithm, cnode, claim, subject)
        try:
            delivered = algorithm.derive_props(
                self.context, cnode, tuple(child.properties for child in node.inputs)
            )
        except Exception as error:
            delivered = None
            self.report.add("P202", subject, f"derive_props raised {error!r}")
        if delivered is not None and delivered != node.properties:
            self.report.add(
                "P202",
                subject,
                f"derive_props yields [{delivered}] but the node records "
                f"[{node.properties}]",
            )
        if frontier is None:
            return blanks
        if claim.rule is None:
            self.report.add(
                "P402", subject, "no implementation rule claimed for the node"
            )
            return blanks
        rule = self.implementations.get(claim.rule)
        if rule is None:
            self.report.add(
                "P402", subject, f"claimed rule {claim.rule!r} is not an "
                "implementation rule of this model",
            )
            return blanks
        if rule.algorithm != node.algorithm:
            self.report.add(
                "P402",
                subject,
                f"rule {rule.name!r} produces {rule.algorithm!r}, not "
                f"{node.algorithm!r}",
            )
            return blanks
        binding = match_tree(rule.pattern, frontier)
        if binding is None:
            self.report.add(
                "P402",
                subject,
                f"rule {rule.name!r} does not match the frontier subtree "
                f"{frontier.to_sexpr()}",
            )
            return blanks
        try:
            applies = rule.applies(binding, self.context)
        except Exception as error:
            applies = False
            self.report.add("P402", subject, f"rule condition raised {error!r}")
        if not applies:
            self.report.add(
                "P402", subject, f"rule {rule.name!r} condition rejects the "
                "frontier subtree",
            )
        try:
            expected_args = (
                tuple(rule.build_args(binding, self.context))
                if rule.build_args is not None
                else frontier.args
            )
        except Exception as error:
            expected_args = None
            self.report.add("P402", subject, f"build_args raised {error!r}")
        if expected_args is not None and expected_args != node.args:
            self.report.add(
                "P402",
                subject,
                f"rule {rule.name!r} yields arguments {expected_args!r}, "
                f"the node carries {node.args!r}",
            )
        leaf_subtrees = [binding.get(name) for name in rule.input_names]
        if len(leaf_subtrees) != len(node.inputs):
            self.report.add(
                "P402",
                subject,
                f"rule {rule.name!r} supplies {len(leaf_subtrees)} input(s) "
                f"but the node has {len(node.inputs)}",
            )
            return blanks
        return leaf_subtrees

    def _check_enforcer(
        self, node: PhysicalPlan, claim: NodeClaim, subject: str
    ) -> None:
        enforcer = self.spec.enforcers.get(node.algorithm)
        if enforcer is None:
            self.report.add(
                "P201", subject, "not an enforcer of this model specification"
            )
            return
        if len(node.inputs) != 1:
            self.report.add(
                "P402", subject, "an enforcer node must have exactly one input"
            )
        if claim.required is None:
            self.report.add(
                "P203", subject, "the claim records no goal for the enforcer"
            )
            return
        try:
            applications = self.spec.enforcer_applications(
                node.algorithm, self.context, claim.required, claim.output
            )
        except Exception as error:
            self.report.add(
                "P203", subject, f"enforcer_applications raised {error!r}"
            )
            return
        application = next(
            (app for app in applications if tuple(app.args) == node.args), None
        )
        if application is None:
            self.report.add(
                "P203",
                subject,
                f"the enforcer offers no application with arguments "
                f"{node.args!r} for goal [{claim.required}]",
            )
        else:
            if application.delivered != node.properties:
                self.report.add(
                    "P203",
                    subject,
                    f"the application delivers [{application.delivered}] but "
                    f"the node records [{node.properties}]",
                )
            if node.inputs and not self.spec.props_cover(
                node.inputs[0].properties, application.relaxed
            ):
                self.report.add(
                    "P203",
                    subject,
                    f"the input's properties [{node.inputs[0].properties}] do "
                    f"not satisfy the relaxed goal [{application.relaxed}]",
                )
        cnode = AlgorithmNode(node.args, claim.output, claim.inputs)
        self._check_local_term(enforcer, cnode, claim, subject)

    def _check_utility_cost(
        self, node: PhysicalPlan, claim: NodeClaim, subject: str
    ) -> None:
        algorithm = self.spec.algorithms.get(node.algorithm)
        if algorithm is None:
            self.report.add(
                "P201", subject, "not an algorithm of this model specification"
            )
            return
        cnode = AlgorithmNode(node.args, claim.output, claim.inputs)
        self._check_local_term(algorithm, cnode, claim, subject)

    def _check_scan(
        self,
        node: PhysicalPlan,
        claim: NodeClaim,
        frontier: Optional[LogicalExpression],
        subject: str,
    ) -> None:
        assert self.certificate is not None
        name = node.args[0] if node.args else None
        expected = (
            self.certificate.intermediates.get(name) if name is not None else None
        )
        if expected is None:
            self.report.add(
                "P403",
                subject,
                f"references intermediate {name!r}, which the certificate "
                "does not define",
            )
        elif frontier is not None and expected != frontier:
            self.report.add(
                "P402",
                subject,
                f"intermediate {name!r} materializes {expected.to_sexpr()} "
                f"but the plan scans it where {frontier.to_sexpr()} is needed",
            )
        self._check_utility_cost(node, claim, subject)

    def _check_local_term(
        self, definition, cnode: AlgorithmNode, claim: NodeClaim, subject: str
    ) -> None:
        if not self.have_catalog:
            return  # scan cost functions consult catalog statistics
        try:
            local = definition.cost(self.context, cnode)
        except Exception as error:
            self.report.add("P303", subject, f"cost function raised {error!r}")
            return
        if local != claim.local:
            self.report.add(
                "P303",
                subject,
                f"the cost ADT reproduces {local}, the claim says {claim.local}",
            )

    def _check_logical_claim(
        self,
        node: PhysicalPlan,
        claim: NodeClaim,
        frontier: Optional[LogicalExpression],
        subject: str,
    ) -> None:
        if not self.have_catalog:
            return
        if claim.rule is None and node.algorithm in (
            _MATERIALIZE,
            _SCAN_INTERMEDIATE,
        ):
            # Sharing's utility nodes are costed over the properties
            # their subplan's node carries, which may differ from a
            # derivation over the frontier (schema column order, last
            # bits); their costs are still reproduced exactly (P303)
            # over the claimed properties.
            return
        target = frontier
        if target is None:
            return
        try:
            derived = self.context.logical_props(target)
        except Exception:
            return  # the catalog cannot derive this subtree independently
        if not derived.consistent_with(claim.output):
            self.report.add(
                "P205",
                subject,
                f"claimed logical properties [{claim.output}] disagree with "
                f"the independent derivation [{derived}]",
            )


def verify_plan(
    spec: ModelSpecification,
    query: LogicalExpression,
    plan: PhysicalPlan,
    certificate: Optional[PlanCertificate],
    *,
    catalog: Optional[Union[Catalog, CatalogSnapshot]] = None,
    estimator=None,
) -> VerifyReport:
    """Independently re-check a plan's provenance certificate.

    Returns a :class:`VerifyReport`; ``report.ok`` is True iff every
    check passed.  ``catalog`` enables the independent logical-property
    derivation (P205), exact local-cost reproduction (P303), and any
    rule conditions that consult statistics; without one those checks
    are skipped (everything else still runs).
    """
    report = VerifyReport(spec_name=f"{spec.name or '<unnamed>'} plan")
    checker = _Checker(spec, report, catalog, estimator)
    if not checker.check_shape(query, plan, certificate):
        return report
    assert certificate is not None
    checker.check_chain(certificate)
    checker.check_plan(plan, certificate)
    return report
