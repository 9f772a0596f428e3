"""Static analysis of a :class:`~repro.model.spec.ModelSpecification`.

``lint_spec`` runs every check and returns a
:class:`~repro.lint.diagnostics.LintReport` without ever starting a
search.  The checks fall into six families (V0xx–V5xx); see
:mod:`repro.lint.diagnostics` for the code registry.

Rules and the cost/enforcer ADTs are opaque callables, so several checks
*probe* them: rewrite functions are invoked on synthetic bindings whose
leaves are memo-group references resolving to a generic probe relation,
cost functions on values built from the model's ``zero_cost`` type, and
enforcers on synthetic property vectors.  Probing is best-effort — a
callable that genuinely needs real catalog data fails its probe and gets
an *info* diagnostic (``V009``/``V305``/``V403``) instead of a false
error, because the corresponding contract is still enforced at run time
by the engine and by :class:`repro.lint.invariants.MemoAuditor`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra.expressions import LogicalExpression, group_leaf, is_group_leaf
from repro.algebra.predicates import TRUE
from repro.algebra.properties import (
    LogicalProperties,
    Partitioning,
    PhysProps,
)
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.statistics import ColumnStatistics
from repro.model.cost import INFINITE_COST, Cost
from repro.model.context import OptimizerContext
from repro.model.patterns import AnyPattern, OpPattern, Pattern
from repro.model.rules import TransformationRule
from repro.model.spec import VARIADIC, ModelSpecification
from repro.lint.diagnostics import LintReport
from repro.lint.rulegraph import RuleEdge, find_unguarded_cycles

__all__ = ["lint_spec", "probe_context"]


# ---------------------------------------------------------------------------
# Probe fixtures
# ---------------------------------------------------------------------------

# Synthetic relation every probed group leaf resolves to.  Generic enough
# for schema-inspecting condition code (three columns, statistics for
# selectivity estimation) without touching any catalog.
_PROBE_SCHEMA = Schema.of("c1", "c2", "c3")
_PROBE_CARDINALITY = 1000.0


def _probe_logical_props() -> LogicalProperties:
    return LogicalProperties(
        schema=_PROBE_SCHEMA,
        cardinality=_PROBE_CARDINALITY,
        column_stats={
            name: ColumnStatistics(100.0) for name in ("c1", "c2", "c3")
        },
        tables=frozenset({"probe"}),
    )


def probe_context(spec: ModelSpecification) -> OptimizerContext:
    """An optimizer context over an empty catalog whose group leaves all
    resolve to the generic probe relation."""
    context = OptimizerContext(spec, Catalog())
    context.group_props_resolver = lambda group_id: _probe_logical_props()
    return context


# Candidate argument tuples tried for every ``args_as`` binding, in
# order.  Most bundled rules carry a predicate (``(TRUE,)``), a pair of
# strings (materialize), or an empty/flag tuple.
_ARGS_CANDIDATES: Tuple[Tuple, ...] = (
    (TRUE,),
    ("probe_attr", "probe"),
    (),
    ((), ()),
    (True,),
    (False,),
)
_MAX_PROBE_COMBINATIONS = 64


def _pattern_binding_slots(pattern: Pattern) -> Tuple[List[str], List[str]]:
    """(AnyPattern leaf names, args_as names) in left-to-right order."""
    leaves: List[str] = []
    args_names: List[str] = []

    def visit(node: Pattern) -> None:
        if isinstance(node, AnyPattern):
            leaves.append(node.name)
            return
        assert isinstance(node, OpPattern)
        if node.args_as is not None:
            args_names.append(node.args_as)
        for sub in node.inputs:
            visit(sub)

    visit(pattern)
    return leaves, args_names


def _pattern_operator_nodes(pattern: Pattern) -> int:
    if isinstance(pattern, AnyPattern):
        return 0
    return 1 + sum(_pattern_operator_nodes(sub) for sub in pattern.inputs)


def _walk_operators(expression: LogicalExpression):
    """Yield every non-leaf node of an expression tree."""
    if is_group_leaf(expression):
        return
    yield expression
    for node in expression.inputs:
        yield from _walk_operators(node)


def _collect_group_leaves(expression: LogicalExpression, into: Set[int]) -> None:
    if is_group_leaf(expression):
        into.add(expression.args[0])
        return
    for node in expression.inputs:
        _collect_group_leaves(node, into)


class _RuleProbe:
    """Outcome of probing one transformation rule's rewrite."""

    def __init__(self, rule: TransformationRule):
        self.rule = rule
        self.outputs: List[LogicalExpression] = []
        self.leaf_names: List[str] = []
        self.leaf_ids: Dict[int, str] = {}
        self.succeeded = False


def _probe_rule(
    rule: TransformationRule, context: OptimizerContext
) -> _RuleProbe:
    """Invoke the rewrite on synthetic bindings, first success wins."""
    probe = _RuleProbe(rule)
    leaves, args_names = _pattern_binding_slots(rule.pattern)
    probe.leaf_names = leaves
    base = {}
    for index, name in enumerate(leaves):
        # Distinct ids let us see which bound inputs survive the rewrite.
        group_id = 1000 + index
        base[name] = group_leaf(group_id)
        probe.leaf_ids[group_id] = name

    combinations = itertools.product(
        *(range(len(_ARGS_CANDIDATES)) for _ in args_names)
    )
    for combo in itertools.islice(combinations, _MAX_PROBE_COMBINATIONS):
        binding = dict(base)
        for name, candidate in zip(args_names, combo):
            binding[name] = _ARGS_CANDIDATES[candidate]
        try:
            if not rule.applies(binding, context):
                continue
            result = rule.rewrite(binding, context)
        except Exception:
            continue
        if result is None:
            continue
        outputs = result if isinstance(result, list) else [result]
        if not all(isinstance(node, LogicalExpression) for node in outputs):
            continue
        probe.outputs = outputs
        probe.succeeded = True
        break
    return probe


# ---------------------------------------------------------------------------
# V0xx: well-formedness
# ---------------------------------------------------------------------------


def _check_spec_parts(spec: ModelSpecification, report: LintReport) -> None:
    if not spec.name:
        report.add("V005", "spec", "the specification has no name")
    if not spec.operators:
        report.add("V005", "spec", "no logical operators are declared")
    if not spec.algorithms:
        report.add("V005", "spec", "no algorithms are declared")
    if not callable(spec.zero_cost):
        report.add("V005", "spec", "zero_cost is not callable")
    if not callable(spec.props_cover):
        report.add("V005", "spec", "props_cover is not callable")


def _check_registries(spec: ModelSpecification, report: LintReport) -> None:
    for kind, registry in (
        ("operator", spec.operators),
        ("algorithm", spec.algorithms),
        ("enforcer", spec.enforcers),
    ):
        for key, definition in registry.items():
            if definition.name != key:
                report.add(
                    "V001",
                    f"{kind} {key!r}",
                    f"registered under {key!r} but named {definition.name!r}",
                )
    shared = set(spec.algorithms) & set(spec.enforcers)
    for name in sorted(shared):
        report.add(
            "V001",
            f"algorithm {name!r}",
            "the name is used by both an algorithm and an enforcer",
        )


def _check_pattern(
    pattern: Pattern,
    rule_name: str,
    kind: str,
    spec: ModelSpecification,
    report: LintReport,
) -> None:
    if isinstance(pattern, AnyPattern):
        return
    assert isinstance(pattern, OpPattern)
    subject = f"{kind} {rule_name!r}"
    operator = spec.operators.get(pattern.operator)
    if operator is None:
        report.add(
            "V002",
            subject,
            f"pattern references undeclared operator {pattern.operator!r}",
        )
    elif operator.arity is not VARIADIC and len(pattern.inputs) != operator.arity:
        report.add(
            "V003",
            subject,
            f"pattern gives {pattern.operator!r} {len(pattern.inputs)} "
            f"input(s) but its declared arity is {operator.arity}",
        )
    for sub in pattern.inputs:
        _check_pattern(sub, rule_name, kind, spec, report)


def _check_rules_wellformed(spec: ModelSpecification, report: LintReport) -> None:
    for rule in spec.transformations:
        _check_pattern(rule.pattern, rule.name, "transformation", spec, report)
        _check_promise(rule, "transformation", report)
    _check_masks(spec, report)
    for rule in spec.implementations:
        _check_pattern(rule.pattern, rule.name, "implementation", spec, report)
        _check_promise(rule, "implementation", report)
        if rule.algorithm not in spec.algorithms:
            report.add(
                "V004",
                f"implementation {rule.name!r}",
                f"targets undeclared algorithm {rule.algorithm!r}",
            )


def _check_promise(rule, kind: str, report: LintReport) -> None:
    """Promise must be a finite number: it orders move pursuit, greedy
    degradation and ``min_promise`` pruning — a NaN or infinity silently
    corrupts all three."""
    promise = rule.promise
    if (
        isinstance(promise, bool)
        or not isinstance(promise, (int, float))
        or not math.isfinite(promise)
    ):
        report.add(
            "V010",
            f"{kind} {rule.name!r}",
            f"promise is {promise!r}; expected a finite number",
        )


def _check_masks(spec: ModelSpecification, report: LintReport) -> None:
    """V011: a mask names a rule the specification lacks.  V012: masks
    are declared but no ``masks_complete`` guard lets them apply."""
    names = {rule.name for rule in spec.transformations}
    for rule in spec.transformations:
        for field_name, declared in (
            ("disables", rule.disables),
            ("inherits", rule.inherits),
        ):
            for unknown in sorted(declared - names):
                report.add(
                    "V011",
                    f"transformation {rule.name!r}",
                    f"{field_name} names unknown rule {unknown!r}",
                )
    if spec.masks_complete is None and any(
        rule.disables or rule.inherits for rule in spec.transformations
    ):
        report.add(
            "V012",
            "spec",
            "transformation rules declare masks but masks_complete is "
            "unset, so the masks never apply",
        )


def _check_rewrite_output(
    probe: _RuleProbe, spec: ModelSpecification, report: LintReport
) -> None:
    subject = f"transformation {probe.rule.name!r}"
    surviving: Set[int] = set()
    for output in probe.outputs:
        _collect_group_leaves(output, surviving)
        for node in _walk_operators(output):
            operator = spec.operators.get(node.operator)
            if operator is None:
                report.add(
                    "V007",
                    subject,
                    f"rewrite produced undeclared operator {node.operator!r}",
                )
            elif (
                operator.arity is not VARIADIC
                and len(node.inputs) != operator.arity
            ):
                report.add(
                    "V008",
                    subject,
                    f"rewrite built {node.operator!r} with {len(node.inputs)} "
                    f"input(s) but its declared arity is {operator.arity}",
                )
    for group_id, name in probe.leaf_ids.items():
        if group_id not in surviving:
            report.add(
                "V006",
                subject,
                f"rewrite output drops bound input ?{name}; rewrites should "
                "be equivalence-preserving over all bound inputs",
            )


# ---------------------------------------------------------------------------
# V1xx: coverage / closure
# ---------------------------------------------------------------------------


def _check_coverage(
    spec: ModelSpecification,
    probes: Sequence[_RuleProbe],
    report: LintReport,
) -> None:
    implementable = {rule.top_operator for rule in spec.implementations}
    # An operator is also implementable when some transformation rewrites
    # trees rooted in it into trees rooted in an implementable operator.
    # Iterate to a fixpoint over the probed rewrites.
    changed = True
    while changed:
        changed = False
        for probe in probes:
            top = probe.rule.top_operator
            if top in implementable or not probe.succeeded:
                continue
            roots = [out for out in probe.outputs if not is_group_leaf(out)]
            if roots and all(out.operator in implementable for out in roots):
                implementable.add(top)
                changed = True
    for name in sorted(spec.operators):
        if name not in implementable:
            report.add(
                "V101",
                f"operator {name!r}",
                "no implementation rule applies to it and no transformation "
                "rewrites it into an implementable operator",
            )

    targeted = {rule.algorithm for rule in spec.implementations}
    for name in sorted(spec.algorithms):
        if spec.algorithms[name].utility:
            # Planted by out-of-search passes (multi-query sharing), not
            # by implementation rules; never dead by construction.
            continue
        if name not in targeted:
            report.add(
                "V103",
                f"algorithm {name!r}",
                "no implementation rule ever produces it",
            )


def _check_enforcer_completeness(
    spec: ModelSpecification, report: LintReport
) -> None:
    producible: Set[str] = set()
    for algorithm in spec.algorithms.values():
        producible |= algorithm.delivers
    for enforcer in spec.enforcers.values():
        producible |= enforcer.provides
    for name in sorted(spec.algorithms):
        missing = spec.algorithms[name].requires - producible
        for component in sorted(missing):
            report.add(
                "V104",
                f"algorithm {name!r}",
                f"may require property component {component!r}, which no "
                "algorithm delivers and no enforcer provides",
            )


# ---------------------------------------------------------------------------
# V2xx: termination heuristics
# ---------------------------------------------------------------------------


def _check_termination(
    spec: ModelSpecification,
    probes: Sequence[_RuleProbe],
    report: LintReport,
) -> None:
    edges: List[RuleEdge] = []
    for probe in probes:
        if probe.rule.condition is not None or not probe.succeeded:
            continue
        targets: Set[str] = set()
        nodes = 0
        for output in probe.outputs:
            for node in _walk_operators(output):
                targets.add(node.operator)
                nodes += 1
        pattern_nodes = _pattern_operator_nodes(probe.rule.pattern)
        edges.append(
            RuleEdge(
                rule=probe.rule.name,
                source=probe.rule.top_operator,
                targets=tuple(sorted(targets)),
                grows=nodes > pattern_nodes,
            )
        )
    for cycle in find_unguarded_cycles(edges):
        if cycle.grows:
            report.add(
                "V201",
                "transformations",
                f"unguarded growing rewrite cycle: {cycle.describe()}; the "
                "expression space is unbounded and the search may not "
                "terminate",
            )
        else:
            report.add(
                "V202",
                "transformations",
                f"unguarded rewrite cycle: {cycle.describe()}; termination "
                "relies on the memo's duplicate detection",
            )


# ---------------------------------------------------------------------------
# V3xx: cost-model sanity
# ---------------------------------------------------------------------------


def _cost_samples(zero: Cost) -> Optional[List[Cost]]:
    samples = []
    for value in (0.0, 1.0, 2.5, 10.0):
        try:
            sample = type(zero)(value)
        except Exception:
            return None
        if not isinstance(sample, Cost):
            return None
        samples.append(sample)
    return samples


def _check_cost_model(spec: ModelSpecification, report: LintReport) -> None:
    try:
        zero = spec.zero_cost()
    except Exception as error:
        report.add("V301", "zero_cost", f"zero_cost() raised {error!r}")
        return
    if not isinstance(zero, Cost):
        report.add(
            "V301", "zero_cost", f"zero_cost() returned {type(zero).__name__}, "
            "not a Cost"
        )
        return
    try:
        neutral = zero + zero == zero and zero.total() == 0
    except Exception as error:
        report.add("V301", "zero_cost", f"probing zero cost raised {error!r}")
        return
    if not neutral:
        report.add(
            "V301",
            "zero_cost",
            "zero_cost() is not neutral: z + z != z or z.total() != 0",
        )

    samples = _cost_samples(zero)
    if samples is None:
        report.add(
            "V305",
            f"cost type {type(zero).__name__!r}",
            "not constructible from a single float; algebraic probes skipped",
        )
        return

    tolerance = 1e-9

    def close(left: float, right: float) -> bool:
        return abs(left - right) <= tolerance * max(1.0, abs(left), abs(right))

    subject = f"cost type {type(zero).__name__!r}"
    try:
        for a, b in itertools.product(samples, repeat=2):
            total = (a + b).total()
            if not close(total, a.total() + b.total()):
                report.add(
                    "V303",
                    subject,
                    f"(a + b).total() = {total} but a.total() + b.total() = "
                    f"{a.total() + b.total()}",
                )
                break
    except Exception as error:
        report.add("V303", subject, f"cost addition raised {error!r}")
    try:
        for a, b in itertools.product(samples, repeat=2):
            recovered = (a + b) - b
            if not close(recovered.total(), a.total()):
                report.add(
                    "V304",
                    subject,
                    f"((a + b) - b).total() = {recovered.total()} but "
                    f"a.total() = {a.total()}",
                )
                break
    except Exception as error:
        report.add("V304", subject, f"cost subtraction raised {error!r}")

    ordered = samples + [INFINITE_COST]
    try:
        for a, b in itertools.product(ordered, repeat=2):
            trichotomy = sum((a < b, b < a, a == b))
            if trichotomy != 1:
                report.add(
                    "V302",
                    subject,
                    f"comparison of {a!r} and {b!r} is not trichotomous",
                )
                return
        for a, b, c in itertools.product(ordered, repeat=3):
            if a <= b and b <= c and not a <= c:
                report.add(
                    "V302",
                    subject,
                    f"comparison is not transitive over {a!r}, {b!r}, {c!r}",
                )
                return
        if not samples[0] < INFINITE_COST:
            report.add(
                "V302", subject, "finite costs do not compare below INFINITE_COST"
            )
    except Exception as error:
        report.add("V302", subject, f"cost comparison raised {error!r}")


# ---------------------------------------------------------------------------
# V4xx: enforcer contracts
# ---------------------------------------------------------------------------


def _enforcer_probe_vectors(enforcer) -> List[PhysProps]:
    vectors = [
        PhysProps(sort_order=("c1",)),
        PhysProps(sort_order=("c1", "c2")),
        PhysProps(partitioning=Partitioning("hash", ("c1",), 2)),
    ]
    for component in sorted(enforcer.provides):
        if component.startswith("flag:"):
            flag_name = component[len("flag:"):]
            vectors.append(
                PhysProps(flags=frozenset({(flag_name, "probe")}))
            )
            vectors.append(
                PhysProps(flags=frozenset({(flag_name, True)}))
            )
    return vectors


def _check_enforcers(
    spec: ModelSpecification,
    context: OptimizerContext,
    report: LintReport,
) -> None:
    output_props = _probe_logical_props()
    for name in sorted(spec.enforcers):
        enforcer = spec.enforcers[name]
        subject = f"enforcer {name!r}"
        probed = False
        for required in _enforcer_probe_vectors(enforcer):
            try:
                applications = list(
                    enforcer.enforce(context, required, output_props) or ()
                )
            except Exception:
                continue
            probed = True
            for application in applications:
                try:
                    delivered_ok = spec.props_cover(
                        application.delivered, required
                    )
                except Exception:
                    delivered_ok = False
                if not delivered_ok:
                    report.add(
                        "V401",
                        subject,
                        f"asked to enforce [{required}] it delivers only "
                        f"[{application.delivered}]",
                    )
                if application.relaxed == required:
                    report.add(
                        "V402",
                        subject,
                        f"asked to enforce [{required}] it does not relax "
                        "the goal; optimizing its input would recurse forever",
                    )
        if not probed:
            report.add(
                "V403",
                subject,
                "enforce() raised on every synthetic property vector; "
                "contract checked at run time only",
            )


# ---------------------------------------------------------------------------
# V5xx: utility algorithms
# ---------------------------------------------------------------------------


def _check_utility_algorithms(
    spec: ModelSpecification, report: LintReport
) -> None:
    """Utility algorithms live outside the search.

    V501: an implementation rule targeting a utility algorithm lets the
    cost-based search build a node that an out-of-search pass
    (multi-query sharing) is supposed to own.
    """
    utilities = {
        name
        for name in spec.algorithms
        if spec.algorithms[name].utility
    }
    if not utilities:
        return
    for rule in spec.implementations:
        if rule.algorithm in utilities:
            report.add(
                "V501",
                f"implementation {rule.name!r}",
                f"targets utility algorithm {rule.algorithm!r}; utility "
                "algorithms are planted by out-of-search passes, not by "
                "the cost-based search",
            )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lint_spec(spec: ModelSpecification) -> LintReport:
    """Run every static check against ``spec``."""
    report = LintReport(spec_name=spec.name or "<unnamed>")
    _check_spec_parts(spec, report)
    _check_registries(spec, report)
    _check_rules_wellformed(spec, report)

    context = probe_context(spec)
    probes = [_probe_rule(rule, context) for rule in spec.transformations]
    for probe in probes:
        if probe.succeeded:
            _check_rewrite_output(probe, spec, report)
        else:
            report.add(
                "V009",
                f"transformation {probe.rule.name!r}",
                "rewrite/condition could not be probed with synthetic "
                "bindings; dynamic checks still apply",
            )

    _check_coverage(spec, probes, report)
    _check_enforcer_completeness(spec, report)
    _check_termination(spec, probes, report)
    _check_cost_model(spec, report)
    _check_enforcers(spec, probe_context(spec), report)
    _check_utility_algorithms(spec, report)
    return report
