"""Purpose-built broken model specifications for linter tests.

Each ``broken_*`` builder returns a specification with exactly one kind
of defect on top of a minimal clean base (so the expected diagnostic
code fires without drowning in unrelated noise).  The specs bypass
``ModelSpecification.validate()`` deliberately — half the point of the
linter is catching what a hand-assembled spec gets wrong before any
engine touches it.

``python -m repro.lint tests.lint.fixture_specs:broken_...`` loads these
through the CLI as well; tests assert the exit codes.
"""

from __future__ import annotations

from repro.algebra.expressions import LogicalExpression
from repro.algebra.properties import ANY_PROPS, LogicalProperties, PhysProps
from repro.catalog.schema import Schema
from repro.model.cost import Cost, ScalarCost
from repro.model.patterns import AnyPattern, OpPattern
from repro.model.rules import ImplementationRule, TransformationRule
from repro.model.spec import (
    AlgorithmDef,
    EnforcerApplication,
    EnforcerDef,
    LogicalOperatorDef,
    ModelSpecification,
)

__all__ = [
    "clean_spec",
    "broken_duplicate_names",
    "broken_unknown_pattern_operator",
    "broken_arity_mismatch",
    "broken_unknown_algorithm",
    "broken_missing_parts",
    "broken_dropped_binding",
    "broken_rewrite_unknown_operator",
    "broken_unimplementable_operator",
    "broken_enforcer_gap",
    "broken_growing_cycle",
    "broken_zero_cost",
    "broken_enforcer_overpromise",
    "broken_enforcer_no_relaxation",
    "broken_unknown_mask_rule",
    "broken_masks_without_guard",
]


# -- minimal clean base -------------------------------------------------------


def _rel_props(context, args, input_props):
    return LogicalProperties(
        schema=Schema.of("c1", "c2"), cardinality=100.0, tables=frozenset({"rel"})
    )


def _combine_props(context, args, input_props):
    left, right = input_props
    return LogicalProperties(
        schema=left.schema,
        cardinality=left.cardinality * right.cardinality * 0.01,
        tables=left.tables | right.tables,
    )


def _any_input_algorithm(name: str, arity: int, unit_cost: float) -> AlgorithmDef:
    def applicability(context, node, required):
        if not ANY_PROPS.covers(required):
            return []
        return [tuple(ANY_PROPS for _ in range(arity))]

    def cost(context, node):
        return ScalarCost(unit_cost * max(1.0, node.output.cardinality))

    def derive_props(context, node, input_props):
        return ANY_PROPS

    return AlgorithmDef(name, applicability, cost, derive_props)


def clean_spec() -> ModelSpecification:
    """The defect-free base every fixture corrupts; lints clean."""
    spec = ModelSpecification(name="fixture")
    spec.add_operator(LogicalOperatorDef("rel", 0, _rel_props))
    spec.add_operator(LogicalOperatorDef("combine", 2, _combine_props))
    spec.add_algorithm(_any_input_algorithm("scan", 0, 1.0))
    spec.add_algorithm(_any_input_algorithm("hash_combine", 2, 2.0))
    spec.add_implementation(
        ImplementationRule(
            "rel_to_scan", OpPattern("rel", (), args_as="a"), "scan"
        )
    )
    spec.add_implementation(
        ImplementationRule(
            "combine_to_hash",
            OpPattern("combine", (AnyPattern("l"), AnyPattern("r")), args_as="a"),
            "hash_combine",
        )
    )
    return spec


def _combine_pattern() -> OpPattern:
    return OpPattern("combine", (AnyPattern("l"), AnyPattern("r")), args_as="a")


# -- one defect per builder ---------------------------------------------------


def broken_duplicate_names() -> ModelSpecification:
    """V001: registry key disagrees with the definition's name."""
    spec = clean_spec()
    misfiled = _any_input_algorithm("other_name", 0, 1.0)
    spec.algorithms["filed_name"] = misfiled
    return spec


def broken_unknown_pattern_operator() -> ModelSpecification:
    """V002: a rule pattern names an undeclared operator."""
    spec = clean_spec()
    spec.transformations.append(
        TransformationRule(
            "frob",
            OpPattern("frobnicate", (AnyPattern("x"),), args_as="a"),
            lambda binding, context: binding["x"],
        )
    )
    return spec


def broken_arity_mismatch() -> ModelSpecification:
    """V003: a pattern gives a binary operator one input."""
    spec = clean_spec()
    spec.transformations.append(
        TransformationRule(
            "lopsided",
            OpPattern("combine", (AnyPattern("x"),), args_as="a"),
            lambda binding, context: binding["x"],
        )
    )
    return spec


def broken_unknown_algorithm() -> ModelSpecification:
    """V004: an implementation rule targets an undeclared algorithm."""
    spec = clean_spec()
    spec.implementations.append(
        ImplementationRule("combine_to_warp", _combine_pattern(), "warp_drive")
    )
    return spec


def broken_missing_parts() -> ModelSpecification:
    """V005: no name and no algorithms at all."""
    spec = ModelSpecification(name="")
    spec.add_operator(LogicalOperatorDef("rel", 0, _rel_props))
    return spec


def broken_dropped_binding() -> ModelSpecification:
    """V006: the rewrite silently discards a bound input."""
    spec = clean_spec()

    def rewrite(binding, context):
        # Forgets ?r entirely — not equivalence-preserving.
        return LogicalExpression("combine", ((),), (binding["l"], binding["l"]))

    spec.transformations.append(
        TransformationRule("forgetful", _combine_pattern(), rewrite)
    )
    return spec


def broken_rewrite_unknown_operator() -> ModelSpecification:
    """V007: the rewrite builds an operator nobody declared."""
    spec = clean_spec()

    def rewrite(binding, context):
        return LogicalExpression("mystery", (), (binding["l"], binding["r"]))

    spec.transformations.append(
        TransformationRule("mysterious", _combine_pattern(), rewrite)
    )
    return spec


def broken_unimplementable_operator() -> ModelSpecification:
    """V101: an operator no rule implements or rewrites away."""
    spec = clean_spec()
    spec.add_operator(LogicalOperatorDef("orphan", 1, _rel_props))
    return spec


def broken_enforcer_gap() -> ModelSpecification:
    """V104: an algorithm requires a component nothing can produce."""
    spec = clean_spec()
    needy = _any_input_algorithm("merge_combine", 2, 1.5)
    needy.requires = frozenset({"sort"})
    spec.add_algorithm(needy)
    spec.add_implementation(
        ImplementationRule("combine_to_merge", _combine_pattern(), "merge_combine")
    )
    return spec


def broken_growing_cycle() -> ModelSpecification:
    """V201: an unguarded rule that strictly grows the expression."""
    spec = clean_spec()

    def rewrite(binding, context):
        inner = LogicalExpression(
            "combine", ((),), (binding["l"], binding["r"])
        )
        return LogicalExpression("combine", ((),), (inner, binding["r"]))

    spec.transformations.append(
        TransformationRule("inflate", _combine_pattern(), rewrite)
    )
    return spec


class _BrokenZeroCost(Cost):
    """z + z != z: accumulates a constant on every addition."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def total(self) -> float:
        return self.value

    def __add__(self, other):
        if other.is_infinite:
            return other
        return _BrokenZeroCost(self.value + other.total() + 1.0)

    def __sub__(self, other):
        return _BrokenZeroCost(self.value - other.total())

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"_BrokenZeroCost({self.value})"


def broken_zero_cost() -> ModelSpecification:
    """V301: the zero cost is not a neutral element."""
    spec = clean_spec()
    spec.zero_cost = _BrokenZeroCost
    return spec


def _enforcer_base(name: str, enforce) -> EnforcerDef:
    def cost(context, node):
        return ScalarCost(node.inputs[0].cardinality)

    return EnforcerDef(name, enforce, cost, provides=frozenset({"sort"}))


def broken_enforcer_overpromise() -> ModelSpecification:
    """V401: delivered properties do not cover what was required."""

    def enforce(context, required, output_props):
        if not required.sort_order:
            return []
        return [
            EnforcerApplication(
                args=(),
                delivered=ANY_PROPS,  # claims success, delivers nothing
                relaxed=required.without_sort(),
                excluded=required.only_sort(),
            )
        ]

    spec = clean_spec()
    spec.add_enforcer(_enforcer_base("bad_sort", enforce))
    return spec


def broken_enforcer_no_relaxation() -> ModelSpecification:
    """V402: the relaxed goal equals the original — infinite regress."""

    def enforce(context, required, output_props):
        if not required.sort_order:
            return []
        return [
            EnforcerApplication(
                args=(),
                delivered=required,
                relaxed=required,  # nothing removed: recurses forever
                excluded=PhysProps(),
            )
        ]

    spec = clean_spec()
    spec.add_enforcer(_enforcer_base("lazy_sort", enforce))
    return spec


def _commute_rule(**masks) -> TransformationRule:
    def rewrite(binding, context):
        return LogicalExpression("combine", binding["a"], (binding["r"], binding["l"]))

    return TransformationRule("commute", _combine_pattern(), rewrite, **masks)


def broken_unknown_mask_rule() -> ModelSpecification:
    """V011: a rule's mask names a rule nobody declared."""
    spec = clean_spec()
    spec.transformations.append(_commute_rule(disables={"comute"}))
    spec.masks_complete = lambda context, queries: True
    return spec


def broken_masks_without_guard() -> ModelSpecification:
    """V012: masks are declared, but no guard ever lets them apply."""
    spec = clean_spec()
    spec.transformations.append(_commute_rule(disables={"commute"}))
    return spec


def broken_nonfinite_promise() -> ModelSpecification:
    """V010: an implementation rule's promise is NaN."""
    spec = clean_spec()
    spec.implementations.append(
        ImplementationRule(
            "combine_to_nan",
            _combine_pattern(),
            "hash_combine",
            promise=float("nan"),
        )
    )
    return spec
