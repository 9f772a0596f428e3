"""Every lint check fires on its purpose-built broken fixture."""

import pytest

from repro.lint import Severity, lint_spec

from tests.lint import fixture_specs

EXPECTED = [
    ("broken_duplicate_names", "V001"),
    ("broken_unknown_pattern_operator", "V002"),
    ("broken_arity_mismatch", "V003"),
    ("broken_unknown_algorithm", "V004"),
    ("broken_missing_parts", "V005"),
    ("broken_dropped_binding", "V006"),
    ("broken_rewrite_unknown_operator", "V007"),
    ("broken_nonfinite_promise", "V010"),
    ("broken_unknown_mask_rule", "V011"),
    ("broken_masks_without_guard", "V012"),
    ("broken_unimplementable_operator", "V101"),
    ("broken_enforcer_gap", "V104"),
    ("broken_growing_cycle", "V201"),
    ("broken_zero_cost", "V301"),
    ("broken_enforcer_overpromise", "V401"),
    ("broken_enforcer_no_relaxation", "V402"),
]


def test_clean_base_spec_has_no_diagnostics():
    assert lint_spec(fixture_specs.clean_spec()).codes() == ()


@pytest.mark.parametrize("builder_name,code", EXPECTED)
def test_broken_spec_fires_expected_code(builder_name, code):
    spec = getattr(fixture_specs, builder_name)()
    report = lint_spec(spec)
    assert code in report.codes(), (
        f"{builder_name} should raise {code}, got {report.codes()}"
    )


@pytest.mark.parametrize(
    "builder_name,code",
    [(name, code) for name, code in EXPECTED if not code.startswith("V2")
     and code not in ("V006", "V012")],
)
def test_error_fixtures_fail_without_strict(builder_name, code):
    spec = getattr(fixture_specs, builder_name)()
    assert lint_spec(spec).fails(strict=False)


def test_warning_fixtures_fail_only_under_strict():
    for builder_name in (
        "broken_dropped_binding",
        "broken_growing_cycle",
        "broken_masks_without_guard",
    ):
        report = lint_spec(getattr(fixture_specs, builder_name)())
        assert report.worst() == Severity.WARNING
        assert not report.fails(strict=False)
        assert report.fails(strict=True)


def test_dead_algorithm_is_a_warning():
    spec = fixture_specs.clean_spec()
    spec.add_algorithm(fixture_specs._any_input_algorithm("unused", 2, 9.0))
    report = lint_spec(spec)
    assert "V103" in report.codes()
    assert report.worst() == Severity.WARNING


def test_operator_implemented_through_rewrite_is_not_flagged():
    # An operator with no implementation rule of its own is fine when a
    # probeable transformation rewrites it into an implementable one.
    from repro.algebra.expressions import LogicalExpression
    from repro.model.patterns import AnyPattern, OpPattern
    from repro.model.rules import TransformationRule
    from repro.model.spec import LogicalOperatorDef

    spec = fixture_specs.clean_spec()
    spec.add_operator(
        LogicalOperatorDef("alias", 2, fixture_specs._combine_props)
    )
    spec.add_transformation(
        TransformationRule(
            "alias_to_combine",
            OpPattern("alias", (AnyPattern("l"), AnyPattern("r")), args_as="a"),
            lambda binding, context: LogicalExpression(
                "combine", ((),), (binding["l"], binding["r"])
            ),
        )
    )
    report = lint_spec(spec)
    assert "V101" not in report.codes()
