"""Unit tests for transformation and implementation rules."""

import pytest

from repro.errors import RuleError
from repro.model.patterns import AnyPattern, OpPattern
from repro.model.rules import ImplementationRule, TransformationRule


def simple_pattern():
    return OpPattern("join", (AnyPattern("l"), AnyPattern("r")), args_as="p")


def test_transformation_rule_basics():
    rule = TransformationRule(
        "commute", simple_pattern(), rewrite=lambda binding, context: None
    )
    assert rule.top_operator == "join"
    assert rule.applies({}, None)  # no condition → True
    assert "commute" in str(rule)


def test_transformation_rule_condition():
    rule = TransformationRule(
        "guarded",
        simple_pattern(),
        rewrite=lambda binding, context: None,
        condition=lambda binding, context: binding.get("go", False),
    )
    assert not rule.applies({}, None)
    assert rule.applies({"go": True}, None)


def test_transformation_rule_requires_name_and_op_pattern():
    with pytest.raises(RuleError):
        TransformationRule("", simple_pattern(), lambda b, c: None)
    with pytest.raises(RuleError):
        TransformationRule("x", AnyPattern("a"), lambda b, c: None)


def test_transformation_rule_rejects_duplicate_binding_names():
    bad = OpPattern("join", (AnyPattern("x"), AnyPattern("x")))
    with pytest.raises(Exception):
        TransformationRule("dup", bad, lambda b, c: None)


def test_implementation_rule_basics():
    rule = ImplementationRule("impl", simple_pattern(), "hash_join")
    assert rule.top_operator == "join"
    assert rule.input_names == ("l", "r")
    assert "hash_join" in str(rule)


def test_implementation_rule_input_names_for_complex_mapping():
    pattern = OpPattern(
        "project",
        (OpPattern("join", (AnyPattern("a"), AnyPattern("b")), args_as="p"),),
        args_as="cols",
    )
    rule = ImplementationRule("proj_join", pattern, "join_project")
    assert rule.input_names == ("a", "b")


def test_implementation_rule_leaf_pattern_has_no_inputs():
    rule = ImplementationRule("scan", OpPattern("get", (), args_as="t"), "file_scan")
    assert rule.input_names == ()


def test_implementation_rule_validation():
    with pytest.raises(RuleError):
        ImplementationRule("", simple_pattern(), "alg")
    with pytest.raises(RuleError):
        ImplementationRule("x", simple_pattern(), "")
    with pytest.raises(RuleError):
        ImplementationRule("x", AnyPattern("a"), "alg")


def test_rule_default_promises():
    transformation = TransformationRule("t", simple_pattern(), lambda b, c: None)
    implementation = ImplementationRule("i", simple_pattern(), "alg")
    assert transformation.promise == 1.0
    assert implementation.promise == 1.0
    assert transformation.factor == 1.0
