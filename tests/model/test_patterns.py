"""Unit tests for rule patterns and matching."""

import pytest

from repro.algebra.expressions import LogicalExpression, is_group_leaf
from repro.algebra.predicates import eq
from repro.errors import PatternError
from repro.model.patterns import (
    AnyPattern,
    OpPattern,
    match_memo,
    match_tree,
    pattern_leaves,
    validate_pattern,
)


def get(table):
    return LogicalExpression("get", (table,))


def join(left, right, predicate):
    return LogicalExpression("join", (predicate,), (left, right))


JOIN_PATTERN = OpPattern(
    "join", (AnyPattern("left"), AnyPattern("right")), args_as="predicate"
)
ASSOC_PATTERN = OpPattern(
    "join",
    (
        OpPattern("join", (AnyPattern("a"), AnyPattern("b")), args_as="p1"),
        AnyPattern("c"),
    ),
    args_as="p2",
)


def test_pattern_leaves_in_order():
    assert pattern_leaves(JOIN_PATTERN) == ("left", "right")
    assert pattern_leaves(ASSOC_PATTERN) == ("a", "b", "c")


def test_validate_rejects_duplicate_names():
    bad = OpPattern("join", (AnyPattern("x"), AnyPattern("x")))
    with pytest.raises(PatternError):
        validate_pattern(bad)


def test_validate_rejects_duplicate_args_as():
    bad = OpPattern("join", (AnyPattern("x"),), args_as="x")
    with pytest.raises(PatternError):
        validate_pattern(bad)


def test_empty_names_rejected():
    with pytest.raises(PatternError):
        AnyPattern("")
    with pytest.raises(PatternError):
        OpPattern("")


def test_match_tree_simple():
    predicate = eq("r.k", "s.k")
    tree = join(get("r"), get("s"), predicate)
    binding = match_tree(JOIN_PATTERN, tree)
    assert binding is not None
    assert binding["left"].args == ("r",)
    assert binding["right"].args == ("s",)
    assert binding["predicate"] == (predicate,)


def test_match_tree_operator_mismatch():
    assert match_tree(JOIN_PATTERN, get("r")) is None


def test_match_tree_nested():
    inner = join(get("r"), get("s"), eq("r.k", "s.k"))
    tree = join(inner, get("t"), eq("s.k", "t.k"))
    binding = match_tree(ASSOC_PATTERN, tree)
    assert binding is not None
    assert binding["a"].args == ("r",)
    assert binding["c"].args == ("t",)
    assert binding["p1"] == (eq("r.k", "s.k"),)


def test_match_tree_nested_mismatch():
    tree = join(get("r"), get("t"), eq("r.k", "t.k"))  # left input not a join
    assert match_tree(ASSOC_PATTERN, tree) is None


def make_memo_view():
    """A tiny fake memo: group id → list of (operator, args, input_groups)."""
    groups = {
        1: [("get", ("r",), ())],
        2: [("get", ("s",), ())],
        3: [
            ("join", (eq("r.k", "s.k"),), (1, 2)),
            ("join", (eq("r.k", "s.k"),), (2, 1)),  # commuted variant
        ],
        4: [("get", ("t",), ())],
    }
    return lambda gid: iter(groups[gid])


def test_match_memo_top_level():
    expressions_of = make_memo_view()
    bindings = list(
        match_memo(JOIN_PATTERN, "join", (eq("r.k", "s.k"),), (1, 2), expressions_of)
    )
    assert len(bindings) == 1
    assert is_group_leaf(bindings[0]["left"])
    assert bindings[0]["left"].args == (1,)
    assert bindings[0]["predicate"] == (eq("r.k", "s.k"),)


def test_match_memo_operator_mismatch_yields_nothing():
    expressions_of = make_memo_view()
    assert list(match_memo(JOIN_PATTERN, "get", ("r",), (), expressions_of)) == []


def test_match_memo_nested_enumerates_group_expressions():
    expressions_of = make_memo_view()
    # Top expression: join(group3, group4) — group 3 holds two join variants,
    # so the associativity pattern must yield two bindings.
    bindings = list(
        match_memo(
            ASSOC_PATTERN, "join", (eq("s.k", "t.k"),), (3, 4), expressions_of
        )
    )
    assert len(bindings) == 2
    firsts = {binding["a"].args[0] for binding in bindings}
    assert firsts == {1, 2}
    for binding in bindings:
        assert binding["c"].args == (4,)
        assert binding["p2"] == (eq("s.k", "t.k"),)


def test_match_memo_nested_requires_inner_operator():
    expressions_of = make_memo_view()
    # group 1 contains only get expressions: no associativity bindings.
    bindings = list(
        match_memo(ASSOC_PATTERN, "join", (eq(1, 1),), (1, 4), expressions_of)
    )
    assert bindings == []


def test_match_memo_binding_isolation():
    """Each yielded binding must be an independent dict."""
    expressions_of = make_memo_view()
    bindings = list(
        match_memo(
            ASSOC_PATTERN, "join", (eq("s.k", "t.k"),), (3, 4), expressions_of
        )
    )
    bindings[0]["a"] = None
    assert bindings[1]["a"] is not None
