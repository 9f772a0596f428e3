"""The compiled memo matcher yields exactly what the recursive one did.

:func:`~repro.model.patterns.match_memo` walks each pattern's compiled
plan.  Over hypothesis-built memos, it must yield the bindings of the
recursive reference (``tests/model/recursive_matcher.py``) with the same
keys in the same order, in the same sequence — the engine fingerprints a
binding by its items, so key order is part of the contract — and read
the memo as lazily, so a rule fired mid-enumeration is seen by both at
the same point.  The generated kernels' matchers must agree too: they
are the kernel tier's copy of the same binding order.
"""

import importlib
import types

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.generator.kernel import generate_kernel_source
from repro.model.patterns import AnyPattern, OpPattern, match_memo

from tests.model.recursive_matcher import reference_match_memo

MODELS = {
    "relational": ("repro.models.relational", "relational_model"),
    "aggregates": ("repro.models.aggregates", "aggregate_model"),
    "oodb": ("repro.models.oodb", "oodb_model"),
    "parallel": ("repro.models.parallel", "parallel_relational_model"),
    "setops": ("repro.models.setops", "setops_model"),
}

# Beyond the bundled rules (at most two deep, one nested input): a
# three-deep pattern, one with two nested inputs, and one whose nested
# input follows a leaf.
THREE_DEEP = OpPattern(
    "join",
    (
        OpPattern(
            "join",
            (OpPattern("select", (AnyPattern("x"),), args_as="ps"), AnyPattern("b")),
            args_as="p1",
        ),
        AnyPattern("c"),
    ),
    args_as="p2",
)
TWO_NESTED = OpPattern(
    "join",
    (
        OpPattern("select", (AnyPattern("a"),), args_as="pa"),
        OpPattern("join", (AnyPattern("l"), AnyPattern("r")), args_as="pj"),
    ),
    args_as="p",
)
LEAF_THEN_NESTED = OpPattern(
    "union",
    (AnyPattern("left"), OpPattern("get", (), args_as="t")),
)
EXTRA_PATTERNS = (THREE_DEEP, TWO_NESTED, LEAF_THEN_NESTED)

# Operators with their usual arity; a drawn expression sometimes gets
# another arity, which every matcher must reject.
ARITY = {
    "join": 2,
    "union": 2,
    "intersect": 2,
    "except": 2,
    "select": 1,
    "project": 1,
    "materialize": 1,
    "aggregate": 1,
    "get": 0,
    "other": 1,
}


def load_spec(name):
    module_name, attribute = MODELS[name]
    return getattr(importlib.import_module(module_name), attribute)()


SPECS = {name: load_spec(name) for name in MODELS}
RULES = [
    (name, rule)
    for name, spec in SPECS.items()
    for rule in tuple(spec.transformations) + tuple(spec.implementations)
]


def kernel_matchers(spec):
    """The generated kernel's matchers by rule name, built in memory."""
    module = types.ModuleType(f"kernel_{spec.name}")
    exec(compile(generate_kernel_source(spec), module.__name__, "exec"), module.__dict__)
    rows = module.TRANSFORMATION_MATCHERS + module.IMPLEMENTATION_MATCHERS
    return {name: matcher for name, _top, _rendered, matcher in rows}


KERNELS = {name: kernel_matchers(spec) for name, spec in SPECS.items()}


@st.composite
def expressions(draw, group_count):
    # Joins half the time: most nested bundled patterns are joins.
    operator = draw(st.one_of(st.just("join"), st.sampled_from(sorted(ARITY))))
    arity = draw(st.one_of(st.just(ARITY[operator]), st.integers(0, 2)))
    args = (draw(st.integers(0, 3)),)
    inputs = tuple(draw(st.integers(0, group_count - 1)) for _ in range(arity))
    return (operator, args, inputs)


@st.composite
def memos(draw):
    """A memo view: group id -> its member ``(operator, args, inputs)`` list."""
    group_count = draw(st.integers(1, 5))
    return {
        gid: draw(st.lists(expressions(group_count), min_size=1, max_size=4))
        for gid in range(group_count)
    }


def view(groups):
    """An ``expressions_of`` callback reading the live member lists."""

    def expressions_of(gid):
        for member in groups[gid]:
            yield member

    return expressions_of


def items(bindings):
    return [list(binding.items()) for binding in bindings]


def all_patterns():
    return [rule.pattern for _, rule in RULES] + list(EXTRA_PATTERNS)


def nested_patterns():
    """The patterns that read input groups (the others never loop)."""
    return [
        pattern
        for pattern in all_patterns()
        if any(isinstance(node, OpPattern) for node in pattern.inputs)
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups=memos())
def test_compiled_matcher_equals_recursive_reference(groups):
    expressions_of = view(groups)
    for pattern in all_patterns():
        for members in groups.values():
            for operator, args, inputs in members:
                compiled = items(match_memo(pattern, operator, args, inputs, expressions_of))
                reference = items(
                    reference_match_memo(pattern, operator, args, inputs, expressions_of)
                )
                assert compiled == reference, str(pattern)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups=memos())
def test_kernel_matchers_equal_compiled_matcher(groups):
    expressions_of = view(groups)
    for model, rule in RULES:
        matcher = KERNELS[model][rule.name]
        for members in groups.values():
            for operator, args, inputs in members:
                if operator != rule.top_operator:
                    continue  # the kernel's dispatch table is keyed on it
                compiled = items(
                    match_memo(rule.pattern, operator, args, inputs, expressions_of)
                )
                assert items(matcher(args, inputs, expressions_of)) == compiled, rule.name


@st.composite
def growing_memos(draw):
    """A memo plus members appended after given bindings are consumed.

    A grown member is a new expression or a copy of one of its group's
    members — a copy matches wherever the original did, so a matcher
    that read a group eagerly misses it.
    """
    groups = draw(memos())
    growth = []
    for _ in range(draw(st.integers(0, 4))):
        gid = draw(st.integers(0, len(groups) - 1))
        member = draw(
            st.one_of(st.sampled_from(groups[gid]), expressions(len(groups)))
        )
        growth.append((draw(st.integers(1, 6)), gid, member))
    return groups, growth


def consume(matcher, groups, growth):
    """Drain ``matcher(groups)``, growing the memo as bindings arrive."""
    groups = {gid: list(members) for gid, members in groups.items()}
    seen = []
    for binding in matcher(view(groups)):
        seen.append(list(binding.items()))
        for after, gid, member in growth:
            if after == len(seen):
                groups[gid].append(member)
    return seen


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=growing_memos(), pattern=st.sampled_from(nested_patterns()))
def test_matchers_read_the_memo_equally_lazily(case, pattern):
    """Members added mid-enumeration are seen at the same point by both."""
    groups, growth = case
    tops = [member for members in groups.values() for member in members]
    for operator, args, inputs in tops:
        compiled = consume(
            lambda of: match_memo(pattern, operator, args, inputs, of), groups, growth
        )
        reference = consume(
            lambda of: reference_match_memo(pattern, operator, args, inputs, of),
            groups,
            growth,
        )
        assert compiled == reference


def test_member_added_mid_enumeration_is_matched():
    """The engine fires rules mid-enumeration: later loops must see it."""
    groups = {
        0: [("get", ("r",), ())],
        1: [("join", ("p1",), (0, 0))],
    }
    expressions_of = view(groups)
    (pattern,) = [
        rule.pattern
        for rule in SPECS["relational"].transformations
        if rule.name == "join_associate"
    ]
    seen = []
    for binding in match_memo(pattern, "join", ("p2",), (1, 0), expressions_of):
        seen.append(binding["p1"])
        if len(seen) == 1:
            groups[1].append(("join", ("p3",), (0, 0)))
    assert seen == [("p1",), ("p3",)]


@pytest.mark.parametrize("pattern", EXTRA_PATTERNS, ids=str)
def test_deep_patterns_enumerate_every_combination(pattern):
    """Each nested loop runs over its whole group, innermost fastest."""
    groups = {
        0: [("get", ("r",), ())],
        1: [("select", ("s1",), (0,)), ("select", ("s2",), (0,))],
        2: [("join", ("j1",), (1, 0)), ("join", ("j2",), (1, 0))],
        3: [("get", ("t1",), ()), ("get", ("t2",), ())],
    }
    # (top operator, top inputs, bindings): 2 x 2, 2 x 2 and 2.
    operator, inputs, count = {
        THREE_DEEP: ("join", (2, 0), 4),
        TWO_NESTED: ("join", (1, 2), 4),
        LEAF_THEN_NESTED: ("union", (0, 3), 2),
    }[pattern]
    bindings = list(match_memo(pattern, operator, ("top",), inputs, view(groups)))
    assert len(bindings) == count
    assert items(bindings) == items(
        reference_match_memo(pattern, operator, ("top",), inputs, view(groups))
    )
