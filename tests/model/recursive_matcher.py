"""The recursive memo matcher, kept as a test-only reference.

:func:`repro.model.patterns.match_memo` walks a compiled plan; this is
the recursive generator it replaced, kept verbatim in behaviour so the
tests can check that the two yield the same bindings, with the same key
order, in the same order, over the same lazily read groups.
"""

from repro.algebra.expressions import group_leaf
from repro.model.patterns import AnyPattern


def reference_match_memo(pattern, operator, args, input_groups, expressions_of):
    """Bindings of ``pattern`` on one memo expression, by recursion."""
    if pattern.operator != operator or len(pattern.inputs) != len(input_groups):
        return
    base = {}
    if pattern.args_as is not None:
        base[pattern.args_as] = args
    yield from _reference_inputs(pattern.inputs, input_groups, base, expressions_of)


def _reference_inputs(patterns, groups, binding, expressions_of):
    if not patterns:
        yield dict(binding)
        return
    head, rest_patterns = patterns[0], patterns[1:]
    head_group, rest_groups = groups[0], groups[1:]
    if isinstance(head, AnyPattern):
        binding[head.name] = group_leaf(head_group)
        yield from _reference_inputs(rest_patterns, rest_groups, binding, expressions_of)
        del binding[head.name]
        return
    # OpPattern one level down: try every expression of the input group.
    for operator, args, input_groups in expressions_of(head_group):
        if head.operator != operator or len(head.inputs) != len(input_groups):
            continue
        added = []
        if head.args_as is not None:
            binding[head.args_as] = args
            added.append(head.args_as)
        for sub_binding in _reference_inputs(
            head.inputs, input_groups, binding, expressions_of
        ):
            # sub_binding is a fresh copy holding everything in ``binding``.
            yield from _reference_inputs(
                rest_patterns, rest_groups, sub_binding, expressions_of
            )
        for name in added:
            del binding[name]
