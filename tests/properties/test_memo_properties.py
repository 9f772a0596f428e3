"""Property-based tests of memo invariants under random operations."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algebra.predicates import eq
from repro.model.context import OptimizerContext
from repro.models.relational import get, join, relational_model, select
from repro.search.memo import Memo

from tests.helpers import make_catalog

TABLES = [("r", 1200), ("s", 2400), ("t", 4800)]


def fresh_memo():
    context = OptimizerContext(relational_model(), make_catalog(TABLES))
    memo = Memo(context)
    return memo


@st.composite
def expression_trees(draw):
    """Random join trees over r, s, t (each used at most once)."""
    names = draw(st.permutations(["r", "s", "t"]))
    count = draw(st.integers(1, 3))
    names = names[:count]
    leaves = []
    for name in names:
        leaf = get(name)
        if draw(st.booleans()):
            leaf = select(leaf, eq(f"{name}.v", draw(st.integers(0, 3))))
        leaves.append((name, leaf))
    tree_name, tree = leaves[0]
    previous = tree_name
    for name, leaf in leaves[1:]:
        if draw(st.booleans()):
            tree = join(tree, leaf, eq(f"{previous}.k", f"{name}.k"))
        else:
            tree = join(leaf, tree, eq(f"{previous}.k", f"{name}.k"))
        previous = name
    return tree


def check_invariants(memo):
    """Structural invariants that must hold after any operation mix."""
    # Every live group's expressions are in the table, pointing back.
    for group in memo.groups():
        assert len(group.expressions) == len(group.expression_set)
        for mexpr in group.expressions:
            owner = memo._table.get(mexpr)
            assert owner is not None
            assert memo.canonical(owner) == group.id
            # Input groups resolve to live groups.
            for gid in mexpr.input_groups:
                memo.group(gid)  # must not raise
    # The table has no entries owned by dead groups' identities.
    for mexpr, owner in memo._table.items():
        live = memo.group(owner)
        assert mexpr in live.expression_set
    # Expression count is consistent.
    assert memo.expression_count() == sum(
        len(group.expressions) for group in memo.groups()
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(expression_trees(), min_size=1, max_size=4))
def test_insertions_keep_invariants(trees):
    memo = fresh_memo()
    for tree in trees:
        memo.insert_expression(tree)
    check_invariants(memo)


@settings(max_examples=40, deadline=None)
@given(st.lists(expression_trees(), min_size=1, max_size=3))
def test_insert_is_idempotent_under_any_order(trees):
    memo = fresh_memo()
    first_ids = [memo.insert_expression(tree) for tree in trees]
    count = memo.group_count()
    second_ids = [memo.insert_expression(tree) for tree in trees]
    assert memo.group_count() == count
    assert [memo.canonical(g) for g in first_ids] == [
        memo.canonical(g) for g in second_ids
    ]
    check_invariants(memo)


@settings(max_examples=30, deadline=None)
@given(expression_trees())
def test_exploration_preserves_invariants(tree):
    """Run the real engine (rules, merges and all); memo must stay sound."""
    from repro.search import VolcanoOptimizer

    catalog = make_catalog(TABLES)
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    result = optimizer.optimize(tree)
    check_invariants(result.memo)
    # All groups reachable from the root belong to the query's tables.
    root = max(
        result.memo.groups(), key=lambda group: len(group.logical_props.tables)
    )
    for gid in result.memo.reachable(root.id):
        group = result.memo.group(gid)
        assert group.logical_props.tables <= root.logical_props.tables
