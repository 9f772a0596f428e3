"""Unit tests for the memo (equivalence classes, dedup, merging)."""

import pytest

from repro.algebra.expressions import group_leaf
from repro.algebra.predicates import eq
from repro.errors import SearchError
from repro.model.context import OptimizerContext
from repro.models.relational import get, join, relational_model, select
from repro.search.memo import GroupExpression, Memo

from tests.helpers import make_catalog


@pytest.fixture
def memo():
    spec = relational_model()
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    context = OptimizerContext(spec, catalog)
    memo = Memo(context)
    context.group_props_resolver = memo.logical_props
    return memo


def test_insert_leaf_creates_group(memo):
    gid = memo.insert_expression(get("r"))
    group = memo.group(gid)
    assert group.expressions == [GroupExpression("get", ("r", None), ())]
    assert group.logical_props.cardinality == 1200


def test_insert_is_idempotent(memo):
    first = memo.insert_expression(get("r"))
    second = memo.insert_expression(get("r"))
    assert first == second
    assert memo.group_count() == 1


def test_deep_join_reinserted_interns_once():
    """An 8-table join tree inserted 50 times: 15 groups, 15 expressions."""
    names = [f"t{i}" for i in range(8)]
    context = OptimizerContext(
        relational_model(), make_catalog([(name, 1000) for name in names])
    )
    memo = Memo(context, check_consistency=False)
    context.group_props_resolver = memo.logical_props
    tree = get(names[0])
    for name in names[1:]:
        tree = join(tree, get(name), eq(f"{names[0]}.k", f"{name}.k"))
    for _ in range(50):
        memo.insert_expression(tree)
    assert memo.group_count() == 15
    assert memo.expression_count() == 15


def test_shared_subexpressions_share_groups(memo):
    tree_one = join(get("r"), get("s"), eq("r.k", "s.k"))
    tree_two = join(get("r"), get("t"), eq("r.k", "t.k"))
    memo.insert_expression(tree_one)
    memo.insert_expression(tree_two)
    # get(r) appears once; five groups total: r, s, t, and two joins.
    assert memo.group_count() == 5


def test_insert_resolves_group_leaves(memo):
    inner = memo.insert_expression(get("r"))
    outer = memo.insert_expression(
        join(group_leaf(inner), get("s"), eq("r.k", "s.k"))
    )
    mexpr = memo.group(outer).expressions[0]
    assert mexpr.input_groups[0] == inner


def test_logical_props_derived_per_group(memo):
    gid = memo.insert_expression(select(get("r"), eq("r.v", 1)))
    props = memo.logical_props(gid)
    assert props.cardinality == pytest.approx(1200 / 20)
    assert props.tables == frozenset({"r"})


def test_add_expression_to_group_grows_group(memo):
    tree = join(get("r"), get("s"), eq("r.k", "s.k"))
    gid = memo.insert_expression(tree)
    commuted = join(get("s"), get("r"), eq("r.k", "s.k"))
    assert memo.add_expression_to_group(commuted, gid) is True
    assert len(memo.group(gid).expressions) == 2
    # Re-adding the same expression changes nothing.
    assert memo.add_expression_to_group(commuted, gid) is False


def test_associativity_creates_new_class(memo):
    """Paper Figure 3: expression C requires a new equivalence class."""
    tree = join(
        join(get("r"), get("s"), eq("r.k", "s.k")),
        get("t"),
        eq("s.k", "t.k"),
    )
    root = memo.insert_expression(tree)
    before = memo.group_count()  # r, s, t, rs, rst
    assert before == 5
    # The associated shape: r ⋈ (s ⋈ t).  The inner join is C in Figure 3.
    associated = join(
        get("r"),
        join(get("s"), get("t"), eq("s.k", "t.k")),
        eq("r.k", "s.k"),
    )
    memo.add_expression_to_group(associated, root)
    assert memo.group_count() == 6  # the new class for s ⋈ t
    assert len(memo.group(root).expressions) == 2


def test_merge_on_duplicate_derivation(memo):
    """Deriving an expression of class A inside class B merges A and B."""
    join_rs = join(get("r"), get("s"), eq("r.k", "s.k"))
    a = memo.insert_expression(join_rs)
    commuted = join(get("s"), get("r"), eq("r.k", "s.k"))
    b = memo.insert_expression(commuted)
    assert memo.canonical(a) != memo.canonical(b)
    # A transformation on group a now derives b's expression.
    memo.add_expression_to_group(commuted, a)
    assert memo.canonical(a) == memo.canonical(b)
    assert len(memo.group(a).expressions) == 2
    assert memo.stats.group_merges == 1


def test_merge_rewrites_parent_expressions(memo):
    """Merging input groups re-keys the expressions that reference them."""
    join_rs = join(get("r"), get("s"), eq("r.k", "s.k"))
    join_sr = join(get("s"), get("r"), eq("r.k", "s.k"))
    top_one = memo.insert_expression(join(join_rs, get("t"), eq("s.k", "t.k")))
    top_two = memo.insert_expression(join(join_sr, get("t"), eq("s.k", "t.k")))
    assert memo.canonical(top_one) != memo.canonical(top_two)
    # Prove join_rs ≡ join_sr; the two tops become identical and merge too.
    a = memo.insert_expression(join_rs)
    memo.add_expression_to_group(join_sr, a)
    assert memo.canonical(top_one) == memo.canonical(top_two)


def test_merge_clears_cached_winners(memo):
    join_rs = join(get("r"), get("s"), eq("r.k", "s.k"))
    a = memo.insert_expression(join_rs)
    memo.group(a).winners[("fake", None)] = "stale"
    memo.insert_expression(join(get("s"), get("r"), eq("r.k", "s.k")))
    memo.add_expression_to_group(
        join(get("s"), get("r"), eq("r.k", "s.k")), a
    )
    assert memo.group(a).winners == {}


def test_inconsistent_merge_rejected(memo):
    """Merging classes with different logical properties is a rule bug."""
    a = memo.insert_expression(get("r"))
    b = memo.insert_expression(get("s"))
    with pytest.raises(SearchError):
        memo.add_expression_to_group(group_leaf(b), a)


def test_inconsistent_member_rejected(memo):
    gid = memo.insert_expression(get("r"))
    with pytest.raises(SearchError):
        memo.add_expression_to_group(get("s"), gid)


def test_group_leaf_addition_merges(memo):
    """A rewrite to a bare input leaf merges the two classes."""
    # select with TRUE-like predicate is not built here; emulate with two
    # equal-cardinality selects over the same table.
    first = memo.insert_expression(select(get("r"), eq("r.v", 1)))
    second = memo.insert_expression(select(get("r"), eq("r.v", 2)))
    assert memo.add_expression_to_group(group_leaf(second), first)
    assert memo.canonical(first) == memo.canonical(second)


def test_reachable_covers_all_inputs(memo):
    tree = join(
        join(get("r"), get("s"), eq("r.k", "s.k")),
        get("t"),
        eq("s.k", "t.k"),
    )
    root = memo.insert_expression(tree)
    assert set(memo.reachable(root)) == {
        memo.canonical(gid) for gid in range(memo.group_count())
    }


def test_max_groups_budget(memo):
    memo.max_groups = 2
    with pytest.raises(SearchError):
        memo.insert_expression(join(get("r"), get("s"), eq("r.k", "s.k")))


def test_expression_count_and_render(memo):
    root = memo.insert_expression(join(get("r"), get("s"), eq("r.k", "s.k")))
    assert memo.expression_count() == 3
    text = memo.render(root)
    assert "group" in text and "join" in text


def test_in_progress_reference_counting(memo):
    gid = memo.insert_expression(get("r"))
    group = memo.group(gid)
    key = ("props", None)
    group.mark_in_progress(key)
    group.mark_in_progress(key)
    group.unmark_in_progress(key)
    assert group.is_in_progress(key)
    group.unmark_in_progress(key)
    assert not group.is_in_progress(key)
