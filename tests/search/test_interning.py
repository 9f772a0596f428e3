"""Hash-consing invariants: interning, merge dedup, union-find bounds.

The memo interns one :class:`GroupExpression` instance per structural
form, so the hot dict lookups resolve on identity.  These tests pin the
properties that make that safe.  An ordinary search explores inputs
first and merges nothing (``test_exploration_order.py``), so the merges
here are driven through the memo API — two forms inserted into separate
classes, then proven equal — plus one engine run whose rule set still
discovers an equality late:

* after any merge, every live group holds each structural form
  **once**, and that member *is* the interned instance;
* merging drops exactly the merged classes' winners and keeps every
  other — the merged memo passes :class:`repro.lint.MemoAuditor` (which
  checks winner optimality and cost consistency per
  ``repro.lint.invariants``);
* long merge chains resolve in linear total work (path compression),
  pinned by the ``canonical_hops`` counter rather than wall-clock;
* the cached hashes are process-local: pickling strips and recomputes
  them, so an object loaded from a pickle hashes like the original.
"""

import dataclasses
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.predicates import TRUE, Comparison, ComparisonOp, col, eq, lit
from repro.algebra.properties import sorted_on
from repro.lint.invariants import MemoAuditor
from repro.model.context import OptimizerContext
from repro.model.patterns import AnyPattern, OpPattern
from repro.model.rules import TransformationRule
from repro.models import (
    aggregate_model,
    oodb_model,
    parallel_relational_model,
    relational_model,
    setops_model,
)
from repro.models.relational import get, join, select
from repro.models.setops import union
from repro.search import SearchOptions, VolcanoOptimizer
from repro.search.memo import Memo, Winner
from repro.verify import verify_plan
from repro.workloads import QueryGenerator

from tests.helpers import make_catalog

TABLES = [("r", 1200), ("s", 2400), ("t", 4800)]
BUILDERS = [
    relational_model,
    setops_model,
    parallel_relational_model,
    oodb_model,
    aggregate_model,
]


def le(column, value):
    return Comparison(ComparisonOp.LE, col(column), lit(value))


def three_way_join():
    """A three-relation select–join query."""
    return join(
        select(get("r"), le("r.v", 10)),
        join(get("s"), get("t"), eq("s.k", "t.k")),
        eq("r.k", "s.k"),
    )


def assert_interned_and_deduped(memo):
    """Every live member expression is unique and *is* its interned form."""
    for group in memo.groups():
        assert len(group.expressions) == len(set(group.expressions)), (
            f"group {group.id} holds structural duplicates after merging"
        )
        for mexpr in group.expressions:
            assert memo._interned[mexpr] is mexpr
            # The hash table resolves the member back to its live group.
            assert memo.canonical(memo._table[mexpr]) == group.id


def commute_lowest_join(expression):
    """``expression`` with the operands of its deepest left join swapped."""
    left, right = expression.inputs
    if left.operator == "join":
        return join(commute_lowest_join(left), right, *expression.args)
    return join(right, left, *expression.args)


def hand_built_memo(spec, catalog, check_consistency=True):
    context = OptimizerContext(spec, catalog)
    memo = Memo(context, check_consistency=check_consistency)
    context.group_props_resolver = memo.logical_props
    return memo


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
def test_merge_dedupes_members_and_preserves_winners(builder):
    query = QueryGenerator().generate(5, seed=5)
    solved = VolcanoOptimizer(builder(), query.catalog).optimize(
        query.query, query.required
    )
    # A left-deep 5-relation join and the same tree with its lowest join
    # commuted share their leaves but sit in four separate join classes
    # each; the solved run's winners are planted wherever its classes'
    # representative forms land (the original's spine among them).
    memo = hand_built_memo(builder(), query.catalog)
    original = memo.insert_expression(query.query)
    commuted = commute_lowest_join(query.query)
    assert memo.insert_expression(commuted) != original
    for seed in solved.harvest_winners():
        gid = memo.insert_expression(seed.expression)
        memo.group(gid).winners[(seed.required, None)] = Winner(seed.plan, seed.cost)
    planted = {group.id: dict(group.winners) for group in memo.groups()}
    spine, spine_commuted = [query.query], [commuted]
    while spine[-1].inputs[0].operator == "join":
        spine.append(spine[-1].inputs[0])
        spine_commuted.append(spine_commuted[-1].inputs[0])
    spine_groups = [memo.insert_expression(node) for node in spine]
    assert all(planted[gid] for gid in spine_groups)
    # Proving the two lowest joins equal re-keys the commuted form's
    # parent onto the original's, which clashes — and so on up to the
    # roots: one step, four merges.
    assert memo.add_expression_to_group(spine_commuted[-1], spine_groups[-1])
    assert memo.stats.group_merges == len(spine) == 4
    assert memo.insert_expression(commuted) == memo.canonical(original)
    assert_interned_and_deduped(memo)
    # The merged classes dropped their winners (a larger class may hold a
    # cheaper plan); every class the merges did not touch kept its own.
    merged = {memo.canonical(gid) for gid in spine_groups}
    assert len(merged) == 4
    for group in memo.groups():
        if group.id in merged:
            assert not group.winners
        else:
            assert group.winners.keys() == planted[group.id].keys()
            assert all(
                group.winners[key] is winner
                for key, winner in planted[group.id].items()
            )
    result = dataclasses.replace(
        solved, memo=memo, root_group=memo.canonical(original)
    )
    assert not MemoAuditor().audit(result)


def late_equality_runs(spec, catalog, query, unwrapped):
    """Optimize ``query`` under both kernels; one merge, one reopened class.

    Checks what every late-equality search must show — the merge, the
    confirming sweep, a closed and audited memo, the plan of the same
    query written without the wrapper — and that a reopened class is
    re-enumerated in full, firing only what ``group.applied`` has not
    seen: the counters agree across kernels.
    """
    runs = []
    for kernel in (None, "specialized"):
        optimizer = VolcanoOptimizer(
            spec, catalog, SearchOptions(kernel=kernel, certificates=True)
        )
        auditor = MemoAuditor().attach(optimizer)
        result = optimizer.optimize(query)
        stats, memo = result.stats, result.memo
        assert stats.group_merges == 1
        assert stats.groups_created - 1 == memo.group_count()
        assert stats.exploration_passes == 2
        assert_interned_and_deduped(memo)
        for gid in memo.reachable(result.root_group):
            group = memo.group(gid)
            assert group.explored and not group.exploring
        plain = optimizer.optimize(unwrapped)
        assert result.cost == plain.cost
        assert result.plan.to_sexpr() == plain.plan.to_sexpr()
        assert auditor.audits == 2
        assert not auditor.violations, [str(v) for v in auditor.violations]
        runs.append(result)
    interpreted, specialized = runs
    assert interpreted.plan.to_sexpr() == specialized.plan.to_sexpr()
    assert interpreted.certificate == specialized.certificate
    assert interpreted.stats.rules_fired == specialized.stats.rules_fired
    assert (
        interpreted.stats.rule_bindings_tried
        == specialized.stats.rule_bindings_tried
    )
    return runs


def collapse_true_select_model():
    """setops plus ``select[TRUE](x) -> x``, a rewrite to a bare group leaf."""
    spec = setops_model()
    spec.add_transformation(
        TransformationRule(
            "drop_true_select",
            OpPattern("select", (AnyPattern("x"),), args_as="p"),
            lambda binding, context: binding["x"],
            condition=lambda binding, context: binding["p"][0].is_true,
        )
    )
    return spec


def skip_true_select_model():
    """setops plus ``select[p](select[TRUE](x)) -> select[p](x)``."""
    spec = setops_model()
    spec.add_transformation(
        TransformationRule(
            "skip_true_select",
            OpPattern(
                "select",
                (OpPattern("select", (AnyPattern("x"),), args_as="q"),),
                args_as="p",
            ),
            lambda binding, context: select(binding["x"], binding["p"][0]),
            condition=lambda binding, context: binding["q"][0].is_true,
        )
    )
    return spec


def test_engine_merges_when_a_rule_discovers_an_equality_late(tmp_path, monkeypatch):
    """Merge, reopen, confirming sweep: the fallback still runs end to end.

    ``select[TRUE](x) -> x`` returns a bare group leaf, so the class of
    the select and the class of ``x`` — built apart when the query was
    inserted — are found equal only when the rule fires.  ``x`` is also
    the input of the union's other operand, which by then is explored and
    off the stack: the merge re-keys and reopens it, and only the sweep
    after the descent closes it again.

    A group collapse is not a step a certificate can replay, so the
    second rule reaches the same merge through an ordinary rewrite —
    ``select[p](select[TRUE](x)) -> select[p](x)`` lands in a class that
    already holds it — and that certificate must verify.
    """
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    catalog = make_catalog(TABLES)
    shared = select(get("r"), le("r.v", 10))
    narrowed = select(shared, le("r.k", 5))

    spec = collapse_true_select_model()
    query = union(narrowed, select(shared, TRUE))
    for result in late_equality_runs(spec, catalog, query, union(narrowed, shared)):
        memo = result.memo
        merged = memo.insert_expression(shared)
        assert memo.insert_expression(select(shared, TRUE)) == merged
        reopened = memo.group(memo.insert_expression(narrowed))
        assert [mexpr.input_groups for mexpr in reopened.expressions] == [(merged,)]

    spec = skip_true_select_model()
    consumer = select(narrowed, le("r.v", 3))
    query = union(consumer, select(select(shared, TRUE), le("r.k", 5)))
    for result in late_equality_runs(spec, catalog, query, union(consumer, narrowed)):
        memo = result.memo
        merged = memo.insert_expression(narrowed)
        reopened = memo.group(memo.insert_expression(consumer))
        assert [mexpr.input_groups for mexpr in reopened.expressions] == [(merged,)]
        assert [step.rule for step in result.certificate.steps] == ["skip_true_select"]
        report = verify_plan(
            spec, query, result.plan, result.certificate, catalog=catalog
        )
        assert report.ok, report.render()


@st.composite
def join_trees(draw):
    """Random select/join trees over r, s, t (each table at most once)."""
    names = draw(st.permutations(["r", "s", "t"]))
    names = list(names[: draw(st.integers(2, 3))])
    leaves = []
    for name in names:
        leaf = get(name)
        if draw(st.booleans()):
            leaf = select(leaf, le(f"{name}.v", draw(st.integers(0, 15))))
        leaves.append((name, leaf))
    tree_name, tree = leaves[0]
    for name, leaf in leaves[1:]:
        if draw(st.booleans()):
            tree = join(tree, leaf, eq(f"{tree_name}.k", f"{name}.k"))
        else:
            tree = join(leaf, tree, eq(f"{tree_name}.k", f"{name}.k"))
    return tree


@settings(max_examples=25, deadline=None)
@given(join_trees())
def test_merge_dedup_holds_under_random_queries(tree):
    catalog = make_catalog(TABLES)
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    auditor = MemoAuditor().attach(optimizer)
    result = optimizer.optimize(tree)
    assert_interned_and_deduped(result.memo)
    assert not auditor.violations, [str(v) for v in auditor.violations]


def test_long_merge_chains_are_not_quadratic():
    """Path compression bounds total union-find hops linearly.

    Without compression, resolving every stale id of an N-deep merge
    chain walks O(N^2) links; the ``canonical_hops`` counter makes the
    difference observable without timing anything.
    """
    chain = 150
    context = OptimizerContext(relational_model(), make_catalog(TABLES))
    memo = Memo(context, check_consistency=False)
    context.group_props_resolver = memo.logical_props
    roots = [
        memo.insert_expression(select(get("r"), le("r.v", float(i))))
        for i in range(chain)
    ]
    for left, right in zip(roots, roots[1:]):
        memo._merge(left, right)
    for gid in roots:
        memo.canonical(gid)
    # Linear budget with headroom for the merges' own resolutions; the
    # quadratic failure mode is ~chain^2 / 2 = 11k+ hops.
    assert memo.stats.canonical_hops <= 6 * chain
    # The count is exact: a drift means the union-find changed.
    assert memo.stats.canonical_hops == 3 * chain - 5
    # After one resolution pass every stale id points directly at the
    # representative: re-resolving all of them costs one hop each.
    before = memo.stats.canonical_hops
    for gid in roots:
        memo.canonical(gid)
    assert memo.stats.canonical_hops - before <= chain


def test_render_and_reachable_work_after_deep_merging():
    """The satellite fix: traversals index canonical groups directly."""
    depth = 40
    memo = hand_built_memo(
        relational_model(), make_catalog(TABLES), check_consistency=False
    )
    # A tower of selects over each of two leaves, then the leaves proven
    # equal: every level's parent is re-keyed onto its twin and merges.
    towers = []
    for name in ("r", "s"):
        tower = get(name)
        for level in range(depth):
            tower = select(tower, le("r.v", float(level)))
        towers.append(tower)
    root, twin = (memo.insert_expression(tower) for tower in towers)
    assert memo.add_expression_to_group(get("s"), memo.insert_expression(get("r")))
    assert memo.stats.group_merges == depth + 1
    assert memo.canonical(twin) == memo.canonical(root)
    assert_interned_and_deduped(memo)
    reachable = memo.reachable(twin)
    assert len(reachable) == depth + 1
    assert len(reachable) == len(set(reachable))
    assert all(memo.group(gid).id == gid for gid in reachable)
    rendered = memo.render(twin)
    assert f"group {memo.canonical(root)}:" in rendered
    assert rendered.count("(select ") == depth


def test_cached_hashes_survive_pickling():
    """A pickled interned object carries no cached hash: it recomputes."""
    expr = three_way_join()
    clone = pickle.loads(pickle.dumps(expr))
    assert clone == expr
    assert hash(clone) == hash(expr)

    props = sorted_on("r.k")
    clone_props = pickle.loads(pickle.dumps(props))
    assert clone_props == props
    assert hash(clone_props) == hash(props)

    context = OptimizerContext(relational_model(), make_catalog(TABLES))
    memo = Memo(context, check_consistency=False)
    context.group_props_resolver = memo.logical_props
    memo.insert_expression(expr)
    for group in memo.groups():
        for mexpr in group.expressions:
            clone_mexpr = pickle.loads(pickle.dumps(mexpr))
            assert clone_mexpr == mexpr
            assert hash(clone_mexpr) == hash(mexpr)
