"""The memo's derivation record: one first-derivation pointer per member.

``Memo.derivations`` maps each member a rewrite brought into its class
to that rewrite's ``(source member, rule, binding, output)``.
Certificates walk the pointers back from a frontier member to the
source's member and read each step off the recorded output
(:mod:`repro.search.certify`) instead of re-running rules after the
search, so for every bundled model's chain and star queries of 2–8
relations, and for searches that merge classes mid-exploration:

* every key is a live member — a merge re-keys the members it re-homes;
* a pointer's output, interned, is the member it keys;
* a pointer's source lies in its member's own class, and the walk from
  every member ends without revisiting one;
* with no merge, every walk ends at the class's first member.  A merge
  can leave a class several pointer-less members — a bare-leaf collapse
  records nothing — and every walk still ends at a node of the query;
* both kernels record the same pointers.
"""

import pytest

from repro.algebra.expressions import GROUP_LEAF, group_leaf
from repro.algebra.predicates import TRUE, eq
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
from repro.search.memo import GroupExpression
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import make_catalog
from tests.search.test_interning import (
    TABLES,
    collapse_true_select_model,
    hand_built_memo,
    le,
    skip_true_select_model,
)

BUILDERS = [
    relational_model,
    setops_model,
    aggregate_model,
    oodb_model,
    parallel_relational_model,
]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))


def canonical_member(memo, member):
    return GroupExpression(
        member.operator,
        member.args,
        tuple(memo.canonical(gid) for gid in member.input_groups),
    )


def derivation_record(memo):
    """The pointers as plain data: member → (source, rule name, binding,
    output)."""
    return {
        member: (canonical_member(memo, source), rule.name, binding, output)
        for member, (source, rule, binding, output) in memo.derivations.items()
    }


def searched_memos(spec, catalog, query, required=None):
    """The memo of one search per kernel; both hold the same pointers."""
    memos = [
        VolcanoOptimizer(spec, catalog, SearchOptions(kernel=kernel))
        .optimize(query, required)
        .memo
        for kernel in (None, "specialized")
    ]
    assert derivation_record(memos[0]) == derivation_record(memos[1])
    return memos


def query_members(memo, *expressions):
    """The members the nodes of ``expressions`` themselves occupy."""
    members = set()

    def visit(node):
        if node.operator != GROUP_LEAF:
            gids = tuple(visit(child) for child in node.inputs)
            members.add(GroupExpression(node.operator, node.args, gids))
        return memo.insert_expression(node)  # a lookup: the node is there

    for expression in expressions:
        visit(expression)
    return members


def assert_outputs_intern_to_their_members(memo):
    """Each pointer's output, looked up input by input, is its key."""
    groups = memo.group_count()
    for member, (_, _, _, output) in memo.derivations.items():
        gids = tuple(
            memo.canonical(memo.insert_expression(child)) for child in output.inputs
        )
        assert GroupExpression(output.operator, output.args, gids) == member
    assert memo.group_count() == groups  # lookups only


def assert_walks_end_at(memo, roots):
    """Every key is live; from every member, the pointers stay in its
    class and lead, without revisiting a member, to one of ``roots``."""
    for member in memo.derivations:
        gid = memo._table.get(member)
        assert gid is not None, f"stale derivation key {member}"
        assert member in memo.group(gid).expression_set
    for group in memo.groups():
        for member in group.expressions:
            walked = {member}
            while member in memo.derivations:
                source = canonical_member(memo, memo.derivations[member][0])
                assert memo.canonical(memo._table[source]) == group.id
                assert source not in walked, f"pointer cycle in g{group.id}"
                walked.add(source)
                member = source
            assert member in roots, f"g{group.id}: the walk stops at {member}"


@pytest.mark.parametrize("shape", ["chain", "star"])
@pytest.mark.parametrize("builder", BUILDERS, ids=lambda builder: builder.__name__)
def test_every_member_walks_back_to_its_first_member(builder, shape):
    spec = builder()
    generator = QueryGenerator(WorkloadOptions(shape=shape))
    for size in range(2, 9):
        query = generator.generate(size, seed=size)
        for memo in searched_memos(spec, query.catalog, query.query, query.required):
            assert memo.stats.group_merges == 0
            # One pointer per member but each class's first.
            assert len(memo.derivations) == (
                memo.expression_count() - memo.group_count()
            )
            assert_outputs_intern_to_their_members(memo)
            assert_walks_end_at(
                memo, {group.expressions[0] for group in memo.groups()}
            )


def test_late_equalities_keep_pointers_through_merges():
    """The late-equality searches of ``test_interning.py``, plus a
    collapse beneath a commuted join, whose merge re-keys that join.

    A merge joins classes, so a class may end with several pointer-less
    members — each one a node of the query itself: every derived member
    still walks back to the query.
    """
    catalog = make_catalog(TABLES)
    shared = select(get("r"), le("r.v", 10))
    narrowed = select(shared, le("r.k", 5))
    joined = join(shared, get("s"), eq("r.k", "s.k"))

    # select[p](select[TRUE](x)) -> select[p](x) lands in narrowed's
    # class: the member found there takes the pointer.
    query = union(
        select(narrowed, le("r.v", 3)),
        select(select(shared, TRUE), le("r.k", 5)),
    )
    for memo in searched_memos(skip_true_select_model(), catalog, query):
        assert memo.stats.group_merges == 1
        assert len(memo.derivations) == 1
        assert_outputs_intern_to_their_members(memo)
        assert_walks_end_at(memo, query_members(memo, query))

    # select[TRUE](x) -> x records nothing: the select stays pointer-less
    # in x's class.
    collapsing = collapse_true_select_model()
    for query, merges, renamed in (
        (union(narrowed, select(shared, TRUE)), 1, 0),
        (union(joined, join(select(shared, TRUE), get("s"), eq("r.k", "s.k"))), 2, 1),
    ):
        for memo in searched_memos(collapsing, catalog, query):
            assert memo.stats.group_merges == merges
            assert_outputs_intern_to_their_members(memo)
            assert_walks_end_at(memo, query_members(memo, query))
            # Pointers recorded before the merge renamed their inputs.
            assert renamed == sum(
                canonical_member(memo, source) != source
                for source, _, _, _ in memo.derivations.values()
            )


def test_a_merge_re_keys_both_kinds_of_re_homed_member():
    """Through the memo API: the dying class holds a pointer-bearing
    member that reads the class itself, and a consumer class holds one
    that reads it as an input — a merge renames both."""
    memo = hand_built_memo(
        relational_model(), make_catalog(TABLES), check_consistency=False
    )
    inserted = [get("s"), select(get("r"), le("r.v", 10)), get("t")]
    keeper, dying, other = (memo.insert_expression(tree) for tree in inserted)
    inserted.append(join(group_leaf(dying), group_leaf(other), eq("r.k", "t.k")))
    consumer = memo.insert_expression(inserted[-1])
    for gid, rewritten in (
        (dying, select(group_leaf(dying), TRUE)),
        (consumer, join(group_leaf(other), group_leaf(dying), eq("r.k", "t.k"))),
    ):
        memo.add_rewrite(
            rewritten, gid, (memo.group(gid).expressions[0], None, {}, rewritten)
        )
    assert memo.add_expression_to_group(group_leaf(keeper), dying)
    assert memo.canonical(dying) == keeper
    assert len(memo.derivations) == 2
    assert_walks_end_at(memo, query_members(memo, *inserted))
