"""Rule masks skip only firings whose output a class already holds.

A transformation rule declares ``disables`` and ``inherits``; a member
rule R produced from source S is masked against
``R.disables | (mask(S) & R.inherits)``, and the engine skips a masked
rule on it — but only when the model's ``masks_complete`` guard vouches
for the run's queries.  The relational model vouches for SPJ queries
whose join graph is a tree and that have no cross products.

The sweep below is the gate: over random *bushy* cross-product-free
start trees (not only the left-deep ones the workloads produce), a
masked run and an unmasked run of the same spec must agree on the plan,
its cost, the memo's size, the costings, every reachable group's
members in order, and the certificate.  ``--wide-sweep`` runs a larger
sweep of up to eight relations.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algebra.expressions import LogicalExpression, group_leaf
from repro.algebra.predicates import (
    Comparison,
    ComparisonOp,
    Disjunction,
    col,
    conjunction_of,
    eq,
    lit,
)
from repro.algebra.properties import ANY_PROPS, LogicalProperties, sorted_on
from repro.catalog import Catalog, Schema
from repro.errors import ReproError
from repro.model.context import OptimizerContext
from repro.model.cost import ScalarCost
from repro.model.patterns import AnyPattern, OpPattern
from repro.model.rules import ImplementationRule, TransformationRule
from repro.model.spec import AlgorithmDef, LogicalOperatorDef, ModelSpecification
from repro.models.aggregates import aggregate, aggregate_model
from repro.models.oodb import oodb_model
from repro.models.parallel import parallel_relational_model
from repro.models.relational import (
    RelationalModelOptions,
    get,
    join,
    relational_model,
    select,
)
from repro.models.setops import setops_model, union
from repro.search import SearchOptions, VolcanoOptimizer
from repro.search.memo import Memo
from repro.workloads import QueryGenerator

from tests.helpers import make_catalog

def _pushdown_model():
    return relational_model(RelationalModelOptions(select_pushdown=True))


MODELS = {
    "relational": relational_model,
    "pushdown": _pushdown_model,
    "aggregates": aggregate_model,
    "oodb": oodb_model,
    "parallel": parallel_relational_model,
    "setops": setops_model,
}


# -- random bushy, cross-product-free start trees --------------------------------


def _edge_predicate(left: str, right: str, rng: random.Random, double: bool):
    first = eq(f"{left}.{rng.choice('ab')}", f"{right}.{rng.choice('ab')}")
    if not double:
        return first
    second = eq(f"{left}.v", f"{right}.v")
    return conjunction_of([first, second])


def _component(start: str, relations, edges, cut) -> frozenset:
    """The relations connected to ``start`` without crossing ``cut``."""
    seen, stack = {start}, [start]
    while stack:
        current = stack.pop()
        for edge in edges:
            if edge == cut or current not in edge or not edge <= relations:
                continue
            (other,) = edge - {current}
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return frozenset(seen)


def _build(relations: frozenset, edges, leaves, rng: random.Random):
    """A random CP-free join tree: split on a random edge, recurse."""
    if len(relations) == 1:
        (name,) = relations
        return leaves[name]
    inside = sorted((edge for edge in edges if edge <= relations), key=sorted)
    cut = rng.choice(inside)
    one, other = sorted(cut)
    left = _component(one, relations, edges, cut)
    right = relations - left
    if rng.random() < 0.5:
        left, right = right, left
    return join(
        _build(left, edges, leaves, rng),
        _build(right, edges, leaves, rng),
        edges[cut],
    )


def random_join_tree(n_relations: int, seed: int):
    """``(catalog, query, required)``: a seeded bushy CP-free SPJ query.

    Half the queries select on their leaves and half ask for a sort
    order; about a third of the join edges carry a second conjunct.
    """
    item = QueryGenerator().generate(n_relations, seed)
    rng = random.Random(f"mask-sweep:{seed}:{n_relations}")
    names = item.table_names
    selections = seed % 2 == 0
    leaves = {
        name: (
            select(get(name), Comparison(ComparisonOp.LE, col(f"{name}.v"), lit(300)))
            if selections
            else get(name)
        )
        for name in names
    }
    edges = {}
    for index, name in enumerate(names[1:], 1):
        partner = rng.choice(names[:index])
        edges[frozenset((partner, name))] = _edge_predicate(
            partner, name, rng, double=rng.random() < 0.3
        )
    query = _build(frozenset(names), edges, leaves, rng)
    required = ANY_PROPS
    if (seed // 2) % 2 == 0:
        required = sorted_on(f"{rng.choice(names)}.{rng.choice('ab')}")
    return item.catalog, query, required


# -- masked vs unmasked ---------------------------------------------------------------


def _unmasked(spec):
    return dataclasses.replace(spec, masks_complete=None)


def _outcome(spec, catalog, query, required, certificates: bool):
    engine = VolcanoOptimizer(spec, catalog, SearchOptions(certificates=certificates))
    try:
        result = engine.optimize(query, required)
    except ReproError as error:
        return ("raised", type(error).__name__, str(error)), 0
    memo, stats = result.memo, result.stats
    members = [
        (gid, [str(member) for member in memo.group(gid).expressions])
        for gid in memo.reachable(result.root_group)
    ]
    outcome = (
        result.plan.to_sexpr(),
        result.cost,
        stats.groups_created,
        stats.expressions_created,
        stats.algorithm_costings,
        members,
        result.certificate,
    )
    return outcome, stats.rules_masked


def _check_sweep(cases):
    specs = {name: build() for name, build in MODELS.items()}
    names = sorted(specs)
    masked_runs = 0
    for index, (n_relations, seed) in enumerate(cases):
        spec = specs[names[index % len(names)]]
        catalog, query, required = random_join_tree(n_relations, seed)
        certificates = index % 4 == 0
        masked, skipped = _outcome(spec, catalog, query, required, certificates)
        unmasked, none = _outcome(
            _unmasked(spec), catalog, query, required, certificates
        )
        assert none == 0
        assert masked == unmasked, (spec.name, n_relations, seed, query)
        masked_runs += skipped > 0
    # The guard vouched for every tree that did not raise.
    assert masked_runs >= len(cases) * 0.9


def test_masked_and_unmasked_searches_agree_on_bushy_join_trees():
    _check_sweep([(3 + seed % 5, seed) for seed in range(250)])


def test_masked_and_unmasked_searches_agree_on_a_wide_sweep(request):
    if not request.config.getoption("--wide-sweep"):
        pytest.skip("runs with --wide-sweep")
    _check_sweep([(3 + seed % 6, 10_000 + seed) for seed in range(1200)])


# -- the guard ------------------------------------------------------------------------


def _guard(spec, catalog, *queries) -> bool:
    return spec.masks_complete(OptimizerContext(spec, catalog), queries)


@pytest.fixture
def chain():
    item = QueryGenerator().generate(4, seed=3)
    return item.catalog, item.table_names


def test_the_guard_accepts_a_tree_shaped_join_graph(chain):
    catalog, (a, b, c, d) = chain
    query = join(
        join(get(a), get(b), eq(f"{a}.a", f"{b}.a")),
        join(get(c), select(get(d), eq(f"{d}.v", 1)), eq(f"{c}.b", f"{d}.a")),
        eq(f"{b}.b", f"{c}.a"),
    )
    assert _guard(relational_model(), catalog, query)


def test_a_cyclic_join_graph_is_outside_the_guard(chain):
    catalog, (a, b, c, d) = chain
    query = join(
        join(join(get(a), get(b), eq(f"{a}.a", f"{b}.a")), get(c), eq(f"{b}.b", f"{c}.a")),
        get(d),
        conjunction_of([eq(f"{c}.b", f"{d}.a"), eq(f"{d}.b", f"{a}.b")]),
    )
    assert not _guard(relational_model(), catalog, query)


def test_a_predicate_less_start_join_is_outside_the_guard(chain):
    catalog, (a, b, c, _) = chain
    query = join(
        join(get(a), get(c), conjunction_of([])),
        get(b),
        conjunction_of([eq(f"{a}.a", f"{b}.a"), eq(f"{b}.b", f"{c}.a")]),
    )
    assert not _guard(relational_model(), catalog, query)


def test_a_three_relation_conjunct_is_outside_the_guard(chain):
    catalog, (a, b, c, _) = chain
    spanning = Disjunction((eq(f"{a}.v", f"{b}.v"), eq(f"{b}.v", f"{c}.v")))
    query = join(
        join(get(a), get(b), eq(f"{a}.a", f"{b}.a")),
        get(c),
        conjunction_of([eq(f"{b}.b", f"{c}.a"), spanning]),
    )
    assert not _guard(relational_model(), catalog, query)


def test_cross_products_switch_masks_off(chain):
    catalog, (a, b, _, _) = chain
    query = join(get(a), get(b), eq(f"{a}.a", f"{b}.a"))
    spec = relational_model(RelationalModelOptions(allow_cross_products=True))
    assert not _guard(spec, catalog, query)


def test_a_non_spj_operator_is_outside_the_guard(chain):
    catalog, (a, b, _, _) = chain
    joined = join(get(a), get(b), eq(f"{a}.a", f"{b}.a"))
    assert _guard(aggregate_model(), catalog, joined)
    assert not _guard(
        aggregate_model(), catalog, aggregate(joined, [f"{a}.b"], [("n", "count", None)])
    )
    assert not _guard(setops_model(), catalog, union(get(a), get(a)))


def test_a_batch_masks_only_when_every_query_passes(chain):
    catalog, (a, b, c, _) = chain
    tree = join(get(a), get(b), eq(f"{a}.a", f"{b}.a"))
    product = join(get(a), get(c), conjunction_of([]))
    spec = relational_model()
    assert _guard(spec, catalog, tree)
    assert not _guard(spec, catalog, tree, product)


# -- inheritance: the counterexample it fixes -------------------------------------------


def _root_splits(spec, catalog, query):
    """Each root member as (left relations, right relations)."""
    result = VolcanoOptimizer(spec, catalog).optimize(query)
    memo = result.memo
    splits = {
        tuple(memo.logical_props(gid).tables for gid in member.input_groups)
        for member in memo.group(result.root_group).expressions
    }
    return splits, result.stats.rules_masked


def test_a_commute_product_inherits_its_sources_associate_mask(chain):
    """From ``join(c, join(a, b))``, ``join(a, join(b, c))`` is derived.

    Masking every commute product against associativity — the rule set
    without inheritance — loses it: the root's only rewrite is the
    commutation, and associativity is masked on its product.
    """
    catalog, (a, b, c, _) = chain
    query = join(
        get(c),
        join(get(a), get(b), eq(f"{a}.a", f"{b}.a")),
        eq(f"{b}.b", f"{c}.a"),
    )
    wanted = (frozenset({a}), frozenset({b, c}))
    spec = relational_model()
    splits, masked = _root_splits(spec, catalog, query)
    assert masked > 0
    assert wanted in splits
    assert splits == _root_splits(_unmasked(spec), catalog, query)[0]

    no_inheritance = relational_model()
    no_inheritance.transformations = [
        dataclasses.replace(
            rule,
            disables=frozenset({"join_commute", "join_associate"}),
            inherits=frozenset(),
        )
        if rule.name == "join_commute"
        else rule
        for rule in no_inheritance.transformations
    ]
    assert wanted not in _root_splits(no_inheritance, catalog, query)[0]


# -- widening: a mask only narrows, and a narrowed mask refires ---------------------


def _chain_spec() -> ModelSpecification:
    """Unary operators f, g, h, k over a leaf, with deliberately short masks.

    From ``f(x)``: ``flip`` makes ``g(x)`` masked against ``step``;
    ``to_k`` makes ``k(x)`` from it, and ``to_g`` re-derives ``g(x)``
    from ``k(x)`` unmasked — after the loop has passed ``g(x)``.  Only
    the narrowed mask lets ``step`` make ``h(x)``.
    """

    def leaf_props(context, args, input_props):
        return LogicalProperties(
            schema=Schema.of("c"), cardinality=10.0, tables=frozenset({"x"})
        )

    def same_props(context, args, input_props):
        return input_props[0]

    def algorithm(name, arity):
        return AlgorithmDef(
            name,
            lambda context, node, required: [(ANY_PROPS,) * arity],
            lambda context, node: ScalarCost(1.0),
            lambda context, node, input_props: ANY_PROPS,
        )

    def unary(source, target, name, **masks):
        return TransformationRule(
            name,
            OpPattern(source, (AnyPattern("x"),)),
            lambda binding, context: LogicalExpression(target, (), (binding["x"],)),
            **masks,
        )

    spec = ModelSpecification(name="chain")
    spec.add_operator(LogicalOperatorDef("leaf", 0, leaf_props))
    spec.add_algorithm(algorithm("scan", 0))
    spec.add_algorithm(algorithm("pass", 1))
    spec.add_implementation(ImplementationRule("leaf_scan", OpPattern("leaf", ()), "scan"))
    for name in "fghk":
        spec.add_operator(LogicalOperatorDef(name, 1, same_props))
        spec.add_implementation(
            ImplementationRule(f"{name}_pass", OpPattern(name, (AnyPattern("x"),)), "pass")
        )
    spec.add_transformation(unary("f", "g", "flip", disables={"step"}))
    spec.add_transformation(unary("g", "h", "step"))
    spec.add_transformation(unary("g", "k", "to_k"))
    spec.add_transformation(unary("k", "g", "to_g"))
    spec.masks_complete = _always
    return spec


def _always(context, queries) -> bool:
    return True


def test_a_mask_narrowed_after_the_loop_passed_it_still_fires():
    spec = _chain_spec()
    query = LogicalExpression("f", (), (LogicalExpression("leaf", ()),))
    result = VolcanoOptimizer(spec, Catalog()).optimize(query)
    root = result.memo.group(result.root_group)
    assert [member.operator for member in root.expressions] == ["f", "g", "k", "h"]
    assert not result.memo.masks  # g(x)'s mask narrowed to nothing
    assert result.stats.rules_masked == 1  # step on g(x), before it narrowed


def test_a_merge_rekeys_masks_and_intersects_them_on_a_collision():
    spec = relational_model()
    commute, associate = spec.transformations
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    memo = Memo(OptimizerContext(spec, catalog))
    memo.masks = {}
    on_rs, on_st = eq("r.k", "s.k"), eq("s.k", "t.k")
    rs = memo.insert_expression(join(get("r"), get("s"), on_rs))
    sr = memo.insert_expression(join(get("s"), get("r"), on_rs))
    tops = []
    for inner, rule in ((rs, commute), (sr, associate)):
        top = memo.insert_expression(join(group_leaf(inner), get("t"), on_st))
        source = memo.group(top).expressions[0]
        flipped = join(get("t"), group_leaf(inner), on_st)
        memo.add_rewrite(flipped, top, (source, rule, {}))
        tops.append(top)
    assert sorted(map(sorted, memo.masks.values())) == [
        ["join_associate"], ["join_commute"]
    ]
    memo.add_expression_to_group(join(get("s"), get("r"), on_rs), rs)
    assert memo.canonical(tops[0]) == memo.canonical(tops[1])
    # join(t, r ⋈ s) was masked {commute} in one class and {associate}
    # in the other: the merged member keeps only what both masked.
    assert memo.masks == {}
    assert len(memo.group(tops[0]).expressions) == 2
