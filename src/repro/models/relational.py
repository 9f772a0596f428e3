"""The relational select–project–join model — the paper's test data model.

Section 4.2 of the paper evaluates the generated optimizers on "a rather
small 'data model' consisting of relational select and join operators
only", with "the same operators (get, select, join) and algorithms (file
scan, filter for selections, sort, merge-join, hybrid hash join)".  This
module is that model specification, slightly enriched:

* ``project`` and a combined ``select(get) → filter_scan`` implementation
  rule demonstrate the paper's "complex mappings" (multiple logical
  operators implemented by a single physical operator);
* sorting is an *enforcer* ("Sorting was modeled as an enforcer in
  Volcano"), with the cost of a single-level merge as in the paper;
* "Hash join was presumed to proceed without partition files", i.e. no
  I/O of its own;
* transformation rules (join commutativity and associativity) permit
  "generating all plans including bushy ones".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import (
    Predicate,
    conjunction_of,
    equi_join_pairs,
    split_conjuncts,
)
from repro.algebra.properties import ANY_PROPS, LogicalProperties, PhysProps
from repro.model.cost import CpuIoCost
from repro.model.patterns import AnyPattern, OpPattern
from repro.model.rules import ImplementationRule, TransformationRule
from repro.model.spec import (
    AlgorithmDef,
    EnforcerApplication,
    EnforcerDef,
    LogicalOperatorDef,
    ModelSpecification,
)

__all__ = [
    "CostConstants",
    "RelationalModelOptions",
    "relational_model",
    "get",
    "select",
    "join",
    "project",
]


# ---------------------------------------------------------------------------
# Expression builders (the logical algebra's public face)
# ---------------------------------------------------------------------------


def get(table: str, alias: Optional[str] = None) -> LogicalExpression:
    """Scan a stored relation, optionally under an alias (for self-joins)."""
    return LogicalExpression("get", (table, alias))


def select(input_expression: LogicalExpression, predicate: Predicate) -> LogicalExpression:
    """Keep the rows of ``input_expression`` satisfying ``predicate``."""
    return LogicalExpression("select", (predicate,), (input_expression,))


def join(
    left: LogicalExpression, right: LogicalExpression, predicate: Predicate
) -> LogicalExpression:
    """Join two inputs on ``predicate`` (``TRUE`` for a Cartesian product)."""
    return LogicalExpression("join", (predicate,), (left, right))


def project(input_expression: LogicalExpression, columns: Sequence[str]) -> LogicalExpression:
    """Keep only ``columns`` (no duplicate removal, as in the paper)."""
    return LogicalExpression("project", (tuple(columns),), (input_expression,))


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostConstants:
    """Per-unit CPU and I/O constants of the relational cost functions.

    CPU constants are in "cost units per tuple"; one page I/O is worth
    ``io_weight`` CPU units.  The defaults make hash join the fastest way
    to join *unsorted* inputs while merge join wins once its inputs are
    already sorted — the interesting-orderings regime the paper's quality
    comparison hinges on.
    """

    cpu_tuple: float = 1.0        # producing/consuming one tuple
    cpu_pred: float = 0.5         # evaluating a predicate once
    cpu_build: float = 3.0        # inserting one build tuple into a hash table
    cpu_probe: float = 2.0        # probing the hash table with one tuple
    cpu_merge: float = 1.0        # advancing merge join by one input tuple
    cpu_output: float = 0.5       # emitting one result tuple
    cpu_sort: float = 0.25        # one comparison during sorting (× n·log₂n)
    io_weight: float = 100.0      # CPU units per page I/O

    def zero(self) -> CpuIoCost:
        """The zero cost under this model's I/O weight."""
        return CpuIoCost(0.0, 0.0, self.io_weight)

    def make(self, cpu: float = 0.0, io: float = 0.0) -> CpuIoCost:
        """A cost value under this model's I/O weight."""
        return CpuIoCost(cpu, io, self.io_weight)


def _pages(props: LogicalProperties, page_size: int) -> float:
    """Pages occupied by an intermediate result with the given properties."""
    row_width = max(1, props.schema.row_width)
    rows_per_page = max(1, page_size // row_width)
    return max(1.0, math.ceil(props.cardinality / rows_per_page))


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationalModelOptions:
    """Feature switches of the relational model.

    ``allow_cross_products``
        Let associativity introduce predicate-less joins (and enable
        nested loops to execute them).  Off by default so the logical
        search space matches the Ono–Lohman counts the paper cites.
    ``enable_nested_loops``
        Add a nested-loops join algorithm (required for cross products;
        not part of the paper's experiment).
    ``enable_filter_scan``
        Add the combined ``select(get) → filter_scan`` implementation
        rule (a "complex mapping").
    ``select_pushdown``
        Add selection push-down/merge transformation rules.  The Figure 4
        workloads arrive with selections already pushed onto base
        relations, matching the paper's setup, so this is off by default.
    ``max_merge_key_permutations``
        Up to this many equi-join key columns, merge join offers every
        key permutation as an alternative sort order (the paper's
        "number of physical property vectors to be tried").
    """

    allow_cross_products: bool = False
    enable_nested_loops: bool = False
    enable_filter_scan: bool = True
    select_pushdown: bool = False
    include_project: bool = True
    max_merge_key_permutations: int = 3
    cost: CostConstants = field(default_factory=CostConstants)


# ---------------------------------------------------------------------------
# Logical property functions (paper item 10, logical half)
# ---------------------------------------------------------------------------


def _get_props(context, args, input_props) -> LogicalProperties:
    table_name, alias = args
    entry = context.catalog.table(table_name)
    schema, statistics = entry.schema, entry.statistics
    if alias is not None:
        schema = schema.prefixed(alias)
        statistics = statistics.with_prefixed_columns(alias)
    return LogicalProperties(
        schema=schema,
        cardinality=float(statistics.row_count),
        column_stats=dict(statistics.columns),
        tables=frozenset((alias or table_name,)),
    )


def _scale_stats(column_stats, selectivity: float, row_count: float) -> dict:
    return {
        name: stats.scaled(selectivity, row_count)
        for name, stats in column_stats.items()
    }


def _select_props(context, args, input_props) -> LogicalProperties:
    (predicate,) = args
    source = input_props[0]
    selectivity = context.selectivity(predicate, source.column_stats)
    cardinality = source.cardinality * selectivity
    return LogicalProperties(
        schema=source.schema,
        cardinality=cardinality,
        column_stats=_scale_stats(source.column_stats, selectivity, cardinality),
        tables=source.tables,
    )


def _join_props(context, args, input_props) -> LogicalProperties:
    (predicate,) = args
    left, right = input_props
    combined_stats = {**left.column_stats, **right.column_stats}
    selectivity = context.selectivity(predicate, combined_stats)
    cardinality = left.cardinality * right.cardinality * selectivity
    # Column statistics are NOT capped by the output cardinality here:
    # logical properties belong to the whole equivalence class, so they
    # must be identical for every join order (the memo's consistency
    # check enforces this).  Capping distinct counts by intermediate
    # cardinalities would make the estimate depend on the derivation.
    return LogicalProperties(
        schema=left.schema.concat(right.schema),
        cardinality=cardinality,
        column_stats=combined_stats,
        tables=left.tables | right.tables,
    )


def _project_props(context, args, input_props) -> LogicalProperties:
    (columns,) = args
    source = input_props[0]
    schema = source.schema.project(columns)
    return LogicalProperties(
        schema=schema,
        cardinality=source.cardinality,
        column_stats={
            name: stats
            for name, stats in source.column_stats.items()
            if name in schema
        },
        tables=source.tables,
    )


# ---------------------------------------------------------------------------
# Algorithm support functions (applicability / cost / physical properties)
# ---------------------------------------------------------------------------

# Pure-function memo size cap.  The support-function caches below key on
# immutable algebra values (predicates, column-name frozensets, physical
# property vectors); the same few hundred keys recur tens of thousands of
# times per optimization, so a plain dict with an overflow flush is all
# the policy needed.
_MEMO_LIMIT = 65536
_MISSING = object()

_equi_pairs_cache: dict = {}


def _equi_pairs(predicate, left_columns, right_columns):
    """Cached :func:`equi_join_pairs` (pure in its hashable arguments)."""
    key = (predicate, left_columns, right_columns)
    hit = _equi_pairs_cache.get(key, _MISSING)
    if hit is _MISSING:
        hit = equi_join_pairs(predicate, left_columns, right_columns)
        if len(_equi_pairs_cache) >= _MEMO_LIMIT:
            _equi_pairs_cache.clear()
        _equi_pairs_cache[key] = hit
    return hit


def _unsorted_only(required: PhysProps) -> bool:
    """True when a plain serial, unsorted result satisfies ``required``."""
    return ANY_PROPS.covers(required)


def _file_scan_algorithm(constants: CostConstants) -> AlgorithmDef:
    def applicability(context, node, required):
        # Heap files deliver no order; only the empty requirement is met.
        if not _unsorted_only(required):
            return []
        return [()]

    def cost(context, node):
        # Stored tables are paged by their on-disk row width, which the
        # statistics carry (schemas describe only the columns in play).
        table_name, alias = node.args
        entry = context.catalog.table(table_name)
        pages = entry.statistics.pages(context.catalog.page_size)
        rows = float(entry.statistics.row_count)
        return constants.make(cpu=rows * constants.cpu_tuple, io=pages)

    def derive_props(context, node, input_props):
        return ANY_PROPS

    return AlgorithmDef("file_scan", applicability, cost, derive_props)


def _filter_algorithm(constants: CostConstants) -> AlgorithmDef:
    def applicability(context, node, required):
        # Filter preserves its input's properties: pass the requirement on.
        return [(required,)]

    def cost(context, node):
        source = node.inputs[0]
        # Evaluate the predicate per input row, re-emit surviving rows.
        cpu = (
            source.cardinality * constants.cpu_pred
            + node.output.cardinality * constants.cpu_output
        )
        return constants.make(cpu=cpu)

    def derive_props(context, node, input_props):
        return input_props[0]

    return AlgorithmDef("filter", applicability, cost, derive_props)


def _filter_scan_algorithm(constants: CostConstants) -> AlgorithmDef:
    """Combined scan + filter: one pass over the stored table."""

    def applicability(context, node, required):
        if not _unsorted_only(required):
            return []
        return [()]

    def cost(context, node):
        table_name, alias, predicate = node.args
        entry = context.catalog.table(table_name)
        pages = entry.statistics.pages(context.catalog.page_size)
        rows = float(entry.statistics.row_count)
        return constants.make(
            cpu=rows * (constants.cpu_tuple + constants.cpu_pred), io=pages
        )

    def derive_props(context, node, input_props):
        return ANY_PROPS

    return AlgorithmDef("filter_scan", applicability, cost, derive_props)


def _project_algorithm(constants: CostConstants) -> AlgorithmDef:
    def applicability(context, node, required):
        # Projection preserves order as long as the required sort columns
        # survive; pass the requirement through unchanged.
        return [(required,)]

    def cost(context, node):
        return constants.make(cpu=node.output.cardinality * constants.cpu_tuple * 0.25)

    def derive_props(context, node, input_props):
        # Order on projected-away columns is meaningless downstream, but
        # the names remain valid sort keys only if still in the schema.
        surviving = frozenset(node.output.schema.column_names)
        order = []
        for key in input_props[0].sort_order:
            kept = key & surviving
            if not kept:
                break
            order.append(kept)
        return replace(input_props[0], sort_order=tuple(order))

    return AlgorithmDef("project", applicability, cost, derive_props)


def _materialize_algorithm(constants: CostConstants) -> AlgorithmDef:
    """Write the input out once so several plans can scan it.

    Used only by the multi-query sharing pass
    (:func:`repro.search.sharing.plan_sharing`): ``applicability``
    returns no moves, so single-query search never considers it — the
    definition exists to price (and execute) shared intermediates in the
    model's own currency.
    """

    def applicability(context, node, required):
        return []

    def cost(context, node):
        source = node.inputs[0]
        pages = _pages(source, context.catalog.page_size)
        # One pass over the input, plus writing every page out.
        return constants.make(cpu=source.cardinality * constants.cpu_tuple, io=pages)

    def derive_props(context, node, input_props):
        return input_props[0]

    return AlgorithmDef("materialize", applicability, cost, derive_props, utility=True)


def _intermediate_scan_algorithm(constants: CostConstants) -> AlgorithmDef:
    """Read back a materialized intermediate (sharing pass only)."""

    def applicability(context, node, required):
        return []

    def cost(context, node):
        pages = _pages(node.output, context.catalog.page_size)
        return constants.make(cpu=node.output.cardinality * constants.cpu_tuple, io=pages)

    def derive_props(context, node, input_props):
        # The store preserves insertion order, so a scan delivers
        # whatever the producer delivered; the sharing pass stamps the
        # producer's physical properties onto the scan node directly.
        return ANY_PROPS

    return AlgorithmDef("scan_intermediate", applicability, cost, derive_props, utility=True)


def _merge_join_key_orders(
    pairs: Tuple[Tuple[str, str], ...],
    required: PhysProps,
    max_permutations: int,
) -> List[Tuple[Tuple[str, str], ...]]:
    """Key orderings merge join should try for this goal.

    With few keys, try every permutation (each is an alternative set of
    input property vectors, the paper's Section 3 feature); with many,
    try the canonical order plus — when the requirement names join
    columns — an order matching the requirement.
    """
    canonical = tuple(sorted(pairs))
    if len(pairs) <= max_permutations:
        return [tuple(perm) for perm in itertools.permutations(canonical)]
    orders = [canonical]
    if required.sort_order:
        matched = []
        rest = list(canonical)
        for key in required.sort_order:
            hit = next((pair for pair in rest if set(pair) & key), None)
            if hit is None:
                break
            matched.append(hit)
            rest.remove(hit)
        if matched:
            orders.append(tuple(matched) + tuple(rest))
    return orders


def _merge_join_algorithm(
    constants: CostConstants, max_permutations: int
) -> AlgorithmDef:
    memo: dict = {}

    def applicability(context, node, required):
        (predicate,) = node.args
        left, right = node.inputs
        key = (predicate, left.column_names, right.column_names, required)
        hit = memo.get(key)
        if hit is not None:
            return list(hit)
        pairs = _equi_pairs(predicate, left.column_names, right.column_names)
        alternatives = []
        if pairs:
            for order in _merge_join_key_orders(pairs, required, max_permutations):
                delivered = PhysProps(
                    sort_order=tuple(frozenset(pair) for pair in order)
                )
                if not delivered.covers(required):
                    continue
                left_req = PhysProps(sort_order=tuple(pair[0] for pair in order))
                right_req = PhysProps(sort_order=tuple(pair[1] for pair in order))
                alternatives.append((left_req, right_req))
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        # Stored as a tuple (immutable); callers get a fresh list, the
        # applicability contract's return type.
        memo[key] = tuple(alternatives)
        return alternatives

    def cost(context, node):
        left, right = node.inputs
        cpu = (
            (left.cardinality + right.cardinality) * constants.cpu_merge
            + node.output.cardinality * constants.cpu_output
        )
        return constants.make(cpu=cpu)

    def derive_props(context, node, input_props):
        (predicate,) = node.args
        left, right = node.inputs
        pairs = _equi_pairs(predicate, left.column_names, right.column_names)
        lookup = {}
        for left_name, right_name in pairs or ():
            lookup.setdefault(left_name, set()).update((left_name, right_name))
            lookup.setdefault(right_name, set()).update((left_name, right_name))
        order = []
        for key in input_props[0].sort_order:
            # Each left sort key annexes the equivalent right-side names.
            merged = set(key)
            for name in key:
                merged |= lookup.get(name, set())
            order.append(frozenset(merged))
        return PhysProps(sort_order=tuple(order))

    return AlgorithmDef(
        "merge_join",
        applicability,
        cost,
        derive_props,
        requires=frozenset({"sort"}),
        delivers=frozenset({"sort"}),
    )


def _hash_join_algorithm(constants: CostConstants) -> AlgorithmDef:
    def applicability(context, node, required):
        (predicate,) = node.args
        left, right = node.inputs
        pairs = _equi_pairs(predicate, left.column_names, right.column_names)
        if not pairs:
            return []
        # "hybrid hash join does not qualify" for sorted output.
        if not _unsorted_only(required):
            return []
        return [(ANY_PROPS, ANY_PROPS)]

    def cost(context, node):
        left, right = node.inputs
        # "Hash join was presumed to proceed without partition files":
        # pure CPU, build on the left input, probe with the right.
        cpu = (
            left.cardinality * constants.cpu_build
            + right.cardinality * constants.cpu_probe
            + node.output.cardinality * constants.cpu_output
        )
        return constants.make(cpu=cpu)

    def derive_props(context, node, input_props):
        return ANY_PROPS

    return AlgorithmDef("hybrid_hash_join", applicability, cost, derive_props)


def _nested_loops_algorithm(constants: CostConstants) -> AlgorithmDef:
    def applicability(context, node, required):
        if not _unsorted_only(required):
            return []
        return [(ANY_PROPS, ANY_PROPS)]

    def cost(context, node):
        left, right = node.inputs
        cpu = (
            left.cardinality * right.cardinality * constants.cpu_pred
            + node.output.cardinality * constants.cpu_output
        )
        return constants.make(cpu=cpu)

    def derive_props(context, node, input_props):
        return ANY_PROPS

    return AlgorithmDef("nested_loops_join", applicability, cost, derive_props)


def _sort_enforcer(constants: CostConstants) -> EnforcerDef:
    def enforce(context, required, output_props):
        if not required.sort_order:
            return []
        return [
            EnforcerApplication(
                args=(required.sort_order,),
                delivered=required,
                relaxed=required.without_sort(),
                excluded=PhysProps(sort_order=required.sort_order),
            )
        ]

    def cost(context, node):
        source = node.inputs[0]
        rows = max(2.0, source.cardinality)
        cpu = rows * math.log2(rows) * constants.cpu_sort
        # "sorting costs were calculated based on a single-level merge":
        # write the runs once, read them back once.
        pages = _pages(source, context.catalog.page_size)
        return constants.make(cpu=cpu, io=2 * pages)

    return EnforcerDef("sort", enforce, cost, provides=frozenset({"sort"}))


# ---------------------------------------------------------------------------
# Transformation rules
# ---------------------------------------------------------------------------


def _join_commute_rule() -> TransformationRule:
    pattern = OpPattern(
        "join", (AnyPattern("left"), AnyPattern("right")), args_as="predicate"
    )

    def rewrite(binding, context):
        (predicate,) = binding["predicate"]
        return join(binding["right"], binding["left"], predicate)

    # A commute product is never commuted back, and it is masked against
    # associativity only where its source was.  Masking that on every
    # commute product would leave ``join(join(a, b), c)``, commuted from
    # the start ``join(c, join(a, b))``, unable to re-associate, and
    # ``join(a, join(b, c))`` would never be derived.
    return TransformationRule(
        "join_commute", pattern, rewrite, promise=1.0, factor=0.05,
        disables=frozenset({"join_commute"}),
        inherits=frozenset({"join_associate"}),
    )


def _join_associate_rule(allow_cross_products: bool) -> TransformationRule:
    """``(a ⋈ b) ⋈ c  →  a ⋈ (b ⋈ c)`` with predicate routing (Figure 3)."""
    pattern = OpPattern(
        "join",
        (
            OpPattern("join", (AnyPattern("a"), AnyPattern("b")), args_as="p1"),
            AnyPattern("c"),
        ),
        args_as="p2",
    )

    memo: dict = {}

    def condition(binding, context):
        if allow_cross_products:
            return True
        inner, top = _route_predicates(binding, context)
        return not inner.is_true and not top.is_true

    def rewrite(binding, context):
        inner_predicate, top_predicate = _route_predicates(binding, context)
        inner = join(binding["b"], binding["c"], inner_predicate)
        return join(binding["a"], inner, top_predicate)

    def _route_predicates(binding, context):
        # Pure in (p1, p2, b columns, c columns) — and evaluated twice
        # per firing (condition then rewrite) on bindings that recur
        # across groups, so the memo hit rate is high.
        (p1,) = binding["p1"]
        (p2,) = binding["p2"]
        b_columns = context.logical_props(binding["b"]).column_names
        c_columns = context.logical_props(binding["c"]).column_names
        key = (p1, p2, b_columns, c_columns)
        hit = memo.get(key)
        if hit is None:
            combined = conjunction_of([p1, p2])
            hit = split_conjuncts(combined, b_columns | c_columns)
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = hit
        return hit

    # A slightly lower promise than commutativity: associativity grows the
    # search space (it creates new equivalence classes, Figure 3), so a
    # promise threshold between 0.8 and 1.0 turns the search into a
    # commutations-only heuristic — the ablation benchmarks exploit this.
    return TransformationRule(
        "join_associate", pattern, rewrite, condition=condition, promise=0.8,
        factor=0.15, disables=frozenset({"join_associate"}),
    )


def _select_merge_rule() -> TransformationRule:
    pattern = OpPattern(
        "select",
        (OpPattern("select", (AnyPattern("x"),), args_as="p2"),),
        args_as="p1",
    )

    def rewrite(binding, context):
        (p1,) = binding["p1"]
        (p2,) = binding["p2"]
        return select(binding["x"], conjunction_of([p1, p2]))

    return TransformationRule("select_merge", pattern, rewrite, factor=0.1)


def _select_push_into_join_rule() -> TransformationRule:
    """``σ_p (l ⋈ r)``: push the conjuncts of ``p`` to the side(s) they fit."""
    pattern = OpPattern(
        "select",
        (
            OpPattern(
                "join", (AnyPattern("l"), AnyPattern("r")), args_as="pj"
            ),
        ),
        args_as="ps",
    )

    memo: dict = {}

    def _split(ps, left_columns, right_columns):
        key = (ps, left_columns, right_columns)
        hit = memo.get(key)
        if hit is None:
            left_part, rest = split_conjuncts(ps, left_columns)
            right_part, keep = split_conjuncts(rest, right_columns)
            hit = (left_part, right_part, keep)
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = hit
        return hit

    def condition(binding, context):
        (ps,) = binding["ps"]
        left_columns = context.logical_props(binding["l"]).column_names
        right_columns = context.logical_props(binding["r"]).column_names
        left_part, right_part, _ = _split(ps, left_columns, right_columns)
        return not left_part.is_true or not right_part.is_true

    def rewrite(binding, context):
        (ps,) = binding["ps"]
        (pj,) = binding["pj"]
        left_columns = context.logical_props(binding["l"]).column_names
        right_columns = context.logical_props(binding["r"]).column_names
        left_part, right_part, keep = _split(ps, left_columns, right_columns)
        left = binding["l"] if left_part.is_true else select(binding["l"], left_part)
        right = (
            binding["r"] if right_part.is_true else select(binding["r"], right_part)
        )
        joined = join(left, right, pj)
        return joined if keep.is_true else select(joined, keep)

    return TransformationRule(
        "select_push_into_join", pattern, rewrite, condition=condition, factor=0.3
    )


# ---------------------------------------------------------------------------
# Where the join rules' masks are complete
# ---------------------------------------------------------------------------

_SPJ_OPERATORS = frozenset({"get", "select", "join", "project"})


def _masks_never_complete(context, queries) -> bool:
    """With cross products on, the join rules' masks are not known complete."""
    return False


def _masks_complete_on_join_trees(context, queries) -> bool:
    """True when every query is an SPJ tree over a tree-shaped join graph.

    The masks of ``join_commute`` and ``join_associate`` (duplicate-free
    join enumeration, after Pellenkoft, Galindo-Legaria & Kersten) lose
    no member when cross products are off and each query's join graph is
    a tree: every join's predicate links its two inputs, every conjunct
    naming two or more relations names exactly two, and the distinct
    relation pairs number one less than the relations.  Masks dropped
    members from cyclic join graphs and from starts with a predicate-less
    join, so those fall outside.  Relations are the ``tables`` of each
    ``get`` leaf's logical properties, so aliases count as relations.
    """
    return all(_is_join_tree(context, query) for query in queries)


def _is_join_tree(context, query: LogicalExpression) -> bool:
    order = []  # pre-order: every node before its inputs
    stack = [query]
    while stack:
        node = stack.pop()
        if node.operator not in _SPJ_OPERATORS:
            return False
        order.append(node)
        stack.extend(node.inputs)
    relation_of = {}  # column name → the relation that provides it
    below = {}  # id(node) → the relations under it (``order`` keeps ids live)
    scanned = set()
    for node in reversed(order):
        if node.operator == "get":
            props = context.logical_props(node)
            (relation,) = props.tables
            if relation in scanned:
                return False  # one relation scanned twice under one name
            scanned.add(relation)
            for name in props.column_names:
                if relation_of.setdefault(name, relation) != relation:
                    return False
            below[id(node)] = props.tables
        else:
            below[id(node)] = frozenset().union(
                *(below[id(child)] for child in node.inputs)
            )
    pairs = set()
    for node in order:
        if node.operator not in ("join", "select"):
            continue
        linked = False
        for conjunct in node.args[0].conjuncts():
            names = conjunct.columns()
            if not names <= relation_of.keys():
                return False
            relations = frozenset(relation_of[name] for name in names)
            if len(relations) > 2:
                return False
            if len(relations) == 2:
                pairs.add(relations)
                if node.operator == "join":
                    left, right = (below[id(child)] for child in node.inputs)
                    linked |= bool(relations & left) and bool(relations & right)
        if node.operator == "join" and not linked:
            return False
    return len(pairs) == len(below[id(query)]) - 1


# ---------------------------------------------------------------------------
# The model specification
# ---------------------------------------------------------------------------


def relational_model(
    options: Optional[RelationalModelOptions] = None,
) -> ModelSpecification:
    """Build the relational model specification of the paper's Section 4."""
    options = options or RelationalModelOptions()
    constants = options.cost
    spec = ModelSpecification(
        name="relational",
        zero_cost=constants.zero,
    )

    # Logical operators (paper item 1).
    spec.add_operator(LogicalOperatorDef("get", 0, _get_props))
    spec.add_operator(LogicalOperatorDef("select", 1, _select_props))
    spec.add_operator(LogicalOperatorDef("join", 2, _join_props))
    if options.include_project:
        spec.add_operator(LogicalOperatorDef("project", 1, _project_props))

    # Algorithms and enforcers (paper items 3, 8, 9, 10).
    spec.add_algorithm(_file_scan_algorithm(constants))
    spec.add_algorithm(_filter_algorithm(constants))
    spec.add_algorithm(_merge_join_algorithm(constants, options.max_merge_key_permutations))
    spec.add_algorithm(_hash_join_algorithm(constants))
    if options.enable_filter_scan:
        spec.add_algorithm(_filter_scan_algorithm(constants))
    if options.enable_nested_loops or options.allow_cross_products:
        spec.add_algorithm(_nested_loops_algorithm(constants))
    if options.include_project:
        spec.add_algorithm(_project_algorithm(constants))
    # Multi-query sharing support: rule-less algorithms the search never
    # picks on its own; the sharing pass prices and plants them.
    spec.add_algorithm(_materialize_algorithm(constants))
    spec.add_algorithm(_intermediate_scan_algorithm(constants))
    spec.add_enforcer(_sort_enforcer(constants))

    # Transformation rules (paper item 2).  Their masks apply only where
    # the guard vouches for them.
    spec.masks_complete = (
        _masks_never_complete
        if options.allow_cross_products
        else _masks_complete_on_join_trees
    )
    spec.add_transformation(_join_commute_rule())
    spec.add_transformation(_join_associate_rule(options.allow_cross_products))
    if options.select_pushdown:
        spec.add_transformation(_select_merge_rule())
        spec.add_transformation(_select_push_into_join_rule())

    # Implementation rules (paper item 4).
    spec.add_implementation(
        ImplementationRule(
            "get_to_file_scan",
            OpPattern("get", (), args_as="t"),
            "file_scan",
            build_args=lambda binding, context: binding["t"],
        )
    )
    spec.add_implementation(
        ImplementationRule(
            "select_to_filter",
            OpPattern("select", (AnyPattern("input"),), args_as="p"),
            "filter",
            build_args=lambda binding, context: binding["p"],
        )
    )
    if options.enable_filter_scan:
        # A "complex mapping": two logical operators, one physical one.
        spec.add_implementation(
            ImplementationRule(
                "select_get_to_filter_scan",
                OpPattern(
                    "select", (OpPattern("get", (), args_as="t"),), args_as="p"
                ),
                "filter_scan",
                build_args=lambda binding, context: binding["t"] + binding["p"],
                promise=2.0,
            )
        )
    spec.add_implementation(
        ImplementationRule(
            "join_to_merge_join",
            OpPattern("join", (AnyPattern("l"), AnyPattern("r")), args_as="p"),
            "merge_join",
            build_args=lambda binding, context: binding["p"],
        )
    )
    spec.add_implementation(
        ImplementationRule(
            "join_to_hash_join",
            OpPattern("join", (AnyPattern("l"), AnyPattern("r")), args_as="p"),
            "hybrid_hash_join",
            build_args=lambda binding, context: binding["p"],
            promise=1.5,
        )
    )
    if options.enable_nested_loops or options.allow_cross_products:
        spec.add_implementation(
            ImplementationRule(
                "join_to_nested_loops",
                OpPattern("join", (AnyPattern("l"), AnyPattern("r")), args_as="p"),
                "nested_loops_join",
                build_args=lambda binding, context: binding["p"],
                promise=0.5,
            )
        )
    if options.include_project:
        spec.add_implementation(
            ImplementationRule(
                "project_to_project",
                OpPattern("project", (AnyPattern("input"),), args_as="cols"),
                "project",
                build_args=lambda binding, context: binding["cols"],
            )
        )
    spec.validate()
    return spec
