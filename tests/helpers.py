"""Shared test fixtures: catalogs, queries, and a brute-force oracle.

The oracle enumerates *every* join tree and algorithm/enforcer choice
directly over expression trees — no memo, no transformation rules, no
pruning — so it is an independent check of the engine's optimality
(DESIGN.md invariant 4).
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, List, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import (
    Predicate,
    conjunction_of,
    eq,
)
from repro.algebra.properties import ANY_PROPS, PhysProps
from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics
from repro.model.context import OptimizerContext
from repro.model.cost import INFINITE_COST, Cost
from repro.model.spec import AlgorithmNode, ModelSpecification
from repro.models.relational import get, join, select


def make_catalog(
    tables: Sequence[Tuple[str, int]],
    key_distinct: int = 100,
    value_distinct: int = 20,
    row_width: int = 100,
) -> Catalog:
    """A catalog of tables named ``t``: columns ``t.k`` (join key), ``t.v``."""
    catalog = Catalog()
    for name, rows in tables:
        catalog.add_table(
            name,
            Schema.of(f"{name}.k", f"{name}.v"),
            TableStatistics(
                rows,
                row_width,
                columns={
                    f"{name}.k": ColumnStatistics(key_distinct, 0, key_distinct - 1),
                    f"{name}.v": ColumnStatistics(
                        value_distinct, 0, value_distinct - 1
                    ),
                },
            ),
        )
    return catalog


def chain_query(
    names: Sequence[str], with_selections: bool = True
) -> LogicalExpression:
    """A left-deep chain query joining consecutive tables on ``.k``."""
    def leaf(name):
        base = get(name)
        if with_selections:
            return select(base, eq(f"{name}.v", 1))
        return base

    expression = leaf(names[0])
    for previous, name in zip(names, names[1:]):
        expression = join(
            expression, leaf(name), eq(f"{previous}.k", f"{name}.k")
        )
    return expression


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


class BruteForceOracle:
    """Optimal plan cost by exhaustive enumeration over expression trees.

    ``leaves`` are the per-relation input expressions (e.g. a select over
    a get); ``conjuncts`` the join predicate conjuncts of the whole
    query.  The oracle enumerates every ordered binary join tree whose
    joins carry exactly the conjuncts first decidable at that join
    (cross-product-free), then recursively minimizes over the model's
    algorithms and the sort enforcer.
    """

    def __init__(
        self,
        spec: ModelSpecification,
        catalog: Catalog,
        leaves: Sequence[LogicalExpression],
        conjuncts: Sequence[Predicate],
    ):
        self.spec = spec
        self.context = OptimizerContext(spec, catalog)
        self.leaves = list(leaves)
        self.conjuncts = list(conjuncts)
        self._columns = [
            self.context.logical_props(leaf).column_names for leaf in self.leaves
        ]

    # -- logical enumeration ------------------------------------------------

    def trees(self) -> List[LogicalExpression]:
        """Every cross-product-free ordered join tree over all leaves."""
        return self._trees(frozenset(range(len(self.leaves))))

    def _available(self, indices: FrozenSet[int]) -> FrozenSet[str]:
        columns: FrozenSet[str] = frozenset()
        for index in indices:
            columns |= self._columns[index]
        return columns

    def _predicate_for(
        self, left: FrozenSet[int], right: FrozenSet[int]
    ) -> Predicate:
        left_columns = self._available(left)
        right_columns = self._available(right)
        combined = left_columns | right_columns
        applicable = [
            conjunct
            for conjunct in self.conjuncts
            if conjunct.columns() <= combined
            and not conjunct.columns() <= left_columns
            and not conjunct.columns() <= right_columns
        ]
        return conjunction_of(applicable)

    def _trees(self, indices: FrozenSet[int]) -> List[LogicalExpression]:
        if len(indices) == 1:
            (index,) = indices
            return [self.leaves[index]]
        results = []
        members = sorted(indices)
        for size in range(1, len(members)):
            for left_combo in itertools.combinations(members, size):
                left = frozenset(left_combo)
                right = indices - left
                predicate = self._predicate_for(left, right)
                if predicate.is_true:
                    continue  # cross product: outside the default space
                for left_tree in self._trees(left):
                    for right_tree in self._trees(right):
                        results.append(join(left_tree, right_tree, predicate))
        return results

    # -- physical costing ----------------------------------------------------

    def best_cost(self, required: PhysProps = ANY_PROPS) -> Cost:
        best = INFINITE_COST
        for tree in self.trees():
            cost = self._cost_tree(tree, required, allow_sort=True)
            if cost < best:
                best = cost
        return best

    def _cost_tree(
        self, tree: LogicalExpression, required: PhysProps, allow_sort: bool
    ) -> Cost:
        """Cheapest physical realization of one fixed logical tree."""
        best = INFINITE_COST
        output = self.context.logical_props(tree)
        if tree.operator == "get":
            node = AlgorithmNode(tree.args, output, ())
            algorithm = self.spec.algorithm("file_scan")
            if algorithm.applicability(self.context, node, required):
                best = algorithm.cost(self.context, node)
        elif tree.operator == "select" and tree.inputs[0].operator == "get":
            inner = tree.inputs[0]
            # Combined filter_scan when the model has it, else scan+filter.
            if "filter_scan" in self.spec.algorithms:
                node = AlgorithmNode(inner.args + tree.args, output, ())
                algorithm = self.spec.algorithm("filter_scan")
                if algorithm.applicability(self.context, node, required):
                    candidate = algorithm.cost(self.context, node)
                    if candidate < best:
                        best = candidate
            source = self.context.logical_props(inner)
            node = AlgorithmNode(tree.args, output, (source,))
            algorithm = self.spec.algorithm("filter")
            for (input_required,) in algorithm.applicability(
                self.context, node, required
            ) or ():
                candidate = algorithm.cost(self.context, node) + self._cost_tree(
                    inner, input_required, allow_sort=True
                )
                if candidate < best:
                    best = candidate
        elif tree.operator == "select":
            source = self.context.logical_props(tree.inputs[0])
            node = AlgorithmNode(tree.args, output, (source,))
            algorithm = self.spec.algorithm("filter")
            for (input_required,) in algorithm.applicability(
                self.context, node, required
            ) or ():
                candidate = algorithm.cost(self.context, node) + self._cost_tree(
                    tree.inputs[0], input_required, allow_sort=True
                )
                if candidate < best:
                    best = candidate
        elif tree.operator == "join":
            left, right = tree.inputs
            inputs = (
                self.context.logical_props(left),
                self.context.logical_props(right),
            )
            node = AlgorithmNode(tree.args, output, inputs)
            for name in ("merge_join", "hybrid_hash_join", "nested_loops_join"):
                if name not in self.spec.algorithms:
                    continue
                algorithm = self.spec.algorithm(name)
                for requirements in algorithm.applicability(
                    self.context, node, required
                ) or ():
                    candidate = algorithm.cost(self.context, node)
                    candidate = candidate + self._cost_tree(
                        left, requirements[0], allow_sort=True
                    )
                    candidate = candidate + self._cost_tree(
                        right, requirements[1], allow_sort=True
                    )
                    if candidate < best:
                        best = candidate
        # The sort enforcer, at most once per node (sorting twice in a row
        # can never help).
        if allow_sort and required.sort_order and "sort" in self.spec.enforcers:
            enforcer = self.spec.enforcer("sort")
            node = AlgorithmNode((required.sort_order,), output, (output,))
            candidate = enforcer.cost(self.context, node) + self._cost_tree(
                tree, required.without_sort(), allow_sort=False
            )
            if candidate < best:
                best = candidate
        return best
