"""The optimizer context: what rule conditions and support functions see.

One context is created per optimization and threaded through every rule
condition, rewrite, applicability, cost, and property function.  It owns
logical-property derivation (with caching) for plain expression trees and
— while the memo built on it lives — for group-leaf references, so the
same rule code runs unchanged in the Volcano engine, the EXODUS baseline,
and unit tests.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.algebra.expressions import GROUP_LEAF, LogicalExpression
from repro.algebra.properties import LogicalProperties
from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.catalog.selectivity import SelectivityEstimator
from repro.errors import SearchError
from repro.model.spec import ModelSpecification

__all__ = ["OptimizerContext"]


class OptimizerContext:
    """Shared state for one optimization run.

    ``catalog`` is one :meth:`~repro.catalog.Catalog.snapshot` of the
    catalog it is built over, taken once: every rule, property and cost
    function of the run reads that one immutable version, whatever is
    written to the catalog meanwhile.
    """

    def __init__(
        self,
        spec: ModelSpecification,
        catalog: Union[Catalog, CatalogSnapshot],
        estimator: Optional[SelectivityEstimator] = None,
    ):
        self.spec = spec
        self.catalog = catalog.snapshot()
        self.estimator = estimator or SelectivityEstimator()
        # Installed by a memo built on this context so that group leaves
        # resolve to their group's logical properties during pattern
        # matching; it answers None once that memo has been freed.
        self.group_props_resolver: Optional[
            Callable[[int], Optional[LogicalProperties]]
        ] = None
        self._props_cache: Dict[LogicalExpression, LogicalProperties] = {}

    # -- logical property derivation ---------------------------------------

    def derive_logical_props(
        self,
        operator: str,
        args: Tuple,
        input_props: Tuple[LogicalProperties, ...],
    ) -> LogicalProperties:
        """Apply the operator's property function (paper item 10)."""
        return self.spec.operator(operator).derive_props(self, args, input_props)

    def logical_props(self, expression: LogicalExpression) -> LogicalProperties:
        """Logical properties of an expression tree (cached).

        Group leaves are resolved through the memo's resolver; using one
        with no memo attached, or after the memo was freed, is an
        internal error.
        """
        cached = self._props_cache.get(expression)
        if cached is not None:
            return cached
        if expression.operator == GROUP_LEAF:
            resolver = self.group_props_resolver
            props = None if resolver is None else resolver(expression.args[0])
            if props is None:
                raise SearchError(
                    "group leaf encountered outside a search engine run"
                )
        else:
            input_props = tuple(
                self.logical_props(node) for node in expression.inputs
            )
            props = self.derive_logical_props(
                expression.operator, expression.args, input_props
            )
        self._props_cache[expression] = props
        return props

    # -- selectivity --------------------------------------------------------

    def selectivity(self, predicate, column_stats) -> float:
        """Estimate a predicate's selectivity against column statistics."""
        return self.estimator.estimate(predicate, column_stats)
