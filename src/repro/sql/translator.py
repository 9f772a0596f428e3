"""Translate parsed SQL into the logical algebra plus required properties.

The translator performs the pre-optimizer work a real DBMS front-end
does: name resolution against the catalog, pushing single-table
conjuncts into per-table selections, assembling a connected (left-deep)
join tree — the optimizer then reorders it — and converting ``ORDER BY``
into the physical property vector of the optimization goal ("physical
properties as requested by the user (for example, sort order as in the
ORDER BY clause of SQL)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import (
    ColumnRef,
    Comparison,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
    conjunction_of,
)
from repro.algebra.properties import ANY_PROPS, PhysProps, sorted_on
from repro.catalog.catalog import Catalog, CatalogSnapshot
from repro.catalog.schema import Schema
from repro.errors import SqlError, UnknownColumnError
from repro.models.aggregates import aggregate
from repro.models.relational import get, join, project, select
from repro.sql.parser import (
    SelectStatement,
    SetStatement,
    Statement,
    TableRef,
    parse,
)

__all__ = ["Translation", "Translator", "translate"]


@dataclass
class Translation:
    """A logical query plus the goal properties the user requested."""

    expression: LogicalExpression
    required: PhysProps


class Translator:
    """Catalog-aware SQL → logical algebra translation."""

    def __init__(
        self, catalog: Union[Catalog, CatalogSnapshot], allow_cross_products: bool = False
    ):
        self.catalog = catalog
        self.allow_cross_products = allow_cross_products

    # ------------------------------------------------------------------

    def translate(self, text: str) -> Translation:
        """Parse and translate SQL text."""
        return self.translate_statement(parse(text))

    def translate_statement(self, statement: Statement) -> Translation:
        """Translate a parsed statement."""
        if isinstance(statement, SetStatement):
            return self._translate_set(statement)
        return self._translate_select(statement)

    # ------------------------------------------------------------------

    def _translate_set(self, statement: SetStatement) -> Translation:
        left = self.translate_statement(statement.left)
        right = self.translate_statement(statement.right)
        if not left.required.is_any or not right.required.is_any:
            raise SqlError("ORDER BY must appear after the last set operand")
        operator = statement.operator
        args = (statement.all,) if operator == "union" else ()
        expression = LogicalExpression(
            operator, args, (left.expression, right.expression)
        )
        return Translation(expression, ANY_PROPS)

    def _translate_select(self, statement: SelectStatement) -> Translation:
        scopes = self._resolve_tables(statement.tables)
        combined = self._combined_schema(scopes)
        predicate = self._resolve_predicate(statement.where, combined, scopes)

        # Split conjuncts: single-table ones become selections.
        per_table: Dict[str, List[Predicate]] = {
            ref.binding: [] for ref, _ in scopes
        }
        join_conjuncts: List[Predicate] = []
        for conjunct in predicate.conjuncts():
            owner = self._owning_table(conjunct, scopes)
            if owner is not None:
                per_table[owner].append(conjunct)
            else:
                join_conjuncts.append(conjunct)

        leaves: Dict[str, LogicalExpression] = {}
        for ref, schema in scopes:
            leaf = get(ref.table, ref.alias)
            table_predicate = conjunction_of(per_table[ref.binding])
            if not table_predicate.is_true:
                leaf = select(leaf, table_predicate)
            leaves[ref.binding] = leaf

        expression = self._join_tree(scopes, leaves, join_conjuncts)

        if statement.distinct:
            raise SqlError("SELECT DISTINCT is not supported by the relational model")

        if statement.group_by or statement.aggregates:
            expression, output_columns = self._apply_aggregation(
                statement, expression, combined, scopes
            )
        else:
            output_columns = None
            if statement.columns is not None:
                output_columns = [
                    self._resolve_column(name, combined, scopes)
                    for name in statement.columns
                ]
                expression = project(expression, output_columns)

        required = ANY_PROPS
        if statement.order_by:
            order = []
            for name in statement.order_by:
                if output_columns is not None and name in output_columns:
                    order.append(name)  # an aggregate output or exact name
                else:
                    order.append(self._resolve_column(name, combined, scopes))
            if output_columns is not None and any(
                name not in output_columns for name in order
            ):
                raise SqlError("ORDER BY columns must appear in the select list")
            required = sorted_on(*order)
        return Translation(expression, required)

    def _apply_aggregation(self, statement, expression, combined, scopes):
        """GROUP BY / aggregate handling: wrap the tree in an aggregate."""
        if statement.columns is None:
            raise SqlError("SELECT * cannot be combined with aggregation")
        group_columns = [
            self._resolve_column(name, combined, scopes)
            for name in statement.group_by
        ]
        plain = [
            self._resolve_column(name, combined, scopes)
            for name in statement.plain_columns
        ]
        stray = [name for name in plain if name not in group_columns]
        if stray:
            raise SqlError(
                f"column(s) {', '.join(stray)} must appear in GROUP BY"
            )
        aggregate_specs = []
        for item in statement.aggregates:
            column = (
                self._resolve_column(item.column, combined, scopes)
                if item.column is not None
                else None
            )
            aggregate_specs.append((item.output_name, item.function, column))
        expression = aggregate(expression, group_columns, aggregate_specs)
        # The aggregate's output: group columns then aggregates; project
        # when the select list orders or subsets them differently.
        natural = group_columns + [spec[0] for spec in aggregate_specs]
        if statement.having is not None:
            having = self._resolve_having(
                statement.having, natural, combined, scopes
            )
            expression = select(expression, having)
        selected = []
        for item in statement.columns:
            if isinstance(item, str):
                selected.append(self._resolve_column(item, combined, scopes))
            else:
                selected.append(item.output_name)
        if selected != natural:
            expression = project(expression, selected)
        return expression, selected

    def _resolve_having(self, predicate, output_names, combined, scopes):
        """Resolve HAVING references against the aggregate's output.

        Names may be aggregate output names/aliases (kept as-is) or
        grouping columns (resolved through the catalog scopes).
        """
        from repro.algebra.predicates import ColumnRef as _ColumnRef

        def resolve_scalar(scalar):
            if not isinstance(scalar, _ColumnRef):
                return scalar
            if scalar.name in output_names:
                return scalar
            resolved = self._resolve_column(scalar.name, combined, scopes)
            if resolved not in output_names:
                raise SqlError(
                    f"HAVING references {scalar.name!r}, which is neither an "
                    f"aggregate output nor a grouping column"
                )
            return _ColumnRef(resolved)

        if isinstance(predicate, Comparison):
            return Comparison(
                predicate.op,
                resolve_scalar(predicate.left),
                resolve_scalar(predicate.right),
            )
        if isinstance(predicate, Conjunction):
            return Conjunction(
                tuple(
                    self._resolve_having(p, output_names, combined, scopes)
                    for p in predicate.parts
                )
            )
        if isinstance(predicate, Disjunction):
            return Disjunction(
                tuple(
                    self._resolve_having(p, output_names, combined, scopes)
                    for p in predicate.parts
                )
            )
        if isinstance(predicate, Negation):
            return Negation(
                self._resolve_having(predicate.part, output_names, combined, scopes)
            )
        return predicate

    # ------------------------------------------------------------------

    def _resolve_tables(
        self, refs: List[TableRef]
    ) -> List[Tuple[TableRef, Schema]]:
        scopes = []
        seen = set()
        for ref in refs:
            if ref.binding in seen:
                raise SqlError(f"duplicate table binding {ref.binding!r}")
            seen.add(ref.binding)
            entry = self.catalog.table(ref.table)
            schema = entry.schema
            if ref.alias is not None:
                schema = schema.prefixed(ref.alias)
            scopes.append((ref, schema))
        return scopes

    def _combined_schema(self, scopes) -> Schema:
        combined = Schema(())
        for _, schema in scopes:
            combined = combined.concat(schema)
        return combined

    def _resolve_column(self, name: str, combined: Schema, scopes=None) -> str:
        from repro.errors import SchemaError

        try:
            return combined.resolve(name)
        except UnknownColumnError:
            pass
        except SchemaError as error:
            # Ambiguous as a bare suffix; a qualifier may disambiguate.
            if "." not in name:
                raise SqlError(str(error)) from None
        # Qualified form: 'binding.column' against that table's own schema.
        if "." in name and scopes:
            qualifier, _, column = name.partition(".")
            for ref, schema in scopes:
                if ref.binding != qualifier:
                    continue
                try:
                    return schema.resolve(column)
                except (UnknownColumnError, SchemaError):
                    break
        raise SqlError(f"unknown column {name!r}")

    def _resolve_predicate(
        self, predicate: Predicate, combined: Schema, scopes
    ) -> Predicate:
        """Rewrite every column reference to its resolved qualified name."""
        if isinstance(predicate, Comparison):
            return Comparison(
                predicate.op,
                self._resolve_scalar(predicate.left, combined, scopes),
                self._resolve_scalar(predicate.right, combined, scopes),
            )
        if isinstance(predicate, Conjunction):
            return Conjunction(
                tuple(
                    self._resolve_predicate(p, combined, scopes)
                    for p in predicate.parts
                )
            )
        if isinstance(predicate, Disjunction):
            return Disjunction(
                tuple(
                    self._resolve_predicate(p, combined, scopes)
                    for p in predicate.parts
                )
            )
        if isinstance(predicate, Negation):
            return Negation(self._resolve_predicate(predicate.part, combined, scopes))
        return predicate

    def _resolve_scalar(self, scalar, combined: Schema, scopes):
        if isinstance(scalar, ColumnRef):
            return ColumnRef(self._resolve_column(scalar.name, combined, scopes))
        return scalar

    def _owning_table(self, conjunct: Predicate, scopes) -> Optional[str]:
        """The single table binding a conjunct references, if exactly one."""
        columns = conjunct.columns()
        owners = set()
        for ref, schema in scopes:
            if any(name in schema for name in columns):
                owners.add(ref.binding)
        if len(owners) == 1:
            return owners.pop()
        return None

    def _join_tree(self, scopes, leaves, conjuncts) -> LogicalExpression:
        """A connected left-deep join tree; the optimizer reorders it."""
        if len(scopes) == 1:
            expression = leaves[scopes[0][0].binding]
            if conjuncts:
                expression = select(expression, conjunction_of(conjuncts))
            return expression
        bindings = {ref.binding: schema for ref, schema in scopes}
        joined = {scopes[0][0].binding}
        expression = leaves[scopes[0][0].binding]
        available = set(bindings[scopes[0][0].binding].column_names)
        remaining = list(conjuncts)
        unjoined = [ref.binding for ref, _ in scopes[1:]]
        while unjoined:
            progress = False
            for binding in list(unjoined):
                candidate_columns = available | set(bindings[binding].column_names)
                applicable = [
                    conjunct
                    for conjunct in remaining
                    if conjunct.columns() <= candidate_columns
                ]
                if applicable:
                    expression = join(
                        expression, leaves[binding], conjunction_of(applicable)
                    )
                    for conjunct in applicable:
                        remaining.remove(conjunct)
                    available = candidate_columns
                    joined.add(binding)
                    unjoined.remove(binding)
                    progress = True
                    break
            if not progress:
                if not self.allow_cross_products:
                    raise SqlError(
                        "query requires a Cartesian product (missing join "
                        "predicate); enable cross products to allow it"
                    )
                binding = unjoined.pop(0)
                expression = join(expression, leaves[binding], conjunction_of([]))
                available |= set(bindings[binding].column_names)
                joined.add(binding)
        if remaining:
            expression = select(expression, conjunction_of(remaining))
        return expression


def translate(
    text: str, catalog: Catalog, allow_cross_products: bool = False
) -> Translation:
    """Convenience: parse and translate query text."""
    return Translator(catalog, allow_cross_products).translate(text)
