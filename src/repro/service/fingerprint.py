"""Canonical plan-cache fingerprints.

A cached plan is the answer to the question "what is the cheapest plan
for *this* logical expression delivering *these* physical properties
under *these* statistics?" — so the cache key must pin down all three.
The fingerprint digests:

* the expression's canonical s-expression rendering (predicates print
  deterministically: conjunctions are flattened, deduplicated, and
  sorted by :func:`~repro.algebra.predicates.conjunction_of`);
* the required physical property vector;
* the selectivity bucket key, when the expression is a parameterized
  template (empty for exact entries);
* the per-table statistics versions of every stored table the
  expression reads, taken from the catalog's monotonic version counter.

Baking the statistics versions into the key means stale entries are
never *hit* — a stats mutation bumps the version, so the same query
re-fingerprints to a new key and misses.  The stale entries themselves
are swept out by :meth:`~repro.service.PlanCache.purge_stale`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.algebra.expressions import LogicalExpression
from repro.algebra.properties import PhysProps
from repro.catalog.catalog import Catalog, CatalogSnapshot

__all__ = ["Fingerprint", "table_dependencies", "fingerprint", "stable_key"]


@dataclass(frozen=True)
class Fingerprint:
    """A cache key: content digest plus the table versions it pins.

    ``digest``
        SHA-256 over the canonical rendering of (expression, properties,
        bucket key, table versions) — the dictionary key.
    ``tables``
        The stored tables the expression reads, sorted.
    ``versions``
        Each table's statistics version at fingerprint time, aligned
        with ``tables``.
    """

    digest: str
    tables: Tuple[str, ...]
    versions: Tuple[int, ...]

    def __str__(self) -> str:
        return self.digest[:12]


def table_dependencies(
    expression: LogicalExpression, catalog: Union[Catalog, CatalogSnapshot]
) -> Tuple[str, ...]:
    """The stored tables a logical expression reads, sorted and unique."""
    names = {
        node.args[0]
        for node in expression.walk()
        if node.operator == "get" and node.args and node.args[0] in catalog
    }
    return tuple(sorted(names))


def fingerprint(
    expression: LogicalExpression,
    props: PhysProps,
    catalog: Union[Catalog, CatalogSnapshot],
    bucket_key: Tuple = (),
    *,
    sexpr: Optional[str] = None,
) -> Fingerprint:
    """Fingerprint a query (or parameterized template) for the plan cache.

    ``sexpr`` is ``expression.to_sexpr()`` when the caller has already
    rendered it (a request renders its query once for every digest).
    """
    tables = table_dependencies(expression, catalog)
    versions = tuple(catalog.table_version(name) for name in tables)
    payload = "\x1f".join(
        (
            sexpr if sexpr is not None else expression.to_sexpr(),
            str(props),
            repr(bucket_key),
            repr(tuple(zip(tables, versions))),
        )
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return Fingerprint(digest=digest, tables=tables, versions=versions)


def stable_key(
    expression: LogicalExpression, props: PhysProps, *, sexpr: Optional[str] = None
) -> str:
    """A version-independent identity for (query, required properties).

    Cache fingerprints bake per-table statistics versions into their
    digest, so the same query gets a *new* fingerprint after every
    refresh — exactly right for invalidation, exactly wrong for plan
    management, where pins and incumbents must track a query across
    refreshes.  This digest covers only the canonical s-expression
    (``sexpr``, when the caller has already rendered it) and the
    property vector.
    """
    if sexpr is None:
        sexpr = expression.to_sexpr()
    payload = "\x1f".join((sexpr, str(props)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
