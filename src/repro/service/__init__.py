"""The optimizer service: cross-query plan caching and memo reuse (S17).

Fronts any :class:`~repro.search.Optimizer` with a fingerprint-keyed,
statistics-version-invalidated LRU plan cache, parameterized caching of
literal-normalized templates, and optional cross-query subplan seeding.
See :mod:`repro.service.service` for the full story and
``docs/plan-cache.md`` for a walkthrough.
"""

from repro.search.sharing import SharedPlan, SharingOptions, SharingReport
from repro.service.cache import CacheEntry, CacheStats, PlanCache, StatementLRU
from repro.service.fingerprint import Fingerprint, fingerprint, table_dependencies
from repro.service.singleflight import SingleFlight
from repro.service.service import (
    BatchResult,
    ExecutedResult,
    OptimizerService,
    PreparedQuery,
    ServedResult,
    ServiceOptions,
    Statement,
    SubplanLibrary,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "PlanCache",
    "StatementLRU",
    "Fingerprint",
    "fingerprint",
    "table_dependencies",
    "BatchResult",
    "ExecutedResult",
    "OptimizerService",
    "PreparedQuery",
    "ServedResult",
    "ServiceOptions",
    "Statement",
    "SingleFlight",
    "SubplanLibrary",
    "SharedPlan",
    "SharingOptions",
    "SharingReport",
]
