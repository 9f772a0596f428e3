"""The optimizer service: cross-query plan caching (S17).

Fronts any :class:`~repro.search.Optimizer` with a fingerprint-keyed,
statistics-version-invalidated LRU plan cache and parameterized caching
of literal-normalized templates; a batch's misses share one memo.
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
    "SharedPlan",
    "SharingOptions",
    "SharingReport",
]
