"""The bounded, version-aware plan cache behind the optimizer service.

A plain LRU mapping from :class:`~repro.service.fingerprint.Fingerprint`
digests to cached plans, with two twists:

* every entry remembers the per-table statistics versions it was built
  under, so :meth:`PlanCache.purge_stale` can drop exactly the entries
  whose tables have changed — no TTLs, no global flushes;
* every operation is counted in :class:`CacheStats`, mirroring how the
  search engine itself exposes :class:`~repro.search.SearchStats`.

Both are safe under concurrent access: the long-lived server
(:mod:`repro.server`) runs optimizations on a thread pool against one
shared cache, so :class:`PlanCache` guards its LRU structure with a
lock and :class:`CacheStats` mutations go through the atomic
:meth:`CacheStats.bump`.  A consistent point-in-time copy of the
counters — what the server's stats endpoint serves — comes from
:meth:`CacheStats.snapshot`, which freezes the copy against further
mutation.

:class:`StatementLRU` is the smaller sibling: the bounded text-keyed LRU
behind the service's statement memo and the server's prepared statements.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import PhysProps
from repro.catalog.catalog import Catalog
from repro.errors import ServiceError
from repro.service.fingerprint import Fingerprint

__all__ = ["CacheStats", "CacheEntry", "PlanCache", "StatementLRU"]

#: Bound of every :class:`StatementLRU` (the statement memo, the
#: server's prepared statements): a constant, not an option.
MAX_STATEMENTS = 1024


@dataclass
class CacheStats:
    """Operation counters of one :class:`PlanCache`.

    ``hits`` counts exact-fingerprint hits only; a lookup served from a
    parameterized template counts under ``parameterized_hits`` (the
    service tries exact first, then the template).  ``invalidations``
    counts entries dropped because a table's statistics version moved,
    ``evictions`` entries dropped by the LRU bound.  ``degraded`` counts
    engine answers produced under a tripped resource budget — the
    service serves them but never caches them, so the counter lets
    operators tell fast-because-cached answers from
    fast-because-degraded ones.

    ``shared_waits`` counts answers served by *waiting on another
    in-flight optimization of the same fingerprint* (per-key
    single-flight deduplication: one engine run per cold key, every
    concurrent requester shares its answer).

    ``hit_seconds`` accumulates the *service-side* latency of answers
    served from the cache, and ``engine_seconds`` the engine wall-clock
    of fresh runs.  The split exists so batch drivers never double-count:
    a warm hit's latency is the lookup cost actually paid *now*, not the
    original optimization's ``SearchStats.elapsed_seconds`` (which was
    already accounted under ``engine_seconds`` when the entry was
    built).

    With ``ServiceOptions.verify_plans`` on, three more counters track
    the independent checker (:mod:`repro.verify`): ``verified_hits``
    counts cache hits served under a certificate the checker accepted,
    ``verify_violations`` every P-diagnosed verification failure (fresh
    or cached), and ``quarantined`` entries (or sharing passes) dropped
    because their certificate no longer checked out.  ``verifications``
    counts the times the checker actually ran: once per fresh answer
    and per entry not yet accepted (:attr:`CacheEntry.verified`), not
    once per hit.

    Concurrency contract: writers call :meth:`bump` (atomic under an
    internal lock — a bare ``stats.hits += 1`` from two threads can
    lose an increment between the read and the write-back); readers
    wanting a consistent multi-counter view call :meth:`snapshot`,
    which returns a *frozen* copy — further :meth:`bump` calls on the
    copy raise, so a snapshot handed to a stats endpoint can never
    mutate under the response serializer.
    """

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    parameterized_hits: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    degraded: int = 0
    shared_waits: int = 0
    verified_hits: int = 0
    verify_violations: int = 0
    quarantined: int = 0
    verifications: int = 0
    hit_seconds: float = 0.0
    engine_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._frozen = False

    def bump(self, **deltas: float) -> None:
        """Atomically add ``deltas`` to the named counters.

        The one sanctioned mutation path: the read-add-write of every
        named counter happens under one lock acquisition, so concurrent
        workers never lose increments and multi-counter updates (a hit
        plus its latency, say) land together.
        """
        if self._frozen:
            raise ServiceError("cannot bump a frozen CacheStats snapshot")
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def snapshot(self) -> "CacheStats":
        """A consistent, *frozen* point-in-time copy of the counters.

        Taken under the same lock :meth:`bump` uses, so no in-flight
        update is half-visible.  The copy rejects further ``bump``
        calls — it is a value, not a live view.
        """
        with self._lock:
            copy = CacheStats(**{
                f.name: getattr(self, f.name) for f in dataclasses.fields(self)
            })
        copy._frozen = True
        return copy

    @property
    def frozen(self) -> bool:
        """Whether this is an immutable :meth:`snapshot` copy."""
        return self._frozen

    def counters(self) -> Dict[str, float]:
        """The raw counter fields as a dict (no derived metrics)."""
        with self._lock:
            return {
                f.name: getattr(self, f.name) for f in dataclasses.fields(self)
            }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (either way)."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.parameterized_hits) / self.lookups

    def as_dict(self) -> Dict[str, float]:
        """The counters as a plain dict (for reports and assertions)."""
        payload = self.counters()
        payload["hit_rate"] = self.hit_rate
        return payload

    def __str__(self) -> str:
        return (
            f"{self.lookups} lookups, {self.hits} hits "
            f"(+{self.parameterized_hits} parameterized), "
            f"{self.misses} misses, {self.evictions} evictions, "
            f"{self.invalidations} invalidations"
        )


@dataclass(frozen=True)
class CacheEntry:
    """One cached answer: the plan, its cost, and what it depends on.

    ``certificate`` is the plan's provenance certificate
    (:class:`~repro.verify.PlanCertificate`) when the producing engine
    emitted one.  Template (parameterized) entries never carry one —
    re-bound literals would not match the recorded derivation.

    ``accepted`` is the **verified-once mark**: the very ``(plan,
    certificate)`` objects the independent checker accepted under this
    entry's fingerprint.  The fingerprint pins the expression, the
    properties and the statistics version of every table read, the model
    is fixed per service and both objects are frozen, so the checker is
    a pure function of what the mark pins: a :attr:`verified` entry
    would pass again and is served without a second run.  The mark is
    compared by identity — ``replace`` copies it, not the objects it
    names, so a swapped plan or certificate is unverified again.
    """

    fingerprint: Fingerprint
    plan: PhysicalPlan
    cost: object
    required: PhysProps
    parameterized: bool = False
    certificate: Optional[object] = None
    accepted: Optional[Tuple[PhysicalPlan, object]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def verified(self) -> bool:
        """Whether the checker accepted exactly this plan and certificate."""
        mark = self.accepted
        return (
            mark is not None and mark[0] is self.plan and mark[1] is self.certificate
        )

    def marked(self) -> "CacheEntry":
        """This entry, marked as accepted by the checker as it stands."""
        return dataclasses.replace(self, accepted=(self.plan, self.certificate))


@dataclass
class PlanCache:
    """An LRU plan cache keyed by fingerprint digest.

    ``max_entries`` bounds the cache; inserting beyond it evicts the
    least recently used entry.  Hits refresh recency.

    Thread-safe: every structural operation (lookup, insert, removal,
    sweep) holds one internal lock, so concurrent server workers see a
    consistent LRU and never corrupt the underlying ordered dict.
    """

    max_entries: int = 512
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.max_entries <= 0:
            raise ServiceError("max_entries must be positive")
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: Fingerprint) -> Optional[CacheEntry]:
        """Look up an entry; counts a hit/miss and refreshes recency."""
        with self._lock:
            entry = self._entries.get(fingerprint.digest)
            if entry is None:
                self.stats.bump(lookups=1, misses=1)
                return None
            self._entries.move_to_end(fingerprint.digest)
            if entry.parameterized:
                self.stats.bump(lookups=1, parameterized_hits=1)
            else:
                self.stats.bump(lookups=1, hits=1)
            return entry

    def peek(self, fingerprint: Fingerprint) -> Optional[CacheEntry]:
        """Look up an entry without counting or refreshing recency.

        The single-flight re-check path: a late leader (whose first
        lookup missed before another thread populated the entry) probes
        once more before paying for an engine run.
        """
        with self._lock:
            return self._entries.get(fingerprint.digest)

    def put(self, entry: CacheEntry) -> None:
        """Insert (or refresh) an entry, evicting LRU past the bound."""
        with self._lock:
            digest = entry.fingerprint.digest
            if digest in self._entries:
                self._entries.move_to_end(digest)
            self._entries[digest] = entry
            self.stats.bump(insertions=1)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            if evicted:
                self.stats.bump(evictions=evicted)

    def accept(self, entry: CacheEntry) -> None:
        """Mark ``entry`` verified where it sits, if it is still cached.

        Not an insertion: nothing is counted and recency is untouched.
        """
        with self._lock:
            digest = entry.fingerprint.digest
            if self._entries.get(digest) is entry:
                self._entries[digest] = entry.marked()

    def remove(self, fingerprint: Fingerprint) -> bool:
        """Drop one entry by fingerprint (certificate quarantine).

        Returns whether an entry was actually present.  Counted under
        ``stats.quarantined`` by the caller, not here — removal is also
        used by tests as a plain eviction primitive.
        """
        with self._lock:
            return self._entries.pop(fingerprint.digest, None) is not None

    def purge_stale(self, catalog: Catalog) -> int:
        """Drop every entry whose table versions no longer match.

        Returns the number of entries invalidated.  An entry is stale
        when any table it reads has been re-registered, dropped, or had
        its statistics updated since the entry was cached — detected by
        comparing the recorded per-table versions with the catalog's
        current ones.  Entries over unchanged tables are untouched.
        """
        with self._lock:
            stale = []
            for digest, entry in self._entries.items():
                for name, version in zip(
                    entry.fingerprint.tables, entry.fingerprint.versions
                ):
                    if name not in catalog or catalog.table_version(name) != version:
                        stale.append(digest)
                        break
            for digest in stale:
                del self._entries[digest]
            if stale:
                self.stats.bump(invalidations=len(stale))
            return len(stale)

    def invalidate_table(self, name: str) -> int:
        """Drop every entry that reads ``name``; returns how many."""
        with self._lock:
            stale = [
                digest
                for digest, entry in self._entries.items()
                if name in entry.fingerprint.tables
            ]
            for digest in stale:
                del self._entries[digest]
            if stale:
                self.stats.bump(invalidations=len(stale))
            return len(stale)

    def clear(self) -> None:
        """Drop everything (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def entries(self) -> Tuple[CacheEntry, ...]:
        """A snapshot of the entries, LRU first."""
        with self._lock:
            return tuple(self._entries.values())


class StatementLRU:
    """A bounded, locked LRU from statement text to what was derived from it.

    A value is stored under a freshness ``stamp`` (the statement memo's
    is the catalog snapshot it was resolved under) and found only under
    the same one; the next :meth:`put` of its key **replaces a stale value in
    place**, so there is one value per live text, never a superseded
    one beside its successor.  ``hits``/``misses`` count :meth:`get`.
    """

    def __init__(self, max_entries: int = MAX_STATEMENTS) -> None:
        self.max_entries = max_entries
        self.hits = self.misses = 0
        self._entries: "OrderedDict[str, Tuple[Any, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, stamp: Any = None) -> Any:
        """The value stored for ``key`` under ``stamp``, else None."""
        with self._lock:
            found = self._entries.get(key)
            if found is None or found[0] != stamp:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return found[1]

    def peek(self, key: str) -> Any:
        """The value stored for ``key`` under any stamp, else None;
        neither counted nor made recent."""
        with self._lock:
            found = self._entries.get(key)
            return None if found is None else found[1]

    def put(self, key: str, value: Any, stamp: Any = None) -> None:
        """Store (or replace) ``key``, evicting the least recently used."""
        with self._lock:
            self._entries[key] = (stamp, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def counters(self) -> Dict[str, int]:
        """``{entries, hits, misses}``, for a stats endpoint."""
        with self._lock:
            return {"entries": len(self), "hits": self.hits, "misses": self.misses}
