"""ServiceOptions.verify_plans: verified serving, quarantine, sharing.

The policy under test: fresh answers are verified before caching, a hit
is served only under a (plan, certificate) pair the checker accepted —
verified once, not once per hit — a failing entry (and its template
sibling) is quarantined and the query transparently re-optimized, and
a sharing pass that fails verification is discarded wholesale.
"""

import dataclasses

import pytest

from repro.models.relational import relational_model
from repro.search import SearchOptions, VolcanoOptimizer
from repro.service import OptimizerService, ServiceOptions
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog

SPEC = relational_model()


def make_service(catalog, **options):
    optimizer = VolcanoOptimizer(
        SPEC, catalog, SearchOptions(check_consistency=False)
    )
    return OptimizerService(
        optimizer, options=ServiceOptions(verify_plans=True, **options)
    )


@pytest.fixture
def catalog():
    names = ["t0", "t1", "t2", "t3"]
    return make_catalog(
        [(name, 500 + 100 * i) for i, name in enumerate(names)]
    )


def corrupt_cached_certificate(service):
    """Double the claimed cost inside every cached certificate."""
    touched = 0
    for digest, entry in list(service.cache._entries.items()):
        if entry.certificate is None:
            continue
        cost = entry.certificate.claimed_cost
        bad = dataclasses.replace(entry.certificate, claimed_cost=cost + cost)
        service.cache._entries[digest] = dataclasses.replace(
            entry, certificate=bad
        )
        touched += 1
    return touched


def swap_cached_plan(service, fingerprint, plan):
    """Put ``plan`` under the cached entry's (now foreign) certificate."""
    entry = service.cache.peek(fingerprint)
    service.cache._entries[fingerprint.digest] = dataclasses.replace(
        entry, plan=plan
    )


def test_fresh_answers_are_verified(catalog):
    service = make_service(catalog)
    served = service.optimize(chain_query(["t0", "t1", "t2"]))
    assert not served.cached
    assert served.certificate is not None
    assert served.verified
    assert service.stats.verify_violations == 0


def test_hits_are_reverified(catalog):
    service = make_service(catalog)
    query = chain_query(["t0", "t1", "t2"])
    service.optimize(query)
    served = service.optimize(query)
    assert served.cached
    assert served.verified
    assert service.stats.verified_hits == 1
    assert service.stats.quarantined == 0


def test_an_entry_is_verified_once_not_once_per_hit(catalog):
    service = make_service(catalog)
    query = chain_query(["t0", "t1", "t2"])
    service.optimize(query)
    assert service.stats.verifications == 1  # the fresh answer
    hits = [service.optimize(query) for _ in range(5)]
    assert all(hit.cached and hit.verified for hit in hits)
    assert service.stats.verified_hits == 5
    assert service.stats.verifications == 1
    assert service.stats.verify_violations == service.stats.quarantined == 0


def test_an_entry_put_without_a_mark_is_verified_on_its_first_hit(catalog):
    service = make_service(catalog, parameterized=False)
    query = chain_query(["t0", "t1", "t2"])
    fresh = service.optimize(query)
    entry = service.cache.peek(fresh.fingerprint)
    assert entry.verified
    # Somebody else's entry: the same plan and certificate, no mark.
    service.cache.put(dataclasses.replace(entry, accepted=None))
    assert not service.cache.peek(fresh.fingerprint).verified

    first, second = service.optimize(query), service.optimize(query)
    assert first.cached and first.verified and second.verified
    assert service.stats.verifications == 2  # fresh + the first hit only
    assert service.stats.verified_hits == 2
    assert service.cache.peek(fresh.fingerprint).verified
    assert service.stats.insertions == 2  # marking is not an insertion


def test_a_reoptimized_entry_is_verified_anew_after_a_statistics_bump(catalog):
    service = make_service(catalog)
    query = chain_query(["t0", "t1", "t2"])
    service.optimize(query)
    service.optimize(query)
    catalog.update_statistics("t1", catalog.table("t1").statistics)

    again = service.optimize(query)
    assert not again.cached and again.verified
    assert service.stats.verifications == 2
    assert service.optimize(query).verified
    assert service.stats.verifications == 2
    assert service.stats.verified_hits == 2


def test_verification_off_by_default(catalog):
    optimizer = VolcanoOptimizer(
        SPEC, catalog, SearchOptions(check_consistency=False)
    )
    service = OptimizerService(optimizer)
    query = chain_query(["t0", "t1"])
    assert not service.optimize(query).verified
    assert not service.optimize(query).verified
    assert service.stats.verified_hits == 0


def test_corrupted_entry_is_quarantined_and_reoptimized(catalog):
    service = make_service(catalog)
    query = chain_query(["t0", "t1", "t2"])
    first = service.optimize(query)
    assert corrupt_cached_certificate(service) == 1

    served = service.optimize(query)
    # Not the tainted entry: the hit failed verification, the entry was
    # dropped, and the query was transparently re-optimized.
    assert not served.cached
    assert served.verified
    assert served.plan.to_sexpr() == first.plan.to_sexpr()
    assert service.stats.verify_violations == 1
    assert service.stats.quarantined == 1

    # The re-optimization re-cached a clean entry.
    again = service.optimize(query)
    assert again.cached
    assert again.verified
    assert service.stats.quarantined == 1


def test_the_mark_is_an_identity_not_a_flag(catalog):
    # ``dataclasses.replace`` copies the mark onto the corrupted entry;
    # it must not vouch for objects the checker never saw.
    service = make_service(catalog)
    query = chain_query(["t0", "t1", "t2"])
    fresh = service.optimize(query)
    assert service.cache.peek(fresh.fingerprint).verified
    corrupt_cached_certificate(service)
    entry = service.cache.peek(fresh.fingerprint)
    assert entry.accepted is not None and not entry.verified
    swap_cached_plan(service, fresh.fingerprint, fresh.plan.inputs[0])
    entry = service.cache.peek(fresh.fingerprint)
    assert entry.accepted is not None and not entry.verified


def test_a_swapped_plan_is_quarantined_with_its_template_sibling(catalog):
    service = make_service(catalog, parameterized=True)
    query = chain_query(["t0", "t1", "t2"])
    first = service.optimize(query)
    other = service.optimize(chain_query(["t1", "t2", "t3"]))
    entries_before = len(service.cache._entries)
    assert service.optimize(query).verified  # a verified hit, then the swap
    swap_cached_plan(service, first.fingerprint, other.plan)
    verifications = service.stats.verifications

    served = service.optimize(query)
    # The very next hit: caught, dropped with its sibling, re-optimized.
    assert not served.cached and not served.parameterized
    assert served.verified
    assert served.plan.to_sexpr() == first.plan.to_sexpr()
    assert service.stats.verify_violations == 1
    assert service.stats.quarantined == 1
    assert service.stats.verifications == verifications + 2  # the hit, the re-run
    assert len(service.cache._entries) == entries_before
    assert service.optimize(query).cached


def test_quarantine_also_drops_the_template_sibling(catalog):
    # The parameterized template entry was stored by the same engine run
    # as the quarantined exact entry; serving it unverified would dodge
    # the quarantine.  It must fall with the exact entry.
    service = make_service(catalog, parameterized=True)
    query = chain_query(["t0", "t1", "t2"])
    service.optimize(query)
    entries_before = len(service.cache._entries)
    corrupt_cached_certificate(service)

    served = service.optimize(query)
    assert not served.cached
    assert not served.parameterized
    assert served.verified
    # Both the exact entry and its template sibling were purged before
    # the re-optimization stored fresh ones.
    assert service.stats.quarantined == 1
    assert len(service.cache._entries) == entries_before


def lose_first_lookup(service, monkeypatch, probes=1):
    """Make the next lookup's ``cache.get`` probes miss, as if they ran
    before another flight stored the entries — the late-leader re-check
    then finds them."""
    real_get = service.cache.get
    remaining = [probes]

    def get(fingerprint):
        remaining[0] -= 1
        if not remaining[0]:
            monkeypatch.setattr(service.cache, "get", real_get)
        return None

    monkeypatch.setattr(service.cache, "get", get)


def test_late_leader_hit_is_reverified(catalog, monkeypatch):
    service = make_service(catalog, parameterized=False)
    query = chain_query(["t0", "t1", "t2"])
    first = service.optimize(query)
    before = service.stats.counters()

    lose_first_lookup(service, monkeypatch)
    served = service.optimize(query)
    assert served.cached
    assert served.verified
    assert served.plan.to_sexpr() == first.plan.to_sexpr()
    after = service.stats.counters()
    changed = {
        name: after[name] - value
        for name, value in before.items()
        if after[name] != value and not name.endswith("_seconds")
    }
    assert changed == {"lookups": 1, "hits": 1, "verified_hits": 1}


def test_late_leader_quarantines_a_failing_entry(catalog, monkeypatch):
    service = make_service(catalog, parameterized=True)
    query = chain_query(["t0", "t1", "t2"])
    service.optimize(query)
    entries_before = len(service.cache._entries)
    corrupt_cached_certificate(service)

    lose_first_lookup(service, monkeypatch, probes=2)  # exact, then template
    served = service.optimize(query)
    # The re-check found the tainted entry, dropped it with its template
    # sibling, and the flight went on to a fresh verified optimization.
    assert not served.cached
    assert served.verified
    assert service.stats.verify_violations == 1
    assert service.stats.quarantined == 1
    assert len(service.cache._entries) == entries_before
    assert service.optimize(query).verified


def shared_workload(seed=7, n_tables=5, relations=(2, 4)):
    return QueryGenerator(
        WorkloadOptions(selectivity_range=(0.1, 0.1))
    ).generate_shared(count=8, seed=seed, n_tables=n_tables, relations=relations)


SHARED_SHAPES = [
    (seed, n_tables, relations)
    for n_tables, relations in ((5, (2, 4)), (6, (3, 5)))
    for seed in (1, 2, 3, 4)
]


@pytest.mark.parametrize(
    "seed, n_tables, relations",
    SHARED_SHAPES,
    ids=[f"seed{seed}-{n}tables" for seed, n, _ in SHARED_SHAPES],
)
def test_batch_sharing_is_certified_end_to_end(seed, n_tables, relations):
    from repro.verify import verify_plan

    workload = shared_workload(seed, n_tables, relations)
    service = make_service(workload.catalog, parameterized=False)
    queries = [item.query for item in workload.queries]
    required = workload.queries[0].required

    batch = service.optimize_many(queries, required)
    assert all(r.verified for r in batch.results)
    assert batch.cache_stats.verify_violations == 0
    assert batch.cache_stats.quarantined == 0
    report = batch.sharing_report
    assert report is not None
    # Certificates are surfaced only for a pass that shared something.
    expected = len(report.plans) if report.shared_plans else 0
    assert len(batch.consumer_certificates) == expected
    assert len(batch.producer_certificates) == len(report.shared_plans)
    checked = list(zip(report.plans, batch.consumer_certificates))
    checked += [
        (shared.plan, certificate)
        for shared, certificate in zip(
            report.shared_plans, batch.producer_certificates
        )
    ]
    for plan, certificate in checked:
        assert len(certificate.claims) == len(list(plan.walk()))
        verdict = verify_plan(
            SPEC, certificate.source, plan, certificate, catalog=workload.catalog
        )
        assert verdict.ok, verdict.render()


def test_an_uncertifiable_sharing_pass_is_quarantined(monkeypatch):
    # One pre-sharing certificate the pass cannot index (the builder's
    # best-effort failure has no claims): the pass cannot certify its
    # rewrites, so none of them is served.
    workload = shared_workload()
    service = make_service(workload.catalog, parameterized=False)
    queries = [item.query for item in workload.queries]
    required = workload.queries[0].required
    real_optimize_batch = service.optimizer.optimize_batch
    outcomes = []

    def optimize_batch(*args, **kwargs):
        results = list(real_optimize_batch(*args, **kwargs))
        first = results[0]
        results[0] = dataclasses.replace(
            first, certificate=dataclasses.replace(first.certificate, claims=())
        )
        outcomes.extend(results)
        return results

    monkeypatch.setattr(service.optimizer, "optimize_batch", optimize_batch)
    batch = service.optimize_many(queries, required)
    assert len(batch.results) == len(queries)
    assert not batch.shared_plans
    assert batch.sharing_report.plans == tuple(r.plan for r in outcomes)
    assert batch.consumer_certificates == ()
    assert batch.producer_certificates == ()
    assert batch.cache_stats.quarantined == 1


def test_failing_sharing_pass_is_discarded(monkeypatch):
    # Force every verification to fail: individual answers are still
    # served (and counted), but no unverified shared plan escapes — the
    # sharing report degenerates to the original per-query plans.
    import repro.verify as verify_module

    workload = shared_workload()
    service = make_service(workload.catalog, parameterized=False)
    queries = [item.query for item in workload.queries]
    required = workload.queries[0].required

    class _Failing:
        ok = False
        diagnostics = ()

        def render(self):
            return "forced failure"

    monkeypatch.setattr(
        verify_module, "verify_plan", lambda *a, **k: _Failing()
    )
    batch = service.optimize_many(queries, required)
    assert len(batch.results) == len(queries)
    assert not any(r.verified for r in batch.results)
    assert not batch.shared_plans
    assert batch.consumer_certificates == ()
    assert batch.producer_certificates == ()
    assert batch.cache_stats.quarantined >= 1


def test_stats_counters_round_trip_as_dict(catalog):
    service = make_service(catalog)
    query = chain_query(["t0", "t1"])
    service.optimize(query)
    service.optimize(query)
    snapshot = service.stats.as_dict()
    assert snapshot["verified_hits"] == 1
    assert snapshot["verify_violations"] == 0
    assert snapshot["quarantined"] == 0
