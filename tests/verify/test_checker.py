"""verify_plan unit behaviour: shape gates and targeted P-codes.

The corruption matrix lives in tests/verify/test_mutations.py; this
module pins the checker's direct contract — what passes, what each
shape violation reports, and that verification needs no memo and no
catalog (catalog-dependent checks are skipped, not failed).
"""

import dataclasses
import pickle

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import conjunction_of, eq
from repro.models.relational import get, join, select
from repro.verify import (
    KIND_DEGRADED,
    KIND_SEARCH,
    PlanCertificate,
    VerifyReport,
    verify_plan,
)

from .conftest import SPEC


def codes(report: VerifyReport):
    return {diagnostic.code for diagnostic in report.diagnostics}


def test_genuine_certificate_verifies(certified_case):
    catalog, query, result = certified_case
    report = verify_plan(
        SPEC, query, result.plan, result.certificate, catalog=catalog
    )
    assert report.ok
    assert result.certificate.kind == KIND_SEARCH


def test_verifies_without_catalog(certified_case):
    # The checker degrades gracefully: statistics-dependent checks are
    # skipped when no catalog is supplied, everything else still runs.
    _, query, result = certified_case
    report = verify_plan(SPEC, query, result.plan, result.certificate)
    assert report.ok


def test_missing_certificate_is_p001(certified_case):
    catalog, query, result = certified_case
    report = verify_plan(SPEC, query, result.plan, None, catalog=catalog)
    assert not report.ok
    assert codes(report) == {"P001"}


def test_wrong_certificate_type_is_p001(certified_case):
    catalog, query, result = certified_case
    report = verify_plan(
        SPEC, query, result.plan, "not a certificate", catalog=catalog
    )
    assert not report.ok
    assert codes(report) == {"P001"}


def test_unknown_kind_is_p001(certified_case):
    catalog, query, result = certified_case
    bogus = dataclasses.replace(result.certificate, kind="hearsay")
    report = verify_plan(SPEC, query, result.plan, bogus, catalog=catalog)
    assert not report.ok
    assert codes(report) == {"P001"}


def test_foreign_source_is_p003(certified_case):
    catalog, query, result = certified_case
    other = join(get("r"), get("s"), eq("r.k", "s.k"))
    report = verify_plan(
        SPEC, other, result.plan, result.certificate, catalog=catalog
    )
    assert not report.ok
    assert "P003" in codes(report)


def test_claim_count_mismatch_is_p002(certified_case):
    catalog, query, result = certified_case
    truncated = dataclasses.replace(
        result.certificate, claims=result.certificate.claims[:-1]
    )
    report = verify_plan(SPEC, query, result.plan, truncated, catalog=catalog)
    assert not report.ok
    assert "P002" in codes(report)


def test_doubled_claimed_cost_is_p3xx(certified_case):
    catalog, query, result = certified_case
    cost = result.certificate.claimed_cost
    inflated = dataclasses.replace(result.certificate, claimed_cost=cost + cost)
    report = verify_plan(SPEC, query, result.plan, inflated, catalog=catalog)
    assert not report.ok
    assert any(code.startswith("P3") for code in codes(report))


def test_reversed_frontier_is_p4xx(certified_case):
    catalog, query, result = certified_case
    frontier = result.certificate.frontier
    swapped = LogicalExpression(
        frontier.operator, frontier.args, tuple(reversed(frontier.inputs))
    )
    mangled = dataclasses.replace(result.certificate, frontier=swapped)
    report = verify_plan(SPEC, query, result.plan, mangled, catalog=catalog)
    assert not report.ok
    assert any(code.startswith("P4") for code in codes(report))


def test_report_is_deterministic(certified_case):
    catalog, query, result = certified_case
    first = verify_plan(
        SPEC, query, result.plan, result.certificate, catalog=catalog
    )
    second = verify_plan(
        SPEC, query, result.plan, result.certificate, catalog=catalog
    )
    assert first.ok and second.ok
    assert [str(d) for d in first.diagnostics] == [
        str(d) for d in second.diagnostics
    ]


def test_certificate_survives_pickle(certified_case):
    catalog, query, result = certified_case
    thawed = pickle.loads(pickle.dumps(result.certificate))
    assert isinstance(thawed, PlanCertificate)
    assert thawed == result.certificate
    assert verify_plan(SPEC, query, result.plan, thawed, catalog=catalog).ok


# -- P404: a degraded certificate without a chain falls back to the
# normalizer, which must prove source and frontier equivalent.


def _chainless_degraded(certificate, source):
    return dataclasses.replace(
        certificate, kind=KIND_DEGRADED, steps=(), source=source
    )


def test_chainless_degraded_certificate_verifies_by_normal_form(certified_case):
    catalog, _, result = certified_case
    # The frontier is ((σr ⋈ s) ⋈ t); this source is σr ⋈ (t ⋈ s):
    # re-associated and commuted, with the same conjuncts.
    source = join(
        select(get("r"), eq("r.v", 1)),
        join(get("t"), get("s"), eq("s.k", "t.k")),
        eq("r.k", "s.k"),
    )
    assert source != result.certificate.frontier
    certificate = _chainless_degraded(result.certificate, source)
    report = verify_plan(SPEC, source, result.plan, certificate, catalog=catalog)
    assert report.ok, [str(diagnostic) for diagnostic in report.diagnostics]


def test_chainless_degraded_frontier_dropping_a_conjunct_is_p404(certified_case):
    catalog, _, result = certified_case
    # The source joins on one more conjunct than the frontier carries.
    source = join(
        select(get("r"), eq("r.v", 1)),
        join(get("t"), get("s"), eq("s.k", "t.k")),
        conjunction_of([eq("r.k", "s.k"), eq("r.v", "s.v")]),
    )
    certificate = _chainless_degraded(result.certificate, source)
    report = verify_plan(SPEC, source, result.plan, certificate, catalog=catalog)
    assert codes(report) == {"P404"}
