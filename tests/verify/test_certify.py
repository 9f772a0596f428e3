"""Certificate production by the Volcano engine.

The engine's plan nodes carry their own claims, read off after the
search, and the derivation chain is read from the memo's record.
Degraded anytime plans carry the ``degraded`` kind.  In every case the
independent checker must accept the result.  (EXODUS and System R keep
no memo and produce no certificate; their plans are checked by
execution, ``tests/integration/test_end_to_end.py``.)
"""

import pytest

from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.verify import KIND_DEGRADED, KIND_SEARCH, verify_plan
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog

from .conftest import SPEC

def certified_engine(catalog, **overrides):
    return VolcanoOptimizer(
        SPEC,
        catalog,
        SearchOptions(
            check_consistency=False, certificates=True, **overrides
        ),
    )


@pytest.fixture(scope="module")
def chain_case():
    names = [f"t{i}" for i in range(5)]
    catalog = make_catalog(
        [(name, 500 + 100 * i) for i, name in enumerate(names)]
    )
    return catalog, chain_query(names)


def test_memo_engine_certificates_verify(chain_case):
    catalog, query = chain_case
    result = certified_engine(catalog).optimize(query)
    assert result.certificate is not None
    assert result.certificate.kind == KIND_SEARCH
    assert result.certificate.engine == "VolcanoOptimizer"
    report = verify_plan(
        SPEC, query, result.plan, result.certificate, catalog=catalog
    )
    assert report.ok, report.render()


def test_certificates_off_by_default(chain_case):
    catalog, query = chain_case
    engine = VolcanoOptimizer(
        SPEC, catalog, SearchOptions(check_consistency=False)
    )
    assert engine.optimize(query).certificate is None


def test_batch_certificates_verify(chain_case):
    catalog, _ = chain_case
    names = ["t0", "t1", "t2"]
    queries = [
        chain_query(names),
        chain_query(names[:2]),
        chain_query(list(reversed(names))),
    ]
    engine = certified_engine(catalog)
    results = engine.optimize_batch(queries)
    assert len(results) == len(queries)
    for query, result in zip(queries, results):
        assert result.certificate is not None
        report = verify_plan(
            SPEC, query, result.plan, result.certificate, catalog=catalog
        )
        assert report.ok, report.render()


def test_degraded_plan_carries_degraded_kind(chain_case):
    catalog, query = chain_case
    engine = certified_engine(catalog)
    result = engine.optimize(
        query,
        options=engine.options.replace(
            budget=ResourceBudget(max_rule_firings=5)
        ),
    )
    assert result.degraded
    assert result.certificate is not None
    assert result.certificate.kind == KIND_DEGRADED
    report = verify_plan(
        SPEC, query, result.plan, result.certificate, catalog=catalog
    )
    assert report.ok, report.render()


def test_certificate_cost_matches_result(chain_case):
    catalog, query = chain_case
    result = certified_engine(catalog).optimize(query)
    assert result.certificate.claimed_cost == result.cost


def chain_steps(results):
    """Total derivation-chain length; every certificate bears a chain."""
    certificates = [result.certificate for result in results]
    assert all(c.steps or c.frontier == c.source for c in certificates)
    return sum(len(c.steps) for c in certificates)


def test_golden_chain_length_is_pinned():
    """The 42 golden queries' chains total 45 steps, under any
    ``PYTHONHASHSEED``: a longer chain would raise ``verify_plan``'s
    cost on every fresh verified answer."""
    workload = QueryGenerator(
        WorkloadOptions(selectivity_range=(0.1, 0.1))
    ).generate_shared(count=42, seed=7, n_tables=6, relations=(2, 4))
    engine = certified_engine(workload.catalog)
    required = workload.queries[0].required
    assert chain_steps(
        engine.optimize(item.query, required) for item in workload.queries
    ) == 45


@pytest.mark.parametrize(
    "size, steps", [(4, 42), (5, 68), (6, 97), (7, 111), (8, 153)]
)
def test_figure4_chain_length_is_pinned(size, steps):
    """``generate_batch(size, 10, seed=7)``: 471 steps over sizes 4–8."""
    assert chain_steps(
        certified_engine(query.catalog).optimize(query.query, query.required)
        for query in QueryGenerator().generate_batch(size, 10, seed=7)
    ) == steps
