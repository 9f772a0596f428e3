"""Property coverage: certificates hold across models and shapes.

Hypothesis drives random catalogs and join chains through the Volcano
engine; every winning plan's certificate must survive a pickle
round-trip and satisfy the independent checker.  A parametrized sweep
extends the same acceptance claim to every bundled model
specification, and the same sweep rejects a plan node that names no
rule.
"""

import dataclasses
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.predicates import eq
from repro.models.relational import get, join, select
from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.search.certify import CertificateBuilder
from repro.verify import KIND_DEGRADED, KIND_SEARCH, verify_plan

from tests.generator.test_codegen_all_models import MODELS, build_spec
from tests.helpers import chain_query, make_catalog

from .conftest import SPEC

table_sizes = st.lists(st.integers(100, 7200), min_size=2, max_size=4)


@settings(max_examples=20, deadline=None)
@given(table_sizes, st.booleans())
def test_certificates_verify_and_round_trip(sizes, select_first):
    names = [f"t{i}" for i in range(len(sizes))]
    catalog = make_catalog(list(zip(names, sizes)))
    query = chain_query(names)
    if select_first:
        query = select(query, eq(f"{names[0]}.v", 1))
    engine = VolcanoOptimizer(
        SPEC,
        catalog,
        SearchOptions(check_consistency=False, certificates=True),
    )
    result = engine.optimize(query)
    certificate = result.certificate
    assert certificate is not None
    assert certificate.kind in (KIND_SEARCH, KIND_DEGRADED)
    thawed = pickle.loads(pickle.dumps(certificate))
    assert thawed == certificate
    report = verify_plan(SPEC, query, result.plan, thawed, catalog=catalog)
    assert report.ok, report.render()


@pytest.mark.parametrize(
    "name, budget",
    [pytest.param(name, None, id=name) for name in sorted(MODELS)]
    + [
        pytest.param(name, ResourceBudget(max_costings=1), id=f"{name}-tripped")
        for name in sorted(MODELS)
    ],
)
def test_every_bundled_model_verifies(name, budget):
    # The same relational-shaped query every model supports (see
    # tests/generator/test_codegen_all_models.py).  A tripped budget
    # certifies the greedy fallback's plan instead of the search's.
    spec = build_spec(name)
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    query = join(select(get("r"), eq("r.v", 1)), get("s"), eq("r.k", "s.k"))
    engine = VolcanoOptimizer(
        spec,
        catalog,
        SearchOptions(check_consistency=False, certificates=True, budget=budget),
    )
    result = engine.optimize(query)
    assert result.degraded == (budget is not None)
    assert result.stats.greedy_plans == (budget is not None)
    assert result.certificate is not None
    assert result.certificate.kind == (KIND_DEGRADED if budget else KIND_SEARCH)
    report = verify_plan(
        spec, query, result.plan, result.certificate, catalog=catalog
    )
    assert report.ok, report.render()


def strip_rule(plan):
    """``plan`` with its first algorithm node (in pre-order) naming no rule."""
    if plan.is_enforcer:
        return dataclasses.replace(plan, inputs=(strip_rule(plan.inputs[0]),))
    return dataclasses.replace(plan, rule=None)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_bundled_model_rejects_a_node_that_names_no_rule(name):
    # The builder pins each node's move by the rule the node names and
    # re-derives nothing, so a node that names none (a hand-built one, or
    # a memo-less engine's) gets a claim-less certificate.
    spec = build_spec(name)
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    query = join(select(get("r"), eq("r.v", 1)), get("s"), eq("r.k", "s.k"))
    engine = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False)
    )
    result = engine.optimize(query)
    builder = CertificateBuilder(
        result.memo, engine._run_moves(engine._new_run(engine.options, result.memo))
    )
    for plan, codes in ((result.plan, set()), (strip_rule(result.plan), {"P002"})):
        certificate = builder.certify(query, plan, result.required)
        report = verify_plan(spec, query, plan, certificate, catalog=catalog)
        assert {d.code for d in report.diagnostics} == codes, report.render()
    assert not certificate.claims
