"""Tests for dynamic plans (incompletely specified queries)."""

import pytest

from repro.algebra.predicates import Comparison, ComparisonOp, col, eq
from repro.algebra.properties import sorted_on
from repro.catalog import Catalog
from repro.dynamic import (
    AssumedSelectivityEstimator,
    Parameter,
    bind_predicate,
    optimize_dynamic,
)
from repro.errors import PredicateError, ReproError
from repro.executor import TableSpec, populate_catalog
from repro.models.relational import get, join, relational_model, select


def param_filter(table, parameter="p"):
    """``table.v <= ?p`` — selectivity unknown until bind time."""
    return Comparison(ComparisonOp.LE, col(f"{table}.v"), Parameter(parameter))


@pytest.fixture(scope="module")
def catalog():
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 4800, key_distinct=100, value_distinct=1000),
            TableSpec("s", 4800, key_distinct=100, value_distinct=1000),
        ],
        seed=23,
    )
    return catalog


@pytest.fixture(scope="module")
def spec():
    return relational_model()


def test_parameter_cannot_evaluate_unbound():
    with pytest.raises(PredicateError):
        param_filter("r").evaluate({"r.v": 1})


def test_bind_predicate_substitutes():
    bound = bind_predicate(param_filter("r"), {"p": 42})
    assert bound.evaluate({"r.v": 10})
    assert not bound.evaluate({"r.v": 100})


def test_bind_predicate_missing_value():
    with pytest.raises(PredicateError):
        bind_predicate(param_filter("r"), {})


def test_assumed_estimator_overrides_parameterized_predicates():
    estimator = AssumedSelectivityEstimator(0.07)
    assert estimator.estimate(param_filter("r"), {}) == pytest.approx(0.07)
    # Ordinary predicates still estimate normally.
    assert estimator.estimate(eq("x", 1), {}) == pytest.approx(0.1)


def test_optimize_dynamic_requires_parameters(spec, catalog):
    with pytest.raises(ReproError):
        optimize_dynamic(spec, catalog, select(get("r"), eq("r.v", 1)))


def test_dynamic_plan_structure(spec, catalog):
    query = join(
        select(get("r"), param_filter("r")), get("s"), eq("r.k", "s.k")
    )
    dynamic = optimize_dynamic(spec, catalog, query)
    assert dynamic.parameters == ("p",)
    assert 1 <= len(dynamic.alternatives) <= 5
    # Every bucket is owned by exactly one alternative.
    buckets = sorted(
        value for alt in dynamic.alternatives for value in alt.assumed
    )
    assert buckets == sorted([0.001, 0.01, 0.1, 0.5, 1.0])
    assert "dynamic plan" in dynamic.describe()


def test_dynamic_plan_picks_by_bound_selectivity(spec, catalog):
    query = join(
        select(get("r"), param_filter("r")), get("s"), eq("r.k", "s.k")
    )
    dynamic = optimize_dynamic(spec, catalog, query)
    # v ranges over 0..999: tiny threshold → selective, huge → keep all.
    selective_plan, selective = dynamic.pick(catalog, {"p": 1})
    permissive_plan, permissive = dynamic.pick(catalog, {"p": 999})
    assert selective < 0.05
    assert permissive > 0.9
    # Plans are fully bound: no Parameter remains anywhere.
    for plan in (selective_plan, permissive_plan):
        for node in plan.walk():
            assert "?" not in " ".join(str(arg) for arg in node.args)


def test_dynamic_plan_executes_correctly(spec, catalog):
    query = join(
        select(get("r"), param_filter("r")), get("s"), eq("r.k", "s.k")
    )
    dynamic = optimize_dynamic(spec, catalog, query)
    for threshold in (5, 500, 999):
        rows = dynamic.execute(catalog, {"p": threshold})
        reference = [
            (a, b)
            for a in catalog.table("r").rows
            if a["r.v"] <= threshold
            for b in catalog.table("s").rows
            if a["r.k"] == b["s.k"]
        ]
        assert len(rows) == len(reference)
        assert all(row["r.v"] <= threshold for row in rows)


def test_dynamic_plan_with_required_props(spec, catalog):
    query = join(
        select(get("r"), param_filter("r")), get("s"), eq("r.k", "s.k")
    )
    required = sorted_on("r.k")
    dynamic = optimize_dynamic(spec, catalog, query, required=required)
    plan, _ = dynamic.pick(catalog, {"p": 100})
    assert plan.properties.covers(required)
    rows = dynamic.execute(catalog, {"p": 100})
    keys = [row["r.k"] for row in rows]
    assert keys == sorted(keys)


def test_structurally_identical_winners_are_merged(spec, catalog):
    """With one tiny table, all buckets usually share one plan shape."""
    small = Catalog()
    populate_catalog(small, [TableSpec("t", 100, key_distinct=10)], seed=3)
    dynamic = optimize_dynamic(
        spec, small, select(get("t"), param_filter("t"))
    )
    assert len(dynamic.alternatives) == 1
    assert len(dynamic.alternatives[0].assumed) == 5
