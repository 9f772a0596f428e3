"""Kernel parity: specialized kernels must be byte-identical to interpreted.

The generated move loops (:mod:`repro.generator.kernel`) only swap the
engine's binding enumerators, so every observable — plans, costs,
provenance certificates, deterministic search counters, budget behavior,
memo invariants — must match the interpreted engine exactly, for every
bundled model.
"""

import importlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.generator import clear_kernel_caches
from repro.lint.invariants import MemoAuditor
from repro.models.relational import (
    RelationalModelOptions,
    get,
    join,
    relational_model,
    select,
)
from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog

MODELS = {
    "relational": ("repro.models.relational", "relational_model"),
    "aggregates": ("repro.models.aggregates", "aggregate_model"),
    "oodb": ("repro.models.oodb", "oodb_model"),
    "parallel": ("repro.models.parallel", "parallel_relational_model"),
    "setops": ("repro.models.setops", "setops_model"),
}


def build_spec(name):
    module_name, attribute = MODELS[name]
    return getattr(importlib.import_module(module_name), attribute)()


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    clear_kernel_caches()
    yield
    clear_kernel_caches()


def golden_queries():
    """A small golden set every bundled model can optimize."""
    return [
        (join(get("r"), get("s"), eq("r.k", "s.k")), None),
        (
            join(
                select(get("r"), eq("r.v", 1)), get("s"), eq("r.k", "s.k")
            ),
            None,
        ),
        (chain_query(["r", "s", "t"]), None),
        (chain_query(["r", "s", "t"]), sorted_on("r.k")),
    ]


def assert_identical(base, kernelized):
    """Every observable of the two runs must agree byte for byte."""
    assert base.plan.to_sexpr() == kernelized.plan.to_sexpr()
    assert base.cost == kernelized.cost
    assert (base.certificate is None) == (kernelized.certificate is None)
    if base.certificate is not None:
        assert base.certificate.claims == kernelized.certificate.claims
        assert base.certificate.steps == kernelized.certificate.steps
        assert base.certificate.claimed_cost == (
            kernelized.certificate.claimed_cost
        )
    for counter in (
        "groups_created",
        "expressions_created",
        "algorithm_costings",
        "rule_bindings_tried",
    ):
        assert getattr(base.stats, counter) == getattr(
            kernelized.stats, counter
        ), counter


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_kernel_parity_all_models(model_name):
    """5 bundled models x golden queries."""
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    interpreted = SearchOptions(certificates=True)
    kernelized = SearchOptions(certificates=True, kernel="specialized")
    for query, required in golden_queries():
        spec = build_spec(model_name)
        base = VolcanoOptimizer(spec, catalog, interpreted).optimize(query, required)
        optimizer = VolcanoOptimizer(spec, catalog, kernelized)
        auditor = MemoAuditor()
        auditor.attach(optimizer)
        result = optimizer.optimize(query, required)
        assert_identical(base, result)
        assert auditor.violations == []


def test_kernel_parity_generated_workload():
    """The Figure 4 workload: larger joins, required properties."""
    spec = relational_model()
    generator = QueryGenerator(WorkloadOptions())
    interpreted = SearchOptions(check_consistency=False, certificates=True)
    kernelized = SearchOptions(
        check_consistency=False, certificates=True, kernel="specialized"
    )
    for query in generator.generate_batch(5, 4, seed=31):
        base = VolcanoOptimizer(spec, query.catalog, interpreted).optimize(
            query.query, query.required
        )
        result = VolcanoOptimizer(spec, query.catalog, kernelized).optimize(
            query.query, query.required
        )
        assert_identical(base, result)


def test_kernel_respects_budgets():
    """A tripped budget degrades identically under the kernel."""
    spec = relational_model()
    generator = QueryGenerator(WorkloadOptions())
    query = generator.generate(7, seed=11)
    budget = ResourceBudget(max_costings=200)
    for kernel in (None, "specialized"):
        options = SearchOptions(
            check_consistency=False, budget=budget, kernel=kernel
        )
        result = VolcanoOptimizer(spec, query.catalog, options).optimize(
            query.query
        )
        assert result.degraded
        if kernel is None:
            base = result
    assert base.plan.to_sexpr() == result.plan.to_sexpr()
    assert base.cost == result.cost


def test_kernel_parity_min_promise_pruning():
    """Promise-threshold pruning must prune identically under the kernel."""
    spec = relational_model()
    generator = QueryGenerator(WorkloadOptions())
    query = generator.generate(5, seed=47)
    results = {}
    for kernel in (None, "specialized"):
        options = SearchOptions(
            check_consistency=False, min_promise=1.0, kernel=kernel
        )
        results[kernel] = VolcanoOptimizer(
            spec, query.catalog, options
        ).optimize(query.query)
    base, kernelized = results[None], results["specialized"]
    assert base.plan.to_sexpr() == kernelized.plan.to_sexpr()
    assert base.stats.moves_pruned == kernelized.stats.moves_pruned


@settings(max_examples=15, deadline=None)
@given(
    cross=st.booleans(),
    nested=st.booleans(),
    filter_scan=st.booleans(),
    pushdown=st.booleans(),
    permutations=st.integers(min_value=1, max_value=4),
)
def test_kernel_parity_random_model_tweaks(
    cross, nested, filter_scan, pushdown, permutations
):
    """Hypothesis: any relational-model variant stays byte-identical."""
    options = RelationalModelOptions(
        allow_cross_products=cross,
        enable_nested_loops=nested or cross,
        enable_filter_scan=filter_scan,
        select_pushdown=pushdown,
        max_merge_key_permutations=permutations,
    )
    spec = relational_model(options)
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    query = chain_query(["r", "s", "t"])
    base = VolcanoOptimizer(spec, catalog, SearchOptions()).optimize(query)
    result = VolcanoOptimizer(
        spec, catalog, SearchOptions(kernel="specialized")
    ).optimize(query)
    assert base.plan.to_sexpr() == result.plan.to_sexpr()
    assert base.cost == result.cost
    assert base.stats.algorithm_costings == result.stats.algorithm_costings
    assert base.stats.rule_bindings_tried == result.stats.rule_bindings_tried
