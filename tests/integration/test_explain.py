"""Tests for the EXPLAIN renderer."""

import pytest

from repro.algebra.properties import sorted_on
from repro.explain import explain, explain_plan
from repro.models.relational import relational_model
from repro.search import VolcanoOptimizer

from tests.helpers import chain_query, make_catalog


@pytest.fixture(scope="module")
def result():
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    return optimizer.optimize(chain_query(["r", "s", "t"]), props=sorted_on("r.k"))


def test_explain_plan_lists_every_operator(result):
    text = explain_plan(result.plan)
    for node in result.plan.walk():
        assert node.algorithm in text


def test_explain_plan_has_header_and_costs(result):
    text = explain_plan(result.plan)
    lines = text.splitlines()
    assert "operator" in lines[0] and "cum. cost" in lines[0]
    assert f"{result.cost.total():.1f}" in text


def test_explain_marks_enforcers(result):
    text = explain_plan(result.plan)
    if any(node.is_enforcer for node in result.plan.walk()):
        assert "(enforcer)" in text


def test_local_costs_sum_to_total(result):
    total = sum(node.local.total() for node in result.plan.walk())
    assert total == pytest.approx(result.cost.total())


def test_explain_includes_goal_and_stats(result):
    text = explain(result)
    assert "goal:" in text
    assert "search:" in text
    assert "sorted(r.k)" in text
