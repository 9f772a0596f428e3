"""Enforcer contract validation in ``ModelSpecification.enforcer_applications``.

An enforcer whose ``enforce`` returns a property vector it cannot
satisfy (or that fails to relax the goal) must be rejected with a
:class:`~repro.errors.ModelSpecError` naming the enforcer — both when
called directly and when a search engine routes enforcer applications
through the validated accessor.
"""

import pytest

from repro.algebra.expressions import LogicalExpression
from repro.algebra.properties import sorted_on
from repro.catalog import Catalog
from repro.errors import ModelSpecError
from repro.model.context import OptimizerContext
from repro.models.relational import relational_model
from repro.search.engine import VolcanoOptimizer

from tests.lint.fixture_specs import (
    _rel_props,
    broken_enforcer_no_relaxation,
    broken_enforcer_overpromise,
)


def make_context(spec):
    return OptimizerContext(spec, Catalog())


def output_props():
    return _rel_props(None, (), ())


def test_overpromising_enforcer_rejected_by_name():
    spec = broken_enforcer_overpromise()
    with pytest.raises(ModelSpecError, match="bad_sort"):
        spec.enforcer_applications(
            "bad_sort", make_context(spec), sorted_on("c1"), output_props()
        )


def test_non_relaxing_enforcer_rejected_by_name():
    spec = broken_enforcer_no_relaxation()
    with pytest.raises(ModelSpecError, match="lazy_sort"):
        spec.enforcer_applications(
            "lazy_sort", make_context(spec), sorted_on("c1"), output_props()
        )


def test_wellbehaved_enforcer_passes_validation():
    spec = relational_model()
    context = make_context(spec)
    applications = spec.enforcer_applications(
        "sort", context, sorted_on("c1"), output_props()
    )
    assert applications
    for application in applications:
        assert application.delivered.covers(sorted_on("c1"))
        assert application.relaxed != sorted_on("c1")


@pytest.mark.parametrize(
    "builder,name",
    [
        (broken_enforcer_overpromise, "bad_sort"),
        (broken_enforcer_no_relaxation, "lazy_sort"),
    ],
)
def test_engine_surfaces_broken_enforcers(builder, name):
    spec = builder()
    optimizer = VolcanoOptimizer(spec, Catalog())
    query = LogicalExpression("rel", (), ())
    with pytest.raises(ModelSpecError, match=name):
        optimizer.optimize(query, sorted_on("c1"))
