"""The ``required=`` deprecation warning points at the *caller's* line.

The shim in ``_resolve_props`` must warn with the stacklevel of the code
that passed the deprecated keyword — not the engine's internals — so
users can find and fix the call site from the warning alone.
"""

import warnings

import pytest

from repro.algebra.properties import sorted_on
from repro.exodus import ExodusOptimizer
from repro.models.relational import relational_model
from repro.search.engine import VolcanoOptimizer
from repro.systemr import SystemROptimizer

from tests.helpers import chain_query, make_catalog


def call_with_required(optimizer, query):
    return optimizer.optimize(query, required=sorted_on("a.k"))


# The optimize() call is the line right after the def.
CALL_LINE = call_with_required.__code__.co_firstlineno + 1


@pytest.mark.parametrize(
    "engine_cls",
    [VolcanoOptimizer, ExodusOptimizer, SystemROptimizer],
)
def test_required_warning_reports_the_callers_line(engine_cls):
    catalog = make_catalog([("a", 500), ("b", 800)])
    optimizer = engine_cls(relational_model(), catalog)
    query = chain_query(["a", "b"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call_with_required(optimizer, query)
    assert result.plan is not None
    deprecations = [
        record for record in caught
        if issubclass(record.category, DeprecationWarning)
        and "required" in str(record.message)
    ]
    assert len(deprecations) == 1
    record = deprecations[0]
    assert record.filename == __file__
    assert record.lineno == CALL_LINE


def test_positional_props_do_not_warn():
    catalog = make_catalog([("a", 500), ("b", 800)])
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        optimizer.optimize(chain_query(["a", "b"]), sorted_on("a.k"))
    assert not [
        record for record in caught
        if issubclass(record.category, DeprecationWarning)
    ]
