"""Every library exception survives a process boundary.

The CLI server runs its searches in engine processes, and whatever an
engine raises comes back pickled: a subclass whose constructor takes
other arguments than the ``args`` it stores must still come back as
itself, with the same message and the same attributes.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

import repro.errors as errors
from repro.catalog.schema import Column, Schema
from repro.options import BudgetReport, ResourceBudget
from repro.search.tracing import SearchStats

_REPORT = BudgetReport(
    tripped="costings",
    phase="costing",
    elapsed_seconds=0.25,
    costings=10,
    rule_firings=4,
    budget=ResourceBudget(max_costings=10),
)

#: Constructor arguments of the classes whose ``__init__`` is their own;
#: every other class takes one message.
_ARGUMENTS = {
    errors.UnknownTableError: ("x",),
    errors.UnknownColumnError: ("c", Schema([Column("a"), Column("b")])),
    errors.OptimizationFailedError: (),
    errors.SqlError: ("unexpected token", 7),
    errors.MemoryLimitExceededError: (10, 5),
    errors.BudgetExceededError: ("batch budget exhausted", _REPORT, SearchStats()),
    errors.ServerError: ("engine pool is broken", 503),
    errors.AdmissionError: ("queue full", "queue_full"),
}

_CLASSES = [getattr(errors, name) for name in errors.__all__]


def test_every_class_with_its_own_constructor_has_arguments():
    own = {
        cls for cls in _CLASSES if "__init__" in vars(cls)
    }
    assert own == set(_ARGUMENTS)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_exception_round_trips_through_pickle(cls):
    error = cls(*_ARGUMENTS.get(cls, ("something went wrong",)))
    error.stats = SearchStats(groups_created=3)  # as the engine attaches it
    back = pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)


def test_round_trip_does_not_call_the_constructor_again():
    back = pickle.loads(pickle.dumps(errors.UnknownTableError("x")))
    assert str(back) == "unknown table: 'x'"
    assert back.table_name == "x"
    limit = pickle.loads(pickle.dumps(errors.MemoryLimitExceededError(10, 5)))
    assert (limit.node_count, limit.budget) == (10, 5)
    refused = pickle.loads(pickle.dumps(errors.AdmissionError("full", "timeout")))
    assert (refused.status, refused.reason) == (429, "timeout")


def test_every_class_is_listed():
    defined = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, errors.ReproError)
    }
    assert defined == set(errors.__all__)
