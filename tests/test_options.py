"""Tests for the shared options contract (frozen, validated, replaceable)."""

import dataclasses

import pytest

from repro.errors import OptionsError
from repro.exodus import ExodusOptions
from repro.options import QueryHints, ResourceBudget
from repro.search import SearchOptions
from repro.service import ServiceOptions
from repro.systemr import SystemROptions

OPTION_CLASSES = [SearchOptions, ExodusOptions, SystemROptions, ServiceOptions]


@pytest.mark.parametrize("cls", OPTION_CLASSES)
def test_options_are_frozen(cls):
    options = cls()
    field = dataclasses.fields(options)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(options, field, object())


@pytest.mark.parametrize("cls", OPTION_CLASSES)
def test_options_are_keyword_only(cls):
    first = dataclasses.fields(cls)[0]
    with pytest.raises(TypeError):
        cls(getattr(cls(), first.name))


@pytest.mark.parametrize("cls", OPTION_CLASSES)
def test_replace_returns_validated_copy(cls):
    options = cls()
    field = dataclasses.fields(options)[0].name
    copy = options.replace(**{field: getattr(options, field)})
    assert copy == options
    assert copy is not options


def test_validation_rejects_bad_knobs():
    with pytest.raises(OptionsError):
        SearchOptions(max_groups=0)
    with pytest.raises(OptionsError):
        ExodusOptions(node_budget=-1)
    with pytest.raises(OptionsError):
        ServiceOptions(max_entries=0)
    with pytest.raises(OptionsError):
        ServiceOptions(selectivity_buckets=-3)
    for cls in (SearchOptions, ServiceOptions, QueryHints):
        with pytest.raises(OptionsError, match="kernel"):
            cls(kernel="compiled")
    with pytest.raises(OptionsError, match="kernel"):
        QueryHints(kernel=123)  # a hint names a tier; only options take objects


def test_query_hints_carry_no_budget():
    # The run budget travels as optimize(budget=...), once.
    with pytest.raises(TypeError):
        QueryHints(budget=ResourceBudget(max_costings=5))


@pytest.mark.parametrize(
    "budget, deadline, expected",
    [
        (None, None, None),
        (None, 2.0, ResourceBudget(deadline_seconds=2.0)),
        (ResourceBudget(max_costings=7), None, ResourceBudget(max_costings=7)),
        (
            ResourceBudget(max_costings=7),
            2.0,
            ResourceBudget(max_costings=7, deadline_seconds=2.0),
        ),
        (  # a looser existing deadline is tightened
            ResourceBudget(max_rule_firings=3, deadline_seconds=5.0),
            2.0,
            ResourceBudget(max_rule_firings=3, deadline_seconds=2.0),
        ),
        (  # a tighter existing deadline stands
            ResourceBudget(deadline_seconds=0.5),
            2.0,
            ResourceBudget(deadline_seconds=0.5),
        ),
        # No floor here: the server's 0.05 s minimum is the caller's.
        (None, 0.001, ResourceBudget(deadline_seconds=0.001)),
    ],
)
def test_tighten_folds_a_deadline_into_a_budget(budget, deadline, expected):
    assert ResourceBudget.tighten(budget, deadline) == expected


def test_tighten_revalidates():
    with pytest.raises(OptionsError):
        ResourceBudget.tighten(None, 0.0)


def test_replace_revalidates():
    with pytest.raises(OptionsError):
        SearchOptions().replace(max_groups=-5)


def test_options_error_is_repro_error():
    from repro.errors import ReproError

    assert issubclass(OptionsError, ReproError)
