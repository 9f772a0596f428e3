"""Tests for the shared options contract (frozen, validated, replaceable)."""

import dataclasses

import pytest

from repro.errors import OptionsError
from repro.exodus import ExodusOptions
from repro.options import QueryHints
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


def test_replace_revalidates():
    with pytest.raises(OptionsError):
        SearchOptions().replace(max_groups=-5)


def test_options_error_is_repro_error():
    from repro.errors import ReproError

    assert issubclass(OptionsError, ReproError)
