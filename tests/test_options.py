"""Tests for the shared options contract (frozen, validated, replaceable)."""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.errors import OptionsError
from repro.exodus import ExodusOptions
from repro.options import ResourceBudget, ServerOptions
from repro.search import SearchOptions, SharingOptions
from repro.service import ServiceOptions
from repro.systemr import SystemROptions

PLAN_CACHE_DOC = Path(__file__).resolve().parents[1] / "docs" / "plan-cache.md"

OPTION_CLASSES = [SearchOptions, ExodusOptions, SystemROptions, ServiceOptions]

# Every knob, by name.  Adding one (or moving an engine knob back up into
# the service or the wire) must be a deliberate edit of this table.
FIELD_NAMES = {
    SearchOptions: {
        "branch_and_bound",
        "cache_failures",
        "min_promise",
        "check_consistency",
        "max_groups",
        "budget",
        "trace",
        "certificates",
        "kernel",
    },
    SharingOptions: {"enabled", "max_materializations"},
    ServiceOptions: {
        "max_entries",
        "parameterized",
        "selectivity_buckets",
        "feedback_policy",
        "sharing",
        "verify_plans",
    },
    ServerOptions: {
        "max_concurrent",
        "max_queue_depth",
        "queue_timeout_seconds",
        "guard_plans",
        "guard_threshold",
        "guard_slack_cap",
        "verify_pins",
        "workers",
        "drain_seconds",
        "request_timeout_seconds",
    },
}


@pytest.mark.parametrize("cls", FIELD_NAMES, ids=lambda cls: cls.__name__)
def test_option_field_names_are_pinned(cls):
    assert {field.name for field in dataclasses.fields(cls)} == FIELD_NAMES[cls]


def test_plan_cache_knobs_table_lists_every_service_option():
    text = PLAN_CACHE_DOC.read_text(encoding="utf-8")
    table = text.split("## Knobs", 1)[1].split("\n\n", 2)[1]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert len(documented) == len(FIELD_NAMES[ServiceOptions]) == 6
    assert set(documented) == FIELD_NAMES[ServiceOptions]


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


def test_retired_promise_model_field_is_rejected():
    with pytest.raises(TypeError):
        SearchOptions(promise_model=object())


def test_validation_rejects_bad_knobs():
    with pytest.raises(OptionsError):
        SearchOptions(max_groups=0)
    with pytest.raises(OptionsError):
        ExodusOptions(node_budget=-1)
    with pytest.raises(OptionsError):
        ServiceOptions(max_entries=0)
    with pytest.raises(OptionsError):
        ServiceOptions(selectivity_buckets=-3)
    with pytest.raises(OptionsError, match="kernel"):
        SearchOptions(kernel="compiled")


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
