"""Slotted frozen values keep the contract of the dataclasses they replaced.

``CpuIoCost``, ``GroupExpression`` and ``LogicalExpression`` are built
on every costing and rewrite, so they are hand-written ``__slots__``
classes instead of frozen dataclasses.  They must still refuse
assignment, copy and pickle to equal values, and — since their cached
hashes mix strings, whose hashes differ per process — rebuild their hash
wherever a pickle is loaded.
"""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import repro
from repro.algebra.expressions import LogicalExpression, group_leaf
from repro.algebra.predicates import eq
from repro.model.cost import CpuIoCost
from repro.search.memo import GroupExpression

VALUES = [
    CpuIoCost(12.5, 3.0, 100.0),
    GroupExpression("join", (eq("r.k", "s.k"),), (1, 2)),
    LogicalExpression("join", (eq("r.k", "s.k"),), (group_leaf(1), group_leaf(2))),
]
IDS = ["CpuIoCost", "GroupExpression", "LogicalExpression"]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_raises_frozen_instance_error(value):
    field = value.__slots__[0]
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(value, field)
    with pytest.raises(FrozenInstanceError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_copy_and_pickle_round_trips_compare_equal(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_repr_reads_like_the_dataclass_repr():
    assert repr(CpuIoCost(1.0, 2.0)) == "CpuIoCost(cpu=1.0, io=2.0, io_weight=100.0)"
    assert repr(GroupExpression("get", ("r",))) == (
        "GroupExpression(operator='get', args=('r',), input_groups=())"
    )


def test_cpu_io_cost_keyword_construction_and_total():
    cost = CpuIoCost(cpu=4.0, io=2.0, io_weight=10.0)
    assert (cost.cpu, cost.io, cost.io_weight) == (4.0, 2.0, 10.0)
    assert cost.total() == 24.0
    assert CpuIoCost() == CpuIoCost(0.0, 0.0)


BUILD = (
    "from repro.algebra.predicates import eq\n"
    "from repro.search.memo import GroupExpression\n"
    "built = GroupExpression('join', (eq('r.k', 's.k'), 'tag'), (3, 5))\n"
)


def run_under_hash_seed(seed, script, stdin=b""):
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = str(seed)
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    environment["PYTHONPATH"] = os.pathsep.join(
        [source, environment.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        env=environment,
        capture_output=True,
        check=True,
    ).stdout


def test_group_expression_pickled_in_one_process_hashes_right_in_another():
    pickled = run_under_hash_seed(
        1, BUILD + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(built))\n"
    )
    verdict = run_under_hash_seed(
        2,
        BUILD
        + "import pickle, sys\n"
        + "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        + "print(hash(loaded) == hash(built), loaded == built, {built: 'hit'}[loaded])\n",
        stdin=pickled,
    )
    assert verdict.split() == [b"True", b"True", b"hit"]
