"""A ceiling on the Python-level calls one search makes.

Wall-clock is noisy; the count of Python function calls is not, and on
this search it tracks the time closely (each rule binding, costing and
memo insertion is a handful of calls).  A change that puts calls back
on the per-binding path shows here first.

The count is exact for a given interpreter and the same under any
``PYTHONHASHSEED``: 919 085 calls on CPython 3.11 for the batch below
since rule masks skip the join firings that re-derive a member
(1 331 179 before them, on 3.10 and 3.11; 1 917 416 before the compiled
matcher, the single fingerprint hash and the slotted memo values).
CPython 3.10 and 3.12 are unmeasured since the masks; before them 3.12,
which inlines comprehensions, read 1 290 688.  So the assertion is a
ceiling, with 3 % of room, not an equality.

A certified search (``SearchOptions(certificates=True)``) builds each
result's certificate after the search and is pinned separately: 962 765
calls on CPython 3.11 since plan nodes carry their own claims (965 384
while the engine recorded a claim beside every node it built).
"""

import sys

import pytest

from repro.models import relational
from repro.models.relational import relational_model
from repro.search import SearchOptions, VolcanoOptimizer
from repro.workloads import QueryGenerator

CALLS = {False: 919_085, True: 962_765}


def count_calls(call) -> int:
    count = 0

    def hook(frame, event, argument):
        nonlocal count
        if event == "call":
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("certificates", [False, True], ids=["plain", "certified"])
def test_eight_relation_batch_stays_under_its_call_ceiling(certificates):
    spec = relational_model()
    batch = QueryGenerator().generate_batch(8, 10, seed=7)
    options = SearchOptions(certificates=certificates)
    engines = [(VolcanoOptimizer(spec, item.catalog, options), item) for item in batch]

    def optimize_all():
        for engine, item in engines:
            engine.optimize(item.query, item.required)

    # Warm the process-wide tables (interned group leaves, the model's
    # pure-function caches) so the count does not depend on test order.
    # The module-level memo starts empty: it is keyed by predicate
    # objects, and an equal batch optimized earlier in the process would
    # leave keys that each lookup must compare by value.
    relational._equi_pairs_cache.clear()
    optimize_all()
    assert count_calls(optimize_all) <= int(CALLS[certificates] * 1.03)
