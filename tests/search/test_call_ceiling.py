"""A ceiling on the Python-level calls one search makes.

Wall-clock is noisy; the count of Python function calls is not, and on
this search it tracks the time closely (each rule binding, costing and
memo insertion is a handful of calls).  A change that puts calls back
on the per-binding path shows here first.

The count is exact for a given interpreter and the same under any
``PYTHONHASHSEED``: 1 331 179 calls on CPython 3.10 and 3.11 for the
batch below (1 917 416 before the compiled matcher, the single
fingerprint hash and the slotted memo values).  CPython 3.12 inlines
comprehensions and reads 1 290 688, so the assertion is a ceiling, with
3 % of room, not an equality.
"""

import sys

from repro.models.relational import relational_model
from repro.search import VolcanoOptimizer
from repro.workloads import QueryGenerator

CALLS = 1_331_179
CEILING = int(CALLS * 1.03)


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


def test_eight_relation_batch_stays_under_its_call_ceiling():
    spec = relational_model()
    batch = QueryGenerator().generate_batch(8, 10, seed=7)
    engines = [(VolcanoOptimizer(spec, item.catalog), item) for item in batch]

    def optimize_all():
        for engine, item in engines:
            engine.optimize(item.query, item.required)

    # Warm the process-wide tables (interned group leaves, the model's
    # pure-function caches) so the count does not depend on test order.
    optimize_all()
    assert count_calls(optimize_all) <= CEILING
