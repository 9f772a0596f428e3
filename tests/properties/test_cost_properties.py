"""Property-based tests for the cost ADT (hypothesis)."""

import math

import hypothesis.strategies as st
from hypothesis import example, given

from repro.model.cost import INFINITE_COST, CpuIoCost, ResourceCost, ScalarCost

finite = st.floats(0, 1e9, allow_nan=False, allow_infinity=False)
scalars = st.builds(ScalarCost, finite)
cpu_io = st.builds(CpuIoCost, finite, finite)


@given(scalars, scalars)
def test_scalar_addition_commutes(a, b):
    assert (a + b).total() == (b + a).total()


@given(cpu_io, cpu_io)
def test_cpu_io_addition_commutes(a, b):
    left, right = a + b, b + a
    assert left.cpu == right.cpu and left.io == right.io


@given(cpu_io, cpu_io, cpu_io)
def test_cpu_io_addition_associates(a, b, c):
    left = (a + b) + c
    right = a + (b + c)
    assert math.isclose(left.total(), right.total(), rel_tol=1e-9)


@given(cpu_io, cpu_io)
def test_subtraction_inverts_addition(a, b):
    roundtrip = (a + b) - b
    assert abs(roundtrip.cpu - a.cpu) < 1e-6 * max(1.0, a.cpu)
    assert abs(roundtrip.io - a.io) < 1e-6 * max(1.0, a.io)


@given(cpu_io, cpu_io)
def test_comparison_total_order(a, b):
    assert (a < b) or (b < a) or (a == b)
    assert not (a < b and b < a)


@given(cpu_io)
def test_infinite_absorbs(a):
    assert a + INFINITE_COST is INFINITE_COST
    assert a < INFINITE_COST or a.total() == float("inf")
    assert not INFINITE_COST < a


@given(cpu_io, cpu_io, cpu_io)
def test_adding_cost_is_monotone(a, b, c):
    if a < b:
        assert a + c <= b + c


# Small value domains so that different records often share a total —
# CpuIoCost(100, 0) == CpuIoCost(0, 1) — which is where eq and hash can
# disagree.
small = st.sampled_from([0.0, 1.0, 2.0, 100.0, 200.0, float("inf")])
weights = st.sampled_from([1.0, 100.0])
any_cost = st.one_of(
    st.just(INFINITE_COST),
    st.builds(ScalarCost, small),
    st.builds(CpuIoCost, small.filter(math.isfinite), small.filter(math.isfinite), weights),
    st.builds(
        ResourceCost,
        small.filter(math.isfinite),
        small.filter(math.isfinite),
        small.filter(math.isfinite),
        st.sampled_from([0.0, 100.0, 1 << 20]),
        weights,
    ),
)


@example(CpuIoCost(100.0, 0.0), CpuIoCost(0.0, 1.0))
@example(ScalarCost(float("inf")), INFINITE_COST)
@given(any_cost, any_cost)
def test_equal_costs_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
