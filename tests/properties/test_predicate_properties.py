"""Property-based tests for the predicate language (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given

from repro.algebra.predicates import (
    Comparison,
    ComparisonOp,
    Conjunction,
    Disjunction,
    Negation,
    col,
    conjunction_of,
    lit,
    split_conjuncts,
)
from repro.catalog.selectivity import SelectivityEstimator
from repro.catalog.statistics import ColumnStatistics

COLUMNS = ("a", "b", "c", "d")

comparisons = st.builds(
    Comparison,
    st.sampled_from(list(ComparisonOp)),
    st.sampled_from([col(name) for name in COLUMNS]),
    st.one_of(
        st.sampled_from([col(name) for name in COLUMNS]),
        st.integers(-5, 5).map(lit),
    ),
)

predicates = st.recursive(
    comparisons,
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(
            lambda parts: Conjunction(tuple(parts))
        ),
        st.lists(inner, min_size=2, max_size=3).map(
            lambda parts: Disjunction(tuple(parts))
        ),
        inner.map(Negation),
    ),
    max_leaves=6,
)

rows = st.fixed_dictionaries({name: st.integers(-5, 5) for name in COLUMNS})


@given(st.lists(predicates, max_size=4), rows)
def test_conjunction_of_evaluates_like_all(parts, row):
    combined = conjunction_of(parts)
    assert combined.evaluate(row) == all(part.evaluate(row) for part in parts)


@given(st.lists(predicates, max_size=4))
def test_conjunction_of_is_order_insensitive(parts):
    assert conjunction_of(parts) == conjunction_of(list(reversed(parts)))


@given(st.lists(predicates, max_size=4))
def test_conjunction_of_is_idempotent(parts):
    once = conjunction_of(parts)
    twice = conjunction_of([once])
    assert once == twice


@given(predicates, st.sets(st.sampled_from(COLUMNS)))
def test_split_conjuncts_partitions(predicate, available):
    available = frozenset(available)
    inside, outside = split_conjuncts(predicate, available)
    assert inside.columns() <= available
    recombined = conjunction_of([inside, outside])
    assert set(recombined.conjuncts()) == set(predicate.conjuncts())


@given(predicates, rows)
def test_split_conjuncts_preserves_semantics(predicate, row):
    inside, outside = split_conjuncts(predicate, frozenset(COLUMNS[:2]))
    original = all(part.evaluate(row) for part in predicate.conjuncts())
    assert (inside.evaluate(row) and outside.evaluate(row)) == original


@given(predicates, rows)
def test_negation_involution(predicate, row):
    assert Negation(Negation(predicate)).evaluate(row) == predicate.evaluate(row)


@given(predicates)
def test_selectivity_in_unit_interval(predicate):
    estimator = SelectivityEstimator()
    stats = {name: ColumnStatistics(10, -5, 5) for name in COLUMNS}
    assert 0.0 <= estimator.estimate(predicate, stats) <= 1.0


@given(predicates)
def test_predicates_hash_consistently(predicate):
    assert hash(predicate) == hash(predicate)
    assert predicate == predicate
