"""The seed is the only source of variation in what the program is asked."""

import pytest

from perf import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_pass_other_seed_other_pass(name):
    def described(seed):
        built = workloads.BUILDERS[name](seed)
        return [op.describe() for op in (built if isinstance(built, list) else [built])]

    assert described(3) == described(3)  # byte-identical pass lists
    assert described(3) != described(4)
    assert workloads.digest(name, 3) == workloads.digest(name, 3)
    assert workloads.digest(name, 3) != workloads.digest(name, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_cold_and_batch_shared_keep_their_strata(seed):
    ops = workloads.search_cold(seed)
    assert [(op.relations, op.shape) for op in ops] == list(workloads.SEARCH_STRATA)
    batches = workloads.batch_shared(seed)
    assert len(batches) == len(workloads.BATCH_STRATA)
    for batch in batches:
        assert len(batch.queries) == 8
        assert len(set(batch.queries)) == 8  # no two queries of a batch are one query


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_serve_mixed_cold_share_is_exactly_a_fifth(seed):
    mixed = workloads.serve_mixed(seed)
    flags = workloads.cold_slots(mixed)
    for client, requests in zip(flags, mixed.requests):
        assert len(requests) == 60
        assert sum(client) * 5 == len(requests)  # exactly 20 %
    # Nothing but its own first request can answer a statement: the clients'
    # sets are disjoint and no two statements share a parameterized template.
    first, second = (set(requests) for requests in mixed.requests)
    assert not first & second
    keys = [statement.key for statement in mixed.statements]
    assert len(set(keys)) == len(keys)
    assert set(mixed.writes) == {name for name, _, _ in mixed.tables}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serve_warm_primes_the_bases_and_a_quarter_are_variants(seed):
    warm = workloads.serve_warm(seed)
    statements = warm.statements
    assert len(statements) == 40 and len(warm.prime) == 30
    for variant in statements[30:]:
        bases = [s for s in statements[:30] if s.key == variant.key]
        assert len(bases) == 1  # the variant hits through its base's template ...
        assert bases[0].sql != variant.sql  # ... never through an exact entry
    assert [len(requests) for requests in warm.requests] == [100, 100]
    assert not warm.writes
    assert not any(any(flags) and not warm.prime for flags in workloads.cold_slots(warm))
