"""The logical search space has exactly the predicted size.

The paper: "The increase of Volcano's optimization costs is about
exponential, shown in an almost straight line, which mirrors exactly the
increase in the number of equivalent logical algebra expressions [13]"
(Ono & Lohman's join-enumeration counting).  Here we derive the
closed-form counts for chain and star join graphs (without cross
products) and assert the memo's exploration produces exactly them —
i.e. the transformation rules are complete *and* non-redundant for the
join space.

Chain over n relations (R1–R2–…–Rn):
  * join classes = contiguous intervals of length ≥ 2: n(n−1)/2
  * expressions in the class of interval length L: a split point on
    either side of each internal edge, times two operand orders:
    2·(L−1); summed: Σ_{L=2..n} (n−L+1)·2(L−1)

Star with hub H and k spokes:
  * join classes = nonempty spoke subsets joined to H: 2^k − 1
  * a class over m spokes splits only by peeling one spoke (the spoke
    side must stay connected): 2m expressions; total Σ C(k,m)·2m = k·2^k
"""

import pytest

from repro.algebra.predicates import eq
from repro.models.relational import get, join, relational_model
from repro.search import VolcanoOptimizer
from repro.search.extract import count_logical_expressions

from tests.helpers import make_catalog


def optimize(query, tables):
    catalog = make_catalog(tables)
    optimizer = VolcanoOptimizer(relational_model(), catalog)
    return optimizer.optimize(query)


def chain(names):
    expression = get(names[0])
    for previous, name in zip(names, names[1:]):
        expression = join(expression, get(name), eq(f"{previous}.k", f"{name}.k"))
    return expression


def star(hub, spokes):
    expression = get(hub)
    for spoke in spokes:
        expression = join(expression, get(spoke), eq(f"{hub}.k", f"{spoke}.k"))
    return expression


def chain_expression_count(n):
    joins = sum((n - length + 1) * 2 * (length - 1) for length in range(2, n + 1))
    return joins + n  # plus one get expression per base relation


def chain_group_count(n):
    return n * (n - 1) // 2 + n


def star_expression_count(k):
    return k * 2 ** k + (k + 1)


def star_group_count(k):
    return (2 ** k - 1) + (k + 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chain_space_counts(n):
    names = [f"t{i}" for i in range(n)]
    tables = [(name, 1200 + 100 * i) for i, name in enumerate(names)]
    result = optimize(chain(names), tables)
    memo, root = result.memo, result.root_group
    assert len(memo.reachable(root)) == chain_group_count(n)
    assert count_logical_expressions(memo, root) == chain_expression_count(n)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_star_space_counts(k):
    hub = "h"
    spokes = [f"s{i}" for i in range(k)]
    tables = [(hub, 1200)] + [(s, 2400 + 100 * i) for i, s in enumerate(spokes)]
    result = optimize(star(hub, spokes), tables)
    memo, root = result.memo, result.root_group
    assert len(memo.reachable(root)) == star_group_count(k)
    assert count_logical_expressions(memo, root) == star_expression_count(k)


def test_exploration_is_not_redundant():
    """No duplicate expressions: the hash table deduplicates perfectly."""
    names = [f"t{i}" for i in range(5)]
    tables = [(name, 1200) for name in names]
    result = optimize(chain(names), tables)
    memo = result.memo
    seen = set()
    for group in memo.groups():
        for mexpr in group.expressions:
            assert mexpr not in seen
            seen.add(mexpr)


def test_work_tracks_space_size():
    """Optimization work grows with the logical space, as the paper says."""
    counts, work = [], []
    for n in (3, 4, 5, 6):
        names = [f"t{i}" for i in range(n)]
        tables = [(name, 1200) for name in names]
        result = optimize(chain(names), tables)
        counts.append(count_logical_expressions(result.memo, result.root_group))
        work.append(result.stats.algorithm_costings)
    assert counts == sorted(counts)
    assert work == sorted(work)
    # Work per expression stays within a small constant band.
    ratios = [w / c for w, c in zip(work, counts)]
    assert max(ratios) / min(ratios) < 4.0
