#!/usr/bin/env python3
"""Parallel optimization: partitioning as a physical property.

"Location and partitioning in parallel and distributed systems can be
enforced with a network and parallelism operator such as Volcano's
exchange operator."  (paper, Section 4.1)

The optimizer weighs exchanges (every row crosses the interconnect)
against dividing the join work across nodes — a purely cost-based
decision over a model-defined property.

Run:  python examples/parallel_query.py
"""

from repro import Catalog, eq, generate_optimizer, get, join
from repro.executor import TableSpec, populate_catalog
from repro.models.parallel import (
    ParallelModelOptions,
    parallel_relational_model,
    partitioned_on,
)


def main() -> None:
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("fact", rows=7200, key_distinct=3600),
            TableSpec("dim", rows=7200, key_distinct=3600),
        ],
        seed=3,
    )
    query = join(get("fact"), get("dim"), eq("fact.k", "dim.k"))

    print("=== Cheap interconnect, 8 nodes: go parallel ===")
    fast_network = ParallelModelOptions(degree=8, cpu_transfer=0.1, startup=10.0)
    optimizer = generate_optimizer(parallel_relational_model(fast_network), catalog)
    result = optimizer.optimize(query)
    print(result.plan.pretty())
    print()

    print("=== Expensive interconnect: stay serial ===")
    slow_network = ParallelModelOptions(degree=8, cpu_transfer=50.0, startup=1e6)
    optimizer = generate_optimizer(parallel_relational_model(slow_network), catalog)
    result = optimizer.optimize(query)
    print(result.plan.pretty())
    print()

    print("=== The user demands partitioned output (e.g. for a parallel sink) ===")
    optimizer = generate_optimizer(parallel_relational_model(fast_network), catalog)
    required = partitioned_on(["fact.k"], 8)
    result = optimizer.optimize(query, props=required)
    print(f"goal: {required}")
    print(result.plan.pretty())
    assert result.plan.properties.covers(required)


if __name__ == "__main__":
    main()
