#!/usr/bin/env python3
"""Quickstart: generate an optimizer, optimize a query, run the plan.

The full Figure 1 pipeline on a three-table join:

    model specification ──generator──► optimizer ──FindBestPlan──► plan

Run:  python examples/quickstart.py
"""

from repro import (
    Catalog,
    eq,
    execute_plan,
    generate_optimizer,
    get,
    join,
    relational_model,
    select,
    sorted_on,
)
from repro.executor import TableSpec, populate_catalog


def main() -> None:
    # 1. A catalog with synthetic data in the paper's range
    #    (1,200–7,200 records of 100 bytes).
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("customer", rows=1200, key_distinct=100),
            TableSpec("orders", rows=7200, key_distinct=100),
            TableSpec("lineitem", rows=4800, key_distinct=100),
        ],
        seed=42,
    )

    # 2. The generator paradigm: model specification → optimizer.
    spec = relational_model()
    optimizer = generate_optimizer(spec, catalog)

    # 3. A logical query: who ordered what, for one customer segment.
    query = join(
        join(
            select(get("customer"), eq("customer.v", 3)),
            get("orders"),
            eq("customer.k", "orders.k"),
        ),
        get("lineitem"),
        eq("orders.k", "lineitem.k"),
    )
    print("Logical query:")
    print(query.pretty())
    print()

    # 4. Optimize — unordered, then with the ORDER BY physical property.
    result = optimizer.optimize(query)
    print(f"Best plan (cost {result.cost}):")
    print(result.plan.pretty())
    print()
    print(f"Search effort: {result.stats}")
    print()

    ordered = optimizer.optimize(query, props=sorted_on("customer.k"))
    print(f"Best plan sorted on customer.k (cost {ordered.cost}):")
    print(ordered.plan.pretty())
    print()

    # 5. Execute both plans on the Volcano iterator engine: same rows.
    rows = execute_plan(result.plan, catalog)
    ordered_rows = execute_plan(ordered.plan, catalog)
    assert len(rows) == len(ordered_rows)
    keys = [row["customer.k"] for row in ordered_rows]
    assert keys == sorted(keys)
    print(f"Executed: {len(rows)} result rows; ordered plan delivers sorted keys.")


if __name__ == "__main__":
    main()
