#!/usr/bin/env python3
"""Set operations with multiple alternative sort orders (paper Section 3).

"For the intersection of two inputs R and S with attributes A, B, and C
where R is sorted on (A,B,C) and S is sorted on (B,A,C), both these sort
orders can be specified by the optimizer implementor and will be
optimized by the generated optimizer."

Run:  python examples/setops_orders.py
"""

from repro import (
    Catalog,
    ColumnStatistics,
    Schema,
    TableStatistics,
    generate_optimizer,
    get,
    sorted_on,
)
from repro.models.setops import SetOpsModelOptions, intersect, setops_model


def build_catalog() -> Catalog:
    catalog = Catalog()
    for name in ("r", "s"):
        catalog.add_table(
            name,
            Schema.of(f"{name}.k", f"{name}.v"),
            TableStatistics(
                4800,
                100,
                columns={
                    f"{name}.k": ColumnStatistics(4800, 0, 4799),
                    f"{name}.v": ColumnStatistics(4800, 0, 4799),
                },
            ),
        )
    return catalog


def merge_only(spec):
    """Drop the hash fallback so the merge implementation must carry."""
    spec.implementations = [
        rule for rule in spec.implementations if rule.name != "intersect_to_hash"
    ]
    return spec


def main() -> None:
    catalog = build_catalog()
    query = intersect(get("r"), get("s"))
    # The result must arrive sorted on the SECOND column.
    required = sorted_on("r.v")

    print("=== Canonical order only (no alternatives) ===")
    spec = merge_only(setops_model(SetOpsModelOptions(max_order_permutations=1)))
    result = generate_optimizer(spec, catalog).optimize(query, props=required)
    print(f"cost {result.cost}")
    print(result.plan.pretty())
    print()

    print("=== Alternative orders enabled ===")
    spec = merge_only(setops_model(SetOpsModelOptions(max_order_permutations=3)))
    result = generate_optimizer(spec, catalog).optimize(query, props=required)
    print(f"cost {result.cost}")
    print(result.plan.pretty())
    print()
    print(
        "With alternatives, the inputs are sorted (v, k) directly and the\n"
        "result needs no extra sort — the feature 'no earlier query\n"
        "optimizer has provided' (Section 6)."
    )


if __name__ == "__main__":
    main()
