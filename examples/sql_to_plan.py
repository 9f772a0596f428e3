#!/usr/bin/env python3
"""SQL front to back: parse, translate, optimize, execute.

The paper assumes "the translation from a user interface into a logical
algebra expression must be performed by the parser"; this example is
that parser plus everything downstream of it.

Run:  python examples/sql_to_plan.py
"""

from repro import Catalog, execute_plan, generate_optimizer, relational_model
from repro.executor import TableSpec, populate_catalog
from repro.sql import translate

QUERIES = [
    "select * from emp where emp.v <= 5",
    """
    select * from emp, dept
    where emp.k = dept.k and emp.v <= 3
    """,
    """
    select emp.k, dept.v from emp join dept on emp.k = dept.k
    where dept.v <= 10
    order by emp.k
    """,
    """
    -- a self-join through aliases
    select * from emp as a, emp as b where a.emp.k = b.emp.k
    """,
]


def main() -> None:
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("emp", rows=2400, key_distinct=200),
            TableSpec("dept", rows=1200, key_distinct=200),
        ],
        seed=7,
    )
    optimizer = generate_optimizer(relational_model(), catalog)

    for text in QUERIES:
        print("SQL:", " ".join(text.split()))
        translation = translate(text, catalog)
        result = optimizer.optimize(
            translation.expression, props=translation.required
        )
        print(f"plan (cost {result.cost}):")
        print(result.plan.pretty(indent=1))
        rows = execute_plan(result.plan, catalog)
        print(f"→ {len(rows)} rows")
        print()


if __name__ == "__main__":
    main()
