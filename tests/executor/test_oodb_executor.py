"""Tests for the OODB executor: plans with navigation and assembly run."""

import random

import pytest

from repro.algebra.predicates import eq
from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics
from repro.errors import ExecutionError
from repro.executor import ExecutionStats
from repro.executor.oodb import (
    execute_oodb_plan,
    _RESIDENT_KEY,
)
from repro.models.oodb import materialize, oodb_model
from repro.models.relational import get, select
from repro.search import VolcanoOptimizer


def build_catalog(employees=400, departments=20, seed=9):
    rng = random.Random(seed)
    catalog = Catalog()
    employee_rows = [
        {
            "employee.id": index,
            "employee.dept_ref": rng.randrange(departments),
            "employee.salary": rng.randrange(100),
        }
        for index in range(employees)
    ]
    department_rows = [
        {"department.id": index, "department.floor": index % 10}
        for index in range(departments)
    ]
    catalog.add_table(
        "employee",
        Schema.of("employee.id", "employee.dept_ref", "employee.salary"),
        TableStatistics(
            employees,
            100,
            columns={
                "employee.id": ColumnStatistics(employees),
                "employee.dept_ref": ColumnStatistics(departments),
                "employee.salary": ColumnStatistics(100, 0, 99),
            },
        ),
        rows=employee_rows,
    )
    catalog.add_table(
        "department",
        Schema.of("department.id", "department.floor"),
        TableStatistics(
            departments,
            100,
            columns={"department.id": ColumnStatistics(departments)},
        ),
        rows=department_rows,
    )
    return catalog


PATH = lambda source: materialize(source, "dept_ref", "department")


def reference_navigation(catalog, rows):
    departments = {
        row["department.id"]: row for row in catalog.table("department").rows
    }
    return [
        {**employee, **departments[employee["employee.dept_ref"]]}
        for employee in rows
        if employee["employee.dept_ref"] in departments
    ]


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def canonical(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def test_full_extent_navigation_matches_reference(catalog):
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(PATH(get("employee"))).plan
    rows = execute_oodb_plan(plan, catalog)
    expected = reference_navigation(catalog, catalog.table("employee").rows)
    assert canonical(rows) == canonical(expected)


def test_resident_marker_never_leaks(catalog):
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(PATH(get("employee"))).plan
    rows = execute_oodb_plan(plan, catalog)
    assert all(_RESIDENT_KEY not in row for row in rows)


def test_assembly_charges_one_extent_scan(catalog):
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(PATH(get("employee"))).plan
    if "assembly" not in plan.algorithms_used():
        pytest.skip("optimizer chose pointer chasing for this catalog")
    stats = ExecutionStats()
    execute_oodb_plan(plan, catalog, stats)
    # Scans: the employee extent plus exactly one pass over departments.
    employee_pages = catalog.table("employee").statistics.pages(catalog.page_size)
    department_pages = catalog.table("department").statistics.pages(catalog.page_size)
    assert stats.pages_read == employee_pages + department_pages


def test_pointer_chase_charges_per_navigation():
    catalog = build_catalog(employees=50, departments=5000)
    query = PATH(select(get("employee"), eq("employee.salary", 7)))
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(query).plan
    assert "pointer_chase" in plan.algorithms_used()
    stats = ExecutionStats()
    rows = execute_oodb_plan(plan, catalog, stats)
    employee_pages = catalog.table("employee").statistics.pages(catalog.page_size)
    assert stats.pages_read == employee_pages + len(rows)


def test_both_strategies_agree(catalog):
    """pointer_chase and assembly+navigate compute identical results."""
    from repro.algebra.plans import PhysicalPlan

    base_plan = VolcanoOptimizer(oodb_model(), catalog).optimize(get("employee")).plan
    chase = PhysicalPlan("pointer_chase", ("dept_ref", "department"), (base_plan,))
    assembled = PhysicalPlan(
        "assembled_navigate",
        ("dept_ref", "department"),
        (PhysicalPlan("assembly", ("department",), (base_plan,)),),
    )
    assert canonical(execute_oodb_plan(chase, catalog)) == canonical(
        execute_oodb_plan(assembled, catalog)
    )


def test_navigate_without_assembly_fails(catalog):
    from repro.algebra.plans import PhysicalPlan

    base_plan = VolcanoOptimizer(oodb_model(), catalog).optimize(get("employee")).plan
    bare = PhysicalPlan(
        "assembled_navigate", ("dept_ref", "department"), (base_plan,)
    )
    with pytest.raises(ExecutionError):
        execute_oodb_plan(bare, catalog)


def test_dangling_references_skipped():
    catalog = build_catalog(employees=30, departments=10)
    # Break some references.
    for row in catalog.table("employee").rows[:5]:
        row["employee.dept_ref"] = 999
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(PATH(get("employee"))).plan
    rows = execute_oodb_plan(plan, catalog)
    assert len(rows) == 25


def test_two_step_path_executes(catalog):
    catalog.replace_table(
        "building",
        Schema.of("building.id", "building.city"),
        TableStatistics(10, 100, columns={"building.id": ColumnStatistics(10)}),
        rows=[
            {"building.id": index, "building.city": f"c{index}"}
            for index in range(10)
        ],
    )
    # Give departments a building reference.
    for row in catalog.table("department").rows:
        row["department.building_ref"] = row["department.id"] % 10
    catalog.table("department").schema = Schema.of(
        "department.id", "department.floor", "department.building_ref"
    )
    query = materialize(PATH(get("employee")), "building_ref", "building")
    plan = VolcanoOptimizer(oodb_model(), catalog).optimize(query).plan
    rows = execute_oodb_plan(plan, catalog)
    assert rows
    assert all("building.city" in row for row in rows)
