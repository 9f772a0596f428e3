"""Tests for the OODB model (assembledness property + assembly enforcer)."""

import pytest

from repro.algebra.predicates import eq
from repro.catalog import Catalog, ColumnStatistics, Schema, TableStatistics
from repro.models.oodb import (
    OodbModelOptions,
    assembled,
    materialize,
    oodb_model,
)
from repro.models.relational import get, select
from repro.search import VolcanoOptimizer


def make_catalog(employee_rows=5000, department_rows=50):
    catalog = Catalog()
    catalog.add_table(
        "employee",
        Schema.of("employee.id", "employee.dept_ref", "employee.salary"),
        TableStatistics(
            employee_rows,
            100,
            columns={
                "employee.id": ColumnStatistics(employee_rows),
                "employee.dept_ref": ColumnStatistics(department_rows),
                "employee.salary": ColumnStatistics(100, 0, 99),
            },
        ),
    )
    catalog.add_table(
        "department",
        Schema.of("department.id", "department.floor"),
        TableStatistics(
            department_rows,
            100,
            columns={
                "department.id": ColumnStatistics(department_rows),
                "department.floor": ColumnStatistics(10, 0, 9),
            },
        ),
    )
    return catalog


PATH = lambda source: materialize(source, "dept_ref", "department")


def test_materialize_props_extend_schema():
    from repro.model.context import OptimizerContext

    spec = oodb_model()
    context = OptimizerContext(spec, make_catalog())
    props = context.logical_props(PATH(get("employee")))
    assert "department.floor" in props.schema
    assert props.cardinality == 5000
    assert "department" in props.tables


def test_large_input_uses_assembly():
    """Many navigations → batch assembly beats random pointer chasing."""
    optimizer = VolcanoOptimizer(oodb_model(), make_catalog(employee_rows=5000))
    result = optimizer.optimize(PATH(get("employee")))
    algorithms = result.plan.algorithms_used()
    assert "assembled_navigate" in algorithms
    assert "assembly" in algorithms


def test_small_input_chases_pointers():
    """A handful of navigations → random reads beat scanning the extent."""
    catalog = make_catalog(employee_rows=5000, department_rows=5000)
    optimizer = VolcanoOptimizer(oodb_model(), catalog)
    # Selective filter first: few employees navigate.
    query = PATH(select(get("employee"), eq("employee.id", 7)))
    result = optimizer.optimize(query)
    assert result.plan.algorithm == "pointer_chase"


def test_assembly_is_an_enforcer_node():
    optimizer = VolcanoOptimizer(oodb_model(), make_catalog())
    result = optimizer.optimize(PATH(get("employee")))
    assembly_nodes = [
        node for node in result.plan.walk() if node.algorithm == "assembly"
    ]
    assert assembly_nodes
    assert all(node.is_enforcer for node in assembly_nodes)
    assert assembly_nodes[0].args == ("department",)


def test_assembled_requirement_satisfied():
    optimizer = VolcanoOptimizer(oodb_model(), make_catalog())
    result = optimizer.optimize(
        get("employee"), props=assembled("department")
    )
    assert result.plan.algorithm == "assembly"
    assert result.plan.properties.covers(assembled("department"))


def test_select_pushed_past_materialize():
    """The OODB rewrite rule filters before navigating."""
    optimizer = VolcanoOptimizer(oodb_model(), make_catalog())
    query = select(PATH(get("employee")), eq("employee.salary", 10))
    result = optimizer.optimize(query)
    # The chosen plan filters employees before following references:
    # the navigation operator sits above the filter.
    algorithms = result.plan.algorithms_used()
    navigate_index = min(
        algorithms.index(name)
        for name in ("assembled_navigate", "pointer_chase")
        if name in algorithms
    )
    filter_index = max(
        index
        for index, name in enumerate(algorithms)
        if name in ("filter", "filter_scan")
    )
    assert navigate_index < filter_index  # pre-order: navigate above filter


def test_select_on_path_column_not_pushed():
    """Predicates on navigated columns cannot move below materialize."""
    optimizer = VolcanoOptimizer(oodb_model(), make_catalog())
    query = select(PATH(get("employee")), eq("department.floor", 3))
    result = optimizer.optimize(query)
    algorithms = result.plan.algorithms_used()
    assert algorithms[0] == "filter"  # the filter stays on top


def test_two_step_path_assembles_both_extents():
    catalog = make_catalog()
    catalog.add_table(
        "building",
        Schema.of("building.id", "building.city"),
        TableStatistics(10, 100, columns={"building.id": ColumnStatistics(10)}),
    )
    optimizer = VolcanoOptimizer(oodb_model(), catalog)
    query = materialize(PATH(get("employee")), "building_ref", "building")
    result = optimizer.optimize(query)
    assemblies = {
        node.args[0]
        for node in result.plan.walk()
        if node.algorithm == "assembly"
    }
    navigates = result.plan.count_algorithm("assembled_navigate")
    chases = result.plan.count_algorithm("pointer_chase")
    assert navigates + chases == 2
    if navigates == 2:
        assert assemblies == {"department", "building"}
