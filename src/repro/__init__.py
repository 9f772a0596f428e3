"""repro — a reproduction of the Volcano Optimizer Generator.

Graefe & McKenna, *The Volcano Optimizer Generator: Extensibility and
Efficient Search*, ICDE 1993.

The package is organized like the system the paper describes:

``repro.model``
    What the optimizer implementor writes: the model specification —
    logical operators, algorithms, enforcers, transformation and
    implementation rules, cost ADT, property functions.
``repro.generator``
    The optimizer generator: validate a specification and link it with
    the search engine, or emit standalone optimizer source code.
``repro.search``
    The Volcano search engine: the memo and ``FindBestPlan`` (directed
    dynamic programming).
``repro.models``
    Ready-made specifications: the paper's relational test model and the
    parallel, set-operation, and OODB extensions it sketches.
``repro.exodus`` / ``repro.systemr``
    The comparison optimizers: EXODUS forward chaining over MESH, and
    System R bottom-up dynamic programming.
``repro.executor``
    A Volcano-style iterator execution engine so plans actually run.
``repro.sql`` / ``repro.workloads`` / ``repro.bench``
    A small SQL front-end, the paper's random workloads, and the
    harness that regenerates Figure 4 and the ablations.

Quickstart::

    from repro import (
        Catalog, Schema, TableStatistics, generate_optimizer,
        relational_model, get, join, eq,
    )

    catalog = Catalog()
    catalog.add_table("r", Schema.of("r.k"), TableStatistics(1200, 100))
    catalog.add_table("s", Schema.of("s.k"), TableStatistics(7200, 100))
    optimizer = generate_optimizer(relational_model(), catalog)
    plan = optimizer.optimize(join(get("r"), get("s"), eq("r.k", "s.k")))
    print(plan.plan.pretty())
"""

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import TRUE, col, conjunction_of, eq, lit
from repro.algebra.properties import (
    ANY_PROPS,
    LogicalProperties,
    Partitioning,
    PhysProps,
    sorted_on,
)
from repro.catalog import (
    Catalog,
    load_catalog,
    save_catalog,
    Column,
    ColumnStatistics,
    ColumnType,
    Schema,
    TableStatistics,
)
from repro.errors import (
    BudgetExceededError,
    OptimizationFailedError,
    OptionsError,
    ReproError,
    ServiceError,
)
from repro.dynamic import DynamicPlan, Parameter, optimize_dynamic
from repro.executor import execute_plan
from repro.explain import explain, explain_plan
from repro.exodus import ExodusOptimizer, ExodusOptions, ExodusResult
from repro.generator import (
    compile_and_load,
    generate_optimizer,
    generate_source,
    lint_specification,
)
from repro.lint import (
    Diagnostic,
    LintReport,
    MemoAuditor,
    Severity,
    lint_spec,
)
from repro.model import (
    INFINITE_COST,
    AlgorithmDef,
    AnyPattern,
    Cost,
    CpuIoCost,
    EnforcerApplication,
    EnforcerDef,
    ImplementationRule,
    LogicalOperatorDef,
    ModelSpecification,
    OpPattern,
    ScalarCost,
    TransformationRule,
)
from repro.models import (
    aggregate,
    aggregate_model,
    get,
    join,
    oodb_model,
    parallel_relational_model,
    project,
    relational_model,
    select,
    setops_model,
)
from repro.search import (
    BudgetReport,
    OptimizationResult,
    Optimizer,
    ResourceBudget,
    SearchOptions,
    VolcanoOptimizer,
)
from repro.service import (
    BatchResult,
    CacheStats,
    OptimizerService,
    PlanCache,
    PreparedQuery,
    ServedResult,
    ServiceOptions,
    SharingOptions,
)
from repro.sql import NormalizedQuery, normalize_literals, translate
from repro.systemr import SystemROptimizer, SystemROptions, SystemRResult
from repro.workloads import QueryGenerator, SharedWorkload, WorkloadOptions

__version__ = "1.0.0"

__all__ = [
    "LogicalExpression",
    "PhysicalPlan",
    "TRUE",
    "col",
    "conjunction_of",
    "eq",
    "lit",
    "ANY_PROPS",
    "LogicalProperties",
    "Partitioning",
    "PhysProps",
    "sorted_on",
    "Catalog",
    "load_catalog",
    "save_catalog",
    "Column",
    "ColumnStatistics",
    "ColumnType",
    "Schema",
    "TableStatistics",
    "BudgetExceededError",
    "OptimizationFailedError",
    "OptionsError",
    "ReproError",
    "ServiceError",
    "DynamicPlan",
    "Parameter",
    "optimize_dynamic",
    "execute_plan",
    "explain",
    "explain_plan",
    "ExodusOptimizer",
    "ExodusOptions",
    "ExodusResult",
    "compile_and_load",
    "generate_optimizer",
    "generate_source",
    "lint_specification",
    "Diagnostic",
    "LintReport",
    "MemoAuditor",
    "Severity",
    "lint_spec",
    "INFINITE_COST",
    "AlgorithmDef",
    "AnyPattern",
    "Cost",
    "CpuIoCost",
    "EnforcerApplication",
    "EnforcerDef",
    "ImplementationRule",
    "LogicalOperatorDef",
    "ModelSpecification",
    "OpPattern",
    "ScalarCost",
    "TransformationRule",
    "aggregate",
    "aggregate_model",
    "get",
    "join",
    "oodb_model",
    "parallel_relational_model",
    "project",
    "relational_model",
    "select",
    "setops_model",
    "OptimizationResult",
    "Optimizer",
    "ResourceBudget",
    "BudgetReport",
    "SearchOptions",
    "VolcanoOptimizer",
    "BatchResult",
    "CacheStats",
    "OptimizerService",
    "PlanCache",
    "PreparedQuery",
    "ServedResult",
    "ServiceOptions",
    "SharingOptions",
    "NormalizedQuery",
    "normalize_literals",
    "translate",
    "SystemROptimizer",
    "SystemROptions",
    "SystemRResult",
    "QueryGenerator",
    "SharedWorkload",
    "WorkloadOptions",
    "__version__",
]
