"""Every plan node carries the logical properties and local cost it was priced with.

``PhysicalPlan.logical`` and ``PhysicalPlan.local`` are set by whichever
code builds the node — the Volcano search, its greedy fallback and
``alternative_plans``, EXODUS, System R, the sharing pass — from the
values its cost function consumed.  Feedback, EXPLAIN and the sharing
pass read them instead of deriving them again, so every bundled model
and every path that makes plans must set both.

Nodes the memo engines build also name what placed them: an algorithm
node its implementation rule (``rule``), an enforcer the goal it was
asked to deliver (``required``).  With ``logical`` and ``local`` that is
the node's whole certificate claim, which is read off the node.
"""

import pytest

from repro.algebra.predicates import eq
from repro.algebra.properties import sorted_on
from repro.exodus import ExodusOptimizer
from repro.models.aggregates import aggregate, aggregate_model
from repro.models.oodb import materialize, oodb_model
from repro.models.parallel import parallel_relational_model, partitioned_on
from repro.models.relational import get, join, relational_model, select
from repro.models.setops import intersect, setops_model, union
from repro.options import ResourceBudget
from repro.search import SearchOptions, VolcanoOptimizer
from repro.search.extract import alternative_plans
from repro.search.sharing import plan_sharing
from repro.service import OptimizerService, ServiceOptions
from repro.systemr import SystemROptimizer, SystemROptions
from repro.verify import verify_plan
from repro.verify.certificate import node_claim
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog
from tests.models.test_oodb import make_catalog as make_oodb_catalog

SPEC = relational_model()
CERTIFIED = SearchOptions(certificates=True)


def model_cases():
    catalog = make_catalog([("r", 4800), ("s", 4800), ("t", 2400)])
    three_way = join(
        join(get("r"), get("s"), eq("r.k", "s.k")), get("t"), eq("s.k", "t.k")
    )
    navigate = materialize(
        select(get("employee"), eq("employee.salary", 7)), "dept_ref", "department"
    )
    return {
        "relational": (SPEC, catalog, three_way, sorted_on("r.k"), "merge_join"),
        "setops": (
            setops_model(),
            catalog,
            union(intersect(get("r"), get("s")), get("t"), all=False),
            sorted_on("r.k"),
            "hash_intersect",
        ),
        "aggregates": (
            aggregate_model(),
            catalog,
            aggregate(
                join(get("r"), get("s"), eq("r.k", "s.k")),
                ["r.k"],
                [("n", "count", None)],
            ),
            sorted_on("r.k"),
            "stream_aggregate",
        ),
        "oodb-assembly": (
            oodb_model(),
            make_oodb_catalog(),
            materialize(get("employee"), "dept_ref", "department"),
            None,
            "assembly",
        ),
        "oodb-pointer-chase": (
            oodb_model(),
            make_oodb_catalog(employee_rows=50, department_rows=5000),
            navigate,
            None,
            "pointer_chase",
        ),
        "parallel": (
            parallel_relational_model(),
            catalog,
            three_way,
            partitioned_on(["r.k"], 4),
            "parallel_hash_join",
        ),
    }


def assert_annotated(plan, tree=True):
    for node in plan.walk():
        assert node.logical is not None, node.algorithm
        assert node.local is not None, node.algorithm
    if tree:
        total = sum(node.local.total() for node in plan.walk())
        assert total == pytest.approx(plan.cost.total())


def assert_placed(plan, spec=SPEC):
    """Every node a memo engine built names the rule or goal that placed it
    (the sharing pass's own ``materialize``/``scan_intermediate`` nodes
    name neither)."""
    rules = {rule.name: rule.algorithm for rule in spec.implementations}
    for node in plan.walk():
        if node.is_enforcer:
            assert node.rule is None and node.required is not None, node
        elif node.algorithm in ("materialize", "scan_intermediate"):
            assert node.rule is None and node.required is None, node
        else:
            assert rules[node.rule] == node.algorithm, node
            assert node.required is None, node


def assert_matches_claims(plan, certificate):
    """The certificate's claims are the ones read off the plan's nodes."""
    nodes = list(plan.walk())
    assert len(certificate.claims) == len(nodes)
    for node, claim in zip(nodes, certificate.claims):
        assert node_claim(node) == claim
        assert node.logical is claim.output


@pytest.mark.parametrize("model", sorted(model_cases()))
def test_volcano_plans_carry_their_claims(model):
    spec, catalog, query, required, algorithm = model_cases()[model]
    optimizer = VolcanoOptimizer(spec, catalog, CERTIFIED)
    result = optimizer.optimize(query, required)
    assert algorithm in result.plan.algorithms_used()
    assert_annotated(result.plan)
    assert_placed(result.plan, spec)
    assert_matches_claims(result.plan, result.certificate)
    alternatives = alternative_plans(optimizer, result)
    # Only an enforcer-rooted goal may have no algorithm delivering it.
    assert alternatives or result.plan.is_enforcer
    for plan in alternatives:
        assert_annotated(plan)
        assert_placed(plan, spec)


@pytest.mark.parametrize("model", sorted(model_cases()))
def test_budget_tripped_greedy_plans_are_annotated(model):
    spec, catalog, query, required, _ = model_cases()[model]
    options = CERTIFIED.replace(budget=ResourceBudget(max_costings=2))
    result = VolcanoOptimizer(spec, catalog, options).optimize(query, required)
    assert result.degraded
    assert_annotated(result.plan)
    assert_placed(result.plan, spec)
    assert_matches_claims(result.plan, result.certificate)


def test_batch_plans_carry_their_claims():
    names = ["t0", "t1", "t2", "t3", "t4"]
    catalog = make_catalog([(name, 500 * (i + 2)) for i, name in enumerate(names)])
    queries = [chain_query(names[i : i + 3]) for i in range(3)]
    results = VolcanoOptimizer(SPEC, catalog, CERTIFIED).optimize_batch(
        queries, sorted_on("t2.k")
    )
    for result in results:
        assert_annotated(result.plan)
        assert_placed(result.plan)
        assert_matches_claims(result.plan, result.certificate)


@pytest.mark.parametrize("relations", [3, 4])
def test_exodus_and_systemr_plans_are_annotated(relations):
    item = QueryGenerator().generate(relations, seed=relations)
    for baseline in (
        ExodusOptimizer(SPEC, item.catalog),
        SystemROptimizer(SPEC, item.catalog, SystemROptions(bushy=True)),
    ):
        assert_annotated(baseline.optimize(item.query, item.required).plan)


@pytest.mark.parametrize("certified", [True, False], ids=["certified", "uncertified"])
def test_sharing_producers_scans_and_rewrites_are_annotated(certified):
    workload = QueryGenerator(WorkloadOptions(selectivity_range=(0.1, 0.1))).generate_shared(
        count=8, seed=1, n_tables=5, relations=(2, 4)
    )
    optimizer = VolcanoOptimizer(
        SPEC, workload.catalog, CERTIFIED if certified else SearchOptions()
    )
    results = optimizer.optimize_batch(
        [q.query for q in workload.queries], workload.queries[0].required
    )
    report = plan_sharing(results, SPEC, workload.catalog)
    assert report.materialized >= 1
    for shared in report.shared_plans:
        producer = shared.plan
        assert producer.algorithm == "materialize"
        assert producer.logical is producer.inputs[0].logical
        assert shared.rows == producer.logical.cardinality
        assert_annotated(producer, tree=False)
        assert_placed(producer)
    scans = [
        node
        for plan in report.plans
        for node in plan.walk()
        if node.algorithm == "scan_intermediate"
    ]
    assert scans
    for plan in report.plans:
        # Shared subtrees repeat in pre-order, so local costs still sum up.
        assert_annotated(plan)
        # Rebuilt nodes keep the rule or goal of the node they replace.
        assert_placed(plan)
    for scan in scans:
        assert scan.args[1] == tuple(scan.logical.schema.column_names)
        assert scan.cost == scan.local
    certified_plans = list(zip(report.plans, report.consumer_certificates)) + list(
        zip((shared.plan for shared in report.shared_plans), report.producer_certificates)
    )
    assert len(certified_plans) == (
        len(report.plans) + report.materialized if certified else 0
    )
    for plan, certificate in certified_plans:
        assert_matches_claims(plan, certificate)


def non_relational_batches():
    catalog = make_catalog([("r", 4800), ("s", 4800), ("t", 2400), ("u", 1200)])
    navigate = materialize(
        select(get("employee"), eq("employee.salary", 7)), "dept_ref", "department"
    )
    return {
        "setops": (
            setops_model(),
            catalog,
            [
                union(intersect(get("r"), get("s")), get("t"), all=False),
                union(intersect(get("r"), get("s")), get("u"), all=False),
            ],
            sorted_on("r.k"),
            "hash_intersect",
        ),
        "oodb": (
            oodb_model(),
            make_oodb_catalog(employee_rows=50, department_rows=5000),
            [navigate, select(navigate, eq("employee.salary", 7))],
            None,
            "pointer_chase",
        ),
    }


@pytest.mark.parametrize("model", sorted(non_relational_batches()))
def test_non_relational_sharing_is_annotated_and_certified(model):
    # Every node carries its properties, so the pass prices subplans of
    # any model: a set-op or pointer-chase subplan is materialized too.
    spec, catalog, queries, required, algorithm = non_relational_batches()[model]
    results = VolcanoOptimizer(spec, catalog, CERTIFIED).optimize_batch(
        queries, required
    )
    report = plan_sharing(results, spec, catalog)
    assert report.materialized == 1
    assert report.shared_total < report.independent_total
    (shared,) = report.shared_plans
    assert algorithm in shared.plan.algorithms_used()
    assert_annotated(shared.plan, tree=False)
    for plan in report.plans:
        assert_annotated(plan)
    checked = list(zip(report.plans, report.consumer_certificates))
    checked += [(shared.plan, report.producer_certificates[0])]
    assert len(checked) == len(queries) + 1
    for plan, certificate in checked:
        assert_placed(plan, spec)
        assert_matches_claims(plan, certificate)
        verdict = verify_plan(
            spec, certificate.source, plan, certificate, catalog=catalog
        )
        assert verdict.ok, verdict.render()


def test_parameterized_hit_binds_an_annotated_plan():
    catalog = make_catalog([("r", 1200), ("s", 2400)])
    service = OptimizerService(
        VolcanoOptimizer(SPEC, catalog), ServiceOptions(parameterized=True)
    )

    def query(value):
        return join(select(get("r"), eq("r.v", value)), get("s"), eq("r.k", "s.k"))

    first = service.optimize(query(3))
    second = service.optimize(query(4))
    assert second.cached and second.parameterized
    assert "4" in second.plan.to_sexpr()
    assert_annotated(second.plan)
    assert_placed(second.plan)
    # The cache holds the plan in parameterized form and binds it again.
    for bound, cached in zip(second.plan.walk(), first.plan.walk()):
        assert bound.logical is cached.logical and bound.local is cached.local
        assert bound.rule == cached.rule and bound.required is cached.required
