"""Mutation harness: seeded plan corruptions the verifier must reject.

The checker's acceptance tests show clean certificates pass; this
module shows *dirty* ones fail.  Each corruption perturbs a genuinely
optimized (plan, certificate) pair — swapped join inputs, a dropped
enforcer, an understated cost term, a dangling intermediate — and the
harness asserts :func:`repro.verify.verify_plan` rejects every one.
A corruption the verifier misses is a hole in the trust story, so the
CLI (``python -m repro.verify.mutate``) exits non-zero on any miss.

The corruptions are deterministic (no randomness): each one targets a
specific invariant and the P-code family expected to catch it, which
keeps a miss diagnosable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.predicates import eq
from repro.algebra.properties import PhysProps
from repro.verify.certificate import DerivationStep, PlanCertificate

__all__ = ["Corruption", "MutationOutcome", "build_fixture", "run_mutations", "main"]


@dataclass(frozen=True)
class _Fixture:
    """Genuine optimizer artifacts the corruptions perturb.

    ``plan``/``certificate`` come from a single-query search whose goal
    forces an enforcer; ``shared_*`` from the multi-query sharing pass
    (a rewritten consumer reading a materialized intermediate).
    """

    spec: object
    catalog: object
    query: LogicalExpression
    plan: PhysicalPlan
    certificate: PlanCertificate
    shared_catalog: object
    shared_query: LogicalExpression
    shared_plan: PhysicalPlan
    shared_certificate: PlanCertificate


@dataclass(frozen=True)
class Corruption:
    """One seeded defect: how to break the artifacts, and what catches it."""

    name: str
    description: str
    expected_family: str  # "P1xx" / "P2xx" / "P3xx" / "P4xx" / "P0xx"
    #: returns (query, plan, certificate) or (query, plan, certificate,
    #: catalog) when the corruption verifies against a non-default catalog
    apply: Callable[[_Fixture], Tuple]


@dataclass(frozen=True)
class MutationOutcome:
    corruption: Corruption
    detected: bool
    codes: Tuple[str, ...]


# ---------------------------------------------------------------------------
# Fixture construction
# ---------------------------------------------------------------------------


def build_fixture() -> _Fixture:
    """Optimize real queries and keep their certificates for corruption."""
    from repro.catalog import Catalog
    from repro.executor import TableSpec, populate_catalog
    from repro.models.relational import get, join, relational_model, select
    from repro.search import (
        SearchOptions,
        SharingOptions,
        VolcanoOptimizer,
        plan_sharing,
    )
    from repro.workloads import QueryGenerator, WorkloadOptions

    spec = relational_model()
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 1200, key_distinct=10),
            TableSpec("s", 2400, key_distinct=10),
            TableSpec("t", 4800, key_distinct=10),
        ],
        seed=7,
    )
    query = join(
        join(
            select(get("r"), eq("r.v", 1)),
            get("s"),
            eq("r.k", "s.k"),
        ),
        get("t"),
        eq("s.k", "t.k"),
    )
    required = PhysProps(sort_order=("r.k",))
    engine = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False, certificates=True)
    )
    result = engine.optimize(query, required)
    assert result.certificate is not None

    workload = QueryGenerator(
        WorkloadOptions(selectivity_range=(0.1, 0.1))
    ).generate_shared(count=8, seed=7, n_tables=5, relations=(2, 4))
    queries = [item.query for item in workload.queries]
    shared_engine = VolcanoOptimizer(
        spec,
        workload.catalog,
        SearchOptions(check_consistency=False, certificates=True),
    )
    results = shared_engine.optimize_batch(
        queries, workload.queries[0].required
    )
    report = plan_sharing(results, spec, workload.catalog, SharingOptions())
    consumers = report.consumer_certificates
    shared_index = next(
        index
        for index, certificate in enumerate(consumers)
        if certificate.intermediates
    )
    return _Fixture(
        spec=spec,
        catalog=catalog,
        query=query,
        plan=result.plan,
        certificate=result.certificate,
        shared_catalog=workload.catalog,
        shared_query=queries[shared_index],
        shared_plan=report.plans[shared_index],
        shared_certificate=consumers[shared_index],
    )


# ---------------------------------------------------------------------------
# Tree surgery helpers
# ---------------------------------------------------------------------------


def _edit_first(
    plan: PhysicalPlan,
    want: Callable[[PhysicalPlan], bool],
    edit: Callable[[PhysicalPlan], PhysicalPlan],
) -> PhysicalPlan:
    """Apply ``edit`` to the first (pre-order) node satisfying ``want``."""
    done = [False]

    def visit(node: PhysicalPlan) -> PhysicalPlan:
        if not done[0] and want(node):
            done[0] = True
            return edit(node)
        return dataclasses.replace(
            node, inputs=tuple(visit(child) for child in node.inputs)
        )

    edited = visit(plan)
    if not done[0]:
        raise AssertionError("fixture lacks the node this corruption targets")
    return edited


def _replace_claim(
    certificate: PlanCertificate, index: int, **changes
) -> PlanCertificate:
    claims = list(certificate.claims)
    claims[index] = dataclasses.replace(claims[index], **changes)
    return dataclasses.replace(certificate, claims=tuple(claims))


def _first_claim(certificate: PlanCertificate, want) -> int:
    for index, claim in enumerate(certificate.claims):
        if want(claim):
            return index
    raise AssertionError("fixture certificate lacks the targeted claim")


# ---------------------------------------------------------------------------
# The corruptions
# ---------------------------------------------------------------------------


def _swap_join_inputs(fixture: _Fixture):
    plan = _edit_first(
        fixture.plan,
        lambda node: len(node.inputs) == 2,
        lambda node: dataclasses.replace(
            node, inputs=(node.inputs[1], node.inputs[0])
        ),
    )
    return fixture.query, plan, fixture.certificate


def _drop_enforcer(fixture: _Fixture):
    plan = _edit_first(
        fixture.plan,
        lambda node: node.is_enforcer,
        lambda node: node.inputs[0],
    )
    return fixture.query, plan, fixture.certificate


def _scale_cumulative_cost(fixture: _Fixture):
    doubled = fixture.plan.cost + fixture.plan.cost
    plan = dataclasses.replace(fixture.plan, cost=doubled)
    return fixture.query, plan, fixture.certificate


def _understate_local_term(fixture: _Fixture):
    index = _first_claim(
        fixture.certificate, lambda claim: claim.local.total() > 0
    )
    claim = fixture.certificate.claims[index]
    certificate = _replace_claim(
        fixture.certificate, index, local=type(claim.local)(0.0)
    )
    return fixture.query, fixture.plan, certificate


def _dangling_intermediate(fixture: _Fixture):
    certificate = dataclasses.replace(
        fixture.shared_certificate, intermediates={}
    )
    return (
        fixture.shared_query,
        fixture.shared_plan,
        certificate,
        fixture.shared_catalog,
    )


def _unknown_rule_step(fixture: _Fixture):
    steps = fixture.certificate.steps
    if steps:
        broken = (dataclasses.replace(steps[0], rule="no_such_rule"),) + steps[1:]
    else:
        broken = (
            DerivationStep(
                rule="no_such_rule", path=(), after=fixture.certificate.frontier
            ),
        )
    certificate = dataclasses.replace(fixture.certificate, steps=broken)
    return fixture.query, fixture.plan, certificate


def _corrupt_step_after(fixture: _Fixture):
    bogus = LogicalExpression("get", ("t", None))
    steps = fixture.certificate.steps
    if steps:
        broken = (dataclasses.replace(steps[0], after=bogus),) + steps[1:]
        certificate = dataclasses.replace(fixture.certificate, steps=broken)
    else:
        # No recorded steps: corrupting the chain means corrupting its
        # endpoint, the frontier, without any step justifying it.
        certificate = dataclasses.replace(fixture.certificate, frontier=bogus)
    return fixture.query, fixture.plan, certificate


def _corrupt_frontier(fixture: _Fixture):
    frontier = fixture.certificate.frontier
    swapped = LogicalExpression(
        frontier.operator, frontier.args, tuple(reversed(frontier.inputs))
    )
    certificate = dataclasses.replace(fixture.certificate, frontier=swapped)
    return fixture.query, fixture.plan, certificate


def _inflate_cardinality(fixture: _Fixture):
    index = _first_claim(
        fixture.certificate,
        lambda claim: claim.rule is not None and claim.output.cardinality > 0,
    )
    claim = fixture.certificate.claims[index]
    inflated = dataclasses.replace(
        claim.output, cardinality=claim.output.cardinality * 100.0
    )
    certificate = _replace_claim(fixture.certificate, index, output=inflated)
    return fixture.query, fixture.plan, certificate


def _drop_enforcer_claim(fixture: _Fixture):
    index = _first_claim(fixture.certificate, lambda claim: claim.enforcer)
    claims = list(fixture.certificate.claims)
    del claims[index]
    certificate = dataclasses.replace(
        fixture.certificate, claims=tuple(claims)
    )
    return fixture.query, fixture.plan, certificate


def _swap_algorithm_name(fixture: _Fixture):
    index = _first_claim(
        fixture.certificate, lambda claim: claim.rule is not None
    )
    certificate = _replace_claim(
        fixture.certificate, index, algorithm="nested_loops_join"
    )
    # Keep the plan honest: the claim now disagrees with the plan node.
    return fixture.query, fixture.plan, certificate


def _corrupt_source(fixture: _Fixture):
    from repro.models.relational import get, join

    bogus = join(get("r"), get("s"), eq("r.k", "s.k"))
    certificate = dataclasses.replace(fixture.certificate, source=bogus)
    return fixture.query, fixture.plan, certificate


def _truncate_claims(fixture: _Fixture):
    certificate = dataclasses.replace(
        fixture.certificate, claims=fixture.certificate.claims[:-1]
    )
    return fixture.query, fixture.plan, certificate


def _inflate_claimed_cost(fixture: _Fixture):
    cost = fixture.certificate.claimed_cost
    certificate = dataclasses.replace(
        fixture.certificate, claimed_cost=cost + cost
    )
    return fixture.query, fixture.plan, certificate


CORRUPTIONS: Tuple[Corruption, ...] = (
    Corruption(
        "swap_join_inputs",
        "exchange a join's build and probe inputs behind its back",
        "P2xx",
        _swap_join_inputs,
    ),
    Corruption(
        "drop_enforcer",
        "splice an enforcer out of the plan, losing its sort guarantee",
        "P0xx",
        _drop_enforcer,
    ),
    Corruption(
        "scale_cumulative_cost",
        "double the root plan's claimed cumulative cost",
        "P3xx",
        _scale_cumulative_cost,
    ),
    Corruption(
        "understate_local_term",
        "zero out one node's local cost term in the certificate",
        "P3xx",
        _understate_local_term,
    ),
    Corruption(
        "dangling_intermediate",
        "drop the intermediates table a scan_intermediate claim points into",
        "P4xx",
        _dangling_intermediate,
    ),
    Corruption(
        "unknown_rule_step",
        "attribute a derivation step to a rule the model never declared",
        "P1xx",
        _unknown_rule_step,
    ),
    Corruption(
        "corrupt_step_after",
        "rewrite a derivation step's output tree to an unrelated expression",
        "P1xx",
        _corrupt_step_after,
    ),
    Corruption(
        "corrupt_frontier",
        "swap the certified frontier's inputs without a justifying step",
        "P4xx",
        _corrupt_frontier,
    ),
    Corruption(
        "inflate_cardinality",
        "overstate a claimed output cardinality by two orders of magnitude",
        "P2xx",
        _inflate_cardinality,
    ),
    Corruption(
        "drop_enforcer_claim",
        "delete the enforcer's claim, misaligning claims and plan nodes",
        "P0xx",
        _drop_enforcer_claim,
    ),
    Corruption(
        "swap_algorithm_name",
        "claim a different algorithm than the plan node actually uses",
        "P0xx",
        _swap_algorithm_name,
    ),
    Corruption(
        "corrupt_source",
        "certify against a different source query than the one asked",
        "P0xx",
        _corrupt_source,
    ),
    Corruption(
        "truncate_claims",
        "drop the trailing claim so the walk runs out of certificate",
        "P0xx",
        _truncate_claims,
    ),
    Corruption(
        "inflate_claimed_cost",
        "double the certificate's top-level claimed cost only",
        "P3xx",
        _inflate_claimed_cost,
    ),
)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_mutations(
    fixture: Optional[_Fixture] = None,
    corruptions: Sequence[Corruption] = CORRUPTIONS,
) -> List[MutationOutcome]:
    """Apply every corruption and record whether the verifier caught it."""
    from repro.verify import verify_plan

    fixture = fixture if fixture is not None else build_fixture()
    outcomes: List[MutationOutcome] = []
    for corruption in corruptions:
        corrupted = corruption.apply(fixture)
        query, plan, certificate = corrupted[:3]
        catalog = corrupted[3] if len(corrupted) > 3 else fixture.catalog
        report = verify_plan(
            fixture.spec, query, plan, certificate, catalog=catalog
        )
        codes = tuple(
            dict.fromkeys(d.code for d in report.diagnostics)
        )
        outcomes.append(
            MutationOutcome(
                corruption=corruption, detected=not report.ok, codes=codes
            )
        )
    return outcomes


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the harness; exit 1 when any corruption goes undetected."""
    outcomes = run_mutations()
    missed = [outcome for outcome in outcomes if not outcome.detected]
    for outcome in outcomes:
        status = "detected" if outcome.detected else "MISSED"
        codes = ", ".join(outcome.codes) or "-"
        print(
            f"{status:>8}  {outcome.corruption.name:<24} "
            f"[{codes}]  {outcome.corruption.description}"
        )
    print(
        f"{len(outcomes) - len(missed)}/{len(outcomes)} corruption(s) "
        "detected"
    )
    return 1 if missed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
