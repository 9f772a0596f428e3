"""Command-line entry point: ``python -m repro.verify``.

Re-optimizes a deterministic workload and independently verifies every
winning plan against its provenance certificate — the release gate for
the optimizer's trust story:

* **golden mode** (``--golden tests/service/golden_plans.json``):
  regenerates the committed 42-query workload, runs every query with
  certificate recording on, checks each plan is byte-identical to its
  golden snapshot, and verifies each certificate.  Any P-diagnostic,
  plan mismatch, or cost drift fails the run.
* **workload mode** (default): a smaller sweep over the sharing
  workload plus the multi-query sharing batch — every pre-sharing plan, every
  rewritten consumer, and every materialized producer is verified.

Exit status: 0 when everything verified, 1 on any violation, 2 on
usage or load problems.  ``--strict`` additionally fails plans that
produced no certificate at all (otherwise a warning).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional, Sequence

from repro.options import KERNEL_TIERS

__all__ = ["main"]

#: The committed golden workload recipe (tests/service/test_mqo.py).
GOLDEN_RECIPE = dict(count=42, seed=7, n_tables=6, relations=(2, 4))
#: The mqo_sharing batch recipe (tests/service/test_mqo.py): eight
#: overlapping five-table queries.
SHARING_RECIPE = dict(count=8, seed=7, n_tables=5, relations=(2, 4))

_COST_TOLERANCE = 1e-9


#: The golden file's key for (and the report label of) the engine's plans.
ENGINE_NAME = "VolcanoOptimizer"


def _workload(recipe: dict):
    from repro.workloads import QueryGenerator, WorkloadOptions

    generator = QueryGenerator(WorkloadOptions(selectivity_range=(0.1, 0.1)))
    return generator.generate_shared(**recipe)


def _make_engine(spec, catalog, kernel=None):
    from repro.search import SearchOptions, VolcanoOptimizer

    return VolcanoOptimizer(
        spec,
        catalog,
        SearchOptions(
            check_consistency=False, certificates=True, kernel=kernel
        ),
    )


class _Tally:
    """Failure accounting shared by both modes."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.checked = 0
        self.violations: List[str] = []
        self.warnings: List[str] = []

    def verify(self, spec, query, plan, certificate, catalog, label: str):
        from repro.verify import verify_plan

        self.checked += 1
        if certificate is None:
            self.warnings.append(f"{label}: no certificate produced")
            return
        report = verify_plan(spec, query, plan, certificate, catalog=catalog)
        if not report.ok:
            for diagnostic in report.diagnostics:
                self.violations.append(f"{label}: {diagnostic}")

    def mismatch(self, label: str, detail: str) -> None:
        self.violations.append(f"{label}: {detail}")

    @property
    def failed(self) -> bool:
        return bool(self.violations) or (self.strict and bool(self.warnings))

    def render(self) -> str:
        lines = [
            f"verified {self.checked} plan(s): "
            f"{len(self.violations)} violation(s), "
            f"{len(self.warnings)} warning(s)"
        ]
        lines.extend(f"  VIOLATION {line}" for line in self.violations)
        lines.extend(f"  warning {line}" for line in self.warnings)
        return "\n".join(lines)


def _costs_match(total: float, expected: float) -> bool:
    return abs(total - expected) <= _COST_TOLERANCE * max(
        1.0, abs(total), abs(expected)
    )


def _run_golden(golden_path: Path, tally: _Tally, kernel=None) -> None:
    """42 queries against the committed snapshots."""
    from repro.models.relational import relational_model

    golden = json.loads(golden_path.read_text())
    spec = relational_model()
    workload = _workload(GOLDEN_RECIPE)
    queries = [item.query for item in workload.queries]
    required = workload.queries[0].required
    snapshots = golden.get(ENGINE_NAME)
    if snapshots is None:
        tally.mismatch(ENGINE_NAME, "engine missing from the golden file")
        return
    if len(snapshots) != len(queries):
        tally.mismatch(
            ENGINE_NAME,
            f"golden file has {len(snapshots)} snapshot(s) for "
            f"{len(queries)} queries",
        )
        return
    engine = _make_engine(spec, workload.catalog, kernel)
    for index, (query, expected) in enumerate(zip(queries, snapshots)):
        label = f"{ENGINE_NAME}[{index}]"
        result = engine.optimize(query, required)
        if result.plan.to_sexpr() != expected["plan"]:
            tally.mismatch(label, "plan differs from the golden snapshot")
        if not _costs_match(result.cost.total(), expected["cost"]):
            tally.mismatch(
                label,
                f"cost {result.cost.total()!r} differs from golden "
                f"{expected['cost']!r}",
            )
        tally.verify(
            spec, query, result.plan, result.certificate,
            workload.catalog, label,
        )


def _run_workload(tally: _Tally, kernel=None) -> None:
    """The sharing workload, single-query plans only."""
    from repro.models.relational import relational_model

    spec = relational_model()
    workload = _workload(SHARING_RECIPE)
    required = workload.queries[0].required
    engine = _make_engine(spec, workload.catalog, kernel)
    for index, item in enumerate(workload.queries):
        result = engine.optimize(item.query, required)
        tally.verify(
            spec, item.query, result.plan, result.certificate,
            workload.catalog, f"{ENGINE_NAME}[{index}]",
        )


def _run_sharing_batch(tally: _Tally, kernel=None) -> None:
    """The mqo_sharing batch: pre-sharing, consumer, and producer plans."""
    from repro.models.relational import relational_model
    from repro.search import SharingOptions, plan_sharing

    spec = relational_model()
    workload = _workload(SHARING_RECIPE)
    queries = [item.query for item in workload.queries]
    required = workload.queries[0].required
    engine = _make_engine(spec, workload.catalog, kernel)
    results = engine.optimize_batch(queries, required)
    for index, (query, result) in enumerate(zip(queries, results)):
        tally.verify(
            spec, query, result.plan, result.certificate,
            workload.catalog, f"mqo_sharing:pre[{index}]",
        )
    report = plan_sharing(results, spec, workload.catalog, SharingOptions())
    consumers = report.consumer_certificates
    producers = report.producer_certificates
    if not consumers:
        tally.mismatch("mqo_sharing", "the sharing pass built no certificates")
        return
    for index, (query, plan, certificate) in enumerate(
        zip(queries, report.plans, consumers)
    ):
        tally.verify(
            spec, query, plan, certificate,
            workload.catalog, f"mqo_sharing:consumer[{index}]",
        )
    for shared, certificate in zip(report.shared_plans, producers):
        tally.verify(
            spec, certificate.source, shared.plan, certificate,
            workload.catalog, f"mqo_sharing:producer[{shared.name}]",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Independently verify optimizer plans against their "
        "provenance certificates.",
    )
    parser.add_argument(
        "--golden",
        metavar="PATH",
        help="verify every query's plan against this golden-plan "
        "snapshot file in addition to certificate checks",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail when any plan produced no certificate (otherwise a "
        "warning)",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_TIERS,
        default=None,
        help="run the engine with this specialized-kernel tier "
        "(repro.generator.kernel); plans and certificates must be "
        "byte-identical to interpreted runs",
    )
    parser.add_argument(
        "--skip-batch",
        action="store_true",
        help="skip the multi-query sharing batch verification",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the verifier CLI; returns the process exit status (0/1/2)."""
    parser = _build_parser()
    options = parser.parse_args(argv)
    tally = _Tally(strict=options.strict)

    if options.golden is not None:
        golden_path = Path(options.golden)
        if not golden_path.is_file():
            print(f"error: golden file not found: {golden_path}")
            return 2
        _run_golden(golden_path, tally, options.kernel)
    else:
        _run_workload(tally, options.kernel)
    if not options.skip_batch:
        _run_sharing_batch(tally, options.kernel)

    print(tally.render())
    return 1 if tally.failed else 0
