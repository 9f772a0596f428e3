"""Command-line benchmark harness: ``python -m repro.bench <experiment>``.

Experiments (ids from DESIGN.md):

  figure4      the paper's Figure 4 (time + plan quality + memory)
  ablations    A1–A8 ablation tables
  validate     V1 cost-model-vs-executor validation
  all          everything above

Options:
  --queries N    queries per complexity level (default 50, paper's value)
  --sizes A-B    relation-count range (default 2-8, paper's range)
  --seed N       workload seed (default 1993)
  --order-by P   fraction of queries with ORDER BY (default 0; 1.0 shows
                 the property-blindness quality gap)
  --selectivity LO-HI    per-relation selection selectivity range
                         (default 0.2-1.0; 0.5-1.0 keeps intermediates big)
  --key-fraction LO-HI   join-key distinct count as a fraction of rows
                         (default 0.25-1.0; 0.2-0.6 makes joins grow)
  --deadline S   bounded-latency mode: give every Volcano run a
                 ResourceBudget(deadline_seconds=S) and report how many
                 answers were degraded (anytime) per complexity level
  --quick        shorthand for --queries 5 --sizes 2-6
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.ablations import (
    run_bushy_ablation,
    run_shape_complexity,
    run_executor_validation,
    run_failure_ablation,
    run_glue_ablation,
    run_promise_ablation,
    run_pruning_ablation,
    run_setops_orders,
    run_systemr_comparison,
)
from repro.bench.figure4 import (
    Figure4Config,
    figure4_to_csv,
    render_figure4,
    run_figure4,
)
from repro.workloads import WorkloadOptions


def _parse_sizes(text: str):
    low, _, high = text.partition("-")
    return tuple(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=["figure4", "ablations", "validate", "all"],
    )
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--sizes", type=_parse_sizes, default=tuple(range(2, 9)))
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--order-by", type=float, default=0.0)

    def _parse_range(value):
        low, _, high = value.partition("-")
        return (float(low), float(high or low))

    parser.add_argument("--selectivity", type=_parse_range, default=(0.2, 1.0))
    parser.add_argument("--key-fraction", type=_parse_range, default=(0.25, 1.0))
    parser.add_argument(
        "--csv", default=None, help="also write the figure4 rows to this CSV file"
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-query optimization deadline in seconds (figure4 only)",
    )
    parser.add_argument("--quick", action="store_true")
    arguments = parser.parse_args(argv)
    if arguments.quick:
        arguments.queries = 5
        arguments.sizes = tuple(range(2, 7))

    if arguments.experiment in ("figure4", "all"):
        config = Figure4Config(
            sizes=arguments.sizes,
            queries_per_size=arguments.queries,
            seed=arguments.seed,
            workload=WorkloadOptions(
                order_by_probability=arguments.order_by,
                selectivity_range=arguments.selectivity,
                key_fraction_range=arguments.key_fraction,
            ),
            deadline=arguments.deadline,
        )
        result = run_figure4(config, progress=lambda line: print(line, flush=True))
        print()
        print(render_figure4(result))
        print()
        if arguments.csv:
            from pathlib import Path

            Path(arguments.csv).write_text(figure4_to_csv(result))
            print(f"wrote {arguments.csv}")
    if arguments.experiment in ("ablations", "all"):
        sizes = tuple(size for size in arguments.sizes if size >= 3)[:3] or (3,)
        queries = min(arguments.queries, 10)
        for runner in (
            lambda: run_pruning_ablation(sizes, queries, arguments.seed),
            lambda: run_failure_ablation(sizes, queries, arguments.seed),
            lambda: run_glue_ablation(sizes, queries, arguments.seed),
            lambda: run_bushy_ablation(sizes, queries, arguments.seed),
            lambda: run_systemr_comparison(sizes, queries, arguments.seed),
            run_setops_orders,
            lambda: run_promise_ablation(sizes, queries, arguments.seed),
            lambda: run_shape_complexity(queries_per_size=min(queries, 5), seed=arguments.seed),
        ):
            print(runner().render())
            print()
    if arguments.experiment in ("validate", "all"):
        print(run_executor_validation().render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
