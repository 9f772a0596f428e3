#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in a fresh worker process; the last stdout line is the
        result JSON (end-to-end metrics with --trace 0, per-layer metrics
        with --trace 1)
    python3 perf/run.py [--workload W] [--seed N] [--seconds S]
        a *set*: the untraced and the traced run of every workload (or of
        W), each metric printed by name with its unit; --out FILE keeps it
        (the last one measured) for --compare
    python3 perf/run.py --repeat 2 --check
        two sets of the same code; non-zero exit when the second differs
        from the first, in either direction, by more than a metric's bound
        (or at all, for a count)
    python3 perf/run.py --compare A.json B.json
        the same comparison of two kept sets; refused when they were not
        measured in the same environment
    python3 perf/run.py --smoke
        one warm-up and two passes per workload, traced and untraced:
        every declared metric is emitted with its unit and nothing failed
    python3 perf/run.py --disturb
        a set measured quietly and again beside a 50 %-duty busy loop; prints
        how far each end-to-end metric moved

See README.md for the estimator, the workloads and how to name a claim.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT  # ``perf`` is a package of the checkout, not this script's directory

WORKLOADS = ("search_cold", "batch_shared", "serve_warm", "serve_mixed")
SETUPS = 3  # ``setup_s`` is the quickest of this many set-ups (the measured one included)
EXACT_UNITS = ("count", "ratio")  # computed from counts and costs: must repeat exactly


def contract() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def worker_environment() -> Dict[str, str]:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    # Without a fixed hash seed ``algorithm_costings`` itself drifts from run
    # to run (61793..61929 on one pass); with it every count is exact.
    environment["PYTHONHASHSEED"] = "0"
    return environment


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    passes: Optional[int] = None,
    setup_only: bool = False,
) -> Tuple[float, Optional[Dict[str, object]]]:
    """Run one worker; returns (set-up seconds, its result).

    Set-up is timed from outside: spawn -> imports -> model, catalog,
    optimizer or server build -> server listening -> cache primed -> warm-up
    pass done, when the worker says ``READY``.
    """
    command = [
        sys.executable, "-m", "perf.worker", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if passes is not None:
        command += ["--passes", str(passes)]
    if setup_only:
        command.append("--setup-only")
    setup = result = None
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, env=worker_environment(), stdout=subprocess.PIPE, text=True
    )
    try:
        for line in process.stdout:
            if line.startswith("READY"):
                setup = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        status = process.wait()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if status != 0 or setup is None or (result is None and not setup_only):
        raise SystemExit(f"perf: the {workload} worker failed (exit status {status})")
    return setup, result


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, passes: Optional[int] = None
) -> Dict[str, object]:
    """One run as the driver asks for it: set-ups, then the measured worker."""
    setups = []
    if not trace and passes is None:  # a fixed number of passes is a smoke run: one set-up will do
        for _ in range(SETUPS - 1):
            setups.append(spawn(workload, seed, seconds, trace, setup_only=True)[0])
    setup, result = spawn(workload, seed, seconds, trace, passes)
    setups.append(setup)
    if not trace:
        result["metrics"]["setup_s"] = min(setups)
    result["setups_s"] = setups
    return result


def driver_line(result: Dict[str, object]) -> str:
    """The contract's last line: exactly the declared metrics, with units."""
    declared = contract()["per_layer" if result["trace"] else "end_to_end"]
    metrics = {
        metric["name"]: {"value": result["metrics"][metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def report(result: Dict[str, object]) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(
        f"== {result['workload']} seed {result['seed']}: {kind}; {result['passes']} passes, "
        f"{result['attempted']} operations attempted, {result['failed']} failed, "
        f"correct={result['correct']}"
    )
    units = {
        metric["name"]: metric["unit"]
        for metric in contract()["per_layer" if result["trace"] else "end_to_end"]
    }
    for name, value in result["metrics"].items():
        if not result["trace"] or value:
            print(f"   {name:32s} {value:14.6g} {units[name]}")
    if not result["trace"]:
        print(f"   (raw median {result['raw_median_ms']:.3f} ms over all samples; not gated)")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")


# ---------------------------------------------------------------------------
# Sets of runs, and comparing two of them
# ---------------------------------------------------------------------------


def run_set(names, seed: int, seconds: float, traces=(0, 1)) -> Dict[str, object]:
    runs = {}
    for name in names:
        for trace in traces:
            result = run_workload(name, seed, seconds, trace)
            report(result)
            runs[f"{name}/{'per_layer' if trace else 'end_to_end'}"] = result
    environment = next(iter(runs.values()))["environment"]
    return {"environment": environment, "seed": seed, "seconds": seconds, "runs": runs}


def differences(first: Dict[str, object], second: Dict[str, object]) -> List[str]:
    """Where ``second`` leaves ``first`` by more than the benchmark allows.

    End-to-end metrics may move by their bound in either direction (these
    are two sets of one code: a move either way is the harness's noise);
    metrics computed from counts and costs may not move at all.
    """
    if first["environment"] != second["environment"]:
        raise SystemExit(
            "perf: refusing to compare results of different environments: "
            f"{first['environment']} vs {second['environment']}"
        )
    declared = contract()
    rules = {m["name"]: (m["unit"], m["bound"]) for m in declared["end_to_end"]}
    rules.update({m["name"]: (m["unit"], None) for m in declared["per_layer"]})
    found = []
    for key, run in first["runs"].items():
        other = second["runs"].get(key)
        if other is None:
            found.append(f"{key}: missing from the second set")
            continue
        for name, value in run["metrics"].items():
            unit, bound = rules[name]
            moved = other["metrics"][name]
            if unit in EXACT_UNITS:
                if moved != value:
                    found.append(f"{key} {name}: {value!r} -> {moved!r} (must repeat exactly)")
            elif bound is not None and abs(moved - value) > bound * value:
                found.append(
                    f"{key} {name}: {value:.6g} -> {moved:.6g} {unit} "
                    f"({moved / value - 1:+.1%}, bound {bound:.0%})"
                )
        if other["failed"] or not other["correct"] or run["failed"] or not run["correct"]:
            found.append(f"{key}: failed operations or an incorrect run")
    return found


def movement(first: Dict[str, object], second: Dict[str, object]) -> None:
    bounded = [m["name"] for m in contract()["end_to_end"]]
    for key, run in first["runs"].items():
        if key.endswith("end_to_end"):
            for name in bounded:
                before, after = run["metrics"][name], second["runs"][key]["metrics"][name]
                print(f"   {key} {name:16s} {before:12.6g} -> {after:12.6g} ({after / before - 1:+.1%})")


def keep(results: Dict[str, object], path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)


def smoke(seed: int) -> int:
    """About a minute: every declared metric is emitted, and nothing failed."""
    declared = contract()
    problems = []
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(name, seed, 0.0, trace, passes=2)
            line = json.loads(driver_line(result))
            expected = {metric["name"]: metric["unit"] for metric in declared[section]}
            emitted = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
            if emitted != expected or set(result["metrics"]) != set(expected):
                problems.append(f"{name} trace {trace}: emitted {sorted(result['metrics'])}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace {trace}: {result['problems']}")
            print(f"smoke {name} trace {trace}: {line['attempted']} attempted, {line['failed']} failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    return 1 if problems else 0


BUSY_LOOP = "import time\nwhile True:\n t=time.perf_counter()\n while time.perf_counter()-t<0.05: pass\n time.sleep(0.05)\n"


def disturb(names, seed: int, seconds: float) -> int:
    """How far a 50 %-duty busy loop on the same box moves each end-to-end metric."""
    quiet = run_set(names, seed, seconds, traces=(0,))
    hog = subprocess.Popen([sys.executable, "-c", BUSY_LOOP])
    try:
        disturbed = run_set(names, seed, seconds, traces=(0,))
    finally:
        hog.kill()
        hog.wait()
    print("== moved by the busy loop (reported, not gated)")
    movement(quiet, disturbed)
    return 0


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perf: no src/repro in this checkout: nothing to measure", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", default=os.path.join(ROOT, "perf", "out", "results.json"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--disturb", action="store_true")
    args = parser.parse_args(argv)
    names = (args.workload,) if args.workload else WORKLOADS

    if args.compare:
        loaded = []
        for path in args.compare:
            with open(path) as handle:
                loaded.append(json.load(handle))
        found = differences(*loaded)
        movement(*loaded)
        for line in found:
            print(f"DIFFERS {line}")
        return 1 if found else 0
    if args.smoke:
        return smoke(args.seed)
    if args.disturb:
        return disturb(names, args.seed, args.seconds)
    if args.workload and args.trace is not None and args.repeat == 1:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(result)
        print(driver_line(result))
        return 0

    sets = [run_set(names, args.seed, args.seconds) for _ in range(args.repeat)]
    keep(sets[-1], args.out)
    found = []
    for number, later in enumerate(sets[1:], start=2):
        print(f"== set {number} against set 1")
        movement(sets[0], later)
        found += differences(sets[0], later)
    for line in found:
        print(f"DIFFERS {line}")
    return 1 if args.check and found else 0


if __name__ == "__main__":
    sys.exit(main())
