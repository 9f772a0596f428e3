"""The estimator behind every timed number, and the /proc readers.

A workload is a fixed list of operations -- a *pass* -- replayed identically.
Each operation *slot* keeps its latency from every pass, and the slot's value
is the **lower decile across passes**.  On a shared two-core box the noise is
one-sided (another tenant's burst only ever adds time), so means and medians
of raw samples drift with the neighbours while the lower decile of a replayed
slot stays put; see README.md for the measurements.  Quantiles *over slots*
are then input-distribution quantiles -- the big queries, the cold requests
-- not a noise tail.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from typing import Dict, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ``values``, linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lower_decile(values: Sequence[float]) -> float:
    return quantile(values, 0.1)


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


class Passes:
    """Latencies of every slot, and the wall time, of each replayed pass."""

    def __init__(self) -> None:
        self.latencies: List[Sequence[float]] = []  # [pass][slot], seconds
        self.walls: List[float] = []

    def add(self, latencies: Sequence[float], wall: float) -> None:
        self.latencies.append(latencies)
        self.walls.append(wall)

    def __len__(self) -> int:
        return len(self.walls)

    def slot_values(self) -> List[float]:
        """Per slot, the lower decile of its latency across passes."""
        return [lower_decile(samples) for samples in zip(*self.latencies)]

    def wall(self) -> float:
        return lower_decile(self.walls)

    def raw_median_ms(self) -> float:
        """Median over every raw sample: printed for the reader, never gated."""
        return 1e3 * statistics.median(s for latencies in self.latencies for s in latencies)


def timed_metrics(passes: Passes, queries_per_pass: int) -> Dict[str, float]:
    slots = passes.slot_values()
    return {
        "latency_ms_p50": 1e3 * quantile(slots, 0.5),
        "latency_ms_p90": 1e3 * quantile(slots, 0.9),
        "throughput_qps": queries_per_pass / passes.wall(),
    }


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def environment() -> Dict[str, object]:
    """What two results must share before their wall clocks are compared."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
    }
