"""Spans recorded from the benchmark's own files, around calls into each layer.

A span is ``{id, name, op, parent, start, end}``: ``op`` names the operation
slot it belongs to (spans of one request share it), ``parent`` is the id of
the span that was open when it started.  Spans are kept in memory and written
out when the run ends.  One :class:`Recorder` per thread; ids are unique
across recorders built with different prefixes.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

from perf.measure import lower_decile


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "Recorder", record: list):
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> "_Span":
        recorder = self.recorder
        record = self.record
        if recorder.open:
            parent = recorder.open[-1]
            record[3] = parent[0]
            if record[2] is None:
                record[2] = parent[2]  # a child belongs to its parent's operation
        recorder.open.append(record)
        record[4] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.record[5] = time.perf_counter()
        self.recorder.open.pop()
        self.recorder.records.append(self.record)


class Recorder:
    """An in-memory span log for one thread."""

    def __init__(self, prefix: str = "s"):
        self.prefix = prefix
        self.records: List[list] = []  # [id, name, op, parent, start, end]
        self.open: List[list] = []
        self._next = 0

    def span(self, name: str, op: Optional[str] = None) -> _Span:
        self._next += 1
        return _Span(self, [f"{self.prefix}{self._next}", name, op, None, 0.0, 0.0])

    def spans(self) -> List[Dict[str, object]]:
        keys = ("id", "name", "op", "parent", "start", "end")
        return [dict(zip(keys, record)) for record in self.records]


def write(path: str, spans: List[Dict[str, object]], extra: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({**extra, "spans": spans}, handle)


def slot_values(spans: Iterable[Dict[str, object]], name: str) -> Dict[str, float]:
    """Per operation slot, the lower decile of its ``name`` span across replays."""
    found: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        if span["name"] == name:
            found[span["op"]].append(span["end"] - span["start"])
    return {op: lower_decile(values) for op, values in found.items()}


def self_times(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Per span name, total self time: its duration minus its child spans'."""
    children: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["end"] - span["start"] - children[span["id"]]
    return dict(totals)


def layer_shares(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Share of all recorded self time by layer (the name up to the first dot)."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        layers[name.split(".", 1)[0]] += seconds
    total = sum(layers.values())
    return {layer: seconds / total for layer, seconds in sorted(layers.items())}
