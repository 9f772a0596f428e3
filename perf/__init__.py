"""The repo's benchmark: end-to-end and per-layer measurement of ``repro``.

Everything here measures the optimizer from outside, by timing calls into
its public functions.  Entry point: ``python3 perf/run.py`` (see README.md).
"""
