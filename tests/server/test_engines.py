"""The engine processes of :class:`~repro.server.engines.ProcessOptimizer`
at three engines: ``close()``, an error in one search (raised for that
search alone), the death of one engine (every later cold task is
refused, while its siblings live), the idle stack (the engine that
answered last takes the next task) and the engine's own check of its
certificates (its verdict is the service's, and none is given when
certificates are off).

Each scenario runs in a fresh interpreter under ``-W error``: the engines
are forked only from a single-threaded process, which this test process
need not be, and on CPython 3.12 a fork from a threaded process warns.
The scenario prints one JSON line, which the test reads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

from tests.server.test_cli import _alive, _wait_gone

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc, forks"
)

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

#: Shared set-up: three engines over the CLI's default tables, and their pids.
_PRELUDE = """
import json, os, signal, time
from repro.server.__main__ import build_optimizer, build_parser
from repro.server.engines import ProcessOptimizer
from repro.sql.translator import Translator

def stat(pid):  # (state letter, parent pid), or None once the process is gone
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])

def alive(pid):
    found = stat(pid)
    return found is not None and found[0] not in ("Z", "X")

def children():
    found = [(int(entry), stat(int(entry))) for entry in os.listdir("/proc") if entry.isdigit()]
    return sorted(pid for pid, at in found if at and at[1] == os.getpid() and alive(pid))

optimizer = build_optimizer(build_parser().parse_args([]))
query = Translator(optimizer.catalog).translate("SELECT * FROM r, s WHERE r.k = s.k")
"""

#: The fork, after a scenario's own set-up (if any).
_FORK = """
engine = ProcessOptimizer(optimizer, 3)
pids = children()
"""

_CLOSE = """
engine.optimize(query.expression, query.required)
started = time.monotonic()
engine.close()
print(json.dumps({"pids": pids, "close_seconds": time.monotonic() - started}))
"""

_KILL_ONE = """
try:
    engine.optimize("not an expression")  # fails in the engine, which serves on
    failed = None
except Exception as error:
    failed = type(error).__name__
first = engine.optimize(query.expression, query.required).cost.total()
os.kill(pids[0], signal.SIGKILL)
while alive(pids[0]):
    time.sleep(0.01)
siblings = [pid for pid in pids[1:] if alive(pid)]
try:
    engine.optimize(query.expression, query.required)
    refused = None
except Exception as error:
    refused = [type(error).__name__, getattr(error, "status", None)]
broken = engine.broken
started = time.monotonic()
engine.close()
print(json.dumps({"pids": pids, "failed": failed, "first": first, "siblings": siblings, "refused": refused,
                  "broken": broken, "close_seconds": time.monotonic() - started}))
"""

_MOST_RECENT = """
import dataclasses
def tasks():
    for _ in range(3):
        engine.optimize(query.expression, query.required)
tasks()
table = optimizer.catalog.table("s").statistics
optimizer.catalog.update_statistics("s", dataclasses.replace(table, row_width=2 * table.row_width))
tasks()
current = optimizer.catalog.statistics_version
at_current = sum(one.statistics_version == current for one in engine._engines)
engine.close()
print(json.dumps({"at_current": at_current}))
"""

#: Before the fork: every engine's checker reports a violation.
_FAILING_CHECKER = """
from types import SimpleNamespace
import repro.server.engines
repro.server.engines.verify_plan = lambda *args, **kwargs: SimpleNamespace(ok=False)
"""

_VERDICT = """
from repro.service import OptimizerService, ServiceOptions
service = OptimizerService(engine, ServiceOptions(verify_plans=True))
sql = "SELECT * FROM r, s WHERE r.k = s.k"
served = service.optimize(sql)
counters, entries = service.cache.stats.as_dict(), len(service.cache)
again = service.optimize(sql)
engine.close()
print(json.dumps({"verified": served.verified, "engine_verdict": served.result.verified,
                  "verifications": counters["verifications"],
                  "verify_violations": counters["verify_violations"],
                  "entries": entries, "again_cached": again.cached}))
"""

_CERTIFICATES_OFF = """
from repro.service import OptimizerService
service = OptimizerService(engine)
served = service.optimize("SELECT * FROM r, s WHERE r.k = s.k")
on = engine.optimize(query.expression, query.required,
                     options=engine.options.replace(certificates=True))
engine.close()
print(json.dumps({"off": [served.result.verified, served.result.certificate is None],
                  "on": on.verified, "verifications": service.cache.stats.as_dict()["verifications"]}))
"""


def _scenario(body: str, before_fork: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _PRELUDE + before_fork + _FORK + body],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_close_joins_three_engines_within_two_seconds():
    outcome = _scenario(_CLOSE)
    assert len(outcome["pids"]) == 3
    assert outcome["close_seconds"] < 2.0
    assert not any(_alive(pid) for pid in outcome["pids"])


def test_one_killed_engine_refuses_the_next_cold_task_beside_live_siblings():
    outcome = _scenario(_KILL_ONE)
    assert outcome["failed"] == "AttributeError"
    assert outcome["first"] > 0
    assert len(outcome["siblings"]) == 2  # both still running when refused
    assert outcome["refused"] == ["ServerError", 503]
    assert outcome["broken"] is True
    assert outcome["close_seconds"] < 2.0
    assert _wait_gone(outcome["pids"], 2.0) == []


def test_the_engine_that_answered_last_takes_the_next_task():
    # Three sequential tasks after a statistics bump all run on one
    # engine, so the bump is sent to that engine alone.
    assert _scenario(_MOST_RECENT) == {"at_current": 1}


def test_a_violation_found_in_the_engine_is_counted_once_and_never_cached():
    outcome = _scenario(_VERDICT, before_fork=_FAILING_CHECKER)
    assert outcome == {
        "verified": False,
        "engine_verdict": False,
        "verifications": 1,
        "verify_violations": 1,
        "entries": 0,
        "again_cached": False,
    }


def test_the_engine_gives_no_verdict_without_certificates():
    outcome = _scenario(_CERTIFICATES_OFF)
    assert outcome == {"off": [None, True], "on": True, "verifications": 0}
