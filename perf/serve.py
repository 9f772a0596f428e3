"""The served optimizer under closed-loop load.

``python -m repro.server --verify`` runs as a subprocess -- the process under
test -- and one thread of this process per client of the workload replays
that client's share of a pass over one keep-alive ``ServerClient`` connection.
Closed loop, because an optimizer's callers are sessions that wait for the plan
before they run it.
"""

from __future__ import annotations

import http.client
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.server import ClientError, ServerClient

from perf.reference import Answer, from_response
from perf.trace import Recorder
from perf.workloads import ServeWorkload


class ServerProcess:
    """``python -m repro.server`` on an ephemeral port, stopped on exit."""

    def __init__(self, workload: ServeWorkload):
        self.command = [
            sys.executable, "-m", "repro.server", "--verify", "--port", "0",
            "--tables", workload.table_argument,
        ]  # fmt: skip
        self.process: Optional[subprocess.Popen] = None
        self.address = ""

    def __enter__(self) -> "ServerProcess":
        # The worker's environment (PYTHONPATH, PYTHONHASHSEED=0) is inherited.
        self.process = subprocess.Popen(self.command, stdout=subprocess.PIPE, text=True)
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://\S+", line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.address = match.group(0)
        except BaseException:
            self.stop()
            raise
        return self

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()  # SIGTERM: drain and stop
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def issue(client: ServerClient, sql: str) -> Answer:
    """One ``POST /optimize``; anything but a 2xx plan is an error answer."""
    try:
        return from_response(client.optimize(sql))
    except ClientError as error:
        return Answer(error=f"HTTP {error.status}: {error}")
    except (OSError, http.client.HTTPException, KeyError) as error:
        return Answer(error=f"{type(error).__name__}: {error}")


class Clients:
    """One thread and one keep-alive connection per client, replaying passes."""

    def __init__(self, address: str, workload: ServeWorkload):
        self.workload = workload
        self.count = len(workload.requests)
        self.connections = [ServerClient(address) for _ in range(self.count)]
        self.pool = ThreadPoolExecutor(max_workers=self.count, thread_name_prefix="perf-client")
        self.sql = [statement.sql for statement in workload.statements]
        self.rows = {name: rows for name, rows, _ in workload.tables}
        self.slots = [
            f"c{client}r{position}"
            for client, requests in enumerate(workload.requests)
            for position in range(len(requests))
        ]

    def close(self) -> None:
        self.pool.shutdown(wait=True)
        for connection in self.connections:
            connection.close()

    def __enter__(self) -> "Clients":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def prime(self) -> List[Answer]:
        """Set-up: send the statements to be cached once, in order, on one connection."""
        return [issue(self.connections[0], self.sql[index]) for index in self.workload.prime]

    def stats(self) -> Dict[str, Dict[str, float]]:
        return self.connections[0].stats()

    def _write(self) -> List[Answer]:
        """Re-post every table's statistics: each cached entry goes stale."""
        answers = []
        for table in self.workload.writes:
            try:
                self.connections[0].update_statistics(table, {"row_count": self.rows[table]})
                answers.append(Answer(cost=0.0))
            except (ClientError, OSError, http.client.HTTPException) as error:
                answers.append(Answer(error=f"{type(error).__name__}: {error}"))
        return answers

    def _replay(self, client: int, barrier: threading.Barrier, recorder: Optional[Recorder]):
        connection = self.connections[client]
        latencies, answers = [], []
        barrier.wait()
        for position, index in enumerate(self.workload.requests[client]):
            sql = self.sql[index]
            started = time.perf_counter()
            if recorder is None:
                answer = issue(connection, sql)
            else:
                with recorder.span("client.request", f"c{client}r{position}"):
                    answer = issue(connection, sql)
            latencies.append(time.perf_counter() - started)
            answers.append(answer)
        return latencies, answers, time.perf_counter()

    def run_pass(
        self, recorders: Optional[Sequence[Recorder]] = None
    ) -> Tuple[List[float], List[Answer], List[Answer], float]:
        """One pass: the write, then every client's requests behind a barrier.

        Returns the slot latencies and answers (client 0's slots, then client
        1's), the write answers, and the wall time from the first write to
        the last response.
        """
        barrier = threading.Barrier(self.count + 1)
        futures = [
            self.pool.submit(
                self._replay, client, barrier, None if recorders is None else recorders[client]
            )
            for client in range(self.count)
        ]
        started = time.perf_counter()
        written = self._write()
        barrier.wait()
        results = [future.result() for future in futures]
        latencies = [latency for result in results for latency in result[0]]
        answers = [answer for result in results for answer in result[1]]
        return latencies, answers, written, max(result[2] for result in results) - started
