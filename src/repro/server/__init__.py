"""The long-lived optimizer server: HTTP/JSON plan management (S18).

Promotes the :class:`~repro.service.OptimizerService` plan-cache front
to a process boundary: an asyncio HTTP server
(:class:`~repro.server.app.OptimizerServer`) with prepared statements,
plan pinning and per-request budgets, a statistics-refresh regression
guard (:class:`~repro.server.registry.PlanRegistry`), and admission
control with fast-fail
(:class:`~repro.server.admission.AdmissionController`).  Run it with
``python -m repro.server``; talk to it with
:class:`~repro.server.client.ServerClient`.  See ``docs/server.md``.
"""

from repro.server.admission import AdmissionController
from repro.server.app import OptimizerServer, ServerThread
from repro.server.client import ClientError, ServerClient
from repro.server.registry import (
    GuardDecision,
    Incumbent,
    PinnedPlan,
    PlanRegistry,
    RegistryEvent,
    stable_key,
)

__all__ = [
    "AdmissionController",
    "OptimizerServer",
    "ServerThread",
    "ClientError",
    "ServerClient",
    "GuardDecision",
    "Incumbent",
    "PinnedPlan",
    "PlanRegistry",
    "RegistryEvent",
    "stable_key",
]
