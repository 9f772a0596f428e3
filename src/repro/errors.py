"""Exception hierarchy for the Volcano optimizer generator reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CatalogError",
    "UnknownTableError",
    "UnknownColumnError",
    "SchemaError",
    "AlgebraError",
    "PredicateError",
    "ModelSpecError",
    "RuleError",
    "PatternError",
    "GenerationError",
    "SearchError",
    "OptimizationFailedError",
    "PlanValidationError",
    "ExecutionError",
    "SqlError",
    "MemoryLimitExceededError",
    "BudgetExceededError",
    "WorkloadError",
    "OptionsError",
    "ServiceError",
    "ServerError",
    "AdmissionError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library.

    Every subclass pickles as itself, with its message and attributes:
    an error raised in an engine process reaches the server intact,
    although most subclasses' constructors take other arguments than
    the ``args`` they store.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    """Unpickle a :class:`ReproError` without calling its ``__init__``."""
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class CatalogError(ReproError):
    """A problem with the catalog, schemas, or statistics."""


class UnknownTableError(CatalogError):
    """A table was referenced that the catalog does not know about."""

    def __init__(self, table_name):
        super().__init__(f"unknown table: {table_name!r}")
        self.table_name = table_name


class UnknownColumnError(CatalogError):
    """A column was referenced that the schema does not contain."""

    def __init__(self, column_name, schema=None):
        available = ""
        if schema is not None:
            available = f" (available: {', '.join(schema.column_names)})"
        super().__init__(f"unknown column: {column_name!r}{available}")
        self.column_name = column_name


class SchemaError(CatalogError):
    """A schema was constructed or combined incorrectly."""


class AlgebraError(ReproError):
    """A logical or physical algebra expression is malformed."""


class PredicateError(AlgebraError):
    """A predicate is malformed or cannot be evaluated."""


class ModelSpecError(ReproError):
    """A model specification is incomplete or inconsistent.

    The optimizer generator validates the specification before generating
    an optimizer; validation failures raise this error (paper Section 2.2:
    the optimizer implementor must supply operators, rules, and the full
    complement of support functions).
    """


class RuleError(ModelSpecError):
    """A transformation or implementation rule is malformed."""


class PatternError(ModelSpecError):
    """A rule pattern is malformed."""


class GenerationError(ReproError):
    """Optimizer generation (including source emission) failed."""


class SearchError(ReproError):
    """The search engine encountered an internal problem."""


class OptimizationFailedError(SearchError):
    """No plan satisfying the goal was found within the cost limit.

    This mirrors the ``failure`` return of the paper's ``FindBestPlan``
    (Figure 2): a goal is a pair of logical expression and physical
    property vector, searched under a cost limit.
    """

    def __init__(self, message="no plan found within the cost limit"):
        super().__init__(message)


class PlanValidationError(SearchError):
    """A chosen plan does not satisfy the requested physical properties.

    The paper lists this as one of the generated optimizers' consistency
    checks: "generated optimizers verify that the physical properties of a
    chosen plan really do satisfy the physical property vector given as
    part of the optimization goal."
    """


class ExecutionError(ReproError):
    """The iterator execution engine failed while running a plan."""


class SqlError(ReproError):
    """The SQL front-end rejected a query text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MemoryLimitExceededError(SearchError):
    """An optimizer exceeded its configured memory budget.

    The paper reports that "the EXODUS optimizer generator aborted due to
    lack of memory" for some complex queries; the EXODUS baseline raises
    this error when its MESH node budget is exhausted.
    """

    def __init__(self, node_count, budget):
        super().__init__(
            f"memory budget exhausted: {node_count} nodes exceeds budget of {budget}"
        )
        self.node_count = node_count
        self.budget = budget


class BudgetExceededError(SearchError):
    """A resource budget tripped and no valid plan exists at all.

    Raised only when graceful degradation is impossible: the Volcano
    engine first tries to complete a plan from memoized winners and a
    greedy implementation pass over the explored memo, and only raises
    this when even that yields nothing (or the engine — System R, or
    EXODUS with ``best_effort=False`` — does not degrade).  ``report``
    carries the :class:`~repro.options.BudgetReport` naming the tripped
    limit; ``stats`` the partial search statistics.
    """

    def __init__(self, message, report=None, stats=None):
        super().__init__(message)
        self.report = report
        self.stats = stats


class WorkloadError(ReproError):
    """A workload generator was configured inconsistently."""


class OptionsError(ReproError):
    """An options block was constructed with invalid knob values."""


class ServiceError(ReproError):
    """The optimizer service (plan cache front-end) was misused."""


class ServerError(ReproError):
    """The optimizer server (:mod:`repro.server`) rejected a request.

    ``status`` carries the HTTP status code the server maps the error
    to on the wire (default 400: the request itself was malformed).
    """

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class AdmissionError(ServerError):
    """The server's admission controller refused the request (HTTP 429).

    ``reason`` distinguishes a full queue (``"queue_full"``) from a
    queued request whose wait for a slot timed out (``"timeout"``).
    """

    def __init__(self, message, reason):
        super().__init__(message, status=429)
        self.reason = reason
