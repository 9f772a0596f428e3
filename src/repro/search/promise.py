"""Promise models: pluggable move-ordering for the search engines.

The paper's directed search hinges on the *promise* function — "order
the set of moves by promise" — but leaves the function itself to the
optimizer implementor: "Pursuing all moves or only a selected few is a
major heuristic placed into the hands of the optimizer implementor."
This module makes that hook explicit.  A :class:`PromiseModel` answers
two questions for the engines:

* what is a transformation rule's promise over a given equivalence
  class (consulted by the ``min_promise`` pruning filter);
* what is an implementation rule's promise over a given class
  (consulted when ordering a goal's algorithm moves).

Two models ship:

:class:`StaticPromise`
    The default.  Returns ``rule.promise`` verbatim — bit-for-bit the
    engines' historical behavior.

:class:`LearnedPromiseModel`
    Derives priors from execution evidence: per algorithm from each
    :class:`~repro.feedback.FeedbackReport`, per table from the
    :class:`~repro.feedback.FeedbackStore`'s q-errors.

**Safety.**  Under exhaustive search a promise model can only *reorder*
moves, never add or remove them, and the engines select winners by the
order-independent ``(cost, rank, alternative)`` rule (see
``docs/search-internals.md``, "Promise and move ordering") — so the
chosen plan is identical for every model.  Plans never change; only the
work to find them does.

Models are plain mutable objects shared across runs (that is the
point: evidence accumulates).  They are not synchronized — feed one
from a single service loop, or guard it yourself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Protocol, runtime_checkable

from repro.algebra.properties import LogicalProperties
from repro.model.rules import ImplementationRule, TransformationRule

if TYPE_CHECKING:
    from repro.feedback.report import FeedbackReport
    from repro.feedback.store import FeedbackStore

__all__ = [
    "PromiseModel",
    "StaticPromise",
    "STATIC_PROMISE",
    "LearnedPromiseModel",
    "AlgorithmEvidence",
]


@runtime_checkable
class PromiseModel(Protocol):
    """What the engines ask of a promise model.

    Both methods must be deterministic for fixed model state and must
    not mutate the model — the engines cache move lists (with promises
    baked in) per run.
    """

    def transformation_promise(
        self, rule: TransformationRule, props: Optional[LogicalProperties]
    ) -> float:
        """The rule's promise over a class; feeds ``min_promise`` pruning."""
        ...

    def implementation_promise(
        self, rule: ImplementationRule, props: Optional[LogicalProperties]
    ) -> float:
        """The rule's promise over a class; orders a goal's moves."""
        ...


class StaticPromise:
    """The paper's behavior: promise is the rule author's static number."""

    def transformation_promise(
        self, rule: TransformationRule, props: Optional[LogicalProperties]
    ) -> float:
        """The rule author's static promise, verbatim."""
        return rule.promise

    def implementation_promise(
        self, rule: ImplementationRule, props: Optional[LogicalProperties]
    ) -> float:
        """The rule author's static promise, verbatim."""
        return rule.promise


#: The shared default instance; the engines compare against it by
#: identity to skip model calls entirely on the static fast path.
STATIC_PROMISE = StaticPromise()


@dataclass
class AlgorithmEvidence:
    """Execution evidence for one physical algorithm."""

    observations: int = 0
    total_q_error: float = 0.0

    @property
    def mean_q_error(self) -> float:
        if not self.observations:
            return 1.0
        return self.total_q_error / self.observations


@dataclass
class LearnedPromiseModel:
    """Promise priors learned from execution feedback.

    Evidence comes in through :meth:`observe`, which folds a
    :class:`~repro.feedback.FeedbackReport` (and, when given, refreshes
    the per-table worst q-error mirrored from a
    :class:`~repro.feedback.FeedbackStore`), and out through the
    :class:`PromiseModel` protocol:

    * **implementation promise** — ``rule.promise`` plus a bounded
      additive boost (at most ``boost``) for algorithms that executed
      often with reliable cardinality estimates over the class's
      tables: pursue first what feedback says we cost accurately.
    * **transformation promise** — ``rule.promise`` scaled up by at
      most ``(1 + boost)`` over tables whose estimates have drifted
      (high q-error): where the cost model has been wrong, widen the
      logical search rather than prune it.  Only consulted when
      ``min_promise`` pruning is active.

    Every output is a pure function of the accumulated evidence, so a
    run's move ordering is deterministic; and under exhaustive search
    the engines' ``(cost, rank, alternative)`` winner rule makes the
    chosen plan independent of this model entirely (tested by
    ``tests/search/test_promise.py``).
    """

    #: Upper bound on the additive implementation-promise boost (and on
    #: the multiplicative transformation-promise widening).
    boost: float = 0.25
    #: Observation count at which the frequency factor saturates.
    observation_scale: int = 8
    #: Minimum observations before an algorithm's evidence is used.
    min_observations: int = 1

    _algorithms: Dict[str, AlgorithmEvidence] = field(default_factory=dict)
    #: Per-table worst q-error, mirrored from the store (1.0 = accurate).
    _tables: Dict[str, float] = field(default_factory=dict)

    # -- evidence in ------------------------------------------------------

    def observe(
        self, report: "FeedbackReport", store: Optional["FeedbackStore"] = None
    ) -> None:
        """Fold one executed plan's feedback into the priors.

        Degraded reports still count algorithm appearances (the plan
        did run) but their q-errors are not trusted — same quarantine
        rule the :class:`~repro.feedback.FeedbackStore` applies.
        """
        for op in report.operators:
            if op.is_enforcer:
                continue
            evidence = self._algorithms.setdefault(
                op.algorithm, AlgorithmEvidence()
            )
            evidence.observations += 1
            error = op.q_error
            if error is None or report.degraded:
                evidence.total_q_error += 1.0
            else:
                evidence.total_q_error += error
        if store is not None:
            self.refresh_from(store)

    def refresh_from(self, store: "FeedbackStore") -> None:
        """Mirror the store's per-table worst q-error, over every bucket."""
        for key, bucket in store.bucket_feedback().items():
            table = key[0]
            self._tables[table] = max(
                self._tables.get(table, 1.0), bucket.max_q_error
            )
        for table in list(self._tables):
            self._tables[table] = max(
                self._tables[table], store.max_q_error(table)
            )

    # -- evidence out -----------------------------------------------------

    def _table_reliability(self, props: Optional[LogicalProperties]) -> float:
        """Mean estimate reliability over a class's tables, in (0, 1]."""
        if props is None or not props.tables:
            return 1.0
        total = 0.0
        for table in props.tables:
            total += 1.0 / max(1.0, self._tables.get(table, 1.0))
        return total / len(props.tables)

    def transformation_promise(
        self, rule: TransformationRule, props: Optional[LogicalProperties]
    ) -> float:
        """The rule's promise, widened over drifted tables."""
        reliability = self._table_reliability(props)
        # Unreliable estimates (reliability < 1) widen the logical
        # search: the rule's promise grows by at most ``boost``-fold.
        return rule.promise * (1.0 + self.boost * (1.0 - reliability))

    def implementation_promise(
        self, rule: ImplementationRule, props: Optional[LogicalProperties]
    ) -> float:
        """The rule's promise plus a bounded evidence-driven boost."""
        evidence = self._algorithms.get(rule.algorithm)
        if evidence is None or evidence.observations < self.min_observations:
            return rule.promise
        accuracy = 1.0 / max(1.0, evidence.mean_q_error)
        frequency = min(
            1.0, evidence.observations / max(1, self.observation_scale)
        )
        reliability = self._table_reliability(props)
        return rule.promise + self.boost * accuracy * frequency * reliability

    # -- introspection ----------------------------------------------------

    def algorithm_evidence(self, algorithm: str) -> Optional[AlgorithmEvidence]:
        """The accumulated evidence for one algorithm, or None."""
        return self._algorithms.get(algorithm)
