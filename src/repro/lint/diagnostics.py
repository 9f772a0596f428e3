"""Diagnostic vocabulary for the model-specification linter.

Every check the linter performs is identified by a stable code (``V001``,
``V101``, ...).  Codes are grouped by the hundreds digit:

* ``V0xx`` — well-formedness of the specification itself.
* ``V1xx`` — coverage / closure (can every logical operator be costed?).
* ``V2xx`` — termination heuristics over the transformation rule set.
* ``V3xx`` — cost-model sanity (algebraic laws of the Cost ADT).
* ``V4xx`` — enforcer contracts (deliver what was asked, relax the goal).

Runtime memo-invariant violations detected by
:class:`repro.lint.invariants.MemoAuditor` use ``M0xx`` codes and the
same :class:`Diagnostic` shape, so one report type serves both the
static and the dynamic halves of the tool.

Plan-certificate violations detected by the independent verifier
(:func:`repro.verify.verify_plan`) use ``P0xx``–``P4xx`` codes:

* ``P0xx`` — certificate well-formedness (shape, claim/plan alignment).
* ``P1xx`` — derivation legality (every step a lawful rule application).
* ``P2xx`` — physical properties (derivations deliver the goal,
  enforcer contracts hold).
* ``P3xx`` — cost reproduction (claimed costs recompute exactly).
* ``P4xx`` — logical equivalence (the frontier provably derives from
  the input expression; sharing rewrites resolve their intermediates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry: what a code means and how to fix it."""

    code: str
    severity: Severity
    title: str
    hint: str


# The single source of truth for every diagnostic the tool can emit.
# docs/writing-a-model.md lists these codes; a test asserts the two stay
# in sync.
CODE_REGISTRY: Dict[str, CodeInfo] = {}


def _register(code: str, severity: Severity, title: str, hint: str) -> str:
    CODE_REGISTRY[code] = CodeInfo(code, severity, title, hint)
    return code


# -- well-formedness ---------------------------------------------------------

V001 = _register(
    "V001", Severity.ERROR, "duplicate or mismatched registry name",
    "each operator/algorithm/enforcer name must be unique and match its key",
)
V002 = _register(
    "V002", Severity.ERROR, "pattern references unknown operator",
    "declare the operator with add_operator() or fix the spelling",
)
V003 = _register(
    "V003", Severity.ERROR, "pattern arity mismatch",
    "give the OpPattern as many inputs as the operator's declared arity",
)
V004 = _register(
    "V004", Severity.ERROR, "implementation rule targets unknown algorithm",
    "declare the algorithm with add_algorithm() or fix the rule's target",
)
V005 = _register(
    "V005", Severity.ERROR, "specification part missing",
    "fill in the missing item of the ten-item model specification",
)
V006 = _register(
    "V006", Severity.WARNING, "rewrite drops a bound pattern variable",
    "every input bound on the left side should appear in the rewrite output",
)
V007 = _register(
    "V007", Severity.ERROR, "rewrite produces unknown operator",
    "declare the produced operator or fix the rewrite function",
)
V008 = _register(
    "V008", Severity.ERROR, "rewrite output arity mismatch",
    "make the rewrite build expressions matching each operator's arity",
)
V009 = _register(
    "V009", Severity.INFO, "rule could not be probed statically",
    "the rewrite/condition needs real arguments; covered at run time instead",
)
V010 = _register(
    "V010", Severity.ERROR, "rule promise is not a finite number",
    "promise orders move pursuit and feeds min_promise pruning; give the "
    "rule a finite numeric promise",
)
V011 = _register(
    "V011", Severity.ERROR, "rule mask names an unknown rule",
    "disables/inherits list transformation rule names; fix the spelling "
    "or declare the rule",
)
V012 = _register(
    "V012", Severity.WARNING, "rule masks declared without masks_complete",
    "masks apply only where masks_complete vouches for them; add the "
    "guard or drop the masks",
)

# -- coverage / closure ------------------------------------------------------

V101 = _register(
    "V101", Severity.ERROR, "logical operator has no implementation path",
    "add an implementation rule or a transformation rewriting it away",
)
V103 = _register(
    "V103", Severity.WARNING, "algorithm is never targeted by a rule",
    "add an implementation rule for it or remove the dead algorithm",
)
V104 = _register(
    "V104", Severity.ERROR, "required property component has no producer",
    "add an enforcer or an algorithm delivering the component, or drop the "
    "requires annotation",
)

# -- termination -------------------------------------------------------------

V201 = _register(
    "V201", Severity.WARNING, "unguarded growing rewrite cycle",
    "guard the rule with condition code or bound its application",
)
V202 = _register(
    "V202", Severity.INFO, "unguarded rewrite cycle terminated only by memo",
    "fine for commutativity-style rules; the memo deduplicates re-derivations",
)

# -- cost model --------------------------------------------------------------

V301 = _register(
    "V301", Severity.ERROR, "zero cost is not a neutral element",
    "zero_cost() must satisfy z + z == z and z.total() == 0",
)
V302 = _register(
    "V302", Severity.ERROR, "cost comparison is not a total order",
    "implement __lt__/__le__ so any two costs compare transitively",
)
V303 = _register(
    "V303", Severity.WARNING, "cost addition is not additive in total()",
    "(a + b).total() should equal a.total() + b.total()",
)
V304 = _register(
    "V304", Severity.WARNING, "cost subtraction does not invert addition",
    "(a + b) - b should compare equal to a",
)
V305 = _register(
    "V305", Severity.INFO, "cost ADT could not be probed",
    "the Cost type is not constructible from a float; probes skipped",
)

# -- enforcers ---------------------------------------------------------------

V401 = _register(
    "V401", Severity.ERROR, "enforcer delivers less than it was asked for",
    "the delivered vector of every application must cover the required vector",
)
V402 = _register(
    "V402", Severity.ERROR, "enforcer does not relax the goal",
    "relaxed must differ from required, or the search recurses forever",
)
V403 = _register(
    "V403", Severity.INFO, "enforcer could not be probed",
    "enforce() raised on synthetic property vectors; covered at run time",
)

# -- utility algorithms ------------------------------------------------------

V501 = _register(
    "V501", Severity.WARNING, "utility algorithm targeted by an implementation rule",
    "utility algorithms are planted by out-of-search passes; an implementation "
    "rule producing one lets the search cost a node the pass owns — drop the "
    "rule or clear the utility flag",
)

# -- runtime memo invariants (MemoAuditor) -----------------------------------

M001 = _register(
    "M001", Severity.ERROR, "group merge chain contains a cycle",
    "canonical() must terminate; memo merge bookkeeping is corrupted",
)
M002 = _register(
    "M002", Severity.ERROR, "winner plan does not satisfy its goal",
    "the plan's derived properties must cover the goal's required vector",
)
M003 = _register(
    "M003", Severity.ERROR, "winner cost disagrees with its plan's cost",
    "the memoized cost must equal the recomputed cost of the winning plan",
)
M004 = _register(
    "M004", Severity.ERROR, "plan tree cost is negative or non-monotonic",
    "every subplan must cost no more than its parent; costs are non-negative",
)
M005 = _register(
    "M005", Severity.ERROR, "winner is not minimal among covering winners",
    "a strictly cheaper plan satisfying the same goal exists in the group",
)
M006 = _register(
    "M006", Severity.ERROR, "failure record shadows an achievable goal",
    "a goal recorded as failed is satisfied by a costed winner in the group",
)
M007 = _register(
    "M007", Severity.ERROR, "root plan does not satisfy the query requirement",
    "the returned plan's properties must cover the caller's required vector",
)
M008 = _register(
    "M008", Severity.ERROR, "batch results do not share one memo",
    "every result of a multi-query batch must come from the same "
    "batch-scoped memo, or sharing detection is meaningless",
)
M009 = _register(
    "M009", Severity.ERROR, "batch root group is stale",
    "a result's root_group must resolve to itself through the memo's "
    "union-find after all of the batch's merges settled",
)

# -- plan certificates: well-formedness (repro.verify) -----------------------

P001 = _register(
    "P001", Severity.ERROR, "certificate is malformed",
    "the certificate is missing, of an unknown kind, or structurally broken; "
    "re-optimize with certificates enabled instead of hand-building one",
)
P002 = _register(
    "P002", Severity.ERROR, "certificate claims do not align with the plan",
    "the certificate must carry exactly one claim per plan node in "
    "PhysicalPlan.walk() pre-order",
)
P003 = _register(
    "P003", Severity.ERROR, "certificate source is not the query",
    "the certificate was issued for a different input expression than the "
    "one being verified",
)

# -- plan certificates: derivation legality ----------------------------------

P101 = _register(
    "P101", Severity.ERROR, "derivation step names an unknown rule",
    "every step must name a transformation rule of the model specification",
)
P102 = _register(
    "P102", Severity.ERROR, "derivation step does not match the rule pattern",
    "the rule's pattern must match the expression at the step's path",
)
P103 = _register(
    "P103", Severity.ERROR, "derivation step fails the rule's condition",
    "the rule's condition code rejects the matched binding; the step was "
    "not a lawful application",
)
P104 = _register(
    "P104", Severity.ERROR, "derivation step output is not a rule rewrite",
    "the step's after-expression must be among the rule's rewrite outputs "
    "for the matched binding",
)

# -- plan certificates: physical properties ----------------------------------

P201 = _register(
    "P201", Severity.ERROR, "plan node names an unknown algorithm or enforcer",
    "every plan node must resolve against the model specification's "
    "algorithm/enforcer registries",
)
P202 = _register(
    "P202", Severity.ERROR, "physical-property derivation does not reproduce",
    "re-running the algorithm's derive_props over the claimed inputs must "
    "yield exactly the plan node's recorded properties",
)
P203 = _register(
    "P203", Severity.ERROR, "enforcer application violates its contract",
    "the enforcer must offer an application delivering the claimed goal with "
    "the claimed arguments, and its input must satisfy the relaxed goal",
)
P204 = _register(
    "P204", Severity.ERROR, "root properties do not cover the required goal",
    "the plan's derived properties must cover the certificate's required "
    "physical-property vector",
)
P205 = _register(
    "P205", Severity.ERROR, "claimed logical properties are inconsistent",
    "the certificate's per-node logical properties must agree with an "
    "independent derivation over the logical frontier",
)

# -- plan certificates: cost reproduction ------------------------------------

P301 = _register(
    "P301", Severity.ERROR, "cumulative plan cost does not reproduce",
    "each node's cost must equal its claimed local cost plus its inputs' "
    "costs, added in plan order",
)
P302 = _register(
    "P302", Severity.ERROR, "root cost disagrees with the claimed cost",
    "the plan's root cost must equal the certificate's claimed total exactly",
)
P303 = _register(
    "P303", Severity.ERROR, "local cost is not reproducible from the cost ADT",
    "re-invoking the algorithm's cost function over the claimed logical "
    "properties must reproduce the claimed local cost exactly",
)

# -- plan certificates: logical equivalence ----------------------------------

P401 = _register(
    "P401", Severity.ERROR, "derivation chain does not end at the frontier",
    "replaying the certificate's steps from the source expression must "
    "produce exactly the recorded logical frontier",
)
P402 = _register(
    "P402", Severity.ERROR, "frontier does not correspond to the plan",
    "walking the frontier and the plan in lockstep, every node must be "
    "produced by its claimed implementation rule from the frontier subtree",
)
P403 = _register(
    "P403", Severity.ERROR, "dangling intermediate reference",
    "a scan_intermediate node references a materialized intermediate the "
    "certificate does not define (or defines inconsistently)",
)
P404 = _register(
    "P404", Severity.ERROR, "logical equivalence not established",
    "the certificate provides neither a replayable derivation chain nor a "
    "normalizable frontier; the plan cannot be proven equivalent to the query",
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a code, where it points, and prose."""

    code: str
    subject: str
    message: str
    severity: Severity = field(default=Severity.ERROR)

    @staticmethod
    def make(code: str, subject: str, message: str) -> "Diagnostic":
        info = CODE_REGISTRY[code]
        return Diagnostic(code, subject, message, info.severity)

    def render(self) -> str:
        """One-line human-readable form: ``CODE severity: subject: message``."""
        return f"{self.code} {self.severity}: {self.subject}: {self.message}"


@dataclass
class LintReport:
    """All diagnostics for one specification."""

    spec_name: str
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, code: str, subject: str, message: str) -> None:
        """Append a diagnostic, taking its severity from the registry."""
        self.diagnostics.append(Diagnostic.make(code, subject, message))

    def extend(self, other: Iterable[Diagnostic]) -> None:
        """Append already-built diagnostics (e.g. from a MemoAuditor)."""
        self.diagnostics.extend(other)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        """The diagnostics of exactly this severity."""
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.by_severity(Severity.INFO)

    def codes(self) -> Tuple[str, ...]:
        """Diagnostic codes in emission order (repeats included)."""
        return tuple(d.code for d in self.diagnostics)

    def worst(self) -> Optional[Severity]:
        """The highest severity present, or None for a clean report."""
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def fails(self, strict: bool = False) -> bool:
        """Whether this report should make the lint run exit non-zero."""
        threshold = Severity.WARNING if strict else Severity.ERROR
        worst = self.worst()
        return worst is not None and worst >= threshold

    def render(self) -> str:
        """Multi-line report, diagnostics ordered worst-first."""
        lines = [f"== {self.spec_name} =="]
        if not self.diagnostics:
            lines.append("clean")
        for diagnostic in sorted(
            self.diagnostics, key=lambda d: (-d.severity, d.code, d.subject)
        ):
            lines.append("  " + diagnostic.render())
        return "\n".join(lines)
