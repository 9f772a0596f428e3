"""The model specification: the optimizer generator's input.

This is the paper's ten-item list (end of Section 2.2) in code form.  The
optimizer implementor provides:

1.  a set of logical operators                      → :class:`LogicalOperatorDef`
2.  algebraic transformation rules (+ conditions)   → :class:`TransformationRule`
3.  a set of algorithms and enforcers               → :class:`AlgorithmDef`, :class:`EnforcerDef`
4.  implementation rules (+ conditions)             → :class:`ImplementationRule`
5.  an ADT "cost" with arithmetic and comparison    → :mod:`repro.model.cost`
6.  an ADT "logical properties"                     → :class:`LogicalProperties`
7.  an ADT "physical property vector" (eq + cover)  → ``props_cover`` hook
8.  an applicability function per algorithm/enforcer→ ``AlgorithmDef.applicability`` / ``EnforcerDef.enforce``
9.  a cost function per algorithm/enforcer          → ``.cost``
10. a property function per operator/algorithm/enf. → ``.derive_props`` / ``LogicalOperatorDef.derive_props``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.properties import ANY_PROPS, LogicalProperties, PhysProps
from repro.errors import ModelSpecError
from repro.model.cost import Cost, ScalarCost
from repro.model.rules import ImplementationRule, TransformationRule

__all__ = [
    "VARIADIC",
    "LogicalOperatorDef",
    "AlgorithmNode",
    "AlgorithmDef",
    "EnforcerApplication",
    "EnforcerDef",
    "ModelSpecification",
]

VARIADIC = None
"""Arity marker for operators with any number of inputs."""


# Property *components* are short declarative labels naming one dimension
# of the physical property vector: ``"sort"``, ``"partitioning"``, or
# ``"flag:<name>"`` for model-defined flags.  They are introspection
# hints only — the search engine never reads them — consumed by
# ``repro.lint`` to check the paper's enforcer completeness condition
# (every component an algorithm can require must be producible by some
# algorithm or enforcer) without running a search.
PropertyComponent = str


def _component_set(components: Optional[Iterable[str]]) -> FrozenSet[str]:
    return frozenset(components or ())


@dataclass
class LogicalOperatorDef:
    """A logical algebra operator.

    ``derive_props(context, args, input_props)`` returns the
    :class:`LogicalProperties` of the operator's output; it encapsulates
    schema derivation and selectivity estimation (paper Section 2.2).
    """

    name: str
    arity: Optional[int]
    derive_props: Callable[[object, Tuple, Tuple[LogicalProperties, ...]], LogicalProperties]

    def __post_init__(self):
        if not self.name:
            raise ModelSpecError("logical operator needs a name")
        if self.arity is not None and self.arity < 0:
            raise ModelSpecError(f"operator {self.name!r}: negative arity")

    @property
    def is_leaf(self) -> bool:
        return self.arity == 0


@dataclass(frozen=True)
class AlgorithmNode:
    """What cost and property functions see: one algorithm application.

    ``args`` are the plan node's arguments; ``output`` the logical
    properties of the result; ``inputs`` the logical properties of each
    input.  (Costs depend on logical properties — cardinalities, widths —
    not on the input plans themselves; input plan costs are added by the
    search engine, per Figure 2's ``TotalCost``.)
    """

    args: Tuple
    output: LogicalProperties
    inputs: Tuple[LogicalProperties, ...] = ()


# An applicability result: for each way the algorithm can satisfy the
# required properties, the physical property vector each input must
# satisfy.  Several entries implement the paper's "number of physical
# property vectors to be tried" (e.g. both sort orders for intersection).
InputRequirements = Tuple[PhysProps, ...]


@dataclass
class AlgorithmDef:
    """A query processing algorithm of the physical algebra.

    ``applicability(context, node, required)``
        Returns a list of :data:`InputRequirements` alternatives, or an
        empty list / None when the algorithm cannot deliver the required
        physical properties ("hybrid hash join does not qualify [for
        sorted output] while merge-join qualifies with the requirement
        that its inputs be sorted").
    ``cost(context, node)``
        The algorithm's *local* cost; the engine adds input plan costs.
    ``derive_props(context, node, input_props)``
        The physical properties actually delivered, given the properties
        the chosen input plans deliver.
    ``requires`` / ``delivers``
        Declarative :data:`PropertyComponent` hints: components this
        algorithm's applicability function may *newly* demand of its
        inputs, and components its output can provide.  Optional; used
        by ``repro.lint`` for the enforcer completeness check.
    ``utility``
        True for algorithms planted by passes *outside* the search
        (e.g. the multi-query sharing pass's ``materialize`` /
        ``scan_intermediate``): no implementation rule targets them by
        design, so ``repro.lint`` skips its dead-algorithm check.
    """

    name: str
    applicability: Callable[[object, AlgorithmNode, PhysProps], Optional[List[InputRequirements]]]
    cost: Callable[[object, AlgorithmNode], Cost]
    derive_props: Callable[[object, AlgorithmNode, Tuple[PhysProps, ...]], PhysProps]
    requires: FrozenSet[PropertyComponent] = frozenset()
    delivers: FrozenSet[PropertyComponent] = frozenset()
    utility: bool = False

    def __post_init__(self):
        if not self.name:
            raise ModelSpecError("algorithm needs a name")
        self.requires = _component_set(self.requires)
        self.delivers = _component_set(self.delivers)


@dataclass(frozen=True)
class EnforcerApplication:
    """One way an enforcer can help with a required property vector.

    ``delivered``
        What the enforcer's output provides (given an input that
        satisfies ``relaxed``).
    ``relaxed``
        The property vector the enforcer's input is optimized for —
        the original requirement minus the enforced property ("the
        original logical expression is optimized using FindBestPlan with
        a suitably modified (i.e., relaxed) physical property vector").
    ``excluded``
        The *excluding physical property vector*: algorithms able to
        satisfy it must not be considered for the enforcer's input
        ("since merge-join is able to satisfy the excluding properties,
        it would not be considered a suitable algorithm for the sort
        input").
    """

    args: Tuple
    delivered: PhysProps
    relaxed: PhysProps
    excluded: PhysProps


@dataclass
class EnforcerDef:
    """An operator that enforces physical properties (sort, exchange, …).

    "There are some operators in the physical algebra that do not
    correspond to any operator in the logical algebra […] to enforce
    physical properties in their outputs."  (paper, Section 2.2)

    ``enforce(context, required, output_props)`` returns the list of
    :class:`EnforcerApplication` this enforcer offers for a required
    vector (usually zero or one).  ``cost(context, node)`` is its local
    cost.  ``provides`` declares the :data:`PropertyComponent` labels
    this enforcer can establish (introspection hint for ``repro.lint``).
    """

    name: str
    enforce: Callable[[object, PhysProps, LogicalProperties], List[EnforcerApplication]]
    cost: Callable[[object, AlgorithmNode], Cost]
    provides: FrozenSet[PropertyComponent] = frozenset()

    def __post_init__(self):
        if not self.name:
            raise ModelSpecError("enforcer needs a name")
        self.provides = _component_set(self.provides)


def _default_cover(provided: PhysProps, required: PhysProps) -> bool:
    """The default cover relation: delegate to :meth:`PhysProps.covers`."""
    return provided.covers(required)


@dataclass
class ModelSpecification:
    """Everything the optimizer generator needs to produce an optimizer.

    ``masks_complete(context, queries)``
        Where the transformation rules' masks (``disables``/``inherits``)
        are *complete*: True promises that, for this batch of queries,
        skipping every masked rule firing loses no member of any class.
        The Volcano engine asks once per run and applies masks only on
        True.  None (the default) means masks never apply — the right
        choice for a model without a completeness argument for its rule
        set.
    """

    name: str
    operators: Dict[str, LogicalOperatorDef] = field(default_factory=dict)
    algorithms: Dict[str, AlgorithmDef] = field(default_factory=dict)
    enforcers: Dict[str, EnforcerDef] = field(default_factory=dict)
    transformations: List[TransformationRule] = field(default_factory=list)
    implementations: List[ImplementationRule] = field(default_factory=list)
    zero_cost: Callable[[], Cost] = ScalarCost
    props_cover: Callable[[PhysProps, PhysProps], bool] = _default_cover
    any_props: PhysProps = ANY_PROPS
    masks_complete: Optional[
        Callable[[object, Sequence[LogicalExpression]], bool]
    ] = None

    # -- registration helpers --------------------------------------------

    def add_operator(self, operator: LogicalOperatorDef) -> LogicalOperatorDef:
        """Register a logical operator (duplicate names rejected)."""
        if operator.name in self.operators:
            raise ModelSpecError(f"duplicate operator: {operator.name!r}")
        self.operators[operator.name] = operator
        return operator

    def add_algorithm(self, algorithm: AlgorithmDef) -> AlgorithmDef:
        """Register an algorithm (duplicate names rejected)."""
        if algorithm.name in self.algorithms or algorithm.name in self.enforcers:
            raise ModelSpecError(f"duplicate algorithm: {algorithm.name!r}")
        self.algorithms[algorithm.name] = algorithm
        return algorithm

    def add_enforcer(self, enforcer: EnforcerDef) -> EnforcerDef:
        """Register an enforcer (duplicate names rejected)."""
        if enforcer.name in self.enforcers or enforcer.name in self.algorithms:
            raise ModelSpecError(f"duplicate enforcer: {enforcer.name!r}")
        self.enforcers[enforcer.name] = enforcer
        return enforcer

    def add_transformation(self, rule: TransformationRule) -> TransformationRule:
        """Register a transformation rule."""
        self.transformations.append(rule)
        return rule

    def add_implementation(self, rule: ImplementationRule) -> ImplementationRule:
        """Register an implementation rule."""
        self.implementations.append(rule)
        return rule

    # -- lookup ------------------------------------------------------------

    def operator(self, name: str) -> LogicalOperatorDef:
        """Look up a logical operator by name."""
        try:
            return self.operators[name]
        except KeyError:
            raise ModelSpecError(f"unknown logical operator: {name!r}") from None

    def algorithm(self, name: str) -> AlgorithmDef:
        """Look up an algorithm by name."""
        try:
            return self.algorithms[name]
        except KeyError:
            raise ModelSpecError(f"unknown algorithm: {name!r}") from None

    def enforcer(self, name: str) -> EnforcerDef:
        """Look up an enforcer by name."""
        try:
            return self.enforcers[name]
        except KeyError:
            raise ModelSpecError(f"unknown enforcer: {name!r}") from None

    def enforcer_applications(
        self,
        name: str,
        context: object,
        required: PhysProps,
        output_props: LogicalProperties,
    ) -> List[EnforcerApplication]:
        """Run an enforcer's ``enforce`` hook and validate its promises.

        The search engines call enforcers through this accessor so that a
        model bug — an enforcer returning an application whose
        ``delivered`` vector does not actually satisfy the ``required``
        vector it was asked for, or one that fails to relax the goal —
        surfaces as a :class:`ModelSpecError` naming the enforcer,
        instead of a wrong plan or an unbounded search.
        """
        enforcer = self.enforcer(name)
        applications = list(enforcer.enforce(context, required, output_props) or ())
        for application in applications:
            if not self.props_cover(application.delivered, required):
                raise ModelSpecError(
                    f"enforcer {name!r} returned an application delivering "
                    f"[{application.delivered}], which does not satisfy the "
                    f"required vector [{required}] it was asked to enforce"
                )
            if application.relaxed == required:
                raise ModelSpecError(
                    f"enforcer {name!r} did not relax the goal [{required}]; "
                    f"optimizing its input would recurse forever"
                )
        return applications

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check the specification for completeness and consistency.

        Raises :class:`ModelSpecError` describing every problem found.
        This is the front half of the paper's generator: a specification
        that does not validate cannot be turned into an optimizer.
        """
        problems: List[str] = []
        if not self.name:
            problems.append("specification needs a name")
        if not self.operators:
            problems.append("no logical operators declared")
        if not self.algorithms:
            problems.append("no algorithms declared")
        for rule in self.transformations:
            problems.extend(self._check_pattern_operators(rule.name, rule.pattern))
        implemented = set()
        for rule in self.implementations:
            problems.extend(self._check_pattern_operators(rule.name, rule.pattern))
            if rule.algorithm not in self.algorithms:
                problems.append(
                    f"implementation rule {rule.name!r} targets unknown "
                    f"algorithm {rule.algorithm!r}"
                )
            implemented.add(rule.top_operator)
        for name, operator in self.operators.items():
            if operator.derive_props is None:
                problems.append(f"operator {name!r} has no property function")
            if name not in implemented:
                problems.append(
                    f"operator {name!r} has no implementation rule; no plan "
                    f"can contain it"
                )
        if problems:
            raise ModelSpecError(
                f"invalid model specification {self.name!r}:\n  - "
                + "\n  - ".join(problems)
            )

    def _check_pattern_operators(self, rule_name: str, pattern) -> List[str]:
        problems = []
        # Local import to avoid a cycle at module load time.
        from repro.model.patterns import AnyPattern, OpPattern

        # Pre-order over an explicit stack: a self-recursive closure
        # would leave a function <-> cell cycle on every construction.
        stack = [pattern]
        while stack:
            node = stack.pop()
            if isinstance(node, AnyPattern):
                continue
            if not isinstance(node, OpPattern):
                problems.append(f"rule {rule_name!r}: bad pattern node {node!r}")
                continue
            operator = self.operators.get(node.operator)
            if operator is None:
                problems.append(
                    f"rule {rule_name!r}: pattern references unknown "
                    f"operator {node.operator!r}"
                )
            elif operator.arity is not None and operator.arity != len(node.inputs):
                problems.append(
                    f"rule {rule_name!r}: pattern gives {node.operator!r} "
                    f"{len(node.inputs)} inputs but its arity is {operator.arity}"
                )
            stack.extend(reversed(node.inputs))
        return problems
