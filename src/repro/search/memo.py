"""The memo: a hash table of expressions and equivalence classes.

"In order to prevent redundant optimization effort by detecting redundant
(i.e., multiple equivalent) derivations of the same logical expressions
and plans during optimization, expressions and plans are captured in a
hash table of expressions and equivalence classes.  An equivalence class
represents two collections, one of equivalent logical and one of physical
expressions (plans).  […]  For each combination of physical properties
for which an equivalence class has already been optimized, e.g.,
unsorted, sorted on A, and sorted on B, the best plan found is kept."
(paper, Section 3)

Groups additionally memoize *failures* ("'Interesting' is defined with
respect to possible future use, which includes both plans optimal for
given physical properties as well as failures that can save future
optimization effort").  Neither table depends on a cost limit: a winner
is its goal's optimum and a failure means no plan exists, so an entry is
the same whichever consumer — or which query of a batch — asked first.

When a transformation derives an expression that already exists in a
*different* group, the two groups are provably equivalent and are merged
(the flip side of Figure 3, where associativity *creates* a new class).
Merging invalidates cached winners and failures of the merged class, so
the engine performs all logical exploration before any costing.

Performance internals (see docs/search-internals.md):

* **Hash-consing.**  :class:`GroupExpression` precomputes its structural
  hash, and the memo *interns* every canonical group expression — one
  object per structural form — so hash-table probes run at pointer
  speed and equality checks short-circuit on identity.
* **Moves cache.**  The per-group implementation-move lists are
  memoized and invalidated *exactly*: an entry records which groups its
  enumeration probed (with content versions) and is dropped when any of
  them changes.  Nothing else is cached: every class is explored once,
  so a rule's bindings are enumerated lazily and never kept (a class a
  merge reopens is re-enumerated in full; ``Group.applied`` suppresses
  what already fired).
* **Union-find path compression** in :meth:`Memo.canonical` keeps merge
  chains O(α); ``SearchStats.canonical_hops`` counts chain links
  actually chased, so tests can assert the amortized bound.
* **Freed by reference counting.**  The memo installs its context's
  group-leaf resolver itself, and that resolver holds the memo only
  through a weak reference, so ``Memo`` → context → resolver is not a
  cycle: a memo (and everything in it) is freed the moment its last
  owner drops it, with no full pass of the cyclic collector.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.algebra.expressions import GROUP_LEAF, LogicalExpression
from repro.algebra.plans import PhysicalPlan
from repro.algebra.properties import LogicalProperties, PhysProps
from repro.errors import SearchError
from repro.model.context import OptimizerContext
from repro.model.cost import Cost
from repro.search.tracing import SearchStats

__all__ = ["GroupExpression", "Winner", "Group", "Memo", "GoalKey"]

_UNMASKED: FrozenSet[str] = frozenset()


class GroupExpression:
    """A logical expression whose inputs are equivalence classes.

    Structural equality; the hash is precomputed at construction (these
    are the memo's hash-table keys, probed on every insertion), and the
    memo interns canonical instances so most equality checks are
    identity checks.

    A frozen value, slotted and filled through its slot descriptors
    (every rewrite builds one).  Pickling rebuilds through the
    constructor, so the hash — of strings, randomized per process — is
    recomputed wherever the pickle is loaded.
    """

    __slots__ = ("operator", "args", "input_groups", "_hash")

    operator: str
    args: Tuple
    input_groups: Tuple[int, ...]
    _hash: int

    def __init__(self, operator: str, args: Tuple, input_groups: Tuple[int, ...] = ()):
        _set_operator(self, operator)
        _set_args(self, args)
        _set_input_groups(self, input_groups)
        _set_hash(self, hash((operator, args, input_groups)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), (self.operator, self.args, self.input_groups))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, GroupExpression):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.operator == other.operator
            and self.args == other.args
            and self.input_groups == other.input_groups
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(operator={self.operator!r}, "
            f"args={self.args!r}, input_groups={self.input_groups!r})"
        )

    def __str__(self) -> str:
        inputs = " ".join(f"g{gid}" for gid in self.input_groups)
        args = ", ".join(str(arg) for arg in self.args)
        body = " ".join(part for part in (f"[{args}]" if args else "", inputs) if part)
        return f"({self.operator} {body})" if body else f"({self.operator})"


_set_operator = GroupExpression.operator.__set__  # type: ignore[attr-defined]
_set_args = GroupExpression.args.__set__  # type: ignore[attr-defined]
_set_input_groups = GroupExpression.input_groups.__set__  # type: ignore[attr-defined]
_set_hash = GroupExpression._hash.__set__  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Winner:
    """The best plan found for one (group, physical properties) goal."""

    plan: PhysicalPlan
    cost: Cost


# A goal key: required properties plus the excluding vector (None outside
# enforcer inputs).  Winners and failures are memoized per goal key, so a
# plan found under an excluding vector never leaks into ordinary lookups.
GoalKey = Tuple[PhysProps, Optional[PhysProps]]


class Group:
    """One equivalence class."""

    __slots__ = (
        "id",
        "expressions",
        "expression_set",
        "logical_props",
        "winners",
        "failures",
        "applied",
        "explored",
        "exploring",
        "reopened",
        "in_progress",
        "merged_into",
        "version",
    )

    def __init__(self, group_id: int, logical_props: LogicalProperties):
        self.id = group_id
        self.expressions: List[GroupExpression] = []
        self.expression_set: Set[GroupExpression] = set()
        self.logical_props = logical_props
        self.winners: Dict[GoalKey, Winner] = {}
        # Goals for which no plan exists — limit-free, like winners: a
        # goal is searched once, to its optimum, whoever asks first.
        self.failures: Set[GoalKey] = set()
        # Fingerprints of rule applications already performed, so that a
        # rule never fires twice on the same binding (this also detects
        # inverse rule pairs: re-deriving an existing expression is a
        # no-op thanks to the hash table).
        self.applied: Set = set()
        self.explored = False
        # On the engine's exploration stack (its re-entrancy guard).
        self.exploring = False
        # A member's mask narrowed while the group was being explored:
        # the loop may have passed it, so the group must not close.
        self.reopened = False
        # Goal keys currently on the search stack (reference counted);
        # the paper marks goals "in progress" to break cycles.
        self.in_progress: Dict[GoalKey, int] = {}
        self.merged_into: Optional[int] = None
        # Content version: bumped whenever the expression list changes.
        # The moves cache records (group id, version) pairs for every
        # group it read, so a version mismatch — or a merge — is the
        # exact signal that a cached result may be stale.
        self.version = 0

    def mark_in_progress(self, key: GoalKey) -> None:
        """Push an in-progress mark for a goal (reference counted)."""
        self.in_progress[key] = self.in_progress.get(key, 0) + 1

    def unmark_in_progress(self, key: GoalKey) -> None:
        """Pop one in-progress mark for a goal."""
        count = self.in_progress.get(key, 0)
        if count <= 1:
            self.in_progress.pop(key, None)
        else:
            self.in_progress[key] = count - 1

    def is_in_progress(self, key: GoalKey) -> bool:
        """True while the goal is on the search stack."""
        return self.in_progress.get(key, 0) > 0

    def __repr__(self) -> str:
        return f"Group({self.id}, {len(self.expressions)} exprs)"


def _product_mask(masks: Dict, origin: Tuple) -> FrozenSet[str]:
    """The mask of the member rule R produced from source member S:
    ``R.disables | (mask(S) & R.inherits)``."""
    source, rule = origin[0], origin[1]
    if not rule.inherits:
        return rule.disables
    return rule.disables | (rule.inherits & masks.get(source, _UNMASKED))


def _rekey_mask(
    masks: Dict, old: GroupExpression, new: GroupExpression, collided: bool
) -> None:
    """Move a member's mask to its canonical form during a merge.

    When the canonical form is already a member (``collided``), the two
    masks intersect; a missing entry is the empty mask.
    """
    mask = masks.pop(old, None)
    if not collided:
        if mask is not None:
            masks[new] = mask
    elif new in masks:
        narrowed = masks[new] & mask if mask is not None else _UNMASKED
        if narrowed:
            masks[new] = narrowed
        else:
            del masks[new]


def _weak_resolver(memo_ref: "weakref.ref[Memo]"):
    """A group-leaf resolver that reaches its memo through ``memo_ref``.

    It answers ``None`` once the memo is gone, which the context reports
    as a group leaf outside a search.
    """

    def resolve(group_id: int) -> Optional[LogicalProperties]:
        memo = memo_ref()
        return None if memo is None else memo.logical_props(group_id)

    return resolve


class Memo:
    """The hash table of expressions and equivalence classes."""

    def __init__(
        self,
        context: OptimizerContext,
        stats: Optional[SearchStats] = None,
        check_consistency: bool = True,
        max_groups: Optional[int] = None,
    ):
        self.context = context
        context.group_props_resolver = _weak_resolver(weakref.ref(self))
        self.stats = stats if stats is not None else SearchStats()
        self.check_consistency = check_consistency
        self.max_groups = max_groups
        self._groups: Dict[int, Group] = {}
        self._table: Dict[GroupExpression, int] = {}
        # Reverse index: group id → expressions that reference it as an
        # input, needed to rewrite the table when groups merge.
        self._parents: Dict[int, Set[GroupExpression]] = {}
        self._next_id = 0
        # Hash-consing tables: one canonical GroupExpression instance per
        # structural form, and one canonical GoalKey tuple per goal, so
        # the hot dict lookups resolve on identity instead of structure.
        self._interned: Dict[GroupExpression, GroupExpression] = {}
        self._goal_keys: Dict[GoalKey, GoalKey] = {}
        # Per-group move lists (exact invalidation via probe records;
        # see cached_moves below).
        self._moves_cache: Dict[int, Tuple[Dict[int, int], tuple]] = {}
        #: member → (source member, rule, binding, output) of the rewrite
        #: that first brought it into its class, ``output`` being the
        #: expression the rewrite returned; a certificate's derivation
        #: chain is the walk back along these pointers, each step's tree
        #: read off its output.  Keys stay canonical: a merge re-keys the
        #: members it re-homes.
        self.derivations: Dict[GroupExpression, Tuple] = {}
        #: member → the names of the rules masked on it, for masked
        #: members only; None unless the run masks (see
        #: ``docs/search-internals.md``, "Exploration").  A mask only
        #: narrows: every derivation of a member intersects it.
        self.masks: Optional[Dict[GroupExpression, FrozenSet[str]]] = None
        # Masks narrowed so far (``add_rewrite`` reports one as a change).
        self._narrowings = 0

    # -- basic access --------------------------------------------------------

    def canonical(self, group_id: int) -> int:
        """Resolve a (possibly merged-away) group id to its representative."""
        target = self._groups[group_id].merged_into
        if target is None:
            return group_id
        seen = []
        while target is not None:
            seen.append(group_id)
            group_id = target
            target = self._groups[group_id].merged_into
        self.stats.canonical_hops += len(seen)
        for stale in seen:  # path compression
            self._groups[stale].merged_into = group_id
        return group_id

    def goal_key(
        self, required: PhysProps, excluded: Optional[PhysProps] = None
    ) -> GoalKey:
        """The interned (required, excluded) key for winner/failure tables.

        One tuple instance per distinct goal, so the per-goal dict
        lookups that dominate ``FindBestPlan`` compare keys by identity.
        """
        key = (required, excluded)
        interned = self._goal_keys.get(key)
        if interned is None:
            self._goal_keys[key] = key
            return key
        return interned

    def group(self, group_id: int) -> Group:
        """The live group for an id (following merges)."""
        group = self._groups[group_id]
        if group.merged_into is None:
            return group
        return self._groups[self.canonical(group_id)]

    def group_count(self) -> int:
        """Number of live (unmerged) groups."""
        return sum(1 for group in self._groups.values() if group.merged_into is None)

    def expression_count(self) -> int:
        """Total expressions across live groups."""
        return sum(
            len(group.expressions)
            for group in self._groups.values()
            if group.merged_into is None
        )

    def groups(self) -> Iterator[Group]:
        """All live (unmerged) groups."""
        for group in self._groups.values():
            if group.merged_into is None:
                yield group

    def logical_props(self, group_id: int) -> LogicalProperties:
        """The logical properties of a group."""
        return self.group(group_id).logical_props

    def reachable(self, root: int) -> List[int]:
        """Canonical ids of all groups reachable from ``root`` (pre-order)."""
        root = self.canonical(root)
        seen: List[int] = []
        seen_set: Set[int] = set()
        stack = [root]
        while stack:
            gid = self.canonical(stack.pop())
            if gid in seen_set:
                continue
            seen_set.add(gid)
            seen.append(gid)
            # gid is already canonical: index the group table directly
            # instead of re-resolving through the union-find.
            for mexpr in self._groups[gid].expressions:
                for input_gid in mexpr.input_groups:
                    stack.append(input_gid)
        return seen

    # -- insertion -----------------------------------------------------------

    def insert_expression(self, expression: LogicalExpression) -> int:
        """Intern a logical expression tree; returns its group's id.

        Group leaves resolve to their (canonical) group.  Identical
        subexpressions share groups through the hash table.
        """
        if expression.operator == GROUP_LEAF:
            return self.canonical(expression.args[0])
        return self._insert(expression, [])[0]

    def _insert(
        self,
        expression: LogicalExpression,
        created: List[int],
        target_group: Optional[int] = None,
        origin: Optional[Tuple] = None,
    ) -> Tuple[int, bool]:
        """Intern a non-leaf expression tree; returns ``(group_id, changed)``.

        Subtrees are interned first, each group they create appended to
        ``created``; group leaves among the inputs resolve in place,
        without a call for an unmerged group.  The top node joins
        ``target_group`` (with ``origin``, see :meth:`add_rewrite`) or,
        when None, its own group.
        """
        groups = self._groups
        input_groups = tuple(
            [
                (
                    node.args[0]
                    if groups[node.args[0]].merged_into is None
                    else self.canonical(node.args[0])
                )
                if node.operator == GROUP_LEAF
                else self._insert(node, created)[0]
                for node in expression.inputs
            ]
        )
        mexpr = GroupExpression(expression.operator, expression.args, input_groups)
        group_id, changed = self._intern(mexpr, target_group, origin)
        if changed and target_group is None:
            created.append(group_id)
        return group_id, changed

    def add_expression_to_group(
        self, expression: LogicalExpression, group_id: int
    ) -> bool:
        """Integrate a (rewritten) expression as a member of ``group_id``.

        Used when a transformation rule proves ``expression`` equivalent
        to the group.  Returns True when the memo changed (a new
        expression appeared or groups merged).
        """
        return self.add_rewrite(expression, group_id)[0]

    def add_rewrite(
        self,
        expression: LogicalExpression,
        group_id: int,
        origin: Optional[Tuple] = None,
    ) -> Tuple[bool, List[int]]:
        """:meth:`add_expression_to_group`, also reporting the new groups.

        Returns ``(changed, created)``: ``created`` lists the ids of the
        equivalence classes this insertion had to create for
        subexpressions the memo did not hold yet, inputs before the
        groups that consume them — the order in which the engine
        explores them (see ``docs/search-internals.md``, "Exploration").
        ``origin`` is the rewrite's ``(source member, rule, binding,
        output)``, ``output`` being ``expression`` itself; the output
        member keeps it in :attr:`derivations` when this is its first
        entry into the class.  When the run masks, a mask narrowed by
        this insertion also counts as a change: the group it reopened
        needs the fixpoint sweep.
        """
        created: List[int] = []
        group_id = self.canonical(group_id)
        if expression.operator == GROUP_LEAF:
            # The rewrite returned a bare input: the whole group is
            # equivalent to one of its subexpressions' groups.
            other = self.canonical(expression.args[0])
            if other == group_id:
                return False, created
            self._merge(group_id, other)
            return True, created
        narrowings = self._narrowings
        _, changed = self._insert(expression, created, group_id, origin)
        return changed or self._narrowings != narrowings, created

    def _intern(
        self,
        mexpr: GroupExpression,
        target_group: Optional[int],
        origin: Optional[Tuple] = None,
    ) -> Tuple[int, bool]:
        """Intern one group expression; returns ``(group_id, changed)``."""
        mexpr = self._canonical_mexpr(mexpr)
        existing = self._table.get(mexpr)
        if existing is not None:
            existing = self.canonical(existing)
            masks = self.masks
            if masks is not None and mexpr in masks:
                # Re-derived: by a rewrite, the mask narrows to what both
                # derivations mask; as a subexpression or query, to none.
                self._narrow(
                    masks,
                    mexpr,
                    existing,
                    _UNMASKED if origin is None else _product_mask(masks, origin),
                )
            if target_group is not None and existing != target_group:
                # Two derivations of the same expression in different
                # classes: the classes are equivalent — merge them.
                if origin is not None:
                    self.derivations.setdefault(mexpr, origin)
                self._merge(target_group, existing)
                return self.canonical(target_group), True
            return existing, False
        if target_group is None:
            group = self._new_group(mexpr)
        else:
            group = self.group(target_group)
            if self.check_consistency:
                self._check_consistency(group, mexpr)
        self._attach(mexpr, group)
        if origin is not None:
            self.derivations[mexpr] = origin
            masks = self.masks
            if masks is not None:
                mask = _product_mask(masks, origin)
                if mask:
                    masks[mexpr] = mask
        return group.id, True

    def _narrow(
        self,
        masks: Dict[GroupExpression, FrozenSet[str]],
        mexpr: GroupExpression,
        gid: int,
        mask: FrozenSet[str],
    ) -> None:
        """Intersect a masked member's mask with ``mask``.

        A narrowed mask re-enables rules on the member: its group is
        marked unexplored (and reopened, when its loop is running), so
        the engine fires them.
        """
        old = masks[mexpr]
        narrowed = old & mask
        if len(narrowed) == len(old):
            return
        if narrowed:
            masks[mexpr] = narrowed
        else:
            del masks[mexpr]
        self._narrowings += 1
        group = self._groups[gid]
        group.explored = False
        if group.exploring:
            group.reopened = True

    def _new_group(self, mexpr: GroupExpression) -> Group:
        if self.max_groups is not None and len(self._groups) >= self.max_groups:
            raise SearchError(
                f"memo exceeded the configured limit of {self.max_groups} groups"
            )
        props = self._derive_props(mexpr)
        group = Group(self._next_id, props)
        self._next_id += 1
        self._groups[group.id] = group
        self.stats.groups_created += 1
        return group

    def _attach(self, mexpr: GroupExpression, group: Group) -> None:
        group.expressions.append(mexpr)
        group.expression_set.add(mexpr)
        group.version += 1
        self._table[mexpr] = group.id
        for input_gid in set(mexpr.input_groups):
            self._parents.setdefault(input_gid, set()).add(mexpr)
        self.stats.expressions_created += 1
        # New logical knowledge: the group may support new rule bindings —
        # and so may every group whose rule patterns can reach into this
        # one (nested patterns match against input groups' expressions).
        group.explored = False
        self._invalidate_ancestors(group.id)

    def _invalidate_ancestors(self, gid: int) -> None:
        """Clear the ``explored`` flag of every group reachable upward.

        The moves cache needs no explicit treatment here: it records
        (group, version) probes, and the version bump on the changed
        group invalidates exactly the entries that read it.
        """
        # Hot on the exploration fixpoint's attach path: locals bound,
        # canonical() skipped for unmerged owners (the common case).
        # Pushed ids are canonical and the walk itself never merges, so
        # popped ids need no re-canonicalization.
        groups = self._groups
        parents_get = self._parents.get
        table_get = self._table.get
        stack = [self.canonical(gid)]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for mexpr in parents_get(current, ()):
                owner = table_get(mexpr)
                if owner is None:
                    continue  # the expression was rewritten away by a merge
                owner_group = groups[owner]
                if owner_group.merged_into is not None:
                    owner_group = groups[self.canonical(owner)]
                owner_group.explored = False
                stack.append(owner_group.id)

    def _canonical_mexpr(self, mexpr: GroupExpression) -> GroupExpression:
        groups = self._groups
        for gid in mexpr.input_groups:
            if groups[gid].merged_into is not None:
                canonical_inputs = tuple(
                    self.canonical(g) for g in mexpr.input_groups
                )
                mexpr = GroupExpression(mexpr.operator, mexpr.args, canonical_inputs)
                break
        # One probe (one ``__hash__`` call) whether or not it is new.
        return self._interned.setdefault(mexpr, mexpr)

    def _derive_props(self, mexpr: GroupExpression) -> LogicalProperties:
        input_props = tuple(
            [self.group(gid).logical_props for gid in mexpr.input_groups]
        )
        return self.context.derive_logical_props(
            mexpr.operator, mexpr.args, input_props
        )

    # -- binding enumeration and the moves cache --------------------------------

    def expressions_of(self, gid: int):
        """Pattern-matching callback: a group's expressions as triples."""
        for mexpr in self.group(gid).expressions:
            yield mexpr.operator, mexpr.args, mexpr.input_groups

    def probing_expressions_of(self, probes: Dict[int, int]):
        """An ``expressions_of`` callback that records which groups it reads.

        Each read group's canonical id maps to its ``version`` —
        recorded at *first* read, so a mid-enumeration mutation leaves a
        stale version behind and conservatively invalidates the entry.
        """

        def expressions_of(gid: int):
            group = self._groups[self.canonical(gid)]
            if group.id not in probes:
                probes[group.id] = group.version
            for mexpr in group.expressions:
                yield mexpr.operator, mexpr.args, mexpr.input_groups

        return expressions_of

    def probes_valid(self, probes: Dict[int, int]) -> bool:
        """True while every probed group is unmerged at its recorded version."""
        groups = self._groups
        for gid, version in probes.items():
            group = groups[gid]
            if group.merged_into is not None or group.version != version:
                return False
        return True

    def cached_moves(self, gid: int):
        """The memoized move list for a group, or None when stale/absent."""
        entry = self._moves_cache.get(gid)
        if entry is None:
            return None
        probes, moves = entry
        if self.probes_valid(probes):
            self.stats.moves_cache_hits += 1
            return moves
        del self._moves_cache[gid]
        return None

    def store_moves(self, gid: int, probes: Dict[int, int], moves: tuple) -> None:
        """Memoize a group's move list together with its probe record."""
        self.stats.moves_cache_misses += 1
        self._moves_cache[gid] = (probes, moves)

    def _check_consistency(self, group: Group, mexpr: GroupExpression) -> None:
        """Paper's consistency check: all class members agree on properties."""
        self.stats.consistency_checks += 1
        derived = self._derive_props(mexpr)
        if not derived.consistent_with(group.logical_props):
            raise SearchError(
                f"inconsistent logical properties in group {group.id}: "
                f"group has [{group.logical_props}] but {mexpr} derives "
                f"[{derived}] — a transformation rule is not equivalence-"
                f"preserving"
            )

    # -- merging ---------------------------------------------------------------

    def _merge(self, a: int, b: int) -> int:
        """Merge two equivalent groups; returns the surviving id."""
        worklist = [(a, b)]
        result = self.canonical(a)
        while worklist:
            left, right = worklist.pop()
            left, right = self.canonical(left), self.canonical(right)
            if left == right:
                continue
            keeper, dead = self._choose_keeper(left, right)
            self.stats.group_merges += 1
            self._merge_into(keeper, dead, worklist)
            result = keeper.id
        return result

    def _choose_keeper(self, left: int, right: int) -> Tuple[Group, Group]:
        left_group, right_group = self._groups[left], self._groups[right]
        # Prefer a group that is currently being worked on so live loops
        # keep observing the surviving object; otherwise the older group.
        left_busy = bool(left_group.in_progress) or left_group.exploring
        right_busy = bool(right_group.in_progress) or right_group.exploring
        if right_busy and not left_busy:
            return right_group, left_group
        if left_busy or left < right:
            return left_group, right_group
        return right_group, left_group

    def _merge_into(self, keeper: Group, dead: Group, worklist: List) -> None:
        if self.check_consistency and not dead.logical_props.consistent_with(
            keeper.logical_props
        ):
            raise SearchError(
                f"merge of groups {keeper.id} and {dead.id} with inconsistent "
                f"properties: [{keeper.logical_props}] vs [{dead.logical_props}]"
            )
        dead.merged_into = keeper.id
        # Both groups' contents change: stale any moves-cache entry
        # that read either of them.
        keeper.version += 1
        dead.version += 1
        # Move the expressions across, each with its derivation pointer
        # and mask.
        derivations, masks = self.derivations, self.masks
        for mexpr in dead.expressions:
            self._table.pop(mexpr, None)
            canonical = self._canonical_mexpr(mexpr)
            origin = derivations.pop(mexpr, None)
            if origin is not None:
                derivations.setdefault(canonical, origin)
            clash = self._table.get(canonical)
            if masks is not None:
                _rekey_mask(masks, mexpr, canonical, clash is not None)
            if clash is not None and self.canonical(clash) != keeper.id:
                # Canonicalizing revealed that this expression already
                # exists in yet another group: that group is equivalent
                # too — schedule a further merge.
                worklist.append((keeper.id, clash))
            if canonical not in keeper.expression_set:
                keeper.expressions.append(canonical)
                keeper.expression_set.add(canonical)
            self._table[canonical] = keeper.id
            for input_gid in set(canonical.input_groups):
                self._parents.setdefault(input_gid, set()).add(canonical)
        dead.expressions.clear()
        dead.expression_set.clear()
        # Cached plans and failures may no longer be optimal or valid for
        # the enlarged class — drop them (the engine explores the whole
        # logical space before costing, so this only discards pre-merge
        # state, never mid-costing results).
        keeper.winners.clear()
        keeper.failures.clear()
        dead.winners.clear()
        dead.failures.clear()
        keeper.applied |= dead.applied
        keeper.explored = False
        for key, count in dead.in_progress.items():
            keeper.in_progress[key] = keeper.in_progress.get(key, 0) + count
        dead.in_progress.clear()
        keeper.exploring = keeper.exploring or dead.exploring
        keeper.reopened = keeper.reopened or dead.reopened
        # Re-home expressions in *other* groups that referenced the dead
        # group as an input: their table keys change, which may reveal
        # further equalities (recursive merges).
        for parent in list(self._parents.pop(dead.id, ())):
            owner = self._table.pop(parent, None)
            if owner is None:
                continue  # already rewritten via another path
            owner = self.canonical(owner)
            owner_group = self._groups[owner]
            owner_group.version += 1
            rewritten = self._canonical_mexpr(parent)
            origin = derivations.pop(parent, None)
            if origin is not None:
                derivations.setdefault(rewritten, origin)
            if parent in owner_group.expression_set:
                owner_group.expression_set.discard(parent)
                owner_group.expressions = [
                    m for m in owner_group.expressions if m != parent
                ]
            clash = self._table.get(rewritten)
            if masks is not None:
                _rekey_mask(masks, parent, rewritten, clash is not None)
            if clash is not None and self.canonical(clash) != owner:
                worklist.append((owner, clash))
                # The rewritten expression already lives in the clashing
                # group; owner and clash merge, no need to re-attach.
                continue
            if rewritten not in owner_group.expression_set:
                owner_group.expressions.append(rewritten)
                owner_group.expression_set.add(rewritten)
            self._table[rewritten] = owner
            for input_gid in set(rewritten.input_groups):
                self._parents.setdefault(input_gid, set()).add(rewritten)
            owner_group.explored = False
            self._invalidate_ancestors(owner)

    # -- extraction -------------------------------------------------------------

    def representative_expression(
        self, group_id: int, _path: Tuple[int, ...] = ()
    ) -> LogicalExpression:
        """A full logical expression tree representing a group.

        Rebuilds a concrete :class:`LogicalExpression` by picking, for
        the group and recursively for each input group, the first
        member whose expansion does not revisit a group already on the
        path (rule-derived self references would otherwise recurse
        forever).  The first member is the earliest inserted one —
        for the root that is the query's original form.

        Raises :class:`~repro.errors.SearchError` when every member is
        cyclic.
        """
        gid = self.canonical(group_id)
        if gid in _path:
            raise SearchError(f"group {gid} only has cyclic expressions")
        path = _path + (gid,)
        for mexpr in self._groups[gid].expressions:
            try:
                inputs = tuple(
                    self.representative_expression(input_gid, path)
                    for input_gid in mexpr.input_groups
                )
            except SearchError:
                continue
            return LogicalExpression(mexpr.operator, mexpr.args, inputs)
        raise SearchError(f"group {gid} has no representable expression")

    def render(self, root: Optional[int] = None) -> str:
        """Human-readable dump of (reachable) groups, for debugging."""
        gids = self.reachable(root) if root is not None else [
            group.id for group in self.groups()
        ]
        lines = []
        for gid in gids:
            # gids are canonical already (reachable/groups yield them so).
            group = self._groups[gid]
            lines.append(f"group {gid}: {group.logical_props}")
            for mexpr in group.expressions:
                lines.append(f"    {mexpr}")
            for (props, excluded), winner in group.winners.items():
                suffix = f" excluding {excluded}" if excluded is not None else ""
                lines.append(
                    f"    winner[{props}{suffix}] cost={winner.cost}: "
                    f"{winner.plan.to_sexpr()}"
                )
        return "\n".join(lines)
