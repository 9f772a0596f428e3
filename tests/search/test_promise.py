"""The promise ordering contract and learned-promise safety.

The ordering half pins the pursuit order and the static ranks behind
the order-independent ``(cost, rank, alternative)`` winner rule (see
``docs/search-internals.md``, "Promise and move ordering"); the safety
half proves that no promise model — learned or adversarial — can change
the chosen plan under exhaustive search.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.predicates import eq
from repro.algebra.properties import ANY_PROPS, PhysProps, sorted_on
from repro.catalog import Catalog
from repro.executor import TableSpec, populate_catalog
from repro.feedback.report import FeedbackReport, OperatorFeedback
from repro.models.relational import get, join, relational_model
from repro.search import (
    LearnedPromiseModel,
    PromiseModel,
    STATIC_PROMISE,
    SearchOptions,
    VolcanoOptimizer,
)
from repro.service import OptimizerService
from repro.workloads import QueryGenerator, WorkloadOptions

from tests.helpers import chain_query, make_catalog


class FlipModel:
    """Boosts one algorithm above everything else; nothing more."""

    def __init__(self, algorithm, promise=3.0):
        self.algorithm = algorithm
        self.promise = promise

    def transformation_promise(self, rule, props):
        return rule.promise

    def implementation_promise(self, rule, props):
        return self.promise if rule.algorithm == self.algorithm else rule.promise


@pytest.fixture(scope="module")
def spec():
    return relational_model()


@pytest.fixture(scope="module")
def catalog():
    return make_catalog([("r", 1200), ("s", 2400), ("t", 4800), ("u", 7200)])


def chain(*tables):
    tree = get(tables[0])
    for index in range(1, len(tables)):
        tree = join(
            tree,
            get(tables[index]),
            eq(f"{tables[index - 1]}.k", f"{tables[index]}.k"),
        )
    return tree


# ---------------------------------------------------------------------------
# The ordering contract
# ---------------------------------------------------------------------------


def _recorded_orders(spec, catalog, model, query, required):
    """Every group's move list (algorithms, promises, ranks), in order."""
    orders = {}

    class Spy(VolcanoOptimizer):
        def _ordered_moves(self, run, group):
            moves = super()._ordered_moves(run, group)
            snapshot = tuple(
                (move.rule.algorithm, move.input_groups, move.promise, move.rank)
                for move in moves
            )
            previous = orders.setdefault(group.id, snapshot)
            assert previous == snapshot, "move order changed between goals"
            return moves

    options = SearchOptions(check_consistency=False, promise_model=model)
    Spy(spec, catalog, options).optimize(query, required)
    return orders


def test_pursuit_order_and_static_ranks(spec, catalog):
    """Pursuit sorts by model promise; ranks stay the static reference."""
    query = chain_query(["r", "s", "t"])
    static = _recorded_orders(spec, catalog, None, query, ANY_PROPS)
    flipped = _recorded_orders(
        spec, catalog, FlipModel("merge_join"), query, ANY_PROPS
    )
    join_orders = [
        order
        for order in static.values()
        if {name for name, *_ in order} == {"merge_join", "hybrid_hash_join"}
    ]
    assert join_orders, "no join group seen"
    for gid, order in static.items():
        # Static pursuit: descending rule promise, ranks in that order.
        assert [rank for *_, rank in order] == list(range(len(order)))
        promises = [promise for _, _, promise, _ in order]
        assert promises == sorted(promises, reverse=True)
        # The flip model reorders the pursuit but never rewrites ranks:
        # the same (algorithm, rank) pairs appear, sorted by the model's
        # promise numbers.
        refit = flipped[gid]
        assert sorted((name, rank) for name, _, _, rank in refit) == sorted(
            (name, rank) for name, _, _, rank in order
        )
        if {name for name, *_ in order} == {"merge_join", "hybrid_hash_join"}:
            assert refit[0][0] == "merge_join"


@pytest.mark.parametrize(
    "min_promise, pruned, fired", [(None, 0, 30), (0.9, 6, 6)]
)
def test_min_promise_filtering(spec, catalog, min_promise, pruned, fired):
    """Pruning accounting is exact, and a cold learned model changes none of it."""
    query = chain_query(["r", "s", "t", "u"])
    static, learned = (
        VolcanoOptimizer(
            spec,
            catalog,
            SearchOptions(
                check_consistency=False, min_promise=min_promise, promise_model=model
            ),
        ).optimize(query, sorted_on("s.k"))
        for model in (None, LearnedPromiseModel())
    )
    for result in (static, learned):
        assert result.stats.moves_pruned == pruned
        assert result.stats.rules_fired == fired
    assert static.plan.to_sexpr() == learned.plan.to_sexpr()
    # A threshold searches a smaller space and never finds a cheaper plan.
    exhaustive = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False)
    ).optimize(query, sorted_on("s.k"))
    assert static.stats.groups_created <= exhaustive.stats.groups_created
    assert static.cost.total() >= exhaustive.cost.total()


# ---------------------------------------------------------------------------
# No model changes the plan under exhaustive search
# ---------------------------------------------------------------------------

_ALGORITHMS = (
    "file_scan",
    "filter",
    "filter_scan",
    "merge_join",
    "hybrid_hash_join",
    "project",
)


@settings(max_examples=15, deadline=None)
@given(
    st.fixed_dictionaries(
        {name: st.floats(0.0, 8.0, allow_nan=False) for name in _ALGORITHMS}
    ),
    st.booleans(),
)
def test_any_promise_model_preserves_plan(promises, want_sorted):
    spec = relational_model()
    catalog = make_catalog([("r", 1200), ("s", 2400), ("t", 4800)])
    query = chain_query(["r", "s", "t"])
    required = sorted_on("r.k") if want_sorted else ANY_PROPS

    class Arbitrary(FlipModel):
        def __init__(self):
            super().__init__(algorithm=None)

        def implementation_promise(self, rule, props):
            return promises.get(rule.algorithm, rule.promise)

    baseline = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False)
    ).optimize(query, required)
    options = SearchOptions(check_consistency=False, promise_model=Arbitrary())
    result = VolcanoOptimizer(spec, catalog, options).optimize(query, required)
    assert result.cost == baseline.cost
    assert result.plan.to_sexpr() == baseline.plan.to_sexpr()


# ---------------------------------------------------------------------------
# The learned loop end to end
# ---------------------------------------------------------------------------


def test_learned_model_end_to_end_via_service(spec):
    """Execution feedback flips pursuit order; plans never change."""
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 300, key_distinct=50),
            TableSpec("s", 900, key_distinct=50),
            TableSpec("t", 600, key_distinct=50),
        ],
        seed=7,
    )
    query = chain("r", "s", "t")
    required = PhysProps(sort_order=("r.k",))

    model = LearnedPromiseModel(boost=0.75, observation_scale=2)
    optimizer = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False, promise_model=model)
    )
    # The model lives on the engine's options only; execute() feeds it.
    service = OptimizerService(optimizer)
    service.execute(query, required)
    service.execute(query, required)

    # Sorted-output chains run merge joins; the evidence accumulated.
    evidence = model.algorithm_evidence("merge_join")
    assert evidence is not None and evidence.observations >= 2
    assert model.algorithm_evidence("hybrid_hash_join") is None
    merge_rule = next(
        rule for rule in spec.implementations if rule.algorithm == "merge_join"
    )
    hash_rule = next(
        rule
        for rule in spec.implementations
        if rule.algorithm == "hybrid_hash_join"
    )
    assert model.implementation_promise(
        merge_rule, None
    ) > model.implementation_promise(hash_rule, None)

    # Repeats: same plans as a static engine.
    static = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False)
    ).optimize(query, required)
    repeat = VolcanoOptimizer(
        spec,
        catalog,
        SearchOptions(check_consistency=False, promise_model=model),
    ).optimize(query, required)
    assert repeat.cost == static.cost
    assert repeat.plan.to_sexpr() == static.plan.to_sexpr()


def test_learned_model_repeat_workloads_cost_no_more(spec):
    """Train on executed sorted chains, then repeat two workloads.

    Merge join wins every sorted chain, so the trained model pursues it
    first.  Every goal is solved once, to its optimum, so the order only
    changes which inputs are abandoned: the learned pass costs at most
    the static one, rule firings and every plan stay identical, and the
    counts are exact for the seeds.
    """
    catalog = Catalog()
    populate_catalog(
        catalog,
        [
            TableSpec("r", 300, key_distinct=50),
            TableSpec("s", 900, key_distinct=50),
            TableSpec("t", 600, key_distinct=50),
            TableSpec("u", 450, key_distinct=50),
        ],
        seed=7,
    )
    chains = [
        (chain("r", "s", "t"), sorted_on("r.k")),
        (chain("s", "t", "u"), sorted_on("s.k")),
        (chain("r", "t", "u"), sorted_on("r.k")),
        (chain("r", "s", "t", "u"), sorted_on("r.k")),
    ]
    model = LearnedPromiseModel(boost=0.75)
    trained = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False, promise_model=model)
    )
    service = OptimizerService(trained)
    for query, required in chains:
        service.execute(query, required)
    static = VolcanoOptimizer(spec, catalog, SearchOptions(check_consistency=False))
    for query, required in chains:
        assert (
            trained.optimize(query, required).plan.to_sexpr()
            == static.optimize(query, required).plan.to_sexpr()
        )

    workload = QueryGenerator(
        WorkloadOptions(selectivity_range=(0.1, 0.1))
    ).generate_shared(count=8, seed=11, n_tables=6, relations=(2, 4))

    def sweep(promise_model, min_promise=None):
        optimizer = VolcanoOptimizer(
            spec,
            workload.catalog,
            SearchOptions(
                check_consistency=False,
                promise_model=promise_model,
                min_promise=min_promise,
            ),
        )
        return [optimizer.optimize(entry.query, ANY_PROPS) for entry in workload]

    static_runs, learned_runs = sweep(None), sweep(model)
    assert [run.plan.to_sexpr() for run in learned_runs] == [
        run.plan.to_sexpr() for run in static_runs
    ]
    static_costings = sum(run.stats.algorithm_costings for run in static_runs)
    learned_costings = sum(run.stats.algorithm_costings for run in learned_runs)
    assert learned_costings <= static_costings == 230
    assert sum(run.stats.rules_fired for run in learned_runs) == sum(
        run.stats.rules_fired for run in static_runs
    )
    # Heuristic pruning under the trained model: the count is exact.
    assert sweep(model, min_promise=0.9)[0].stats.moves_pruned == 4


def test_observe_skips_enforcers_and_quarantines_degraded():
    def op(node_id, algorithm, enforcer=False, est=100.0, actual=400):
        return OperatorFeedback(
            node_id=node_id,
            algorithm=algorithm,
            is_enforcer=enforcer,
            table=None,
            alias=None,
            predicate=None,
            estimated_rows=est,
            actual_rows=actual,
        )

    model = LearnedPromiseModel()
    report = FeedbackReport(
        plan=None,
        operators=(op(0, "sort", enforcer=True), op(1, "merge_join")),
    )
    model.observe(report)
    assert model.algorithm_evidence("sort") is None
    evidence = model.algorithm_evidence("merge_join")
    assert evidence.observations == 1
    assert evidence.mean_q_error == pytest.approx(4.0)

    degraded = FeedbackReport(
        plan=None, operators=(op(1, "merge_join"),), degraded=True
    )
    model.observe(degraded)
    evidence = model.algorithm_evidence("merge_join")
    # The appearance counts; the untrusted q-error is quarantined to 1.0.
    assert evidence.observations == 2
    assert evidence.mean_q_error == pytest.approx(2.5)


def test_static_promise_satisfies_protocol():
    assert isinstance(STATIC_PROMISE, PromiseModel)
    assert isinstance(LearnedPromiseModel(), PromiseModel)


def test_two_methods_make_a_model_and_a_legacy_model_still_runs(spec, catalog):
    """The protocol is the two promise methods; extra methods are ignored."""
    assert isinstance(FlipModel("merge_join"), PromiseModel)
    asked = []

    class Legacy(FlipModel):
        """Written against the four-method protocol."""

        def cost_bound(self, query, required):
            asked.append("cost_bound")

        def observe_result(self, query, required, cost):
            asked.append("observe_result")

    legacy = Legacy("merge_join")
    assert isinstance(legacy, PromiseModel)
    query = chain_query(["r", "s", "t"])
    baseline, result = (
        VolcanoOptimizer(
            spec, catalog, SearchOptions(check_consistency=False, promise_model=model)
        ).optimize(query, sorted_on("r.k"))
        for model in (None, legacy)
    )
    assert result.cost == baseline.cost
    assert result.plan.to_sexpr() == baseline.plan.to_sexpr()
    assert asked == []  # the engine no longer calls either


# ---------------------------------------------------------------------------
# Greedy degradation
# ---------------------------------------------------------------------------


def test_greedy_degradation_unchanged_without_model(spec, catalog):
    """No model (or the static one) must reproduce historical greedy."""
    from repro.model.context import OptimizerContext
    from repro.search.extract import greedy_plan

    result = VolcanoOptimizer(
        spec, catalog, SearchOptions(check_consistency=False)
    ).optimize(chain_query(["r", "s", "t"]))
    context = OptimizerContext(spec, catalog)
    context.group_props_resolver = result.memo.logical_props
    root = max(
        (group for group in result.memo.groups()),
        key=lambda group: len(group.logical_props.tables),
    ).id
    default = greedy_plan(result.memo, context, root, ANY_PROPS)
    static = greedy_plan(
        result.memo, context, root, ANY_PROPS, promise_model=STATIC_PROMISE
    )
    assert default is not None
    assert default.to_sexpr() == static.to_sexpr()
    # A model *may* steer greedy extraction (it is the one deliberate
    # ordering-sensitive path) — but the result is still a valid plan
    # over the same tables.
    steered = greedy_plan(
        result.memo,
        context,
        root,
        ANY_PROPS,
        promise_model=FlipModel("merge_join"),
    )
    assert steered is not None
    assert {args[0] for args in steered.leaf_args()} == {
        args[0] for args in default.leaf_args()
    }
