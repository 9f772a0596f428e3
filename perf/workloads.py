"""Seeded inputs of the four workloads.

The seed is the only source of variation: the same seed gives the same
operations (see :func:`digest`), and the program under test is handed only
what is generated here -- expressions, catalogs, SQL text -- never the seed.

Every pass is *stratified*.  How many relations a query joins and the shape
of its join graph are fixed by the workload's definition; the seed draws the
rest (table sizes, distinct counts, join columns, selectivities, literals,
which tables, request order).  Search effort follows the join graph: with the
graph drawn freely a 17-query pass moves by +-15 % from seed to seed, more
than any bound this benchmark could gate on, while with the graph fixed the
seeds move it by a few per cent.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.algebra.expressions import LogicalExpression
from repro.algebra.predicates import Comparison, ComparisonOp, col, eq, lit
from repro.algebra.properties import ANY_PROPS, PhysProps
from repro.catalog.catalog import Catalog
from repro.models.relational import get, join, select
from repro.workloads import QueryGenerator, WorkloadOptions

WORKLOADS = ("search_cold", "batch_shared", "serve_warm", "serve_mixed")
CLIENTS = 2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perf:{workload}:{seed}")


# ---------------------------------------------------------------------------
# search_cold: the paper's Figure 4 queries, one fresh optimizer each
# ---------------------------------------------------------------------------

# (relations, join-graph shape) of the 16 slots: 4,3,3,2,4 queries of 4..8
# relations.  Chain and star are the two extremes of a join graph's number
# of connected subgraphs, so between them they bracket the search effort of
# any tree-shaped query of that size.  The counts put the median slot between
# the two 6-chains and the 90th percentile between the second and third of
# the four 8-chains: a quantile that falls between two strata would jump
# from one to the other with the seed.
SEARCH_STRATA: Tuple[Tuple[int, str], ...] = (
    (4, "chain"), (4, "chain"), (4, "star"), (4, "star"),
    (5, "chain"), (5, "chain"), (5, "star"),
    (6, "chain"), (6, "chain"), (6, "star"),
    (7, "chain"), (7, "chain"),
    (8, "chain"), (8, "chain"), (8, "chain"), (8, "chain"),
)


@dataclass(frozen=True)
class SearchOp:
    """One select-join query over its own catalog (``QueryGenerator``)."""

    relations: int
    shape: str
    catalog: Catalog
    query: LogicalExpression
    props: PhysProps

    def describe(self) -> str:
        return f"{self.relations} {self.shape} {_catalog_text(self.catalog)} {self.query.to_sexpr()}"


def search_cold(seed: int) -> List[SearchOp]:
    rng = _rng("search_cold", seed)
    ops = []
    for relations, shape in SEARCH_STRATA:
        generated = QueryGenerator(WorkloadOptions(shape=shape)).generate(
            relations, rng.randrange(2**31)
        )
        ops.append(
            SearchOp(relations, shape, generated.catalog, generated.query, generated.required)
        )
    return ops


# ---------------------------------------------------------------------------
# batch_shared: batches of overlapping queries through one shared memo
# ---------------------------------------------------------------------------

# (core relations, extra relations of each of the 8 queries).  Every query of
# a batch is a chain: the batch's core, continued at its front or its back by
# a chain of extra tables.  Every table is filtered at one selectivity per
# batch, so the core and the shared stretches of the extensions collide in
# the shared memo.  Each join uses columns no other join of the query uses
# (``left.b = right.a``): with three or more columns in one equality class the
# engines and the reference disagree on a few queries in a thousand (see
# README.md, "What the reference found"), and a workload may not contain an
# operation that fails.
SMALL_BATCH = (2, (0, 1, 1, 1, 2, 2, 2, 2))  # queries of 2..4 relations
MEDIUM_BATCH = (2, (1, 1, 2, 2, 2, 2, 3, 3))  # queries of 3..5 relations
LARGE_BATCH = (3, (0, 1, 1, 2, 2, 2, 3, 3))  # queries of 3..6 relations
# 4 small, 8 medium, 4 large: the median slot is a medium batch, the 90th
# percentile a large one, each well inside its stratum.
BATCH_STRATA = (SMALL_BATCH, MEDIUM_BATCH, LARGE_BATCH, MEDIUM_BATCH) * 4
BATCH_TABLES = 8


@dataclass(frozen=True)
class BatchOp:
    """Eight overlapping queries over one shared catalog."""

    catalog: Catalog
    queries: Tuple[LogicalExpression, ...]
    props: PhysProps = ANY_PROPS

    def describe(self) -> str:
        return _catalog_text(self.catalog) + " " + " ".join(q.to_sexpr() for q in self.queries)


def _overlapping_batch(rng: random.Random, core_size: int, extras: Sequence[int]) -> BatchOp:
    catalog = QueryGenerator().generate_shared(
        count=1, seed=rng.randrange(2**31), n_tables=BATCH_TABLES
    ).catalog
    names = list(catalog.table_names())
    thresholds = {name: int(999 * rng.uniform(0.05, 0.3)) for name in names}

    def leaf(name: str) -> LogicalExpression:
        predicate = Comparison(ComparisonOp.LE, col(f"{name}.v"), lit(thresholds[name]))
        return select(get(name), predicate)

    def chain(tables: Sequence[str]) -> LogicalExpression:
        expression = leaf(tables[0])
        for left, right in zip(tables, tables[1:]):
            expression = join(expression, leaf(right), eq(f"{left}.b", f"{right}.a"))
        return expression

    core = rng.sample(names, core_size)
    rest = [name for name in names if name not in core]
    queries, taken = [], set()
    for extra in extras:
        while True:  # no two queries of a batch are the same query
            tables = tuple(rng.sample(rest, extra))
            at_front = bool(tables) and rng.random() < 0.5
            if (tables, at_front) not in taken:
                taken.add((tables, at_front))
                break
        queries.append(chain([*tables, *core] if at_front else [*core, *tables]))
    return BatchOp(catalog, tuple(queries))


def batch_shared(seed: int) -> List[BatchOp]:
    rng = _rng("batch_shared", seed)
    return [_overlapping_batch(rng, core, extras) for core, extras in BATCH_STRATA]


# ---------------------------------------------------------------------------
# serve_*: SQL over the server's own k/v tables
# ---------------------------------------------------------------------------

SERVE_TABLES = 8
VALUE_DISTINCT = 20  # ``TableSpec.value_distinct``: column v holds 0..19


@dataclass(frozen=True)
class Statement:
    """One select-join statement: ``sql`` is the text the server receives.

    ``key`` is the statement without its literals and without the order it
    was written in -- tables, join edges and which columns are filtered how.
    Two statements with one key may share a parameterized cache entry, so a
    workload that needs a statement to miss gives it a key of its own.
    """

    tables: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    filters: Tuple[Tuple[str, str, int], ...]

    @property
    def relations(self) -> int:
        return len(self.tables)

    @property
    def key(self) -> Tuple:
        return (
            frozenset(self.tables),
            frozenset(frozenset(edge) for edge in self.edges),
            frozenset((table, op) for table, op, _ in self.filters),
        )

    @property
    def sql(self) -> str:
        conditions = [f"{left}.k = {right}.k" for left, right in self.edges]
        conditions += [f"{table}.v {op} {literal}" for table, op, literal in self.filters]
        return f"SELECT * FROM {', '.join(self.tables)} WHERE {' AND '.join(conditions)}"


def _draw_statement(rng, names, relations: int, taken: set, equality: bool) -> Statement:
    """A star of ``relations`` tables whose key is not in ``taken``.

    The server's tables join on their one key column ``k``, so every join of
    a statement is in one equality class.  On *chains* of four or more such
    joins the reference finds a slightly cheaper merge-join order than the
    engines do, on a few statements in a hundred (README.md, "What the
    reference found"); a star needs no transitive sort-order equivalence and
    the two agree on every one, so the statements are stars.

    With ``equality`` the first table is filtered by ``v = literal`` -- the
    predicate whose selectivity does not depend on the literal, so a literal
    variant served from the parameterized template has exactly the optimal
    cost.
    """
    while True:
        tables = rng.sample(names, relations)
        edges = tuple((tables[0], other) for other in tables[1:])
        # Half the tables are filtered, whichever the seed picks.
        filtered = rng.sample(tables[1:] if equality else tables, relations // 2)
        filters = [(tables[0], "=", rng.randrange(VALUE_DISTINCT))] if equality else []
        filters += [
            (table, "<=", rng.randrange(2, VALUE_DISTINCT - 2))
            for table in tables
            if table in filtered
        ]
        statement = Statement(tuple(tables), edges, tuple(filters))
        if statement.key not in taken:
            taken.add(statement.key)
            return statement


def _variant(rng, statement: Statement) -> Statement:
    """``statement`` with another literal in each equality filter."""
    filters = tuple(
        (table, op, rng.choice([v for v in range(VALUE_DISTINCT) if v != literal]))
        if op == "="
        else (table, op, literal)
        for table, op, literal in statement.filters
    )
    return Statement(statement.tables, statement.edges, filters)


@dataclass(frozen=True)
class ServeWorkload:
    """What a serve workload sends: the catalog, and each client's requests.

    ``tables`` is the ``name:rows:distinct`` list the server is started with.
    ``prime`` is sent once, in order, by one client during set-up (empty when
    the pass itself starts cold).  ``requests[c]`` is client ``c``'s pass: an
    index into ``statements`` per request.  ``writes`` are the tables whose
    statistics are re-posted at the start of every pass.
    """

    tables: Tuple[Tuple[str, int, int], ...]
    statements: Tuple[Statement, ...]
    prime: Tuple[int, ...]
    requests: Tuple[Tuple[int, ...], ...]
    writes: Tuple[str, ...]

    @property
    def table_argument(self) -> str:
        return ",".join(f"{name}:{rows}:{distinct}" for name, rows, distinct in self.tables)

    def describe(self) -> str:
        return json.dumps(
            [self.tables, [s.sql for s in self.statements], self.prime, self.requests, self.writes]
        )


def _serve_tables(rng) -> Tuple[Tuple[str, int, int], ...]:
    """Eight tables over the paper's 1,200..7,200 rows.

    The sizes are always the same eight, dealt to the tables by the seed: the
    server keeps the rows, so their sum is most of what ``peak_rss_mb`` would
    otherwise vary by from seed to seed.
    """
    sizes = [1200 + index * 6000 // (SERVE_TABLES - 1) for index in range(SERVE_TABLES)]
    rng.shuffle(sizes)
    return tuple(
        (f"t{index}", rows, max(2, int(rows * rng.uniform(0.02, 0.5))))
        for index, rows in enumerate(sizes)
    )


def serve_warm(seed: int) -> ServeWorkload:
    """40 cached statements of 2..6 relations; 10 of them literal variants."""
    rng = _rng("serve_warm", seed)
    tables = _serve_tables(rng)
    names = [name for name, _, _ in tables]
    taken: set = set()
    bases, variants = [], []
    for relations in (2, 3, 4, 5, 6):
        for index in range(6):
            base = _draw_statement(rng, names, relations, taken, equality=index < 2)
            bases.append(base)
            if index < 2:
                variants.append(_variant(rng, base))
    statements = tuple(bases + variants)
    # Only the bases are primed: a variant must find its template, not an
    # exact entry of its own, on every request.
    prime = tuple(range(len(bases)))
    requests = []
    for _ in range(CLIENTS):
        draw = list(range(len(statements))) * 2
        draw += rng.sample(range(len(statements)), 100 - len(draw))
        rng.shuffle(draw)
        requests.append(tuple(draw))
    return ServeWorkload(tables, statements, prime, tuple(requests), ())


# Relations of a client's 12 statements.  Ten of the 24 cold slots of a pass
# are 5-stars, so the pass's 90th-percentile slot -- the middle of the cold
# ones -- falls among them and not between two sizes.
MIXED_STRATA = (3, 3, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6)


def serve_mixed(seed: int) -> ServeWorkload:
    """Per client 12 statements of 3..6 relations, each sent 5 times a pass.

    The write at the start of a pass invalidates every cached entry, the
    clients' statement sets are disjoint and no two statements share a key,
    so the first request of each statement in a pass -- 12 of a client's 60,
    exactly 20 % -- is a cold miss no other request can answer.

    A client first asks for each of its statements once, then for all of them
    four more times: sessions re-planning after a statistics refresh, then
    running warm.  So both clients' cold searches run beside each other, under
    one GIL, in every pass and under every seed.  With the cold requests
    scattered through the pass, whether a cold search met another one was the
    seed's luck, it doubles the search's latency, and ``latency_ms_p90`` -- the
    middle of the cold mode -- moved 25 % from seed to seed.
    """
    rng = _rng("serve_mixed", seed)
    tables = _serve_tables(rng)
    names = [name for name, _, _ in tables]
    taken: set = set()
    statements, requests = [], []
    for _ in range(CLIENTS):
        first = len(statements)
        for relations in MIXED_STRATA:
            statements.append(_draw_statement(rng, names, relations, taken, equality=False))
        cold = list(range(first, len(statements)))
        warm = cold * 4
        rng.shuffle(cold)
        rng.shuffle(warm)
        requests.append(tuple(cold + warm))
    return ServeWorkload(tables, tuple(statements), (), tuple(requests), tuple(names))


def cold_slots(workload: ServeWorkload) -> List[List[bool]]:
    """Per client, which requests of a pass are the first of their statement."""
    flags = []
    for requests in workload.requests:
        seen: set = set()
        flags.append([index not in seen and not seen.add(index) for index in requests])
    return flags


# ---------------------------------------------------------------------------

BUILDERS = {
    "search_cold": search_cold,
    "batch_shared": batch_shared,
    "serve_warm": serve_warm,
    "serve_mixed": serve_mixed,
}


def _catalog_text(catalog: Catalog) -> str:
    parts = []
    for entry in catalog.tables():
        stats = entry.statistics
        columns: Dict[str, float] = {
            name: column.distinct_values for name, column in stats.columns.items()
        }
        parts.append(f"{entry.name}:{stats.row_count}:{sorted(columns.items())}")
    return ";".join(parts)


def digest(workload: str, seed: int) -> str:
    """A hash of everything the program will be asked under this seed."""
    built = BUILDERS[workload](seed)
    ops = built if isinstance(built, list) else [built]
    text = "\n".join(op.describe() for op in ops)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
