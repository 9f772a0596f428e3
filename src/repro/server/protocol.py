"""Wire payloads of the optimizer server: JSON in, JSON out.

One module owns every request/response shape so the asyncio app
(:mod:`repro.server.app`), the blocking client
(:mod:`repro.server.client`), and the tests agree on field names by
construction.  Plans cross the wire as their deterministic renderings
— ``pretty`` for humans, ``sexpr`` for byte-identity assertions —
never as pickles: the server is the only party holding live plan
objects, which is what makes pinning and the regression guard
enforceable server-side.

Parsing helpers raise :class:`~repro.errors.ServerError` with an HTTP
status baked in; the app maps any raised ``ServerError`` straight to
an error response, so endpoint handlers can validate by just calling
these.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ServerError
from repro.options import KERNEL_TIERS, PROMISE_HINTS, QueryHints, ResourceBudget
from repro.service.service import ExecutedResult, ServedResult

__all__ = [
    "parse_hints",
    "parse_budget",
    "parse_deadline",
    "require",
    "cost_total",
    "served_payload",
    "executed_payload",
]


def require(body: Mapping[str, Any], name: str, kind: type) -> Any:
    """A required request field of the given JSON type, or a 400."""
    if name not in body:
        raise ServerError(f"missing required field {name!r}")
    value = body[name]
    if not isinstance(value, kind):
        raise ServerError(
            f"field {name!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def parse_budget(raw: Any) -> Optional[ResourceBudget]:
    """A ``budget`` request object → :class:`ResourceBudget`, or a 400."""
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ServerError("budget must be an object")
    allowed = {"deadline_seconds", "max_costings", "max_rule_firings"}
    unknown = set(raw) - allowed
    if unknown:
        raise ServerError(f"unknown budget fields: {sorted(unknown)}")
    try:
        return ResourceBudget(**raw)
    except Exception as error:
        raise ServerError(f"invalid budget: {error}") from None


def parse_deadline(body: Mapping[str, Any]) -> Optional[float]:
    """The ``deadline_seconds`` request field, or a 400."""
    deadline = body.get("deadline_seconds")
    if deadline is None:
        return None
    if not isinstance(deadline, (int, float)) or deadline <= 0:
        raise ServerError("deadline_seconds must be a positive number")
    return float(deadline)


def parse_hints(
    body: Mapping[str, Any],
) -> Tuple[Optional[QueryHints], Optional[ResourceBudget]]:
    """The steering fields of a request body → ``(hints, budget)``.

    Hints ride as top-level request fields (``kernel``, ``promise``,
    ``budget``) rather than a nested object, so a curl one-liner stays a
    one-liner.  ``hints`` is None when neither ``kernel`` nor
    ``promise`` is set; ``budget`` is the parsed ``budget`` object.
    """
    if "engine" in body:
        raise ServerError("unknown field 'engine': the server runs one search engine")
    kernel = body.get("kernel")
    promise = body.get("promise")
    budget = parse_budget(body.get("budget"))
    if kernel is not None and kernel not in KERNEL_TIERS:
        raise ServerError(f"kernel must be one of {list(KERNEL_TIERS)}")
    if promise is not None and promise not in PROMISE_HINTS:
        raise ServerError(f"promise must be one of {list(PROMISE_HINTS)}")
    if kernel is None and promise is None:
        return None, budget
    return QueryHints(kernel=kernel, promise=promise), budget


def cost_total(cost: Any) -> float:
    """A cost value (or bare number) as the float the wire carries."""
    total = getattr(cost, "total", None)
    if callable(total):
        return float(total())
    return float(cost)


def served_payload(
    served: ServedResult,
    key: str,
    *,
    pinned: bool = False,
    guard: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One :class:`~repro.service.ServedResult` as a response body.

    ``key`` is the query's stable (version-independent) plan-management
    key — the handle for ``/plans/pin`` and friends.  ``pinned`` marks
    answers served straight from a pin (no optimization ran at all);
    ``guard`` carries the regression-guard decision for fresh answers.
    """
    return {
        "key": key,
        "fingerprint": served.fingerprint.digest,
        "plan": served.plan.pretty(with_cost=False),
        "sexpr": served.plan.to_sexpr(),
        "cost": str(served.cost),
        "cost_total": cost_total(served.cost),
        "cached": served.cached,
        "parameterized": served.parameterized,
        "degraded": served.degraded,
        "verified": served.verified,
        "pinned": pinned,
        "elapsed_seconds": served.elapsed_seconds,
        "guard": dict(guard) if guard is not None else None,
    }


def executed_payload(
    executed: ExecutedResult,
    key: str,
    *,
    max_rows: Optional[int] = None,
    pinned: bool = False,
    guard: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """One optimize–execute round trip as a response body.

    ``max_rows`` truncates the returned row set (``row_count`` stays
    the true count); None returns every row — fine for the synthetic
    catalogs this server fronts, unwise for anything larger.
    ``pinned`` and ``guard`` are :func:`served_payload`'s.
    """
    rows: List[dict] = executed.rows
    payload = served_payload(executed.served, key, pinned=pinned, guard=guard)
    payload.update(
        {
            "row_count": len(rows),
            "rows": rows if max_rows is None else rows[:max_rows],
            "execution": {
                "rows_scanned": executed.stats.rows_scanned,
                "rows_emitted": executed.stats.rows_emitted,
                "pages_read": executed.stats.pages_read,
                "pages_written": executed.stats.pages_written,
            },
            "max_q_error": executed.max_q_error,
            "refreshed": executed.refreshed,
        }
    )
    return payload
