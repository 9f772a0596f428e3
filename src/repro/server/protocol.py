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

import math
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ServerError
from repro.options import ResourceBudget
from repro.service.service import ExecutedResult, ServedResult

__all__ = [
    "is_number",
    "number",
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


def is_number(value: Any) -> bool:
    """True for a finite JSON number; booleans are not numbers."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def number(name: str, value: Any) -> Any:
    """``value`` if it is a finite JSON number, or a 400 naming ``name``."""
    if not is_number(value):
        raise ServerError(f"{name} must be a finite number, got {value!r}")
    return value


#: Request fields that once chose or steered the engine.  Engine knobs are
#: set on the engine's own options, so naming one is a 400.
_RETIRED_FIELDS = ("engine", "kernel", "promise")


def parse_budget(body: Mapping[str, Any]) -> Optional[ResourceBudget]:
    """A request's ``budget`` object → :class:`ResourceBudget`, or a 400.

    A request may bound its one run and nothing else: a body naming a
    retired engine field is a 400 that names it.
    """
    for name in _RETIRED_FIELDS:
        if name in body:
            raise ServerError(
                f"unknown field {name!r}: engine options are set on the "
                "server's engine, not per request"
            )
    raw = body.get("budget")
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
    if number("deadline_seconds", deadline) <= 0:
        raise ServerError("deadline_seconds must be a positive number")
    return float(deadline)


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
