"""Pure request handlers: (endpoint, payload) -> (status, body).

Everything HTTP-independent about the service lives here so the
contract is unit- and chaos-testable without sockets: envelope
validation, tighten-only budget merging, spec-cache lookup, the three
endpoint computations, and the complete exception→response mapping.
The HTTP layer (:mod:`repro.serve.server`) only does transport:
admission, byte I/O, and signal handling.

Error contract (mirrors the CLI exit-code table, see docs/SERVE.md):

=====================================  ======  =========  ==========
condition                              status  exit_code  kind
=====================================  ======  =========  ==========
malformed envelope / unknown budget      400        2      usage
input rejected by the pipeline           422        3      input
(ParseError, FD syntax, unsupported)
injected fault (FaultError)              500        3      fault
budget tripped (ResourceExhausted)       408        4      resource
anything that is not a ReproError        500       70      contract
=====================================  ======  =========  ==========

Every error body has the same shape::

    {"error": {"type": "ParseError", "message": "...",
               "status": 422, "exit_code": 3, "kind": "input"}}

The ``/v1/implication`` endpoint is special-cased for budget trips
*inside the decision*: :meth:`repro.spec.XMLSpec.decide` converts a
tripped limit into an honest ``unknown`` verdict (200), so only trips
during spec parsing/caching surface as 408 there.

A non-``ReproError`` escaping a handler is a **contract breach**: it
is counted (``serve.contract_breach``), logged with its traceback, and
reported as an opaque 500 — the server thread itself never dies.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from repro import guard
from repro.errors import FaultError, ReproError, ResourceExhausted
from repro.faults import plan as _faults
from repro.obs import metrics as _obs
from repro.serve.cache import SpecCache

# XMLSpec.normalize imports the algorithm on first use.  Loading it
# here does that before the server accepts connections, not inside
# the first /v1/normalize request.
import repro.normalize.algorithm  # noqa: F401

log = logging.getLogger("repro.serve")

#: Endpoint path -> handler name; the HTTP layer routes on this.
ENDPOINTS = ("/v1/implication", "/v1/xnf-check", "/v1/normalize")

#: JSON budget keys accepted from clients (``timeout`` matches the CLI
#: flag and maps to the guard's wall-clock deadline).
_BUDGET_KEYS = ("timeout", "max_steps", "max_branches", "max_nodes")

_SITES = {
    "/v1/implication": _faults.register_site(
        "serve.handler.implication", "serve",
        "implication handler, after spec lookup, before decide()"),
    "/v1/xnf-check": _faults.register_site(
        "serve.handler.xnf", "serve",
        "XNF-check handler, after spec lookup, before the check"),
    "/v1/normalize": _faults.register_site(
        "serve.handler.normalize", "serve",
        "normalize handler, after spec lookup, before decomposition"),
}


class BadRequest(ReproError):
    """A malformed request envelope (maps to 400 / usage)."""


@dataclass(frozen=True)
class BudgetDefaults:
    """Server-side per-request ceilings.

    ``None`` leaves a dimension unlimited.  Clients may *tighten* any
    dimension through the request's ``budget`` object; attempts to
    loosen are clamped back to these ceilings, so operator policy
    always wins.
    """

    timeout: float | None = 10.0
    max_steps: int | None = 2_000_000
    max_branches: int | None = 200_000
    max_nodes: int | None = 1_000_000

    def merged(self, requested: Any) -> dict[str, float | int | None]:
        """Effective guard kwargs after tighten-only merging."""
        ceilings = {"timeout": self.timeout, "max_steps": self.max_steps,
                    "max_branches": self.max_branches,
                    "max_nodes": self.max_nodes}
        if requested is None:
            merged = ceilings
        else:
            if not isinstance(requested, dict):
                raise BadRequest("'budget' must be an object")
            unknown = sorted(set(requested) - set(_BUDGET_KEYS))
            if unknown:
                raise BadRequest(
                    f"unknown budget key(s): {', '.join(unknown)}; "
                    f"allowed: {', '.join(_BUDGET_KEYS)}")
            merged = {}
            for key, ceiling in ceilings.items():
                value = requested.get(key)
                if value is None:
                    merged[key] = ceiling
                    continue
                if isinstance(value, bool) \
                        or not isinstance(value, (int, float)):
                    raise BadRequest(f"budget.{key} must be a number")
                if value <= 0:
                    raise BadRequest(f"budget.{key} must be positive")
                merged[key] = (value if ceiling is None
                               else min(value, ceiling))
        return {"deadline": merged["timeout"],
                "max_steps": merged["max_steps"],
                "max_branches": merged["max_branches"],
                "max_nodes": merged["max_nodes"]}


def handle(endpoint: str, payload: Any, *, cache: SpecCache,
           defaults: BudgetDefaults) -> tuple[int, dict]:
    """Serve one request; never raises.

    Returns ``(http_status, body)`` where ``body`` is JSON-ready.  The
    endpoint work runs under a thread-scoped guard budget so a
    pathological request degrades alone.
    """
    try:
        return _dispatch(endpoint, payload, cache, defaults)
    except BaseException as exc:   # noqa: BLE001 - the breach boundary
        return error_response(exc, context=endpoint)


def error_response(exc: BaseException, *,
                   context: str = "?") -> tuple[int, dict]:
    """Map any exception to the structured error contract.

    Shared by the handlers and the HTTP layer (admission faults raise
    outside :func:`handle`).  Counts and logs contract breaches.
    """
    if isinstance(exc, BadRequest):
        return _error(400, 2, "usage", exc)
    if isinstance(exc, ResourceExhausted):
        return _error(408, 4, "resource", exc)
    if isinstance(exc, FaultError):
        return _error(500, 3, "fault", exc)
    if isinstance(exc, ReproError):
        return _error(422, 3, "input", exc)
    if _obs.enabled:
        _obs.inc("serve.contract_breach")
    log.error("contract breach handling %s", context, exc_info=exc)
    return _error(500, 70, "contract", exc)


def _dispatch(endpoint: str, payload: Any, cache: SpecCache,
              defaults: BudgetDefaults) -> tuple[int, dict]:
    if endpoint not in ENDPOINTS:
        raise BadRequest(f"unknown endpoint {endpoint!r}; "
                         f"expected one of: {', '.join(ENDPOINTS)}")
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    dtd_text = _field(payload, "dtd")
    fds_text = _field(payload, "fds", required=False, default="")
    root = _field(payload, "root", required=False, default=None)
    engine = _field(payload, "engine", required=False, default="auto")
    fd_text = None
    if endpoint == "/v1/implication":
        fd_text = _field(payload, "fd")
    budget_kwargs = defaults.merged(payload.get("budget"))

    with guard.limits(scope="thread", **budget_kwargs):
        spec = cache.get(dtd_text, fds_text, root=root, engine=engine)
        if _faults.active:
            _faults.fire(_SITES[endpoint])
        if endpoint == "/v1/implication":
            verdict = spec.decide(fd_text)
            return 200, {"verdict": verdict.value.lower(),
                         "reason": verdict.reason,
                         "limit": verdict.limit}
        if endpoint == "/v1/xnf-check":
            violations = spec.xnf_violations()
            return 200, {"in_xnf": not violations,
                         "violations": [str(fd) for fd in violations]}
        result = spec.normalize()
        return 200, {
            "dtd": str(result.dtd),
            "fds": [str(fd) for fd in result.sigma],
            "steps": [{"kind": step.kind, "fd": str(step.fd),
                       "description": step.description}
                      for step in result.steps],
        }


def _field(payload: dict, name: str, *, required: bool = True,
           default: Any = None) -> Any:
    value = payload.get(name)
    if value is None:   # absent and explicit null are both "not given"
        if required:
            raise BadRequest(f"missing required field {name!r}")
        return default
    if not isinstance(value, str):
        raise BadRequest(f"field {name!r} must be a string")
    return value


def _error(status: int, exit_code: int, kind: str,
           exc: BaseException) -> tuple[int, dict]:
    message = str(exc) or type(exc).__name__
    if kind == "contract":
        # Never leak internals for unexpected failures.
        message = f"internal error ({type(exc).__name__})"
    return status, {"error": {"type": type(exc).__name__,
                              "message": message,
                              "status": status,
                              "exit_code": exit_code,
                              "kind": kind}}
