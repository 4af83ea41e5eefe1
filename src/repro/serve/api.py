"""``repro-serve/1``: the scheduler service's versioned wire format.

This module is the *entire* client-facing surface of ``repro serve`` —
request builders, request validation, and the response envelopes —
mirroring the ``repro-spec/1`` convention: every body carries a
``format`` tag, unknown or mistagged bodies are rejected loudly, and
clients import **only this module** (plus stdlib ``json`` + an HTTP
client), never engine internals.

Requests
--------
Every request is one JSON object ``{"format": "repro-serve/1", "op":
<verb>, ...payload}``.  The verbs map onto
:class:`~repro.simulation.SchedulerCore`'s surface plus the service
queries:

========= ======================================= ====================
op        payload                                 mutates state
========= ======================================= ====================
submit    ``job``: ``{id, p, q, release[, name]}``  yes (journaled)
cancel    ``job``: job id (string or integer)       yes (journaled)
advance   ``to``: logical time                      yes (journaled)
reserve   ``start``, ``p``, ``q``                   yes (journaled)
drain     —                                         yes (journaled)
status    —                                         no
windows   —                                         no
state     —                                         no
shutdown  —                                         no
========= ======================================= ====================

Time is **logical**: the daemon's clock moves only when a client sends
``advance`` — never from the wall clock — which is what makes a
recovered daemon byte-identical to an uninterrupted one.

Responses
---------
``{"format": "repro-serve/1", "ok": true, "result": {...}}`` on
success; on failure a structured error envelope reusing the
:mod:`repro.errors` hierarchy::

    {"format": "repro-serve/1", "ok": false,
     "error": {"kind": "protocol" | "scheduling" | "model" | "internal",
               "type": "SchedulingError", "message": "..."}}

``kind`` is the coarse client contract — ``protocol`` means *fix your
request*, ``scheduling``/``model`` mean the scheduler refused the
operation, ``internal`` is a daemon-side bug — while ``type`` names the
concrete :class:`~repro.errors.ReproError` subclass for diagnostics.
"""

from __future__ import annotations

import json
from numbers import Integral, Real
from typing import Dict, Optional, Tuple

from ..core.job import Job
from ..core.serialize import finite_number
from ..errors import InvalidInstanceError, SchedulingError, ServeProtocolError

#: Wire-format tag carried by every serve request and response.
SERVE_FORMAT = "repro-serve/1"

#: Ops that mutate the core (and are therefore event-sourced through
#: the journal); everything else is a read-only query.
MUTATING_OPS = ("submit", "cancel", "advance", "reserve", "drain")

#: Every op the protocol knows.
OPS = MUTATING_OPS + ("status", "windows", "state", "shutdown")


# -- request builders (the client API) --------------------------------------

def make_submit(
    id, p, q, release, name: str = ""
) -> Dict:  # noqa: A002 - `id` matches the Job field name
    """A ``submit`` request for one job."""
    job: Dict = {"id": id, "p": p, "q": q, "release": release}
    if name:
        job["name"] = name
    return {"format": SERVE_FORMAT, "op": "submit", "job": job}


def make_cancel(job_id) -> Dict:
    """A ``cancel`` request for a staged or queued job."""
    return {"format": SERVE_FORMAT, "op": "cancel", "job": job_id}


def make_advance(to) -> Dict:
    """An ``advance`` request moving the logical clock to ``to``."""
    return {"format": SERVE_FORMAT, "op": "advance", "to": to}


def make_reserve(start, p, q) -> Dict:
    """A ``reserve`` request carving ``q`` processors out of
    ``[start, start + p)`` — the paper's reservation shape."""
    return {"format": SERVE_FORMAT, "op": "reserve",
            "start": start, "p": p, "q": q}


def make_drain() -> Dict:
    """A ``drain`` request ending the arrival stream."""
    return {"format": SERVE_FORMAT, "op": "drain"}


def make_query(op: str) -> Dict:
    """A read-only query (``status``/``windows``/``state``/``shutdown``)."""
    if op not in OPS or op in MUTATING_OPS:
        raise ServeProtocolError(f"not a query op: {op!r}")
    return {"format": SERVE_FORMAT, "op": op}


# -- request validation (the server side of the same contract) --------------

def _refuse_constant(name: str):
    raise ServeProtocolError(
        f"request body holds {name}, which is not a JSON number"
    )


#: Strict JSON: Python's decoder otherwise accepts ``NaN``/``Infinity``.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def decode_request(raw: bytes):
    """Decode one request body: UTF-8 JSON with finite numbers only.

    Raises :class:`~repro.errors.ServeProtocolError` on anything else
    (invalid UTF-8, malformed JSON, a ``NaN``/``Infinity`` literal).
    """
    try:
        return _DECODER.decode(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ServeProtocolError(f"request body is not JSON: {exc}") from None


def _require_number(payload: Dict, key: str, op: str):
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ServeProtocolError(
            f"{op} request field {key!r} must be a number, "
            f"got {type(value).__name__}"
        )
    # 1e400 decodes to inf; neither it nor nan is a logical time or size
    finite_number(value, f"{op} request field {key!r}", ServeProtocolError)
    # JSON has no int/float split the engine can rely on: ``5`` and
    # ``5.0`` are one number, so they must give one row (an integral
    # float keeps int-typed times, sums and windows)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, Integral):
        return int(value)
    return value


def _require_id(value, op: str):
    # bool is an int subclass, and True == 1 would alias job 1
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ServeProtocolError(
            f"{op} request job id must be a JSON string or integer, "
            f"got {type(value).__name__}"
        )
    return value


def parse_request(body) -> Tuple[str, Dict]:
    """Validate one request body; returns ``(op, body)``.

    Raises :class:`~repro.errors.ServeProtocolError` on anything
    malformed: wrong or missing ``format`` tag, unknown ``op``, missing
    or mistyped payload fields.  Job ids (``submit``'s ``job.id``,
    ``cancel``'s ``job``) must be JSON strings or integers; ``true``,
    ``false``, ``null``, fractional numbers, lists and objects are
    refused.  The returned body has its numeric fields normalised
    (integral floats to ``int``).
    """
    if not isinstance(body, dict):
        raise ServeProtocolError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    tag = body.get("format")
    if tag != SERVE_FORMAT:
        raise ServeProtocolError(
            f"unsupported serve format {tag!r}; expected {SERVE_FORMAT!r}"
        )
    op = body.get("op")
    if op not in OPS:
        raise ServeProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    if op == "submit":
        job = body.get("job")
        if not isinstance(job, dict):
            raise ServeProtocolError("submit request carries no job object")
        unknown = set(job) - {"id", "p", "q", "release", "name"}
        if unknown:
            raise ServeProtocolError(
                f"submit job has unknown fields {sorted(unknown)}"
            )
        if "id" not in job:
            raise ServeProtocolError("submit job has no id")
        normalised = {"id": _require_id(job["id"], "submit")}
        for key in ("p", "q", "release"):
            if key not in job:
                raise ServeProtocolError(f"submit job has no {key!r}")
            normalised[key] = _require_number(job, key, "submit")
        name = job.get("name", "")
        if not isinstance(name, str):
            raise ServeProtocolError("submit job name must be a string")
        if name:
            normalised["name"] = name
        body = dict(body, job=normalised)
    elif op == "cancel":
        if "job" not in body:
            raise ServeProtocolError("cancel request names no job id")
        _require_id(body["job"], "cancel")
    elif op == "advance":
        body = dict(body, to=_require_number(body, "to", "advance"))
    elif op == "reserve":
        body = dict(body)
        for key in ("start", "p", "q"):
            body[key] = _require_number(body, key, "reserve")
    return op, body


def job_from_payload(job: Dict) -> Job:
    """Materialise the :class:`~repro.core.job.Job` a validated
    ``submit`` payload describes (server-side; model validation —
    positive ``p``, positive ``q`` — happens here, in the Job
    constructor)."""
    return Job(
        id=job["id"], p=job["p"], q=job["q"],
        release=job["release"], name=job.get("name", ""),
    )


# -- response envelopes -----------------------------------------------------

def ok_envelope(result: Optional[Dict] = None) -> Dict:
    """The success envelope around one op's result object."""
    return {"format": SERVE_FORMAT, "ok": True, "result": result or {}}


def error_kind(exc: BaseException) -> str:
    """The coarse ``kind`` tag of the error envelope (see module docs)."""
    if isinstance(exc, ServeProtocolError):
        return "protocol"
    if isinstance(exc, SchedulingError):
        return "scheduling"
    if isinstance(exc, InvalidInstanceError):
        return "model"
    return "internal"


def error_envelope(exc: BaseException) -> Dict:
    """The failure envelope for one rejected request."""
    return {
        "format": SERVE_FORMAT,
        "ok": False,
        "error": {
            "kind": error_kind(exc),
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }


def raise_for_envelope(envelope: Dict) -> Dict:
    """Client-side helper: return ``result`` of an ok envelope, raise
    the envelope's error otherwise (:class:`~repro.errors.ServeError`
    family, reconstructed by ``kind``)."""
    from ..errors import ServeError

    if not isinstance(envelope, dict) or envelope.get("format") != SERVE_FORMAT:
        raise ServeProtocolError(
            f"response is not a {SERVE_FORMAT!r} envelope: {envelope!r}"
        )
    if envelope.get("ok"):
        return envelope.get("result", {})
    error = envelope.get("error") or {}
    message = (
        f"{error.get('type', 'ServeError')}: "
        f"{error.get('message', 'unknown error')}"
    )
    if error.get("kind") == "protocol":
        raise ServeProtocolError(message)
    raise ServeError(message)


__all__ = [
    "MUTATING_OPS",
    "OPS",
    "SERVE_FORMAT",
    "decode_request",
    "error_envelope",
    "error_kind",
    "job_from_payload",
    "make_advance",
    "make_cancel",
    "make_drain",
    "make_query",
    "make_reserve",
    "make_submit",
    "ok_envelope",
    "parse_request",
    "raise_for_envelope",
]
