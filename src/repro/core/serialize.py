"""JSON serialisation for instances and schedules.

A library a downstream user adopts needs durable artifacts: the exact
instance an experiment ran on and the exact schedule an algorithm
produced.  This module defines a stable JSON encoding with:

* loss-less numbers — integers stay integers, floats stay floats, and
  :class:`fractions.Fraction` values (used by every theory construction)
  are encoded as ``{"num": ..., "den": ...}`` so worst-case instances
  round-trip exactly;
* schema versioning (``"format": "repro-instance/1"``) so future
  revisions can migrate;
* validation on load — a loaded instance passes through the ordinary
  constructors, so malformed files fail loudly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Union

from ..errors import TraceFormatError
from .instance import ReservationInstance, RigidInstance
from .job import Job, Reservation
from .schedule import Schedule

INSTANCE_FORMAT = "repro-instance/1"
SCHEDULE_FORMAT = "repro-schedule/1"
#: Experiment-spec documents share these serialization conventions; the
#: loader/dumper live in :mod:`repro.run.spec` (which imports this
#: constant) and are re-exported below so this module stays the one-stop
#: shop for every on-disk format.
SPEC_FORMAT = "repro-spec/1"


# ---------------------------------------------------------------------------
# number encoding
# ---------------------------------------------------------------------------

def _encode_number(value):
    if isinstance(value, bool):
        raise TraceFormatError(f"booleans are not times: {value!r}")
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (int, float)):
        return value
    raise TraceFormatError(f"cannot encode number {value!r}")


def finite_number(value, what: str, error=TraceFormatError):
    """The finite-only rule for decoded numbers: ``value`` itself, unless
    it is a float that is not finite — a ``NaN``/``Infinity`` literal,
    or a number such as ``1e400`` that overflows to ``inf`` — which
    raises ``error`` naming ``what``.  Instance, schedule and spec
    documents and ``repro serve`` requests all decode through it: no
    such value is a time, a size or a parameter."""
    if isinstance(value, float) and not math.isfinite(value):
        raise error(f"{what} must be finite, got {value!r}")
    return value


def _decode_number(value, what: str = "number"):
    if isinstance(value, dict):
        try:
            return Fraction(value["num"], value["den"])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise TraceFormatError(f"malformed fraction {value!r}") from exc
    if isinstance(value, (int, float)):
        return finite_number(value, what)
    raise TraceFormatError(f"cannot decode number {value!r}")


def _decode_int(value, what: str) -> int:
    return int(finite_number(value, what))


def _encode_id(value):
    # ids are arbitrary hashables in memory; on disk they must be JSON
    # scalars.  Non-string/int ids are stringified (documented lossy edge).
    if isinstance(value, (str, int)):
        return value
    return str(value)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def instance_to_dict(instance: Union[RigidInstance, ReservationInstance]) -> Dict:
    """Encode either instance flavour as a plain dict."""
    reservations = []
    if isinstance(instance, ReservationInstance):
        reservations = [
            {
                "id": _encode_id(res.id),
                "start": _encode_number(res.start),
                "p": _encode_number(res.p),
                "q": res.q,
                "name": res.name,
            }
            for res in instance.reservations
        ]
    return {
        "format": INSTANCE_FORMAT,
        "m": instance.m,
        "name": instance.name,
        "jobs": [
            {
                "id": _encode_id(job.id),
                "p": _encode_number(job.p),
                "q": job.q,
                "release": _encode_number(job.release),
                "name": job.name,
            }
            for job in instance.jobs
        ],
        "reservations": reservations,
    }


def instance_from_dict(data: Dict) -> ReservationInstance:
    """Decode an instance dict (validates through the constructors)."""
    if not isinstance(data, dict):
        raise TraceFormatError("instance document must be a JSON object")
    if data.get("format") != INSTANCE_FORMAT:
        raise TraceFormatError(
            f"unsupported instance format {data.get('format')!r}; "
            f"expected {INSTANCE_FORMAT!r}"
        )
    try:
        jobs = tuple(
            Job(
                id=j["id"],
                p=_decode_number(j["p"], f"job {j['id']!r} field 'p'"),
                q=_decode_int(j["q"], f"job {j['id']!r} field 'q'"),
                release=_decode_number(
                    j.get("release", 0), f"job {j['id']!r} field 'release'"
                ),
                name=j.get("name", ""),
            )
            for j in data["jobs"]
        )
        reservations = tuple(
            Reservation(
                id=r["id"],
                start=_decode_number(
                    r["start"], f"reservation {r['id']!r} field 'start'"
                ),
                p=_decode_number(r["p"], f"reservation {r['id']!r} field 'p'"),
                q=_decode_int(r["q"], f"reservation {r['id']!r} field 'q'"),
                name=r.get("name", ""),
            )
            for r in data.get("reservations", ())
        )
        return ReservationInstance(
            m=_decode_int(data["m"], "field 'm'"),
            jobs=jobs,
            reservations=reservations,
            name=data.get("name", ""),
        )
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed instance document: {exc}") from exc


def dumps_instance(instance, indent: int = 2) -> str:
    """Instance → JSON text."""
    return json.dumps(instance_to_dict(instance), indent=indent)


def loads_instance(text: str) -> ReservationInstance:
    """JSON text → instance."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_dict(data)


def save_instance(instance, path: str) -> str:
    """Write an instance JSON file; returns the path."""
    with open(path, "w") as fh:
        fh.write(dumps_instance(instance))
    return path


def load_instance(path: str) -> ReservationInstance:
    """Read an instance JSON file."""
    with open(path) as fh:
        return loads_instance(fh.read())


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule) -> Dict:
    """Encode a schedule together with its instance (self-contained)."""
    return {
        "format": SCHEDULE_FORMAT,
        "algorithm": schedule.algorithm,
        "makespan": _encode_number(schedule.makespan),
        "instance": instance_to_dict(schedule.instance),
        "starts": [
            {"job": _encode_id(jid), "start": _encode_number(s)}
            for jid, s in sorted(
                schedule.starts.items(), key=lambda kv: str(kv[0])
            )
        ],
    }


def schedule_from_dict(data: Dict) -> Schedule:
    """Decode a schedule document; re-verifies nothing by default (call
    ``.verify()`` for a full feasibility check) but the recorded makespan
    must match the decoded one — guarding against tampered files."""
    if not isinstance(data, dict):
        raise TraceFormatError("schedule document must be a JSON object")
    if data.get("format") != SCHEDULE_FORMAT:
        raise TraceFormatError(
            f"unsupported schedule format {data.get('format')!r}; "
            f"expected {SCHEDULE_FORMAT!r}"
        )
    instance = instance_from_dict(data["instance"])
    try:
        starts = {
            entry["job"]: _decode_number(
                entry["start"], f"start of job {entry['job']!r}"
            )
            for entry in data["starts"]
        }
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed schedule starts: {exc}") from exc
    schedule = Schedule(instance, starts, algorithm=data.get("algorithm", ""))
    recorded = _decode_number(
        data.get("makespan", schedule.makespan), "field 'makespan'"
    )
    if recorded != schedule.makespan:
        raise TraceFormatError(
            f"recorded makespan {recorded!r} does not match decoded "
            f"schedule's {schedule.makespan!r}"
        )
    return schedule


def dumps_schedule(schedule: Schedule, indent: int = 2) -> str:
    """Schedule → JSON text."""
    return json.dumps(schedule_to_dict(schedule), indent=indent)


def loads_schedule(text: str) -> Schedule:
    """JSON text → schedule."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc}") from exc
    return schedule_from_dict(data)


def save_schedule(schedule: Schedule, path: str) -> str:
    """Write a schedule JSON file; returns the path."""
    with open(path, "w") as fh:
        fh.write(dumps_schedule(schedule))
    return path


def load_schedule(path: str) -> Schedule:
    """Read a schedule JSON file."""
    with open(path) as fh:
        return loads_schedule(fh.read())


# ---------------------------------------------------------------------------
# experiment specs (lazy delegation — repro.run sits above repro.core)
# ---------------------------------------------------------------------------

def dumps_spec(spec, indent: int = 2) -> str:
    """Experiment spec → JSON text (see :mod:`repro.run.spec`)."""
    from ..run.spec import dumps_spec as _dumps

    return _dumps(spec, indent=indent)


def loads_spec(text: str):
    """JSON text → :class:`repro.run.ExperimentSpec`."""
    from ..run.spec import loads_spec as _loads

    return _loads(text)


def save_spec(spec, path: str) -> str:
    """Write a spec JSON file; returns the path."""
    from ..run.spec import save_spec as _save

    return _save(spec, path)


def load_spec(path: str):
    """Read a spec JSON file."""
    from ..run.spec import load_spec as _load

    return _load(path)
