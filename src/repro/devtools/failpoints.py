"""Deterministic fault injection for the durability layer.

Every crash-recovery guarantee in :mod:`repro.durability` and the
``repro serve`` daemon is backed by a *failpoint*: a named site in the
code (:data:`CATALOG`) where a test can deterministically kill, delay,
or fail the process.  Sites call :func:`fire`, which is a near-no-op
until the failpoint is armed — either programmatically (:func:`arm`)
or through the environment, which is how subprocess kill matrices and
the CI crash-recovery smoke leg work::

    REPRO_FAILPOINTS="journal.record.append:after=5:mode=crash"

The spec is a comma-separated list of ``name:key=value`` clauses.
Recognised keys:

``mode``
    ``crash`` (default; the process SIGKILLs itself — nothing is
    flushed, the honest simulation of ``kill -9``), ``error`` (raises
    :class:`FailpointError`), or ``delay`` (sleeps ``delay`` seconds —
    for exercising hang detection).
``after``
    Skip the first N hits; the failpoint fires on hit N+1.
``count``
    Fire at most this many times (default: unlimited).
``delay``
    Sleep duration in seconds for ``mode=delay`` (default 1.0).
``once``
    Path to a sentinel file claimed with ``O_EXCL`` before firing, so
    the failpoint fires exactly once *across processes*.  Essential
    when a killed process is restarted under the same environment:
    without ``once`` the restarted process would re-crash forever.

Hit counters are per-process; determinism comes from the sites being
on deterministic code paths (the replay engine), not from the harness.

The environment is read once per process, on the first :func:`fire`,
and again only by :func:`armed_names` and on the first :func:`fire`
after :func:`reset`.  So a disarmed :func:`fire` on a hot path (the
stochastic replay loop's kills and requeues, every store append) is one
flag check; a spec set in the environment of a running process takes
effect at its next :func:`reset` or :func:`armed_names`.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import ReproError

#: Environment variable holding the armed-failpoint spec.
ENV_VAR = "REPRO_FAILPOINTS"

_MODES = ("crash", "error", "delay")


class FailpointError(ReproError):
    """An armed ``mode=error`` failpoint fired, or a spec is malformed."""


@dataclass(frozen=True)
class Failpoint:
    """One registered failure-injection site."""

    name: str
    #: where in the code the site lives (human orientation, not a path)
    site: str
    #: one-line "what firing here simulates" for listings
    description: str


#: Registered failpoints — the single source of truth behind
#: ``repro list --kind failpoints`` and spec validation.  Arming an
#: unregistered name is a loud error: a typo must not silently disarm
#: a kill matrix.
CATALOG: Tuple[Failpoint, ...] = (
    Failpoint(
        "replay.slice.start",
        "durability.journaled — before each journaled slice replays",
        "crash before any of a slice's work happens",
    ),
    Failpoint(
        "replay.slice.commit",
        "durability.journaled — after a slice replays, before its rows "
        "and snapshot are journaled",
        "crash losing a fully-computed slice (must be recomputed)",
    ),
    Failpoint(
        "journal.record.append",
        "durability.journal — before a record is written",
        "crash between records (clean journal tail)",
    ),
    Failpoint(
        "journal.record.torn",
        "durability.journal — mid-record: the frame is half-written "
        "and flushed, then the failpoint fires",
        "crash tearing the journal tail (recovery must truncate it)",
    ),
    Failpoint(
        "journal.snapshot.write",
        "durability.journal — before the snapshot file is written",
        "crash losing a checkpoint before any byte of it is durable",
    ),
    Failpoint(
        "journal.snapshot.rename",
        "durability.atomic — after the snapshot tmp file is written, "
        "before its atomic rename",
        "crash stranding a complete-but-unpublished tmp file",
    ),
    Failpoint(
        "journal.snapshot.marker",
        "durability.journal — after the snapshot file is durable, "
        "before its marker record / segment roll",
        "crash between a snapshot and its commit marker (previous "
        "snapshot must win)",
    ),
    Failpoint(
        "journal.commit",
        "durability.journaled — before the final commit record",
        "crash after all rows are journaled but the run is uncommitted",
    ),
    Failpoint(
        "store.append",
        "run.store.JsonlStore.append — before a row is appended",
        "crash between the journal and the visible JSONL store",
    ),
    Failpoint(
        "serve.op.apply",
        "serve.daemon — after a request is validated, before its op is "
        "applied to the live SchedulerCore",
        "kill the daemon with an accepted-but-unapplied op (the client "
        "saw no ack, so recovery must not replay it)",
    ),
    Failpoint(
        "serve.op.ack",
        "serve.daemon — after an op is applied and journaled, before "
        "its response is written to the client",
        "kill the daemon between durability and the ack (the op must "
        "survive recovery even though the client never heard back)",
    ),
    Failpoint(
        "uncertainty.requeue",
        "simulation.scheduler_core — when a job fails mid-run, before "
        "its capacity is released and it re-enters the queue",
        "kill or delay at the failure instant (requeue state must "
        "survive checkpoints and slice handoffs)",
    ),
    Failpoint(
        "uncertainty.overrun_kill",
        "simulation.scheduler_core — when a job overruns its estimate "
        "and the kill policy terminates it",
        "kill or delay at the walltime-kill instant (kill counters and "
        "window rows must stay consistent across recovery)",
    ),
)

CATALOG_BY_NAME: Dict[str, Failpoint] = {fp.name: fp for fp in CATALOG}


@dataclass
class ArmedFailpoint:
    """Arming state + per-process hit counters for one failpoint."""

    name: str
    mode: str = "crash"
    after: int = 0
    count: Optional[int] = None
    delay: float = 1.0
    once: Optional[str] = None
    hits: int = 0
    fired: int = 0


_armed: Dict[str, ArmedFailpoint] = {}
#: spec string the current ``_armed`` table was parsed from (None =
#: not read since import or the last :func:`reset`).
_env_spec: Optional[str] = None
#: True once :func:`arm`/:func:`disarm` was called — programmatic
#: arming then owns the table and the environment is ignored until
#: :func:`reset`.
_manual: bool = False
#: True while :func:`fire` has nothing to do: the table is settled (the
#: environment read, or programmatic arming in charge) and empty.
_idle: bool = False


def parse_spec(spec: str) -> Dict[str, ArmedFailpoint]:
    """Parse a ``REPRO_FAILPOINTS`` spec string (loud on any mistake)."""
    table: Dict[str, ArmedFailpoint] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        name, _, rest = clause.partition(":")
        if name not in CATALOG_BY_NAME:
            known = ", ".join(sorted(CATALOG_BY_NAME))
            raise FailpointError(
                f"unknown failpoint {name!r} in {ENV_VAR} (known: {known})"
            )
        fp = ArmedFailpoint(name=name)
        if rest:
            for item in rest.split(":"):
                key, eq, value = item.partition("=")
                if not eq:
                    raise FailpointError(
                        f"failpoint {name!r}: malformed option {item!r} "
                        "(expected key=value)"
                    )
                if key == "mode":
                    if value not in _MODES:
                        raise FailpointError(
                            f"failpoint {name!r}: mode must be one of "
                            f"{_MODES}, got {value!r}"
                        )
                    fp.mode = value
                elif key == "after":
                    fp.after = int(value)
                elif key == "count":
                    fp.count = int(value)
                elif key == "delay":
                    fp.delay = float(value)
                elif key == "once":
                    fp.once = value
                else:
                    raise FailpointError(
                        f"failpoint {name!r}: unknown option {key!r}"
                    )
        table[name] = fp
    return table


def _settle() -> None:
    """Recompute :data:`_idle` after the table or its source changed."""
    global _idle
    _idle = not _armed and (_manual or _env_spec is not None)


def arm(
    name: str,
    mode: str = "crash",
    *,
    after: int = 0,
    count: Optional[int] = None,
    delay: float = 1.0,
    once: Optional[str] = None,
) -> None:
    """Arm one failpoint programmatically (overrides the environment)."""
    global _manual
    if name not in CATALOG_BY_NAME:
        known = ", ".join(sorted(CATALOG_BY_NAME))
        raise FailpointError(f"unknown failpoint {name!r} (known: {known})")
    if mode not in _MODES:
        raise FailpointError(
            f"failpoint {name!r}: mode must be one of {_MODES}, got {mode!r}"
        )
    if not _manual:
        _armed.clear()
        _manual = True
    _armed[name] = ArmedFailpoint(
        name=name, mode=mode, after=after, count=count, delay=delay, once=once
    )
    _settle()


def disarm(name: str) -> None:
    """Remove one programmatically-armed failpoint."""
    global _manual
    _manual = True
    _armed.pop(name, None)
    _settle()


def reset() -> None:
    """Disarm everything; the environment is re-read on the next fire."""
    global _manual, _env_spec
    _manual = False
    _env_spec = None
    _armed.clear()
    _settle()


def armed_names() -> Tuple[str, ...]:
    """Names currently armed (after re-reading the environment)."""
    _sync()
    return tuple(sorted(_armed))


def _sync() -> None:
    """Refresh ``_armed`` from the environment.

    Counters survive between calls (the table is only rebuilt when the
    spec string itself changes), so ``after=N`` counts process-wide.
    """
    global _env_spec
    if _manual:
        return
    spec = os.environ.get(ENV_VAR, "")
    if spec != _env_spec:
        _armed.clear()
        _armed.update(parse_spec(spec))
        _env_spec = spec
    _settle()


def _claim_once(path: str) -> bool:
    """Atomically claim a cross-process one-shot sentinel file."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def fire(name: str, before: Optional[Callable[[], None]] = None) -> None:
    """Trigger failpoint ``name`` if armed; otherwise a near-no-op.

    ``before`` runs only when the failpoint actually fires, just ahead
    of the crash/error/delay action — sites use it to stage a partial
    write (the torn-tail simulation) that must not happen on ordinary
    passes through the site.
    """
    if _idle:
        return
    if _env_spec is None:
        _sync()
    fp = _armed.get(name)
    if fp is None:
        return
    fp.hits += 1
    if fp.hits <= fp.after:
        return
    if fp.count is not None and fp.fired >= fp.count:
        return
    if fp.once is not None and not _claim_once(fp.once):
        return
    fp.fired += 1
    if before is not None:
        before()
    if fp.mode == "delay":
        time.sleep(fp.delay)
        return
    if fp.mode == "error":
        raise FailpointError(f"failpoint {name!r} fired (mode=error)")
    # crash: the honest kill -9 — no flushing, no atexit, no cleanup.
    os.kill(os.getpid(), signal.SIGKILL)


def describe() -> Tuple[str, ...]:
    """One formatted line per registered failpoint (CLI listing)."""
    return tuple(
        f"{fp.name}: {fp.description} [{fp.site}]" for fp in CATALOG
    )
