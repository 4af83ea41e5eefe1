"""Online cluster simulation: arrivals, reservations, pluggable policies.

:func:`simulate` runs an instance online through
:class:`~repro.simulation.scheduler_core.SchedulerCore`, the event loop
behind replay, ``repro serve`` and offline EASY: the instance's
reservations become holes, its jobs arrive in release order, the policy
decides at every event time, and the core drains.  The result is an
ordinary verified :class:`~repro.core.schedule.Schedule` plus the event
trace derived from it.

Policies (Section 2.2's spectrum, online versions):

* ``"fcfs"`` — start queue heads only, strictly in order;
* ``"easy"`` — heads plus backfills that do not delay the head's
  earliest start;
* ``"conservative"`` — every queued job holds a tentative reservation,
  re-planned at every decision; a job starts when the clock reaches its
  planned start;
* ``"greedy"`` — start anything that fits now, in queue order: the
  online face of LSRC / most-aggressive backfilling.

For offline instances (all releases 0) ``"greedy"`` reproduces the
offline LSRC schedule exactly — an integration test asserts this.

Policies are public, name-addressable functions registered in
:data:`POLICIES` (a shared :class:`~repro.core.registry.Registry`), so
the experiment layer (:mod:`repro.run`) and the CLI address them by name
(``"online:easy"``) and third-party policies join via
:func:`register_policy`.  A policy is called as ``policy(core, now)``
against the core's policy protocol (``queue``, ``queue_in_order``,
``can_start_now``, ``start_job``, ``earliest_start`` and ``profile``)
and returns the jobs it started.  The core runs the registered
``fcfs``/``greedy``/``easy`` functions as passes inlined into its loop
and any other callable — ``conservative``, a re-registered wrapper —
through the protocol, so the four functions here are also the protocol
reference the differential tests pin the inlined passes to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..core.instance import ReservationInstance, as_reservation_instance
from ..core.registry import Registry
from ..errors import SchedulingError
from ..workloads.uncertainty import resolve_uncertainty

if TYPE_CHECKING:
    from ..core.schedule import Schedule
    from .scheduler_core import SchedulerCore


@dataclass(frozen=True)
class TraceEvent:
    """One line of the simulation log."""

    time: object
    kind: str       # "arrive" | "start" | "finish"
    job_id: object
    queue_length: int


@dataclass
class SimulationResult:
    """Outcome of an online run."""

    schedule: Schedule
    policy: str

    @property
    def makespan(self):
        return self.schedule.makespan

    @property
    def trace(self) -> List[TraceEvent]:
        """The run's event log, derived from the schedule.

        Each job arrives at its release, starts at its start and
        finishes at its end.  Events are in time order; at one instant
        finishes come first (in start order), then arrivals (in
        release, then instance, order: the queue order), then the
        decision pass's starts (in queue order).  ``queue_length`` is
        the queue after the event; every start of one pass carries the
        queue left after the whole pass."""
        from ..core.job import end_time

        starts = self.schedule.starts
        events = []
        n_starting: Dict[object, int] = {}
        for position, job in enumerate(self.schedule.instance.jobs):
            start = starts[job.id]
            order = (job.release, position)
            events.append(
                ((end_time(start, job.p), 0, start) + order, job.id)
            )
            events.append(((job.release, 1, job.release) + order, job.id))
            events.append(((start, 2, start) + order, job.id))
            n_starting[start] = n_starting.get(start, 0) + 1
        events.sort(key=itemgetter(0))
        trace = []
        queued = 0
        pass_time = None
        for (time, rank, *_), job_id in events:
            if rank == 1:
                queued += 1
            elif rank == 2 and time != pass_time:
                pass_time = time
                queued -= n_starting[time]
            trace.append(TraceEvent(time, _KINDS[rank], job_id, queued))
        return trace


_KINDS = ("finish", "arrive", "start")

PolicyFn = Callable[["SchedulerCore", object], List]
# A policy inspects the core at `now`, starts jobs through
# `start_job` and returns the jobs it started.

#: Online policy registry: name -> :data:`PolicyFn`.  Mapping-compatible
#: with the plain dict it replaced (``in``, ``[]``, sorted iteration).
POLICIES: Registry[PolicyFn] = Registry(
    "policy", plural="policies", error=SchedulingError
)


def register_policy(name: str, policy: Optional[PolicyFn] = None, *,
                    overwrite: Optional[bool] = None):
    """Register an online policy under ``name`` (usable as decorator)."""
    return POLICIES.register(name, policy, overwrite=overwrite)


def get_policy(name: str) -> PolicyFn:
    """The policy registered under ``name`` (loud error otherwise)."""
    return POLICIES.get(name)


def available_policies() -> List[str]:
    """Sorted names of all registered online policies."""
    return POLICIES.names()


@register_policy("fcfs", overwrite=True)
def policy_fcfs(state: SchedulerCore, now) -> List:
    started = []
    for job in state.queue_in_order():
        if state.can_start_now(job, now):
            started.append(job)
            state.start_job(job, now)
        else:
            break  # the head blocks everyone behind it
    return started


@register_policy("greedy", overwrite=True)
def policy_greedy(state: SchedulerCore, now) -> List:
    started = []
    for job in state.queue_in_order():
        if state.can_start_now(job, now):
            started.append(job)
            state.start_job(job, now)
    return started


@register_policy("easy", overwrite=True)
def policy_easy(state: SchedulerCore, now) -> List:
    started = []
    # phase 1: heads
    while state.queue:
        head = state.queue_in_order()[0]
        if not state.can_start_now(head, now):
            break
        started.append(head)
        state.start_job(head, now)
    if not state.queue:
        return started
    # phase 2: shadow the head, backfill the rest
    head = state.queue_in_order()[0]
    s_head = state.earliest_start(head, now)
    if s_head is None:
        raise SchedulingError(f"job {head.id!r} can never start")
    state.profile.reserve(s_head, head.p, head.q)
    try:
        for job in state.queue_in_order()[1:]:
            if state.can_start_now(job, now):
                started.append(job)
                state.start_job(job, now)
    finally:
        state.profile.add(s_head, head.p, head.q)
    return started


@register_policy("conservative", overwrite=True)
def policy_conservative(state: SchedulerCore, now) -> List:
    # re-plan every queued job in order on a scratch copy, then start the
    # ones whose planned start is now
    plan: Dict[object, object] = {}
    scratch = state.profile.copy()
    for job in state.queue_in_order():
        s = scratch.reserve_earliest(job.q, job.p, after=now)
        if s is None:
            raise SchedulingError(f"job {job.id!r} can never start")
        plan[job.id] = s
    started = []
    for job in state.queue_in_order():
        if plan[job.id] == now:
            started.append(job)
            state.start_job(job, now)
    return started


def simulate(instance, policy: str = "greedy", timebase: str = "auto",
             uncertainty=None) -> SimulationResult:
    """Run ``instance`` online under ``policy`` on a
    :class:`~repro.simulation.scheduler_core.SchedulerCore`.

    ``timebase`` selects the :mod:`repro.core.timebase` fast path: under
    ``"auto"`` (default) an exactly-normalisable instance runs on its
    integer twin and the schedule is mapped back, so callers observe
    identical results either way.

    ``uncertainty`` accepts an estimate-error
    :class:`~repro.workloads.uncertainty.UncertaintyModel` (or spec
    string): the policy keeps planning with each job's estimated ``p``,
    but the job completes at its drawn actual runtime under the
    walltime-kill policy (``min(actual, p)``), and the returned schedule
    is built over those *actualized* jobs, so it verifies against what
    actually ran.  Such runs stay on the instance's own times: the draws
    are functions of each job's own estimate.  Failures, reservation
    no-shows and grace extensions are loudly rejected: a schedule holds
    one start per job, so they run through the replay engine.
    """
    # replay and serve import this module for its policies only; the
    # core, the timebase and the schedule are loaded by a simulation
    from ..core.job import reservation_block
    from ..core.schedule import Schedule
    from ..core.timebase import check_timebase_policy, run_on_grid
    from .scheduler_core import SchedulerCore

    instance = as_reservation_instance(instance)
    timebase = check_timebase_policy(timebase)
    model = resolve_uncertainty(uncertainty)
    if model is not None and model.is_exact:
        model = None  # the degenerate model IS the certain world
    if model is not None:
        unsupported = []
        if model.failure_rate > 0.0:
            unsupported.append(f"failure_rate={model.failure_rate:g}")
        if model.no_show_rate > 0.0:
            unsupported.append(f"no_show_rate={model.no_show_rate:g}")
        if model.overrun != "kill":
            unsupported.append(f"overrun={model.overrun}")
        if unsupported:
            raise SchedulingError(
                "online simulation supports estimate-error models under "
                f"the kill policy only ({', '.join(unsupported)} "
                "requested); failures, no-shows and grace extensions run "
                "through the replay engine / SchedulerCore"
            )

    def run(inst: ReservationInstance) -> Schedule:
        core = SchedulerCore(inst.m, policy, window=0, record_starts=True,
                             uncertainty=model)
        for res in inst.reservations:
            core.reserve(*reservation_block(res))
        for job in sorted(inst.jobs, key=lambda j: j.release):
            core.submit(job)
        core.drain()
        if model is not None:
            # each job ran min(actual, estimate): the core drew the same
            # actual for its one attempt
            actualized = []
            for job in inst.jobs:
                actual, _ = model.draw(job.id, job.p, 0)
                if actual < job.p:
                    job = replace(job, p=actual)
                actualized.append(job)
            inst = replace(inst, jobs=tuple(actualized))
        return Schedule(inst, core.starts, algorithm=f"online-{policy}")

    if model is not None:
        return SimulationResult(run(instance), policy)
    return SimulationResult(run_on_grid(instance, timebase, run), policy)
