"""Online cluster simulation: arrivals, reservations, pluggable policies.

Drives :class:`~repro.simulation.cluster.ClusterState` with the event
engine to emulate a batch system front-end: jobs arrive at their release
times, the policy decides what to start at every state change, and the
result is an ordinary verified :class:`~repro.core.schedule.Schedule`
plus an event trace.

Policies (Section 2.2's spectrum, online versions):

* ``"fcfs"`` — start queue heads only, strictly in order;
* ``"easy"`` — heads plus backfills that do not delay the head's
  earliest start;
* ``"conservative"`` — every queued job holds a tentative reservation,
  re-planned on arrival events; a job starts when the clock reaches its
  planned start;
* ``"greedy"`` — start anything that fits now, in queue order: the
  online face of LSRC / most-aggressive backfilling.

For offline instances (all releases 0) ``"greedy"`` reproduces the
offline LSRC schedule exactly — an integration test asserts this.

Policies are public, name-addressable functions registered in
:data:`POLICIES` (a shared :class:`~repro.core.registry.Registry`), so
the experiment layer (:mod:`repro.run`) and the CLI address them by name
(``"online:easy"``) and third-party policies join via
:func:`register_policy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from ..core.instance import ReservationInstance, as_reservation_instance
from ..core.registry import Registry
from ..core.schedule import Schedule
from ..core.timebase import check_timebase_policy, run_on_grid
from ..errors import SchedulingError
from ..workloads.uncertainty import resolve_uncertainty
from .cluster import ClusterState, RunningJob
from .engine import Simulator


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
    trace: List[TraceEvent]
    policy: str

    @property
    def makespan(self):
        return self.schedule.makespan


PolicyFn = Callable[[ClusterState, object], List]
# A policy inspects the cluster at `now` and returns the jobs to start now.

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
def policy_fcfs(state: ClusterState, now) -> List:
    started = []
    for job in state.queue_in_order():
        if state.can_start_now(job, now):
            started.append(job)
            state.start_job(job, now)
        else:
            break  # the head blocks everyone behind it
    return started


@register_policy("greedy", overwrite=True)
def policy_greedy(state: ClusterState, now) -> List:
    started = []
    for job in state.queue_in_order():
        if state.can_start_now(job, now):
            started.append(job)
            state.start_job(job, now)
    return started


@register_policy("easy", overwrite=True)
def policy_easy(state: ClusterState, now) -> List:
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
def policy_conservative(state: ClusterState, now) -> List:
    # re-plan every queued job in order on a scratch copy, then start the
    # ones whose planned start is now
    plan: Dict[object, object] = {}
    scratch = state.profile.copy()
    for job in state.queue_in_order():
        s = scratch.earliest_fit(job.q, job.p, after=now)
        if s is None:
            raise SchedulingError(f"job {job.id!r} can never start")
        scratch.reserve(s, job.p, job.q)
        plan[job.id] = s
    started = []
    for job in state.queue_in_order():
        if plan[job.id] == now:
            started.append(job)
            state.start_job(job, now)
    return started


class OnlineSimulation:
    """Event-driven online run of a policy over an instance.

    The decision pass runs after every arrival and completion, and at
    every availability-profile breakpoint (a reservation ending can make a
    queued job startable).

    ``timebase`` selects the :mod:`repro.core.timebase` fast path: under
    ``"auto"`` (default) an exactly-normalisable instance is simulated on
    its integer twin — every event-queue comparison and profile op on
    machine ints — and the schedule *and* trace are denormalised back, so
    callers observe identical results either way.

    ``uncertainty`` accepts an estimate-error
    :class:`~repro.workloads.uncertainty.UncertaintyModel` (or spec
    string): the policy keeps planning with each job's estimated ``p``,
    but the job completes at its drawn actual runtime under the
    walltime-kill policy (``min(actual, p)``); the unused tail of the
    estimate is credited back to the profile at the completion instant,
    and the returned schedule is built over the *actualized* jobs so it
    verifies against what actually ran.  Failures, reservation no-shows
    and grace extensions need the calendar engine's requeue/wake-up
    machinery and are loudly rejected here — they run through
    :class:`~repro.simulation.scheduler_core.SchedulerCore` and the
    replay engine.
    """

    def __init__(self, instance, policy: str = "greedy",
                 timebase: str = "auto", uncertainty=None):
        self.instance: ReservationInstance = as_reservation_instance(instance)
        self.policy_name = policy
        self._policy = POLICIES.get(policy)
        self.timebase = check_timebase_policy(timebase)
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
        self.uncertainty = model

    def run(self) -> SimulationResult:
        if self.uncertainty is not None:
            # Uncertain runs pin the native timebase: actual-runtime
            # draws are functions of each job's own estimate, so the
            # normalised twin would draw from rescaled estimates.
            return self._run_on(self.instance)
        runs: List[SimulationResult] = []

        def run_on(instance: ReservationInstance) -> Schedule:
            runs.append(self._run_on(instance))
            return runs[-1].schedule

        schedule, tb = run_on_grid(self.instance, self.timebase, run_on, run_on)
        result = runs[0]
        if tb is None:
            return result
        trace = [replace(ev, time=tb.denormalize(ev.time)) for ev in result.trace]
        return SimulationResult(schedule=schedule, trace=trace, policy=result.policy)

    def _run_on(self, instance: ReservationInstance) -> SimulationResult:
        state = ClusterState(instance)
        sim = Simulator()
        trace: List[TraceEvent] = []
        model = self.uncertainty
        # Effective runtime per job under the kill policy: min(actual,
        # estimate).  Drawn up front (fate, not knowledge): the policy
        # never sees these — it plans with estimates, and capacity frees
        # only at the completion instant itself.
        effective: Dict[object, object] = {}
        if model is not None:
            for job in instance.jobs:
                actual, _ = model.draw(job.id, job.p, 0)
                effective[job.id] = actual if actual < job.p else job.p

        def decision_pass(s: Simulator) -> None:
            started = self._policy(state, s.now)
            for job in started:
                trace.append(
                    TraceEvent(s.now, "start", job.id, len(state.queue))
                )
                end = s.now + (
                    job.p if model is None else effective[job.id]
                )

                def make_finisher(job_id, end_time):
                    def finish(s2: Simulator) -> None:
                        if model is None:
                            state.complete_job(job_id, s2.now)
                        else:
                            self._complete_actual(state, job_id, s2.now)
                        trace.append(
                            TraceEvent(
                                s2.now, "finish", job_id, len(state.queue)
                            )
                        )

                    return finish

                sim.schedule_at(
                    end,
                    make_finisher(job.id, end),
                    priority=Simulator.PRIO_COMPLETION,
                    label=f"finish {job.id}",
                )
                # completions trigger a fresh decision pass
                sim.schedule_at(
                    end,
                    decision_pass,
                    priority=Simulator.PRIO_DECISION,
                    label="decide",
                )

        def make_arrival(job):
            def arrive(s: Simulator) -> None:
                state.enqueue(job)
                trace.append(
                    TraceEvent(s.now, "arrive", job.id, len(state.queue))
                )

            return arrive

        # Tie-break simultaneous arrivals by instance position so the
        # greedy policy's queue order equals offline LSRC's list order.
        position = {job.id: i for i, job in enumerate(instance.jobs)}
        for job in sorted(
            instance.jobs, key=lambda j: (j.release, position[j.id])
        ):
            sim.schedule_at(
                job.release,
                make_arrival(job),
                priority=Simulator.PRIO_ARRIVAL,
                label=f"arrive {job.id}",
            )
            sim.schedule_at(
                job.release,
                decision_pass,
                priority=Simulator.PRIO_DECISION,
                label="decide",
            )
        # availability changes at profile breakpoints can unblock jobs
        for t in instance.availability_profile().breakpoints:
            if t > 0:
                sim.schedule_at(
                    t, decision_pass, priority=Simulator.PRIO_DECISION,
                    label="decide@breakpoint",
                )

        sim.run()
        # Jobs can remain queued when every decision point has passed but
        # capacity frees only at future completion times of long jobs --
        # completions schedule passes, so after run() the queue must drain
        # unless something never fits at all.
        if not state.all_done:
            raise SchedulingError(
                f"simulation ended with {len(state.queue)} queued and "
                f"{len(state.running)} running job(s)"
            )
        if model is not None:
            # The schedule must verify against what actually ran: early
            # exits open holes later starts legitimately used, so the
            # estimated instance would reject them.
            instance = replace(
                instance,
                jobs=tuple(
                    state.finished[job.id].job for job in instance.jobs
                ),
            )
        schedule = Schedule(
            instance, state.starts(), algorithm=f"online-{self.policy_name}"
        )
        return SimulationResult(
            schedule=schedule, trace=trace, policy=self.policy_name
        )

    @staticmethod
    def _complete_actual(state: ClusterState, job_id, now) -> None:
        """Finish a job at its *actual* completion instant: credit the
        unused tail of the estimate back to the profile and record the
        actualized placement."""
        placed = state.running.pop(job_id, None)
        if placed is None:
            raise SchedulingError(f"job {job_id!r} is not running")
        eff = now - placed.start
        tail = placed.job.p - eff
        if tail > 0:
            state.profile.add(now, tail, placed.job.q)
        state.finished[job_id] = RunningJob(
            job=replace(placed.job, p=eff), start=placed.start
        )


def simulate(instance, policy: str = "greedy", timebase: str = "auto",
             uncertainty=None) -> SimulationResult:
    """Convenience wrapper: run one online simulation."""
    return OnlineSimulation(
        instance, policy, timebase, uncertainty=uncertainty
    ).run()
