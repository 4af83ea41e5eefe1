"""Schedules: start-time assignments, verification, processor assignment.

A solution of (RESA)SCHEDULING is a set of start times ``(sigma_i)`` such
that at every time the running jobs plus the reservations fit within the
``m`` machines (Section 3.1).  :class:`Schedule` stores the start times,
:meth:`Schedule.verify` checks feasibility *exactly* with a sweep over
event points, and :meth:`Schedule.assign_processors` turns the abstract
capacity schedule into a concrete processor numbering (always possible
because the model does not require contiguity, Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import InfeasibleScheduleError, InvalidInstanceError
from .instance import ReservationInstance, as_reservation_instance
from .job import Job, end_time
from .profiles import ResourceProfile


@dataclass(frozen=True)
class ScheduledJob:
    """A job together with its assigned start time."""

    job: Job
    start: object

    @property
    def end(self):
        """Completion time ``sigma_i + p_i``."""
        return end_time(self.start, self.job.p)

    @property
    def q(self) -> int:
        """Processor requirement of the underlying job."""
        return self.job.q


class Schedule:
    """An assignment of start times for every job of an instance.

    Parameters
    ----------
    instance:
        The instance being solved (either flavour; coerced to
        :class:`~repro.core.instance.ReservationInstance`).
    starts:
        Mapping from job id to start time.  Must cover every job exactly.
    algorithm:
        Optional name of the algorithm that produced the schedule (reports).
    """

    def __init__(self, instance, starts: Dict, algorithm: str = ""):
        self.instance: ReservationInstance = as_reservation_instance(instance)
        missing = [j.id for j in self.instance.jobs if j.id not in starts]
        if missing:
            raise InvalidInstanceError(
                f"schedule is missing start times for jobs {missing!r}"
            )
        extra = [jid for jid in starts if jid not in self.instance.job_by_id]
        if extra:
            raise InvalidInstanceError(
                f"schedule has start times for unknown jobs {extra!r}"
            )
        self.starts: Dict = dict(starts)
        self.algorithm = algorithm
        self._processor_assignment: Optional[Dict] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.starts)

    def start_of(self, job_id):
        """Start time of a job."""
        return self.starts[job_id]

    def end_of(self, job_id):
        """Completion time of a job."""
        job = self.instance.job_by_id[job_id]
        return end_time(self.starts[job_id], job.p)

    def scheduled_jobs(self) -> List[ScheduledJob]:
        """Jobs with their start times, ordered by (start, id-string)."""
        items = [
            ScheduledJob(job=job, start=self.starts[job.id])
            for job in self.instance.jobs
        ]
        items.sort(key=lambda sj: (sj.start, str(sj.job.id)))
        return items

    @property
    def makespan(self):
        """``Cmax = max_i (sigma_i + p_i)`` — job completions only.

        Consistent with the paper, reservations do not count towards the
        makespan (the adversarial reservation of Theorem 1 ends long after
        the optimal ``Cmax``).
        """
        if not self.starts:
            return 0
        return max(
            end_time(self.starts[job.id], job.p) for job in self.instance.jobs
        )

    def event_times(self) -> List:
        """Sorted distinct times where the running set changes
        (job starts/ends and reservation boundaries)."""
        times = set()
        for job in self.instance.jobs:
            times.add(self.starts[job.id])
            times.add(end_time(self.starts[job.id], job.p))
        for res in self.instance.reservations:
            times.add(res.start)
            times.add(res.end)
        times.add(0)
        return sorted(times)

    def running_at(self, t) -> List[Job]:
        """Jobs executing at time ``t`` (the paper's ``I_t``)."""
        return [
            job
            for job in self.instance.jobs
            if self.starts[job.id] <= t < end_time(self.starts[job.id], job.p)
        ]

    def usage_at(self, t) -> int:
        """Processors used by *jobs* at time ``t`` (the appendix's ``r(t)``)."""
        return sum(job.q for job in self.running_at(t))

    def usage_profile(self) -> ResourceProfile:
        """``r(t)`` as a profile: processors used by jobs over time.

        Usage is constant between consecutive event points, so sampling at
        each event time fully determines the function
        (:class:`~repro.core.profiles.ListProfile` merges equal
        neighbouring segments).
        """
        events = self.event_times()  # sorted, always contains 0
        caps = [self.usage_at(t) for t in events]
        return ResourceProfile(events, caps)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        """All model-constraint violations, as human-readable strings.

        Checks, per Section 3.1:

        * every start time is ``>= 0`` and ``>= release``;
        * on every maximal interval between event points,
          ``sum_{running} q_i <= m - U(t)``.
        """
        problems: List[str] = []
        inst = self.instance
        for job in inst.jobs:
            s = self.starts[job.id]
            if s < 0:
                problems.append(f"job {job.id!r} starts at negative time {s}")
            if s < job.release:
                problems.append(
                    f"job {job.id!r} starts at {s}, before its release "
                    f"{job.release}"
                )
        profile = inst.availability_profile()
        events = self.event_times()
        for t in events:
            usage = self.usage_at(t)
            available = profile.capacity_at(t) if t >= 0 else 0
            if usage > available:
                running = sorted(
                    (str(j.id) for j in self.running_at(t))
                )
                problems.append(
                    f"at time {t}: jobs use {usage} processors but only "
                    f"{available} are available (running: {running})"
                )
        return problems

    def verify(self) -> None:
        """Raise :class:`~repro.errors.InfeasibleScheduleError` when the
        schedule violates the model; otherwise return silently."""
        problems = self.violations()
        if problems:
            raise InfeasibleScheduleError(
                f"schedule has {len(problems)} violation(s); first: "
                f"{problems[0]}",
                violations=problems,
            )

    def is_feasible(self) -> bool:
        """True when :meth:`violations` finds nothing."""
        return not self.violations()

    # ------------------------------------------------------------------
    # processor assignment
    # ------------------------------------------------------------------
    def assign_processors(self) -> Dict:
        """Concrete processor sets for every job and reservation.

        Returns a dict mapping ``("job", id)`` / ``("res", id)`` to a
        sorted tuple of processor indices in ``range(m)``.  Because the
        model allows any subset of processors (no contiguity), a greedy
        sweep over event times always succeeds on a feasible schedule.

        The result is cached; it is used by the Gantt and SVG renderers.
        """
        if self._processor_assignment is not None:
            return self._processor_assignment
        self.verify()
        inst = self.instance
        intervals: List[Tuple[object, object, int, Tuple[str, object]]] = []
        for job in inst.jobs:
            s = self.starts[job.id]
            intervals.append((s, end_time(s, job.p), job.q, ("job", job.id)))
        for res in inst.reservations:
            intervals.append((res.start, res.end, res.q, ("res", res.id)))
        # Sweep event points; release processors of finished intervals,
        # then allocate lowest-numbered free processors to starting ones.
        starts_at: Dict = {}
        ends_at: Dict = {}
        for iv in intervals:
            starts_at.setdefault(iv[0], []).append(iv)
            ends_at.setdefault(iv[1], []).append(iv)
        events = sorted(set(starts_at) | set(ends_at))
        free = list(range(inst.m))
        assignment: Dict = {}
        for t in events:
            for iv in ends_at.get(t, ()):
                free.extend(assignment[iv[3]])
            free.sort()
            # deterministic allocation order: widest first, then key
            for iv in sorted(
                starts_at.get(t, ()), key=lambda iv: (-iv[2], str(iv[3]))
            ):
                need = iv[2]
                if len(free) < need:  # pragma: no cover - verify() prevents this
                    raise InfeasibleScheduleError(
                        f"processor assignment failed at time {t}: need {need}, "
                        f"free {len(free)}"
                    )
                chunk = free[:need]
                del free[:need]
                assignment[iv[3]] = tuple(chunk)
        self._processor_assignment = assignment
        return assignment

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def shifted(self, offset) -> "Schedule":
        """Copy with every start time shifted by ``offset`` (>= 0 check is
        left to :meth:`verify`)."""
        return Schedule(
            self.instance,
            {jid: s + offset for jid, s in self.starts.items()},
            algorithm=self.algorithm,
        )

    def __repr__(self) -> str:
        algo = f" by {self.algorithm}" if self.algorithm else ""
        return (
            f"Schedule({len(self.starts)} jobs{algo}, "
            f"Cmax={self.makespan})"
        )


def left_shifted(schedule: Schedule) -> Schedule:
    """Left-shift every job as far as possible, in start-time order.

    Classical post-processing: jobs are re-placed at their earliest
    feasible start, in non-decreasing order of their current starts.  The
    makespan never increases.  Used to normalise schedules in tests and as
    a cheap improvement step.
    """
    inst = schedule.instance
    profile = inst.availability_profile()
    order = sorted(
        inst.jobs, key=lambda j: (schedule.starts[j.id], str(j.id))
    )
    new_starts: Dict = {}
    for job in order:
        s = profile.earliest_fit(job.q, job.p, after=job.release)
        if s is None or s > schedule.starts[job.id]:
            # cannot improve safely; keep the original position
            s = schedule.starts[job.id]
        profile.reserve(s, job.p, job.q)
        new_starts[job.id] = s
    return Schedule(inst, new_starts, algorithm=schedule.algorithm + "+shift")
