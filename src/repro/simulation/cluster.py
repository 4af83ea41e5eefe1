"""Simulated cluster state for the online scheduler.

Tracks, during an online simulation, exactly what a batch-system resource
manager tracks:

* the availability profile (machine minus reservations minus *running and
  committed* jobs);
* the set of running jobs with their completion times;
* the queue of arrived-but-not-started jobs in submission order.

Separating this state object from the event loop keeps the scheduling
*policies* (in :mod:`repro.simulation.online_sim`) small and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.instance import ReservationInstance
from ..core.job import Job
from ..core.profiles import ResourceProfile
from ..errors import SchedulingError


@dataclass
class RunningJob:
    """A started job and its immutable placement."""

    job: Job
    start: object

    @property
    def end(self):
        return self.start + self.job.p


class ClusterState:
    """Mutable cluster bookkeeping for one online simulation run."""

    def __init__(self, instance: ReservationInstance):
        self.instance = instance
        #: capacity left after reservations and committed jobs
        self.profile: ResourceProfile = instance.availability_profile()
        self.queue: List[Job] = []
        self.running: Dict[object, RunningJob] = {}
        self.finished: Dict[object, RunningJob] = {}

    # -- queue management -------------------------------------------------
    def enqueue(self, job: Job) -> None:
        """A job arrives (release time reached)."""
        self.queue.append(job)

    def queue_in_order(self) -> List[Job]:
        """Arrived jobs in submission (enqueue) order."""
        return list(self.queue)

    # -- placement --------------------------------------------------------
    def can_start_now(self, job: Job, now) -> bool:
        """Full-duration fit test at the current instant."""
        return self.profile.fits(job.q, now, job.p)

    def start_job(self, job: Job, now) -> RunningJob:
        """Commit ``job`` to start at ``now``; updates profile and queue."""
        if not self.can_start_now(job, now):
            raise SchedulingError(
                f"job {job.id!r} does not fit at time {now}"
            )
        self.profile.reserve(now, job.p, job.q)
        placed = RunningJob(job=job, start=now)
        self.running[job.id] = placed
        self.queue = [j for j in self.queue if j.id != job.id]
        return placed

    def complete_job(self, job_id, now) -> None:
        """Mark a running job finished (its profile share was pre-booked
        for exactly its duration, so no capacity update is needed)."""
        placed = self.running.pop(job_id, None)
        if placed is None:
            raise SchedulingError(f"job {job_id!r} is not running")
        if placed.end != now:
            raise SchedulingError(
                f"job {job_id!r} completes at {placed.end}, not {now}"
            )
        self.finished[job_id] = placed

    # -- introspection ------------------------------------------------------
    def earliest_start(self, job: Job, now):
        """Earliest feasible start for ``job`` given current commitments."""
        return self.profile.earliest_fit(job.q, job.p, after=now)

    @property
    def all_done(self) -> bool:
        return not self.queue and not self.running

    def starts(self) -> Dict:
        """Start times of every placed job so far."""
        out = {jid: rj.start for jid, rj in self.finished.items()}
        out.update({jid: rj.start for jid, rj in self.running.items()})
        return out
