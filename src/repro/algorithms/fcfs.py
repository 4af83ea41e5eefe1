"""First Come First Served — the production baseline of Section 2.2.

Pure FCFS processes the submission queue in order: the job at the head
starts as soon as it fits, and **no later job may overtake it** (no
backfilling).  With parallel rigid jobs this wastes capacity: a wide job
at the head leaves processors idle that queued narrow jobs could use.

The paper recalls that FCFS has *no constant guarantee*: on an
``m``-processor machine there are instances with optimal makespan 1 whose
FCFS schedule has makespan ``m``
(:func:`repro.theory.adversarial.fcfs_worstcase_instance` builds the
family; ``benchmarks/bench_fcfs_worstcase.py`` measures it).

Formally, job ``j`` starts at the earliest time ``>= max(release_j,
sigma_{j-1})`` at which ``q_j`` processors are free for ``p_j`` time,
given jobs ``1..j-1`` and the reservations — i.e. start times are
non-decreasing along the queue.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.instance import ReservationInstance
from ..core.schedule import Schedule
from ..errors import SchedulingError
from .base import Scheduler, register
from .priority import PriorityRule, fifo, resolve_priority


class FCFSScheduler(Scheduler):
    """Pure FCFS (no backfilling) over the submission order.

    Parameters
    ----------
    priority:
        Optional re-ordering of the queue before the FCFS pass (by default
        the instance order / release order, which is what "first come"
        means).  Exposed so experiments can study e.g. FCFS-LPT.
    """

    def __init__(self, priority: Optional[PriorityRule | str] = None):
        self._order, self.name = resolve_priority(priority, "fcfs", fifo)

    def _run(self, instance: ReservationInstance) -> Schedule:
        jobs = self._order(instance.jobs)
        profile = instance.availability_profile()
        starts: Dict = {}
        gate = 0  # start of the previous job: FCFS forbids overtaking
        for job in jobs:
            floor = max(gate, job.release)
            s = profile.earliest_fit(job.q, job.p, after=floor)
            if s is None:
                raise SchedulingError(
                    f"job {job.id!r} (q={job.q}) never fits in the profile"
                )
            profile.reserve(s, job.p, job.q)
            starts[job.id] = s
            gate = s
        return Schedule(instance, starts)


def fcfs_schedule(instance, priority=None) -> Schedule:
    """Convenience wrapper: run pure FCFS on ``instance``."""
    return FCFSScheduler(priority).schedule(instance)


register("fcfs", FCFSScheduler)
