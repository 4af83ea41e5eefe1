"""Backfilling policies: conservative and EASY (Section 2.2).

Production batch schedulers temper FCFS's resource waste with
*backfilling*: letting a job jump the queue when doing so provably (or
probably) harms nobody.  The paper discusses the spectrum:

* **conservative backfilling** — every job is placed at the earliest time
  that does not delay *any previously scheduled* job.  Offline this is a
  single pass over the queue placing each job with
  :meth:`~repro.core.profiles.ListProfile.earliest_fit`;
* **EASY backfilling** — only the queue *head* gets a guaranteed
  reservation; any other ready job may start now if it does not push the
  head's reserved start back;
* **aggressive backfilling** — any job may start whenever it fits; the
  paper notes this "is exactly the same as the initial definition of List
  Scheduling ... of Garey and Graham", i.e.
  :class:`~repro.algorithms.list_scheduling.ListScheduler` (registered
  here under the alias ``backfill-aggressive``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

from ..core.instance import ReservationInstance
from ..core.schedule import Schedule
from ..core.timebase import check_timebase_policy, timebase_for
from ..errors import SchedulingError
from .base import Scheduler, register
from .list_scheduling import ListScheduler, earliest_fit_placement
from .priority import PriorityRule, get_rule


class ConservativeBackfillScheduler(Scheduler):
    """Conservative backfilling: earliest-fit placement in queue order.

    Every job receives a firm start-time reservation when it is considered;
    later jobs may slide into earlier holes but can never displace an
    existing reservation — the paper's example of the non-aggressive
    variant ("task y could not have been scheduled earlier, even if x was
    not present").
    """

    def __init__(
        self,
        priority: Optional[PriorityRule | str] = None,
        profile_backend=None,
        timebase: str = "auto",
    ):
        if isinstance(priority, str):
            self._priority = get_rule(priority)
            self.name = f"backfill-cons[{priority}]"
        else:
            self._priority = priority
            self.name = "backfill-cons" if priority is None else "backfill-cons[custom]"
        self.profile_backend = profile_backend
        self.timebase = check_timebase_policy(timebase)

    def _run(self, instance: ReservationInstance) -> Schedule:
        jobs = (
            self._priority(instance.jobs)
            if self._priority is not None
            else sorted(instance.jobs, key=lambda j: j.release)
        )
        return earliest_fit_placement(
            instance, jobs, self.profile_backend, self.timebase
        )


class EasyBackfillScheduler(Scheduler):
    """EASY (aggressive-head) backfilling.

    Event-driven: at every decision point, (1) start queue heads while they
    fit, (2) compute the head's earliest start and pencil it in as a
    *shadow* reservation, (3) start any later ready job that fits now
    against the shadow, (4) erase the shadow.  The head is therefore never
    delayed by a backfilled job, but non-head jobs enjoy no such guarantee
    (the starvation trade-off discussed in Section 2.2).
    """

    name = "backfill-easy"

    def __init__(self, profile_backend=None, timebase: str = "auto"):
        self.profile_backend = profile_backend
        self.timebase = check_timebase_policy(timebase)

    def _run(self, instance: ReservationInstance) -> Schedule:
        # EASY's shadow-probing loop has no specialised integer core, so
        # the fast path is the generic one: run this same sweep on the
        # integer twin (machine-int arithmetic) and denormalise.
        tb = timebase_for(instance, self.timebase)
        if tb is not None:
            twin = tb.normalize_instance(instance)
            if twin is not instance:
                placed = self._sweep(twin)
                return Schedule(
                    instance, tb.denormalize_starts(placed.starts)
                )
        return self._sweep(instance)

    def _sweep(self, instance: ReservationInstance) -> Schedule:
        jobs = sorted(instance.jobs, key=lambda j: j.release)
        profile = instance.availability_profile(self.profile_backend)
        starts: Dict = {}
        pending: List = list(jobs)

        events: List = [0]
        events.extend(job.release for job in jobs if job.release > 0)
        events.extend(t for t in profile.breakpoints if t > 0)
        heapq.heapify(events)

        last_time = None
        guard = 0
        max_iterations = 4 * (len(jobs) + len(events) + 4) * (len(jobs) + 1)
        while pending:
            guard += 1
            if guard > max_iterations or not events:
                raise SchedulingError(
                    f"EASY backfilling failed to place {len(pending)} job(s)"
                )
            t = heapq.heappop(events)
            if last_time is not None and t == last_time:
                continue
            last_time = t

            # Phase 1: start ready queue heads while they fit right now.
            while pending:
                head = next((j for j in pending if j.release <= t), None)
                if head is None or not profile.fits(head.q, t, head.p):
                    break
                profile.reserve(t, head.p, head.q)
                starts[head.id] = t
                heapq.heappush(events, t + head.p)
                pending.remove(head)
            if not pending:
                break

            # Phase 2: shadow-reserve the head, then backfill around it.
            head = next((j for j in pending if j.release <= t), None)
            if head is None:
                continue  # nothing released yet; wait for a release event
            s_head = profile.earliest_fit(
                head.q, head.p, after=max(t, head.release)
            )
            if s_head is None:
                raise SchedulingError(
                    f"job {head.id!r} (q={head.q}) never fits in the profile"
                )
            profile.reserve(s_head, head.p, head.q)
            backfilled: List = []
            for job in pending:
                if job is head or job.release > t:
                    continue
                if profile.fits(job.q, t, job.p):
                    profile.reserve(t, job.p, job.q)
                    starts[job.id] = t
                    heapq.heappush(events, t + job.p)
                    backfilled.append(job)
            profile.add(s_head, head.p, head.q)
            for job in backfilled:
                pending.remove(job)
        return Schedule(instance, starts)


def conservative_backfill(
    instance, priority=None, profile_backend=None, timebase: str = "auto"
) -> Schedule:
    """Convenience wrapper: conservative backfilling."""
    return ConservativeBackfillScheduler(
        priority, profile_backend=profile_backend, timebase=timebase
    ).schedule(instance)


def easy_backfill(instance, profile_backend=None, timebase: str = "auto") -> Schedule:
    """Convenience wrapper: EASY backfilling."""
    return EasyBackfillScheduler(
        profile_backend=profile_backend, timebase=timebase
    ).schedule(instance)


register("backfill-cons", ConservativeBackfillScheduler)
register("backfill-easy", EasyBackfillScheduler)
# The paper, Section 2.2: the most aggressive backfilling *is* LSRC.
register("backfill-aggressive", ListScheduler)
