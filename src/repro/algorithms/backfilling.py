"""Backfilling policies: conservative and EASY (Section 2.2).

Production batch schedulers temper FCFS's resource waste with
*backfilling*: letting a job jump the queue when doing so provably (or
probably) harms nobody.  The paper discusses the spectrum:

* **conservative backfilling** — every job is placed at the earliest time
  that does not delay *any previously scheduled* job.  Offline this is a
  single pass over the queue placing each job at its profile's
  ``earliest_fit``
  (:func:`~repro.algorithms.list_scheduling.earliest_fit_placement`);
* **EASY backfilling** — only the queue *head* gets a guaranteed
  reservation; any other ready job may start now if it does not push the
  head's reserved start back;
* **aggressive backfilling** — any job may start whenever it fits; the
  paper notes this "is exactly the same as the initial definition of List
  Scheduling ... of Garey and Graham", i.e.
  :class:`~repro.algorithms.list_scheduling.ListScheduler` (registered
  here under the alias ``backfill-aggressive``).

Both schedulers run on the instance's integer twin by default
(``timebase="auto"``, see :mod:`repro.core.timebase`).  Conservative
backfilling is ``seq``'s placement engine and places on the instance's
availability profile.  EASY has no event loop of its own: it
drives :class:`~repro.simulation.scheduler_core.SchedulerCore`, the loop
behind replay and ``repro serve``, whose inlined EASY pass is the one
fast implementation of the policy.
"""

from __future__ import annotations

from ..core.instance import ReservationInstance
from ..core.job import reservation_block
from ..core.schedule import Schedule
from ..core.timebase import check_timebase_policy
from .base import Scheduler, register
from .list_scheduling import ListScheduler, SequentialPlacementScheduler
from .priority import fifo


class ConservativeBackfillScheduler(SequentialPlacementScheduler):
    """Conservative backfilling: earliest-fit placement in queue order.

    Every job receives a firm start-time reservation when it is considered;
    later jobs may slide into earlier holes but can never displace an
    existing reservation — the paper's example of the non-aggressive
    variant ("task y could not have been scheduled earlier, even if x was
    not present").  The engine is ``seq``'s
    (:class:`~repro.algorithms.list_scheduling.SequentialPlacementScheduler`),
    in FIFO (release) order by default.
    """

    base_name = "backfill-cons"
    default_order = staticmethod(fifo)


class EasyBackfillScheduler(Scheduler):
    """EASY (aggressive-head) backfilling.

    Event-driven: at every decision point, (1) start queue heads while they
    fit, (2) compute the head's earliest start and pencil it in as a
    *shadow* reservation, (3) start any later ready job that fits now
    against the shadow, (4) erase the shadow.  The head is therefore never
    delayed by a backfilled job, but non-head jobs enjoy no such guarantee
    (the starvation trade-off discussed in Section 2.2).

    The pass is the scheduler core's
    (:class:`~repro.simulation.scheduler_core.SchedulerCore`, the loop
    replay and ``repro serve`` run): the instance's reservations become
    holes, its jobs arrive in release order, and the core drains.
    """

    name = "backfill-easy"

    def __init__(self, timebase: str = "auto"):
        self.timebase = check_timebase_policy(timebase)

    def _run(self, instance: ReservationInstance) -> Schedule:
        # imported here: `import repro.algorithms` loads no simulation
        # module (offline runs time their imports)
        from ..simulation.scheduler_core import SchedulerCore

        core = SchedulerCore(instance.m, "easy", window=0, record_starts=True)
        for res in instance.reservations:
            core.reserve(*reservation_block(res))
        for job in sorted(instance.jobs, key=lambda j: j.release):
            core.submit(job)
        core.drain()
        return Schedule(instance, core.starts)


def conservative_backfill(
    instance, priority=None, timebase: str = "auto"
) -> Schedule:
    """Convenience wrapper: conservative backfilling."""
    return ConservativeBackfillScheduler(
        priority, timebase=timebase
    ).schedule(instance)


def easy_backfill(instance, timebase: str = "auto") -> Schedule:
    """Convenience wrapper: EASY backfilling."""
    return EasyBackfillScheduler(timebase=timebase).schedule(instance)


register("backfill-cons", ConservativeBackfillScheduler)
register("backfill-easy", EasyBackfillScheduler)
# The paper, Section 2.2: the most aggressive backfilling *is* LSRC.
register("backfill-aggressive", ListScheduler)
