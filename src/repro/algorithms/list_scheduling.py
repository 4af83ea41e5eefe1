"""LSRC — list scheduling with resource constraints (Garey & Graham).

The paper's central algorithm (Section 2.2): keep the jobs in a list;
whenever processors free up, scan the list and start every job that can
run *now*.  With parallel rigid jobs this is exactly the most aggressive
variant of backfilling, and it is the only policy analysed in the paper
because it is the one with worst-case guarantees:

* no reservations: ``Cmax <= (2 - 1/m) C*max``  (Theorem 2, appendix);
* non-increasing reservations: ``Cmax <= (2 - 1/m(C*max)) C*max``
  (Proposition 1);
* α-restricted reservations: ``Cmax <= (2/α) C*max``  (Proposition 3).

Semantics in the presence of reservations
-----------------------------------------
A job "fits now" at time ``t`` when the availability profile (machine
minus reservations minus already-started jobs) stays at or above ``q_i``
throughout ``[t, t + p_i)``: jobs are not preemptible, so starting a job
that would collide with a future reservation is forbidden, not merely
undesirable.  This is the semantics under which the paper's Proposition 2
adversarial family produces its ``2/α - 1 + α/2`` ratio, which our
benchmark reproduces exactly.

The greedy property that drives all the proofs (Lemma 1) holds by
construction: if a job is not running at time ``t`` although it is ready,
then it did not fit at ``t`` against the jobs and reservations present.

Implementation
--------------
One engine, :func:`incremental_sweep`, runs LSRC on every time type:
on the integer twin under ``timebase="auto"``/``"int"`` (see
:mod:`repro.core.timebase`) and on the instance's own int, ``Fraction``
or ``float`` times otherwise.  The policy picks the arithmetic, never
the algorithm.

* **Release run.**  Releases come off one run of list indices sorted
  once by (release, list index), walked by a cursor.
* **One probe.**  While no job is ready and no sleeper is due at the
  next release ``t``, the released job is the first in list order that
  could start at ``t`` (jobs released with it come later in the list),
  so one ``try_reserve``, screened by ``capacity_at(t)``, decides it.
  If the probe fails, the job joins the merge below with everything
  else due at ``t``: a width above capacity waits as ready, and a hole
  collision goes to sleep at once, as the merge would have sent it,
  without a second probe.
* **Width index.**  Otherwise released, unplaced jobs are *ready*, held
  in one heap of list indices per width ``q``, or *asleep*.  At a
  decision point ``t`` only the widths with ``q <= capacity_at(t)`` are
  merged, in list order (LSRC's rule); each commit lowers the running
  capacity, and a width leaves the merge once it exceeds it.  A ready
  job that is wider than what is free costs nothing until its width
  can fit.
* **Sleepers.**  A job that fits by width but whose window collides
  with a hole later on gets one ``earliest_fit`` and sleeps, in one
  bound heap, until that bound.
* **Lazy wake.**  When a scan leaves a ready width still too wide, one
  wake is scheduled at ``earliest_fit(min(ready widths), pmin,
  after=t)``, where ``pmin`` is the shortest runtime in the list: the
  first instant a window as long as any job's holds the narrowest
  waiting width.  ``None`` there means that job can never run, and the
  sweep raises :class:`~repro.errors.SchedulingError` at once.  The
  decision points are releases, sleepers' bounds and that wake, never
  the completions themselves.
* **Soundness.**  Capacity only rises at profile breakpoints, and
  placements only *remove* capacity.  So an ``earliest_fit`` taken
  against an earlier profile state is a lower bound on every later
  answer: a sleeper cannot start before its bound, and no ready job
  can start before the lazy wake, since its width is at least the one
  the wake waits for and its window at least ``pmin`` long.  Nothing
  here needs a grid: ``earliest_fit`` and ``try_reserve`` test the same
  window ``[s, s + p)``, with the same rounded ``s + p`` on float
  times, so a bound ``earliest_fit`` returns is one ``try_reserve``
  accepts until a placement takes the room.  On the grid ``pmin >= 1``,
  so the wake is never earlier than the first integer tick at which the
  width fits.  Every instant at which LSRC starts a job is therefore a
  decision point here, and at it the same jobs are tried in the same
  order against the same profile.
* The profile is the kernel :class:`~repro.core.profiles.ArrayProfile`,
  pruned behind the sweep front, and a placement is one fused
  probe-and-commit (:meth:`~repro.core.profiles.ArrayProfile.try_reserve`).

A job that starts at its release while nothing else waits costs one
capacity screen, one ``try_reserve`` and no heap operation; a waiting
job costs
one ``earliest_fit`` per collision with a hole, not one per event while
it waits, and a scan touches only the widths that fit.
:func:`reference_lsrc` is the transparent oracle the tests and
``repro bench core-throughput`` hold the sweep to: decision points are
time 0, every release, every profile breakpoint and every completion,
and the whole pending list is rescanned at each of them.  No scheduler
runs it.

:class:`SequentialPlacementScheduler` (and conservative backfilling, its
FIFO-ordered subclass) places with :func:`earliest_fit_placement` on the
instance's availability profile (the kernel ``ArrayProfile``), on the
integer twin and on the exact path alike: one
:meth:`~repro.core.profiles.ArrayProfile.reserve_earliest` scan per job.
(EASY backfilling places through the scheduler core instead, see
:mod:`repro.algorithms.backfilling`.)
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from ..core.instance import ReservationInstance
from ..core.schedule import Schedule
from ..core.profiles import ArrayProfile
from ..core.timebase import check_timebase_policy
from ..errors import SchedulingError
from .base import Scheduler, register
from .priority import PriorityRule, explicit_order, resolve_priority


def incremental_sweep(job_rows: List, profile: ArrayProfile) -> Dict:
    """LSRC by incremental sweep on ``profile``, any time type.

    ``job_rows`` is the priority-ordered list ``[(release, p, q, id)]``.
    Returns ``{id: start}``.

    Releases come off one run sorted by (release, list index).  While no
    job is ready and no sleeper is due, a release is decided by one
    capacity-screened ``try_reserve``: it is the first job in list order
    that could start then.  Otherwise released, unplaced jobs are
    *ready* (held by width, each width a heap of list indices) or
    *asleep* until an ``earliest_fit`` bound, and a decision point scans,
    in list order, the ready jobs whose width still fits what is free at
    it; a job that fits by width but whose window collides later goes to
    sleep until its ``earliest_fit``.  Decision points are releases,
    sleepers' bounds, and one lazy wake: the first time a window as long
    as the shortest job holds the narrowest width still ready after a
    scan.  Placed jobs only *remove* capacity, so both kinds of bound
    computed against an earlier profile stay lower bounds: no skipped
    instant could have started a job (see the module docstring).
    """
    n = len(job_rows)
    starts: Dict = {}
    # no job's window is shorter (the default only serves an empty list)
    pmin = min((row[1] for row in job_rows), default=1)
    # list indices by (release, list index): the sort is stable
    run = sorted(range(n), key=[row[0] for row in job_rows].__getitem__)
    r = 0  # run[r:] are not released yet
    asleep: List = []  # (earliest_fit bound, list index) after a collision
    ready: Dict[int, List[int]] = {}  # q -> heap of list indices
    wake = None  # no ready job can start before it (None: none ready)
    wake_q = 0  # the width `wake` was computed for
    try_reserve = profile.try_reserve
    earliest_fit = profile.earliest_fit
    capacity_at = profile.capacity_at
    placed = 0
    while placed < n:
        t = wake
        if asleep and (t is None or asleep[0][0] < t):
            t = asleep[0][0]
        if r < n and (t is None or job_rows[run[r]][0] < t):
            i = run[r]
            t, p, q, jid = job_rows[i]
            if not ready:
                # nothing else is due at t, and later releases at t come
                # later in the list: this job is LSRC's first candidate
                r += 1
                if q > capacity_at(t):
                    ready[q] = [i]
                elif try_reserve(t, p, q):
                    starts[jid] = t
                    placed += 1
                    profile.prune_before(t)
                    continue
                else:  # a hole collision: the merge would sleep it too
                    heapq.heappush(asleep, (_fit(earliest_fit, q, p, t, jid), i))
        due = []
        while r < n and job_rows[run[r]][0] <= t:
            due.append(run[r])
            r += 1
        while asleep and asleep[0][0] <= t:
            due.append(heapq.heappop(asleep)[1])
        for i in due:
            q = job_rows[i][2]
            heap = ready.get(q)
            if heap is None:
                ready[q] = [i]
            else:
                heapq.heappush(heap, i)
        cap = capacity_at(t)
        # merge the heads of the widths that fit, in list order — LSRC's
        # defining rule; a width leaves the merge once it exceeds `cap`
        heads = [(heap[0], q) for q, heap in ready.items() if q <= cap]
        heapq.heapify(heads)
        while heads:
            i, q = heads[0]
            if q > cap:
                heapq.heappop(heads)
                continue
            heap = ready[q]
            heapq.heappop(heap)
            _release, p, _q, jid = job_rows[i]
            if try_reserve(t, p, q):
                starts[jid] = t
                placed += 1
                cap -= q  # the committed window starts at t
            else:
                heapq.heappush(asleep, (_fit(earliest_fit, q, p, t, jid), i))
            if heap:
                heapq.heapreplace(heads, (heap[0], q))
            else:
                heapq.heappop(heads)
                del ready[q]
        if ready:
            # every ready width now exceeds what is free at t; a kept
            # wake computed for a width no wider still comes no later
            q = min(ready)
            if wake is None or wake <= t or wake_q > q:
                wake = _fit(earliest_fit, q, pmin, t, job_rows[ready[q][0]][3])
                wake_q = q
        else:
            wake = None
        profile.prune_before(t)
    return starts


def _fit(earliest_fit, q: int, p, t, jid):
    """``earliest_fit(q, p, after=t)``; ``None`` there means job ``jid``
    can never run, so it raises :class:`SchedulingError` instead."""
    s = earliest_fit(q, p, after=t)
    if s is None:
        raise SchedulingError(f"job {jid!r} (q={q}) never fits in the profile")
    return s


class ListScheduler(Scheduler):
    """LSRC with a configurable list order.

    Parameters
    ----------
    priority:
        ``None`` (keep instance order), a rule name from
        :mod:`repro.algorithms.priority` (for example ``"lpt"``), or a
        callable ``jobs -> ordered jobs``.
    timebase:
        ``"auto"`` (default) runs the sweep on the instance's integer
        twin whenever its times normalise exactly (ints/Fractions) and
        on its own times otherwise; ``"int"`` additionally grids
        float-timed instances; ``"exact"`` always runs on the instance's
        own times.  Every policy runs :func:`incremental_sweep`.
    """

    def __init__(
        self,
        priority: Optional[PriorityRule | str] = None,
        timebase: str = "auto",
    ):
        self._order, self.name = resolve_priority(priority, "lsrc", list)
        self.timebase = check_timebase_policy(timebase)

    def _run(self, instance: ReservationInstance) -> Schedule:
        rows = [(j.release, j.p, j.q, j.id) for j in self._order(instance.jobs)]
        return Schedule(
            instance, incremental_sweep(rows, instance.availability_profile())
        )


def reference_lsrc(instance: ReservationInstance, jobs: Sequence) -> Dict:
    """LSRC by the exact reference sweep: ``{id: start}`` for ``jobs``
    (the instance's jobs in list order).

    Decision points are time 0, every distinct release time, every
    availability-profile breakpoint, and every job completion.  Capacity
    between consecutive decision points is constant and the feasible
    window of any job only ever *opens* at such a point, so scanning the
    list once per decision point (in list order, with the profile
    updated as jobs start) implements LSRC exactly.  The oracle the
    tests and the core-throughput benchmark hold
    :func:`incremental_sweep` to; no scheduler runs it.
    """
    profile = instance.availability_profile()
    starts: Dict = {}
    pending: List = list(jobs)

    # Initial decision points: time 0, releases, profile breakpoints.
    events: List = [0]
    events.extend(job.release for job in pending if job.release > 0)
    events.extend(t for t in profile.breakpoints if t > 0)
    heapq.heapify(events)

    last_time = None
    guard = 0
    max_iterations = 4 * (len(pending) + len(events) + 4) * (len(pending) + 1)
    while pending:
        guard += 1
        if guard > max_iterations or not events:
            raise SchedulingError(
                f"LSRC failed to place {len(pending)} job(s); "
                "the instance admits no feasible placement for them "
                "(a job wider than the machine's eventual capacity?)"
            )
        t = heapq.heappop(events)
        if last_time is not None and t == last_time:
            continue  # duplicate decision point
        last_time = t
        # Single in-order pass: starting a job only removes capacity,
        # so no earlier-listed job can become startable within the pass.
        still_pending: List = []
        cap_now = profile.capacity_at(t)
        for job in pending:
            if job.release <= t and job.q <= cap_now and profile.fits(
                job.q, t, job.p
            ):
                profile.reserve(t, job.p, job.q)
                starts[job.id] = t
                cap_now = profile.capacity_at(t)
                heapq.heappush(events, t + job.p)
            else:
                still_pending.append(job)
        pending = still_pending
    return starts


class SequentialPlacementScheduler(Scheduler):
    """Place jobs one at a time at their earliest feasible start, in list
    order, never revisiting earlier placements.

    This is *conservative backfilling's* placement engine exposed as a
    standalone scheduler (the proof device used throughout the paper's
    Section 4 transformations; also the serial schedule-generation scheme
    of the exact solver).  Unlike LSRC it can leave a hole that a
    later-listed job could have filled at an earlier time.
    """

    #: Name under ``priority=None``, and the list order it keeps.
    base_name = "seq"
    default_order = staticmethod(list)

    def __init__(
        self,
        priority: Optional[PriorityRule | str] = None,
        timebase: str = "auto",
    ):
        self._order, self.name = resolve_priority(
            priority, self.base_name, self.default_order
        )
        self.timebase = check_timebase_policy(timebase)

    def _run(self, instance: ReservationInstance) -> Schedule:
        return earliest_fit_placement(
            instance,
            self._order(instance.jobs),
            instance.availability_profile(),
        )


def earliest_fit_placement(
    instance: ReservationInstance, jobs: Sequence, profile
) -> Schedule:
    """Place ``jobs`` in list order, each at its earliest feasible start
    on ``profile`` (a fresh availability profile of ``instance``), never
    revisiting an earlier placement — conservative backfilling's engine.
    """
    starts: Dict = {}
    reserve_earliest = profile.reserve_earliest
    for job in jobs:
        s = reserve_earliest(job.q, job.p, after=job.release)
        if s is None:
            raise SchedulingError(
                f"job {job.id!r} (q={job.q}) never fits in the profile"
            )
        starts[job.id] = s
    return Schedule(instance, starts)


def list_schedule(
    instance,
    priority: Optional[PriorityRule | str] = None,
    order: Optional[Sequence] = None,
    timebase: str = "auto",
) -> Schedule:
    """Run LSRC on ``instance``.

    ``priority`` selects a rule (see :mod:`repro.algorithms.priority`);
    ``order`` instead pins an explicit job-id order (used to reproduce the
    paper's adversarial list orders).  The two are mutually exclusive.
    """
    if order is not None:
        if priority is not None:
            raise SchedulingError("pass either priority or order, not both")
        priority = explicit_order(order)
    return ListScheduler(priority, timebase=timebase).schedule(instance)


register("lsrc", ListScheduler)
register("lsrc-lpt", lambda: ListScheduler("lpt"))
register("lsrc-spt", lambda: ListScheduler("spt"))
register("lsrc-laf", lambda: ListScheduler("laf"))
register("lsrc-widest", lambda: ListScheduler("widest"))
register("seq", SequentialPlacementScheduler)
