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
Two engines compute the *same* schedule;
:meth:`~repro.algorithms.base.Scheduler.schedule` picks one by the
``timebase`` policy:

* the **exact reference sweep** (:meth:`ListScheduler._run`, run under
  ``timebase="exact"`` and on instances the policy keeps off the grid):
  decision points are time 0, every distinct release time, every
  availability-profile breakpoint, and every job completion.  Capacity
  between consecutive decision points is constant and the feasible
  window of any job only ever *opens* at such a point, so scanning the
  list once per decision point (in list order, with the profile updated
  as jobs start) implements LSRC exactly.  Runs on any profile backend
  and any exact time type — the transparent implementation the theory
  modules cite.

* the **incremental integer sweep** (:meth:`ListScheduler._run_grid`,
  run on the instance's integer twin under ``timebase="auto"``/``"int"``,
  see :mod:`repro.core.timebase`; it ignores ``profile_backend``): the
  sweep becomes *incremental* —

  - pending jobs live in a due-heap keyed by a cached lower bound on
    their earliest feasible start (an ``earliest_fit`` miss is
    remembered: the profile only ever loses capacity as jobs start, so
    the bound never needs invalidating and the job is not reconsidered
    before it);
  - released pending jobs are bucketed by ``q_i``, and a whole decision
    point is skipped with one ``max_capacity_between`` query when even
    the narrowest pending job cannot fit before the next event;
  - profile breakpoints are *not* decision points at all: the cached
    ``earliest_fit`` wake-ups subsume them (an exchange argument in
    ``tests/test_timebase.py`` checks the schedules stay identical);
  - the profile is an
    :class:`~repro.core.timebase.IntSweepProfile` whose history is
    pruned behind the sweep front, and a placement is one fused
    probe-and-commit (:meth:`~repro.core.timebase.IntSweepProfile.
    try_reserve`).

  Per placed job the incremental sweep does O(1) profile operations on
  the *active* window instead of rescanning the entire pending list at
  every one of O(n + breakpoints) decision points.

:class:`SequentialPlacementScheduler` (and conservative backfilling, its
FIFO-ordered subclass) places with :func:`earliest_fit_placement` on the
same ``IntSweepProfile`` on the integer twin, and on
``instance.availability_profile(profile_backend)`` on the exact path.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from ..core.instance import ReservationInstance
from ..core.schedule import Schedule
from ..core.timebase import IntSweepProfile, check_timebase_policy
from ..errors import SchedulingError
from .base import Scheduler, register
from .priority import PriorityRule, explicit_order, resolve_priority


def incremental_sweep(job_rows: List, profile: IntSweepProfile) -> Dict:
    """LSRC by incremental sweep on an integer-grid profile.

    ``job_rows`` is the priority-ordered list ``[(release, p, q, id)]``
    (all times on the grid).  Returns ``{id: start}``.

    Equivalence with the reference sweep rests on monotonicity: placed
    jobs only *remove* capacity, so an ``earliest_fit`` computed against
    any earlier profile state lower-bounds the job's true earliest start
    forever — a job cached as "not before ``s``" need not be looked at
    again until time ``s``, and its wake-up chain (recompute on each
    miss) provably terminates exactly at the reference start time.
    """
    n = len(job_rows)
    starts: Dict = {}
    if n == 0:
        return starts
    # Arrival order (stable on release ties = list order); the due-heap
    # holds released-but-unplaced jobs keyed by their cached bound.
    arrivals = sorted(range(n), key=lambda i: (job_rows[i][0], i))
    ai = 0
    due: List = []  # (cached earliest-possible start, list index)
    bucket_count: Dict[int, int] = {}  # q -> released pending jobs
    events: List = sorted({0, *(row[0] for row in job_rows)})
    placed = 0
    guard = 0
    max_iterations = 4 * (2 * n + 4) * (n + 1)
    while placed < n:
        guard += 1
        if guard > max_iterations or not events:
            raise SchedulingError(
                f"LSRC failed to place {n - placed} job(s); "
                "the instance admits no feasible placement for them "
                "(a job wider than the machine's eventual capacity?)"
            )
        t = heapq.heappop(events)
        while events and events[0] == t:  # collapse duplicate events
            heapq.heappop(events)
        while ai < n and job_rows[arrivals[ai]][0] <= t:
            i = arrivals[ai]
            ai += 1
            q = job_rows[i][2]
            bucket_count[q] = bucket_count.get(q, 0) + 1
            heapq.heappush(due, (job_rows[i][0], i))
        if not due or due[0][0] > t:
            continue  # nothing can possibly start before its cached bound
        # Skip the scan entirely when no pending width fits before the
        # next decision point (one windowed query instead of a rescan).
        if events and profile.max_capacity_between(t, events[0]) < min(
            bucket_count
        ):
            continue
        candidates: List[int] = []
        while due and due[0][0] <= t:
            candidates.append(heapq.heappop(due)[1])
        candidates.sort()  # scan in list order — LSRC's defining rule
        cap_now = profile.capacity_at(t)
        for i in candidates:
            _release, p, q, jid = job_rows[i]
            if q <= cap_now and profile.try_reserve(t, p, q):
                starts[jid] = t
                placed += 1
                cap_now -= q  # the committed window starts at t
                heapq.heappush(events, t + p)
                remaining = bucket_count[q] - 1
                if remaining:
                    bucket_count[q] = remaining
                else:
                    del bucket_count[q]
            else:
                s = profile.earliest_fit(q, p, after=t)
                if s is None:
                    raise SchedulingError(
                        f"job {jid!r} (q={q}) never fits in the profile"
                    )
                heapq.heappush(due, (s, i))
                heapq.heappush(events, s)
        profile.prune_before(t)
    return starts


class ListScheduler(Scheduler):
    """LSRC with a configurable list order.

    Parameters
    ----------
    priority:
        ``None`` (keep instance order), a rule name from
        :mod:`repro.algorithms.priority` (for example ``"lpt"``), or a
        callable ``jobs -> ordered jobs``.
    profile_backend:
        Availability-profile backend (``"list"``/``"array"``/class);
        ``None`` means ``"list"``.  Only the exact reference sweep
        consults it — the incremental integer sweep always runs on an
        :class:`~repro.core.timebase.IntSweepProfile`, whose pruning the
        backends cannot offer.
    timebase:
        ``"auto"`` (default) runs the incremental integer sweep whenever
        the instance's times normalise exactly (ints/Fractions) and the
        exact reference sweep otherwise; ``"int"`` additionally forces
        float-timed instances onto the grid; ``"exact"`` always runs the
        reference sweep.
    """

    def __init__(
        self,
        priority: Optional[PriorityRule | str] = None,
        profile_backend=None,
        timebase: str = "auto",
    ):
        self._order, self.name = resolve_priority(priority, "lsrc", list)
        self.profile_backend = profile_backend
        self.timebase = check_timebase_policy(timebase)

    def _run_grid(self, instance: ReservationInstance) -> Schedule:
        """The incremental integer sweep."""
        rows = [(j.release, j.p, j.q, j.id) for j in self._order(instance.jobs)]
        profile = IntSweepProfile(*instance.availability_lists())
        return Schedule(instance, incremental_sweep(rows, profile))

    def _run(self, instance: ReservationInstance) -> Schedule:
        """The exact reference sweep."""
        jobs = self._order(instance.jobs)
        profile = instance.availability_profile(self.profile_backend)
        starts: Dict = {}
        pending: List = list(jobs)

        # Initial decision points: time 0, releases, profile breakpoints.
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
        return Schedule(instance, starts)


class SequentialPlacementScheduler(Scheduler):
    """Place jobs one at a time at their earliest feasible start, in list
    order, never revisiting earlier placements.

    This is *conservative backfilling's* placement engine exposed as a
    standalone scheduler (the proof device used throughout the paper's
    Section 4 transformations; also the serial schedule-generation scheme
    of the exact solver).  Unlike LSRC it can leave a hole that a
    later-listed job could have filled at an earlier time.

    ``profile_backend`` picks the exact path's profile; on the integer
    twin ``None`` places on an
    :class:`~repro.core.timebase.IntSweepProfile` (see
    :func:`grid_profile`).
    """

    #: Name under ``priority=None``, and the list order it keeps.
    base_name = "seq"
    default_order = staticmethod(list)

    def __init__(
        self,
        priority: Optional[PriorityRule | str] = None,
        profile_backend=None,
        timebase: str = "auto",
    ):
        self._order, self.name = resolve_priority(
            priority, self.base_name, self.default_order
        )
        self.profile_backend = profile_backend
        self.timebase = check_timebase_policy(timebase)

    def _run_grid(self, instance: ReservationInstance) -> Schedule:
        return earliest_fit_placement(
            instance,
            self._order(instance.jobs),
            grid_profile(instance, self.profile_backend),
        )

    def _run(self, instance: ReservationInstance) -> Schedule:
        return earliest_fit_placement(
            instance,
            self._order(instance.jobs),
            instance.availability_profile(self.profile_backend),
        )


def grid_profile(instance: ReservationInstance, profile_backend):
    """The profile a scheduler places on when it runs on an integer twin:
    an :class:`~repro.core.timebase.IntSweepProfile` when no backend was
    named, otherwise ``instance.availability_profile(profile_backend)``
    (so a ``profile_backends`` experiment factor still reaches the
    grid path)."""
    if profile_backend is None:
        return IntSweepProfile(*instance.availability_lists())
    return instance.availability_profile(profile_backend)


def earliest_fit_placement(
    instance: ReservationInstance, jobs: Sequence, profile
) -> Schedule:
    """Place ``jobs`` in list order, each at its earliest feasible start
    on ``profile`` (a fresh availability profile of ``instance``), never
    revisiting an earlier placement — conservative backfilling's engine.
    """
    starts: Dict = {}
    for job in jobs:
        s = profile.earliest_fit(job.q, job.p, after=job.release)
        if s is None:
            raise SchedulingError(
                f"job {job.id!r} (q={job.q}) never fits in the profile"
            )
        profile.reserve(s, job.p, job.q)
        starts[job.id] = s
    return Schedule(instance, starts)


def list_schedule(
    instance,
    priority: Optional[PriorityRule | str] = None,
    order: Optional[Sequence] = None,
    profile_backend=None,
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
    return ListScheduler(
        priority, profile_backend=profile_backend, timebase=timebase
    ).schedule(instance)


register("lsrc", ListScheduler)
register("lsrc-lpt", lambda: ListScheduler("lpt"))
register("lsrc-spt", lambda: ListScheduler("spt"))
register("lsrc-laf", lambda: ListScheduler("laf"))
register("lsrc-widest", lambda: ListScheduler("widest"))
register("seq", SequentialPlacementScheduler)
