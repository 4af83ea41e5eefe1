"""Shared fixtures and reference implementations for the test suite.

The reference implementations here are deliberately naive (dictionaries
of sampled times, quadratic scans) so they share no code — and therefore
no bugs — with the production data structures they validate.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from functools import partial
from typing import Tuple

import pytest

from repro.algorithms import get_rule
from repro.algorithms.list_scheduling import reference_lsrc
from repro.core import (
    Job,
    Reservation,
    ReservationInstance,
    RigidInstance,
    as_reservation_instance,
)
from repro.core.profiles import ListProfile
from repro.workloads.uncertainty import UncertaintyModel


# ---------------------------------------------------------------------------
# reference (naive) capacity model
# ---------------------------------------------------------------------------

class NaiveCapacity:
    """Capacity over time as an explicit list of (start, end, amount) holds.

    Query cost is O(holds); used to cross-check ResourceProfile.
    """

    def __init__(self, m: int):
        self.m = m
        self.holds = []  # (start, end, amount)

    def reserve(self, start, duration, amount):
        self.holds.append((start, start + duration, amount))

    def release(self, start, duration, amount):
        self.holds.append((start, start + duration, -amount))

    def capacity_at(self, t):
        used = sum(a for (s, e, a) in self.holds if s <= t < e)
        return self.m - used

    def min_capacity(self, start, end):
        # capacity changes only at hold boundaries: sample each boundary in
        # [start, end) plus start itself
        points = {start}
        for s, e, _ in self.holds:
            if start < s < end:
                points.add(s)
            if start < e < end:
                points.add(e)
        return min(self.capacity_at(p) for p in points)

    def earliest_fit(self, q, duration, after=0):
        # candidate starts: `after` and every hold boundary after it
        points = {after}
        for s, e, _ in self.holds:
            if s > after:
                points.add(s)
            if e > after:
                points.add(e)
        for p in sorted(points):
            if self.min_capacity(p, p + duration) >= q:
                return p
        return None  # pragma: no cover - capacity returns to m eventually


@pytest.fixture
def naive_capacity():
    return NaiveCapacity


# ---------------------------------------------------------------------------
# the reference profile, swapped in under a scheduler
# ---------------------------------------------------------------------------

def _reference_availability_profile(self):
    return ListProfile(*self._master_profile.as_lists())


@contextlib.contextmanager
def on_reference_profile():
    """Within the block, every instance's availability profile is the
    reference :class:`ListProfile` instead of the kernel, so an offline
    scheduler run inside it places on the reference.  The library has
    no knob for this: the differential tests are its only user."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReservationInstance, "availability_profile",
                      _reference_availability_profile)
        yield


@pytest.fixture
def reference_profile():
    """The :func:`on_reference_profile` context manager."""
    return on_reference_profile


# ---------------------------------------------------------------------------
# canonical small instances
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny_rigid() -> RigidInstance:
    """4 machines, 4 jobs; optimal makespan is 5 (hand-checkable)."""
    return RigidInstance.from_specs(
        4, [(3, 2), (2, 1), (4, 2), (1, 4)], name="tiny"
    )


@pytest.fixture
def tiny_resa() -> ReservationInstance:
    """The tiny instance plus a 2-wide reservation on [2, 4)."""
    return ReservationInstance.from_specs(
        4, [(3, 2), (2, 1), (4, 2), (1, 4)], [(2, 2, 2)], name="tiny+res"
    )


@pytest.fixture
def single_machine_holes() -> ReservationInstance:
    """m = 1 with two unit holes — the Figure 1 shape in miniature."""
    return ReservationInstance.from_specs(
        1,
        [(2, 1), (1, 1), (3, 1)],
        [(3, 1, 1), (7, 1, 1)],
        name="m1-holes",
    )


def random_rigid(seed: int, n=None, m=None) -> RigidInstance:
    """Seeded random rigid instance for property-style loops in tests."""
    rng = random.Random(seed)
    m = m or rng.choice([2, 3, 4, 8, 16])
    n = n or rng.randint(1, 12)
    jobs = [
        Job(id=i, p=rng.randint(1, 9), q=rng.randint(1, m)) for i in range(n)
    ]
    return RigidInstance(m=m, jobs=tuple(jobs), name=f"rand{seed}")


def random_resa(seed: int, n=None, m=None, n_res=None) -> ReservationInstance:
    """Seeded random instance with feasible, α-compatible reservations.

    Reservation widths stay at most ``m - qmax`` over any overlap by
    admitting candidates against a budget profile, mirroring (in a
    simplified way) how production systems cap the reservation feature.
    """
    from repro.core import ResourceProfile

    rng = random.Random(seed + 10_000)
    m = m or rng.choice([2, 4, 8, 16])
    n = n or rng.randint(1, 10)
    jobs = [
        Job(id=i, p=rng.randint(1, 9), q=rng.randint(1, max(1, m // 2)))
        for i in range(n)
    ]
    qmax = max(j.q for j in jobs)
    budget = m - qmax
    reservations = []
    if budget >= 1:
        room = ResourceProfile.constant(budget)
        n_res = n_res if n_res is not None else rng.randint(0, 4)
        for r in range(n_res):
            start = rng.randint(0, 30)
            dur = rng.randint(1, 10)
            avail = room.min_capacity(start, start + dur)
            if avail < 1:
                continue
            q = rng.randint(1, avail)
            room.reserve(start, dur, q)
            reservations.append(Reservation(id=f"r{r}", start=start, p=dur, q=q))
    return ReservationInstance(
        m=m, jobs=tuple(jobs), reservations=tuple(reservations),
        name=f"randres{seed}",
    )


def reference_starts(instance, priority=None):
    """LSRC's starts by the exact reference sweep, in the list order
    ``ListScheduler(priority)`` keeps."""
    jobs = list(instance.jobs) if priority is None else get_rule(priority)(
        instance.jobs
    )
    return reference_lsrc(instance, jobs)


def sparse_rows(seed, n_bursts):
    """``(gap, runtime, procs)`` rows of a sparse trace: ``n_bursts``
    bursts of arrivals apart by gaps longer than any runtime estimate,
    so the queue keeps emptying and the fast loop's shortcuts run — the
    lone arrival's one probe (one-job bursts) and the completion step
    carrying on over an empty queue (under a runtime model, with
    failures, tail credits and grace extensions inside it and requeue
    and no-show wakes that must end it).  Estimates cluster on a few
    values, so the jobs of a burst often share an end and exit early at
    different times; dense random traces almost never empty the queue.

    The trace is expanded from two small integers, so a failing
    example shrinks over those (a few dozen whole replays) instead of
    over a list of jobs."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_bursts):
        gap = rng.choice([30, 70, 130])  # gap before the burst
        for k in range(rng.randint(1, 4)):
            rows.append((
                gap if k == 0 else rng.choice([0, 0, 1, 2]),  # gap in it
                rng.choice([2, 5, 10, 10, 10, 20, 25]),       # estimate
                rng.randint(1, 10),                           # processors
            ))
    return rows


# ---------------------------------------------------------------------------
# checkpoint chaining
# ---------------------------------------------------------------------------

def replay_chained(jobs, interval, m, store=None, **engine_kwargs):
    """Replay ``jobs`` as a chain of ``run_slice`` calls cut like the
    journaled driver cuts them, each engine resumed from its
    predecessor's checkpoint after a pickle round trip (the
    journal-snapshot format).  Returns a result stitched from the
    slices: the final slice's totals, every slice's window rows and
    the union of their recorded starts."""
    import pickle

    from repro.durability.journaled import _chunk_stream
    from repro.simulation.replay import ReplayEngine

    ckpt = None
    windows = []
    starts = None
    result = None
    for chunk, final in _chunk_stream(jobs, interval):
        engine = ReplayEngine(m, store=store, **engine_kwargs)
        result = engine.run_slice(chunk, resume=ckpt, drain=final)
        if result.starts is not None:
            starts = {**(starts or {}), **result.starts}
        if not final:
            windows.extend(result.windows)
            ckpt = pickle.loads(pickle.dumps(result.checkpoint))
    result.windows = windows + result.windows
    result.starts = starts
    return result


# ---------------------------------------------------------------------------
# online references: the tick-stepped oracle and the policy protocol
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffsetModel(UncertaintyModel):
    """Each attempt runs its estimate plus one of ``offsets`` (at least
    one tick), picked by the attempt's first uniform: early exits, exact
    runs and overruns in proportions the test chooses."""

    offsets: Tuple[int, ...] = (0,)

    def _actual(self, rng, p):
        offset = self.offsets[int(rng.random() * len(self.offsets))]
        return max(1, p + offset)


class _Running:
    """One attempt holding ``q`` processors over ``[hold_from, hold_to)``
    whose fate ``kind`` is due at ``event``."""

    __slots__ = ("job", "hold_from", "hold_to", "event", "kind",
                 "actual_end", "seq")

    def __init__(self, job, hold_from, hold_to, event, kind, actual_end, seq):
        self.job = job
        self.hold_from = hold_from
        self.hold_to = hold_to
        self.event = event
        self.kind = kind
        self.actual_end = actual_end
        self.seq = seq


def tick_replay(m, policy, jobs, holes, model=None, max_ticks=10_000):
    """Replay ``jobs`` (release order) around the reservation ``holes``
    (``(start, p, q)``, accepted in order) one integer tick at a time;
    returns the observable outcome as a dict.  ``model`` is the runtime
    model (``None``: every job runs its estimate).

    The scheduler core decides only at event times; this oracle decides
    at every tick, so by Yao & Zhang's significant-moment argument it
    checks that the core misses no moment.  At each tick it applies the
    fates due then (in the order they were scheduled), the no-show
    releases, the requeue re-entries and the arrivals; then it rebuilds
    the availability profile from scratch — ``m``, minus the holes still
    standing, minus every running job up to its estimated (or
    grace-extended) end — and applies the textbook rule: FCFS starts
    queue heads while they fit; greedy (LSRC run online) starts every
    queued job that fits, in queue order; EASY starts heads while they
    fit, reserves the blocked head at its earliest fit and backfills, in
    queue order, each job that fits now on the profile holding that
    reservation; conservative reserves every queued job, in queue order,
    at its earliest fit on the profile holding the reservations before
    it, and starts the jobs whose reservation is the current tick."""
    if model is None:
        model = UncertaintyModel(model="exact")
    no_show = [
        model.no_show_rate > 0.0 and model.is_no_show(i)
        for i in range(len(holes))
    ]
    standing = list(range(len(holes)))
    arrivals = list(jobs)
    queue = []
    running = []
    requeue = {}
    attempts = {}
    out = dict(starts={}, kills=0, requeues=0, early_exits=0, no_shows=0,
               completed=0, last_completion=0)
    seq = 0

    def capacity(tau, extra=()):
        used = sum(holes[h][2] for h in standing
                   if holes[h][0] <= tau < holes[h][0] + holes[h][1])
        used += sum(r.job.q for r in running
                    if r.hold_from <= tau < r.hold_to)
        used += sum(q for s, e, q in extra if s <= tau < e)
        return m - used

    def fits(q, s, p, extra=()):
        return all(capacity(tau, extra) >= q for tau in range(s, s + p))

    def earliest_fit(job, extra=()):
        s = t
        while not fits(job.q, s, job.p, extra):
            s += 1
        return s

    def start(job, t):
        nonlocal seq
        actual, fail_at = model.draw(job.id, job.p, attempts.get(job.id, 0))
        est_end = t + job.p
        if fail_at is not None:
            event, kind = t + fail_at, "fail"
        elif actual < job.p:
            event, kind = t + actual, "early"
        elif actual > job.p:
            event, kind = est_end, model.overrun
        else:
            event, kind = est_end, "done"
        seq += 1
        running.append(_Running(job, t, est_end, event, kind, t + actual, seq))
        queue.remove(job)
        out["starts"][job.id] = t

    def complete(t):
        out["completed"] += 1
        out["last_completion"] = t

    t = 0
    # a no-show still standing is released at its start, even when no
    # job is left by then (the core's wake bucket is an event too)
    while (arrivals or queue or running or requeue
           or any(no_show[h] for h in standing)):
        assert t < max_ticks, "the tick replay does not terminate"
        # 1. the fates due now, in the order they were scheduled
        for r in sorted((r for r in running if r.event == t),
                        key=lambda r: r.seq):
            running.remove(r)
            job = r.job
            if r.kind == "fail":
                attempts[job.id] = attempts.get(job.id, 0) + 1
                out["requeues"] += 1
                requeue.setdefault(t + model.backoff, []).append(job)
                continue
            if r.kind == "grace":
                end = min(r.actual_end, t + model.grace_budget(job.p))
                if fits(job.q, t, end - t):
                    seq += 1
                    kind = "kill" if end < r.actual_end else "done"
                    running.append(
                        _Running(job, t, end, end, kind, r.actual_end, seq)
                    )
                    continue
                out["kills"] += 1
            elif r.kind == "kill":
                out["kills"] += 1
            elif r.kind == "early":
                out["early_exits"] += 1
            attempts.pop(job.id, None)
            complete(t)
        # 2. no-show holes release their capacity at their start
        for h in list(standing):
            if no_show[h] and holes[h][0] == t:
                standing.remove(h)
                out["no_shows"] += 1
        # 3. failed jobs re-enter the queue, then arrivals join it
        queue.extend(requeue.pop(t, ()))
        while arrivals and arrivals[0].release == t:
            queue.append(arrivals.pop(0))
        # 4. the textbook rule on the profile as it stands at tick t
        if policy == "conservative":
            held = []
            plan = []
            for job in queue:
                s = earliest_fit(job, held)
                held.append((s, s + job.p, job.q))
                plan.append((job, s))
            for job, s in plan:
                if s == t:
                    start(job, t)
        elif policy == "greedy":
            for job in list(queue):
                if fits(job.q, t, job.p):
                    start(job, t)
        else:
            while queue and fits(queue[0].q, t, queue[0].p):
                start(queue[0], t)
        if policy == "easy" and len(queue) > 1:
            head = queue[0]
            shadow = earliest_fit(head)
            held = ((shadow, shadow + head.p, head.q),)
            for job in list(queue[1:]):
                if fits(job.q, t, job.p, held):
                    start(job, t)
        t += 1
    return out


def protocol_schedule(instance, policy, timebase="auto"):
    """``instance`` run online through the scheduler core's policy
    protocol: the registered policy function wrapped, so the core runs
    it through ``decide(core, now)`` instead of its inlined pass (the
    reference the inlined passes are pinned to).  Holes are reserved
    up front and jobs submitted in release order, as
    :func:`repro.simulation.simulate` does."""
    from repro.core.job import reservation_block
    from repro.core.schedule import Schedule
    from repro.core.timebase import run_on_grid
    from repro.simulation import POLICIES, SchedulerCore

    decide = partial(POLICIES.get(policy))

    def run(inst):
        core = SchedulerCore(inst.m, policy, window=0, record_starts=True,
                             decide=decide)
        for res in inst.reservations:
            core.reserve(*reservation_block(res))
        for job in sorted(inst.jobs, key=lambda j: j.release):
            core.submit(job)
        core.drain()
        return Schedule(inst, core.starts)

    return run_on_grid(as_reservation_instance(instance), timebase, run)
