"""The scheduler engine core: the one event loop behind replay, serve
and online simulation.

:class:`SchedulerCore` owns the live availability profile, the
arrived-but-unstarted queue, the in-flight calendar and the
window/total accumulators, and exposes an explicit verb surface:

``submit(job)``
    Stage an arrival.  Releases must be non-decreasing and at or after
    the advanced horizon — the core never time-travels.
``feed(arrivals)``
    Stream a release-ordered arrival iterator through the loop in one
    call, stopping once the last arrival's event time is fully
    processed (the replay driver's verb: release order is checked as
    for ``submit``, id uniqueness is left to the stream).
``advance_to(t)``
    Apply every pending event (completions, staged arrivals, one
    policy decision pass, profile compaction) with event time ``<= t``.
``reserve(start, p, q)``
    Carve a reservation hole out of the live profile.
``cancel(job_id)``
    Withdraw a staged or queued job (running jobs cannot be cancelled).
``drain()``
    Declare the arrival stream finished and run the event loop to
    quiescence, emitting every remaining window row.

:class:`~repro.simulation.replay.ReplayEngine` is a short trace-driving
client of this class (``feed`` then ``drain``, or a checkpoint),
``repro serve`` is another driver feeding the same core from sockets,
and :func:`~repro.simulation.online_sim.simulate` and offline EASY
reserve an instance's holes, submit its jobs and drain.  All run the
same loop, so rows, totals and checkpoints are byte-identical
whichever driver is in front.  At each distinct event
time the loop applies completions, then uncertainty events, then
arrivals, then one policy decision pass, then profile compaction.

The built-in ``fcfs``/``greedy``/``easy`` policies — recognised by the
identity of the resolved policy function — run as passes inlined into
the loop: placement through one
:meth:`~repro.core.profiles.base.ProfileBackend.try_reserve` probe,
EASY's shadow reservation as three window queries, a blocked-head
earliest-fit memo and a capacity-at-now screen.  Two conditions fit
the loop's one completion step and one start step to the operation mix
real traces produce (~95% of event times carry a single arrival): a
completion on an empty queue is no decision moment, so the completion
step goes on to the next completion time while the queue stays empty
and no arrival is due (one compaction for the run in the certain
world; under an uncertainty model each completion's fate is resolved,
a due requeue or no-show release is applied and the profile is
compacted per completion time, as on every other event), and a lone
arrival on an empty queue is decided by one probe and goes from there
straight to the per-start bookkeeping every pass start takes, without
entering the queue.  Any other callable (including a wrapper
re-registered under a built-in name) runs through ``decide(core, now)``
against the policy protocol — ``queue``, ``queue_in_order``,
``can_start_now``, ``start_job``, ``earliest_start`` and ``profile`` —
which is also the reference configuration the differential tests pin
the inlined passes to.

State beyond the :class:`~repro.simulation.replay.ReplayCheckpoint`
(staged future arrivals, the cancel count, the advanced horizon) is
exported by :meth:`SchedulerCore.extra_state` so a live service can
snapshot and restore the *whole* core, not just the replay-visible
part.  The private loop is guarded by the ``RPL503`` lint rule.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..core.job import Job
from ..core.metrics import BSLD_TAU, DEFAULT_SLOWDOWN_THRESHOLD
from ..core.profiles import ResourceProfile
from ..devtools.failpoints import fire
from ..errors import CapacityError, InvalidInstanceError, SchedulingError
from ..workloads.uncertainty import resolve_uncertainty
from .online_sim import POLICIES, policy_easy, policy_fcfs, policy_greedy
from .replay import (
    _CKPT_COUNTERS,
    _WindowAcc,
    DEFAULT_WINDOW,
    ReplayCheckpoint,
    resolve_store,
)

__all__ = ["SchedulerCore"]

#: Largest float: the window rows' metrics are floats of the times' sums.
_FLOAT_MAX = sys.float_info.max

#: The policy functions with a pass inlined into the event loop.
_FAST_PASSES = (
    ("fcfs", policy_fcfs), ("greedy", policy_greedy), ("easy", policy_easy),
)


def resolve_engine_config(m, window, completion_queue, uncertainty,
                          profile_backend="auto"):
    """Validate the knobs :class:`SchedulerCore` and
    :class:`~repro.simulation.replay.ReplayEngine` share; returns the
    live uncertainty model (``None`` in the certain world)."""
    if profile_backend not in ("auto", "list"):
        raise SchedulingError(
            f"profile_backend must be 'auto' (the kernel) or 'list' (the "
            f"reference), got {profile_backend!r}"
        )
    if m < 1:
        raise SchedulingError(f"machine size must be >= 1, got {m!r}")
    if window < 0:
        raise SchedulingError(f"window must be >= 0, got {window!r}")
    if completion_queue not in ("calendar", "heap"):
        raise SchedulingError(
            f"completion_queue must be 'calendar' or 'heap', "
            f"got {completion_queue!r}"
        )
    model = resolve_uncertainty(uncertainty)
    if model is not None and model.is_exact:
        # the degenerate model IS the certain world: dropping it here
        # keeps every downstream byte (rows, checkpoints, gauges)
        # identical to a run with no model at all
        model = None
    if model is not None and completion_queue != "calendar":
        raise SchedulingError(
            "uncertainty models require completion_queue='calendar' "
            "(requeue and no-show wake-ups ride the calendar buckets)"
        )
    return model


def _id_order(item):
    """Sort key of a ``(job id, value)`` pair: ids of one type sort
    natively, and a mix of int and string ids (both valid serve ids)
    sorts ints first instead of raising ``TypeError``."""
    return isinstance(item[0], str), item[0]


def _out_of_order(job: Job, clock) -> SchedulingError:
    return SchedulingError(
        f"job {job.id!r} arrives out of order: release "
        f"{job.release!r} is before the clock at {clock!r}"
    )


class SchedulerCore:
    """Live scheduling state plus the event loop.

    Parameters mirror :class:`~repro.simulation.replay.ReplayEngine`
    (same names, same validation, same defaults) minus
    ``fused_policies``: the core picks its pass from ``decide``.

    ``decide`` optionally injects the policy function directly (an
    embedding convenience, and how the engine pins the function it
    resolved at construction time); by default the name is looked up in
    :data:`~repro.simulation.online_sim.POLICIES`.  The registered
    ``fcfs``/``greedy``/``easy`` functions run as inlined passes; any
    other callable runs through the policy protocol.

    ``completion_queue="heap"`` gives every in-flight job its own heap
    entry instead of one per distinct end time — the per-job reference
    for the calendar queue (no checkpoints, reservations or uncertainty).

    ``resume`` rehydrates a :class:`ReplayCheckpoint` — the calendar
    completion queue is required then, as for sliced replay.
    """

    def __init__(
        self,
        m: int,
        policy: str = "easy",
        *,
        profile_backend: str = "auto",
        window: int = DEFAULT_WINDOW,
        store=None,
        bsld_tau=BSLD_TAU,
        record_starts: bool = False,
        completion_queue: str = "calendar",
        decide: Optional[Callable] = None,
        resume: Optional[ReplayCheckpoint] = None,
        uncertainty=None,
    ):
        model = resolve_engine_config(
            m, window, completion_queue, uncertainty, profile_backend
        )
        if resume is not None and completion_queue != "calendar":
            raise SchedulingError(
                "checkpoints require completion_queue='calendar'"
            )
        if resume is not None and (resume.m, resume.policy, resume.window) != (
            m, policy, window
        ):
            raise SchedulingError(
                f"checkpoint was produced by a different engine config "
                f"(m={resume.m}, policy={resume.policy!r}, "
                f"window={resume.window}); this engine has m={m}, "
                f"policy={policy!r}, window={window}"
            )
        self.uncertainty = model
        resume_u = getattr(resume, "uncertainty", None)
        if resume is not None:
            have = model.spec if model is not None else None
            want = resume_u["spec"] if resume_u is not None else None
            if have != want:
                raise SchedulingError(
                    f"checkpoint was produced under uncertainty model "
                    f"{want!r} but this engine has {have!r}"
                )
        self.m = m
        self.policy_name = policy
        if decide is None:
            decide = POLICIES.get(policy)
        self._decide = decide
        self._pass = next(
            (kind for kind, fn in _FAST_PASSES if fn is decide), None
        )
        self.window = window
        self.bsld_tau = bsld_tau
        self.use_heap = completion_queue == "heap"
        self.store = resolve_store(store)

        profile_cls = ResourceProfile
        if profile_backend == "list":
            from ..core.profiles.list_backend import ListProfile as profile_cls
        if resume is not None:
            self.profile = profile_cls(
                list(resume.profile_times), list(resume.profile_caps)
            )
        else:
            self.profile = profile_cls([0], [m])

        self.queue: Dict[object, Job] = {}  # arrived, unstarted; in order
        self.buckets: Dict = {}         # end time -> jobs finishing then
        self.time_heap: List = []       # end times (one per job in heap mode)
        self.now = None                 # last processed event time
        # ids in flight, built on the first `_is_running` query (the
        # serve verbs) and kept by the loop from then on; replay never
        # asks, so its loop only pays a `None` test per start/completion
        self._running_ids: Optional[set] = None
        self._resume_clock = resume.clock if resume is not None else 0
        self.horizon = self._resume_clock  # furthest advance_to target
        # EASY's blocked-head memo: while `_blocked_id` heads the queue,
        # `_blocked_until` is its exact earliest fit.  An exact cache, so
        # checkpoints leave it out; every profile change the decision
        # pass did not make itself clears it.
        self._blocked_id: object = None
        self._blocked_until = 0

        self.windows: Dict[int, _WindowAcc] = {}
        #: live job id -> the accumulator of its arrival window
        self.window_of: Dict[object, _WindowAcc] = {}
        self.emitted: List[Dict] = []
        self.next_emit = 0
        self.starts: Optional[Dict] = {} if record_starts else None

        self._staged: "deque[Job]" = deque()  # submitted, release in future
        self._staged_ids = set()
        self._eof = False
        self.cancelled = 0  # live-service gauge; not a checkpoint counter
        self.unstaged = 0   # staged reservations withdrawn before arrival
        # (latest release or hole end, summed job occupancy, shortest
        # job) over every submit/reserve: see `_bound_checked`
        self._time_bound = (0, 0, None)

        # uncertainty state (empty and inert when no model is active)
        self._fates: Dict = {}          # job id -> (kind, boundary time)
        self._attempts: Dict = {}       # job id -> failed attempts so far
        self._requeue_ready: Dict = {}  # re-entry time -> [jobs]
        self._no_shows_at: Dict = {}    # release time -> [(p, q) holes]
        self._resv_seq = 0              # reservation-acceptance counter
        self.requeues = 0
        self.kills = 0
        self.no_shows = 0
        self.early_exits = 0
        self.n_starts = 0    # final (completing) attempts measured
        self.n_bsld_le = 0   # ... of which bsld <= the guarantee threshold

        # totals: the checkpointed counters, which the loop keeps in
        # locals (the names are _CKPT_COUNTERS)
        self.arrived = 0
        self.completed = 0
        self.events = 0
        self.total_work = 0
        self.pmax = 0
        self.latest_lb_finish = 0
        self.last_completion = 0
        self.sum_wait = 0
        self.max_wait = 0
        self.sum_slowdown = 0
        self.sum_bsld = 0
        self.max_bsld = 0.0  # repro: noqa RPL201 -- bsld gauge is float by definition
        self.peak_queue = 0
        self.running_count = 0
        self.peak_running = 0
        self.peak_segments = 1
        self.pruned_to = 0   # completions already compacted behind

        if resume is not None:
            for job in resume.queue:
                self.queue[job.id] = job
            for end, bucket in resume.buckets:
                self.buckets[end] = list(bucket)
                self.time_heap.append(end)
            heapify(self.time_heap)
            self.windows = {
                w: _WindowAcc.from_state(s) for w, s in resume.windows.items()
            }
            self.window_of = {
                jid: self.windows[w] for jid, w in resume.window_of.items()
            }
            self.next_emit = resume.next_emit
            for name in _CKPT_COUNTERS:
                setattr(self, name, resume.counters[name])
            if resume_u is not None:
                self._fates = {k: tuple(v) for k, v in resume_u["fates"]}
                self._attempts = dict(resume_u["attempts"])
                self._requeue_ready = {
                    t: list(jobs) for t, jobs in resume_u["requeue_ready"]
                }
                self._no_shows_at = {
                    t: [tuple(h) for h in holes]
                    for t, holes in resume_u["no_shows_at"]
                }
                self._resv_seq = resume_u["resv_seq"]
                (self.requeues, self.kills, self.no_shows, self.early_exits,
                 self.n_starts, self.n_bsld_le) = resume_u["counters"]

    # -- the policy protocol (what ``decide(core, now)`` programs against) --
    def queue_in_order(self) -> List[Job]:
        """Arrived jobs in submission order."""
        return list(self.queue.values())

    def can_start_now(self, job: Job, now) -> bool:
        return self.profile.fits(job.q, now, job.p)

    def start_job(self, job: Job, now) -> None:
        # `reserve` re-validates capacity atomically, so committing costs
        # one windowed min instead of a check-then-reserve two
        try:
            self.profile.reserve(now, job.p, job.q)
        except CapacityError:
            raise SchedulingError(
                f"job {job.id!r} does not fit at time {now}"
            ) from None
        del self.queue[job.id]

    def earliest_start(self, job: Job, now):
        return self.profile.earliest_fit(job.q, job.p, after=now)

    # -- the verbs ---------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Stage one arrival (applied when ``advance_to`` reaches its
        release).  Releases are validated non-decreasing and at or
        after the horizon; ids must be unique among live jobs.

        A job the event loop would refuse is refused here, before it is
        staged: wider than the machine, or able to carry the schedule
        past a time the loop cannot handle (see :meth:`_bound_checked`).
        So a later ``advance_to`` never fails halfway through a pass,
        and every accepted submit can be re-applied from a journal."""
        if self._eof:
            raise SchedulingError(
                f"job {job.id!r} submitted after drain: the stream has ended"
            )
        if job.q > self.m:
            raise SchedulingError(
                f"job {job.id!r} requires {job.q} processors but the "
                f"machine only has {self.m}"
            )
        if self._staged:
            floor = self._staged[-1].release
        else:
            floor = self.horizon
        if job.release < floor:
            raise _out_of_order(job, floor)
        if (
            job.id in self._staged_ids
            or job.id in self.queue
            or self._is_running(job.id)
        ):
            raise SchedulingError(f"job id {job.id!r} is already live")
        self._time_bound = self._bound_checked(
            job.release, job.p, f"job {job.id!r}"
        )
        self._staged.append(job)
        self._staged_ids.add(job.id)

    def _bound_checked(self, top, p, what: str):
        """The time bound after one more :meth:`submit` (a job of
        length ``p``) or :meth:`reserve` (``p`` None), refused when the
        loop could not handle a time below it.

        Past the latest release and hole end (``top``), the machine is
        never idle while a job waits, so no time the loop handles
        exceeds that plus the machine time all jobs can hold (under
        uncertainty: every attempt, grace and backoff).  Up to there
        window sums must convert to floats, and the shortest job must
        still end after it starts (``t + p > t`` fails for a tiny float
        ``p``).  A per-job check would miss a short job queued behind a
        long one."""
        latest, held, shortest = self._time_bound
        latest = max(latest, top)
        if p is not None:
            model = self.uncertainty
            if model is None:
                held += p
            else:
                retries = model.max_retries
                attempt = p
                if model.overrun == "grace":
                    attempt += model.grace_budget(p)
                held += (retries + 1) * attempt + retries * model.backoff
            if shortest is None or p < shortest:
                shortest = p
        end = latest + held
        if end * self.m * max(self.window, 1) > _FLOAT_MAX:
            limit = "the float range of the window metrics"
        elif shortest is not None and end + shortest <= end:
            limit = f"the float resolution of a job of length {shortest!r}"
        else:
            return latest, held, shortest
        raise InvalidInstanceError(
            f"{what} could carry the schedule to {end!r}, past {limit}"
        )

    def feed(self, arrivals: Iterable[Job]) -> None:
        """Stream ``arrivals`` (release-ordered, unique ids) through the
        event loop in one call, after anything already staged; stops
        once the last arrival's event time is fully processed, leaving
        later completions in flight.  A release before the clock raises
        :class:`~repro.errors.SchedulingError`."""
        if self._eof:
            raise SchedulingError("arrivals fed after drain: the stream has ended")
        if self._staged:
            arrivals = chain(self._unstage(), arrivals)
        self._event_loop(arrivals, None, False)
        if self.now is not None and self.now > self.horizon:
            self.horizon = self.now

    def cancel(self, job_id) -> str:
        """Withdraw ``job_id``; returns where it was found (``"staged"``
        or ``"queued"``).  Running or unknown jobs raise
        :class:`~repro.errors.SchedulingError` — a started reservation
        is committed capacity."""
        if job_id in self._staged_ids:
            self._staged = deque(j for j in self._staged if j.id != job_id)
            self._staged_ids.discard(job_id)
            self.unstaged += 1
            return "staged"
        if job_id in self.queue:
            del self.queue[job_id]
            if job_id == self._blocked_id:
                # the id may come back as another job
                self._blocked_id = None
            self.cancelled += 1
            acc = self.window_of.pop(job_id, None)
            if acc is not None:
                acc.completed += 1
                t = self.horizon
                if acc.last_completion is None or t > acc.last_completion:
                    acc.last_completion = t
                if acc.done:
                    self._emit_done_windows()
            return "queued"
        if self._is_running(job_id):
            raise SchedulingError(
                f"job {job_id!r} is running and cannot be cancelled"
            )
        raise SchedulingError(f"job {job_id!r} is not a live job")

    def reserve(self, start, p, q) -> None:
        """Carve ``q`` processors out of ``[start, start + p)`` — the
        paper's reservation shape, committed directly against the live
        availability profile (reservations are capacity holes, not
        jobs: no queue entry, no metrics).  An empty calendar bucket is
        planted at ``start + p`` so a decision pass wakes up when the
        hole opens — without it an otherwise-idle machine would sleep
        through the freed capacity and :meth:`drain` would mis-report
        a stall."""
        if self.use_heap:
            raise SchedulingError(
                "reservations require completion_queue='calendar'"
            )
        if q < 1 or q > self.m:
            raise SchedulingError(
                f"reservation requires {q!r} processors but the machine "
                f"has {self.m}"
            )
        if p <= 0:
            raise SchedulingError(
                f"reservation duration must be positive, got {p!r}"
            )
        if start < self.horizon:
            raise SchedulingError(
                f"reservation at {start!r} is in the past: the clock is "
                f"already at {self.horizon!r}"
            )
        bound = self._bound_checked(
            start + p, None, f"reservation at {start!r}"
        )
        try:
            self.profile.reserve(start, p, q)
        except CapacityError:
            raise SchedulingError(
                f"reservation of {q} processors at {start!r} for {p!r} "
                "does not fit"
            ) from None
        self._time_bound = bound
        self._blocked_id = None
        end = start + p
        if (self.now is None or end > self.now) and end not in self.buckets:
            self.buckets[end] = []
            heappush(self.time_heap, end)
        model = self.uncertainty
        if model is not None and model.no_show_rate > 0.0:
            seq = self._resv_seq
            self._resv_seq += 1
            if model.is_no_show(seq):
                if self.now is not None and start <= self.now:
                    # committed at the current instant and already a
                    # no-show: release the hole immediately
                    self.profile.add(start, p, q)
                    self.no_shows += 1
                    self.events += 1
                else:
                    # release the hole at its start, with a wake bucket
                    # so an idle machine notices the freed capacity
                    self._no_shows_at.setdefault(start, []).append((p, q))
                    if start not in self.buckets:
                        self.buckets[start] = []
                        heappush(self.time_heap, start)

    def advance_to(self, t) -> None:
        """Apply every pending event with event time ``<= t``."""
        if self.horizon is not None and t < self.horizon:
            raise SchedulingError(
                f"cannot advance to {t!r}: the clock is already at "
                f"{self.horizon!r}"
            )
        self._event_loop(self._unstage(), t, self._eof)
        self.horizon = t

    def drain(self) -> None:
        """End the arrival stream and run the event loop to quiescence.

        Raises the replay stall error when queued jobs can never start;
        emits every remaining window row."""
        self._eof = True
        self._event_loop(self._unstage(), None, True)
        if self.queue:
            raise SchedulingError(
                f"replay stalled with {len(self.queue)} queued job(s) "
                "that can never start"
            )
        if self.window:
            self._emit_done_windows(force=True)
        segments = self.profile.segment_count()
        if segments > self.peak_segments:
            self.peak_segments = segments

    # -- snapshots ---------------------------------------------------------
    def checkpoint(self) -> ReplayCheckpoint:
        """Frontier state as a :class:`ReplayCheckpoint` (the slice-chaining
        and journal-snapshot format; calendar queue only)."""
        if self.use_heap:
            raise SchedulingError(
                "checkpoints require completion_queue='calendar'"
            )
        times_l, caps_l = self.profile.as_lists()
        return ReplayCheckpoint(
            m=self.m, policy=self.policy_name, window=self.window,
            clock=self.now if self.now is not None else self._resume_clock,
            profile_times=times_l, profile_caps=caps_l,
            queue=list(self.queue.values()),
            buckets=[(end, list(b)) for end, b in sorted(self.buckets.items())],
            window_of={jid: acc.index for jid, acc in self.window_of.items()},
            windows={w: acc.state() for w, acc in self.windows.items()},
            next_emit=self.next_emit,
            counters={name: getattr(self, name) for name in _CKPT_COUNTERS},
            uncertainty=self._uncertainty_state(),
        )

    def _uncertainty_state(self) -> Optional[Dict]:
        """Uncertainty frontier state for :meth:`checkpoint` (``None``
        when no model is active, so certain-world checkpoints stay
        byte-identical to pre-uncertainty ones)."""
        model = self.uncertainty
        if model is None:
            return None
        return {
            "spec": model.spec,
            "fates": list(self._fates.items()),
            "attempts": list(self._attempts.items()),
            "requeue_ready": [
                (t, list(jobs))
                for t, jobs in sorted(self._requeue_ready.items())
            ],
            "no_shows_at": [
                (t, list(holes))
                for t, holes in sorted(self._no_shows_at.items())
            ],
            "resv_seq": self._resv_seq,
            "counters": (self.requeues, self.kills, self.no_shows,
                         self.early_exits, self.n_starts, self.n_bsld_le),
        }

    def extra_state(self) -> Dict:
        """Live-service state a :class:`ReplayCheckpoint` does not carry
        (staged future arrivals, cancel count, horizon, eof flag, the
        time bound of :meth:`submit`'s checks)."""
        return {
            "staged": list(self._staged),
            "cancelled": self.cancelled,
            "unstaged": self.unstaged,
            "horizon": self.horizon,
            "eof": self._eof,
            "time_bound": self._time_bound,
        }

    def restore_extra_state(self, extras: Dict) -> None:
        """Re-attach :meth:`extra_state` output after a ``resume=``
        construction (staged jobs bypass re-validation: they were
        validated when first submitted)."""
        self._staged = deque(extras["staged"])
        self._staged_ids = {job.id for job in self._staged}
        self.cancelled = extras["cancelled"]
        self.unstaged = extras.get("unstaged", 0)
        self.horizon = extras["horizon"]
        self._eof = extras["eof"]
        self._time_bound = extras.get("time_bound", (0, 0, None))

    def status(self) -> Dict:
        """Cheap JSON-safe live gauges (the serve ``/v1/status`` body)."""
        return {
            "clock": self.now,
            "horizon": self.horizon,
            "arrived": self.arrived,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "unstaged": self.unstaged,
            "queued": len(self.queue),
            "running": self.running_count,
            "staged": len(self._staged),
            "events": self.events,
            "windows_emitted": self.next_emit,
            "requeues": self.requeues,
            "kills": self.kills,
            "no_shows": self.no_shows,
            "early_exits": self.early_exits,
            "eof": self._eof,
        }

    def describe_state(self) -> Dict:
        """The full core state as one canonical JSON-safe dict.

        This is the byte-compare surface of the serve crash-recovery
        tests: a recovered daemon must report exactly the dict an
        uninterrupted one does."""
        def plain(jobs: Iterable[Job]) -> List[Dict]:
            return [
                {"id": j.id, "p": j.p, "q": j.q,
                 "release": j.release, "name": j.name}
                for j in jobs
            ]

        ck = self.checkpoint()
        u = ck.uncertainty
        return {
            "m": ck.m,
            "policy": ck.policy,
            "window": ck.window,
            "clock": ck.clock,
            "horizon": self.horizon,
            "eof": self._eof,
            "cancelled": self.cancelled,
            "unstaged": self.unstaged,
            "profile_times": list(ck.profile_times),
            "profile_caps": list(ck.profile_caps),
            "staged": plain(self._staged),
            "queue": plain(ck.queue),
            "buckets": [[end, plain(bucket)] for end, bucket in ck.buckets],
            "window_of": {
                str(k): v for k, v in sorted(ck.window_of.items(), key=_id_order)
            },
            "windows": {str(w): s for w, s in sorted(ck.windows.items())},
            "next_emit": ck.next_emit,
            "counters": ck.counters,
            "uncertainty": None if u is None else {
                "spec": u["spec"],
                "fates": {
                    str(k): list(v)
                    for k, v in sorted(u["fates"], key=lambda kv: str(kv[0]))
                },
                "attempts": {
                    str(k): v
                    for k, v in sorted(u["attempts"], key=lambda kv: str(kv[0]))
                },
                "requeue_ready": [
                    [t, plain(jobs)] for t, jobs in u["requeue_ready"]
                ],
                "no_shows_at": [
                    [t, [list(hole) for hole in holes]]
                    for t, holes in u["no_shows_at"]
                ],
                "resv_seq": u["resv_seq"],
                "counters": dict(zip(
                    ("requeues", "kills", "no_shows", "early_exits",
                     "n_starts", "n_bsld_le"),
                    u["counters"],
                )),
            },
        }

    # -- helpers -----------------------------------------------------------
    def _is_running(self, job_id) -> bool:
        """Whether ``job_id`` is in flight (the first query indexes the
        calendar; the loop keeps the index current after that)."""
        if self._running_ids is None:
            self._running_ids = {
                job.id for bucket in self.buckets.values() for job in bucket
            }
        return job_id in self._running_ids

    def _unstage(self) -> Iterator[Job]:
        """Staged arrivals, handed to the loop one at a time (a look-ahead
        past the loop's limit is pushed back on return)."""
        staged = self._staged
        ids = self._staged_ids
        while staged:
            job = staged.popleft()
            ids.discard(job.id)
            yield job

    def _new_window(self, index: int) -> _WindowAcc:
        acc = self.windows[index] = _WindowAcc(index)
        if self.uncertainty is not None:
            # under uncertainty, window rows carry distributional
            # metrics: collect the per-job samples to quantile over
            acc.waits = []
            acc.bslds = []
        return acc

    def _emit_done_windows(self, force: bool = False) -> None:
        windows = self.windows
        while self.next_emit in windows and (
            windows[self.next_emit].done or force
        ):
            acc = windows.pop(self.next_emit)
            if acc.arrived:
                row = acc.row(self.m)
                self.emitted.append(row)
                if self.store is not None:
                    self.store.append(row)
            self.next_emit += 1

    def _close_windows(self) -> None:
        """The stream ended: every open window is full."""
        for acc in self.windows.values():
            acc.full = True
        self._emit_done_windows()

    # -- the event loop ----------------------------------------------------
    def _event_loop(self, arrivals: Iterable[Job], limit, eof: bool) -> None:
        """Apply events in time order — at each distinct time:
        completions, uncertainty events, arrivals, one decision pass,
        profile compaction.

        Arrivals are pulled from ``arrivals`` one look-ahead at a time.
        The loop stops before the first event time past ``limit``; with
        no limit and an open stream (``eof`` false) it stops once the
        arrivals run out (the slice frontier); otherwise it runs until
        no event remains.  Hot state lives in locals for the call and is
        written back on return, the event count included.

        There is one completion step and one per-start bookkeeping
        block.  With the inlined passes, the completion step carries on
        over completion times while the queue is empty, and a lone
        arrival's single probe hands it to the bookkeeping without a
        pass (see the module docstring).  The bookkeeping is inline,
        not a helper: a call per start, or a closure turning every hot
        counter into a cell variable, would slow the whole loop."""
        m = self.m
        window = self.window
        bsld_tau = self.bsld_tau
        record = self.starts
        queue = self.queue
        buckets = self.buckets
        time_heap = self.time_heap
        windows = self.windows
        window_of = self.window_of
        use_heap = self.use_heap
        uncertain = self.uncertainty is not None
        decide = self._decide
        kind = self._pass
        easy = kind == "easy"
        greedy = kind == "greedy"
        # the completion step's carry-on and the lone arrival's probe
        # belong to the inlined passes (the reference protocol path runs
        # without them); under uncertainty they resolve fates and draw
        # them exactly as the per-event path does, so they stay on
        shortcuts = kind is not None and not use_heap
        requeue_ready = self._requeue_ready
        no_shows_at = self._no_shows_at

        profile = self.profile
        try_reserve = profile.try_reserve
        reserve_fitting = profile.reserve_fitting
        earliest_fit = profile.earliest_fit
        min_capacity = profile.min_capacity
        capacity_at = profile.capacity_at
        fits = profile.fits
        prune = profile.prune_before
        seg_count = profile.segment_count

        blocked_id = self._blocked_id
        blocked_until = self._blocked_until
        running_ids = self._running_ids
        now = self.now
        (arrived, completed, events, total_work, pmax, latest_lb_finish,
         last_completion, sum_wait, max_wait, sum_slowdown, sum_bsld, max_bsld,
         peak_queue, running_count, peak_running, peak_segments, pruned_to) = [
            getattr(self, name) for name in _CKPT_COUNTERS
        ]

        n_starts = self.n_starts
        n_bsld_le = self.n_bsld_le
        arrived0 = arrived
        completed0 = completed
        running0 = running_count
        uncertain_events = 0

        it = iter(arrivals)
        pending = next(it, None)
        t_arrival = pending.release if pending is not None else None
        if pending is not None and t_arrival < self.horizon:
            raise _out_of_order(pending, self.horizon)
        if pending is None and eof and window:
            self._close_windows()
        frontier = limit is None and not eof
        # arrival-side accumulators of the window currently filling —
        # arrivals are strictly sequential by index, so these live in
        # locals and fold into the _WindowAcc at rollover and on return
        cur_acc = None
        wa_arrived = wa_work = wa_pmax = wa_latest = 0
        wa_first = None
        if window:
            acc = windows.get(arrived // window)
            if acc is not None and not acc.full:
                cur_acc = acc
                wa_arrived = acc.arrived
                wa_work = acc.work
                wa_pmax = acc.pmax
                wa_latest = acc.latest_lb_finish
                wa_first = acc.first_release

        try:
            while True:
                if pending is None and frontier:
                    break  # slice exhausted: suspend at the frontier
                # clock advance fused with completion processing: when
                # the next completion is due it *is* the event
                if time_heap and (t_arrival is None or time_heap[0] <= t_arrival):
                    tc = time_heap[0]
                    if limit is not None and tc > limit:
                        break
                    # 1. completions at `now` free their processors first.
                    # A completion on an empty queue is no decision
                    # moment: with the shortcuts on, the step goes on to
                    # the next completion time while the queue stays
                    # empty, no arrival is due by then and `limit`
                    # allows it.  A requeue or no-show due at that time
                    # is released there by step 1b, and a refilled queue
                    # ends the step.
                    while True:
                        now = tc
                        heappop(time_heap)
                        finished = buckets.pop(now)
                        if use_heap:
                            for _ in range(1, len(finished)):
                                heappop(time_heap)
                        elif uncertain and finished:
                            finished, extra, requeued, touched = (
                                self._resolve_fates(now, finished)
                            )
                            # a requeue leaves the running count without
                            # a completion: count its start here
                            uncertain_events += extra + requeued
                            running_count -= requeued
                            if touched:
                                # a credited tail or a grace extension
                                # moves the blocked head's earliest fit;
                                # kills at the estimate and exact ends
                                # change nothing
                                blocked_id = None
                        if finished:
                            n = len(finished)
                            completed += n
                            running_count -= n
                            last_completion = now
                            if running_ids is not None:
                                running_ids.difference_update(
                                    [j.id for j in finished]
                                )
                            if window:
                                for job in finished:
                                    acc = window_of.pop(job.id)
                                    acc.completed += 1
                                    acc.last_completion = now
                                    if acc.full and acc.completed == acc.arrived:
                                        self._emit_done_windows()
                        # 1b. uncertainty events at `now` (each has a
                        # wake bucket): no-show holes release their
                        # capacity, backed-off failed jobs re-enter the
                        # queue — both before arrivals, so the decision
                        # pass sees the true state.  Re-entry is strictly
                        # after the failure (backoff >= 1), so no fate
                        # resolved at `now` makes `now` itself due.
                        if uncertain and (
                            now in no_shows_at or now in requeue_ready
                        ):
                            uncertain_events += self._release_due(now)
                            blocked_id = None
                            if len(queue) > peak_queue:
                                peak_queue = len(queue)
                        if queue or not shortcuts or not time_heap:
                            break
                        tc = time_heap[0]
                        if (t_arrival is not None and tc >= t_arrival) or (
                            limit is not None and tc > limit
                        ):
                            break
                        if uncertain and completed != pruned_to:
                            # under a model completions resolve fates
                            # (early exits and failures credit tails,
                            # grace extensions commit), so the profile is
                            # sampled and pruned after each completion
                            # time, as step 4 does on every other event
                            pruned_to = completed
                            segments = seg_count()
                            if segments > peak_segments:
                                peak_segments = segments
                            prune(now)
                elif pending is not None:
                    if limit is not None and t_arrival > limit:
                        break
                    now = t_arrival
                else:
                    break

                # 2. arrivals at `now` join the queue in stream order
                started = None  # the starts at `now`, once decided
                while t_arrival == now:  # None once the stream runs out
                    job = pending
                    jq = job.q
                    if jq > m:
                        raise SchedulingError(
                            f"job {job.id!r} requires {jq} processors but the "
                            f"machine only has {m}"
                        )
                    jp = job.p
                    rel = job.release
                    area = jp * jq
                    finish = rel + jp
                    if window:
                        if cur_acc is None:
                            cur_acc = self._new_window(arrived // window)
                            wa_arrived = wa_work = wa_pmax = wa_latest = 0
                            wa_first = rel
                        window_of[job.id] = cur_acc
                        wa_arrived += 1
                        wa_work += area
                        if jp > wa_pmax:
                            wa_pmax = jp
                        if finish > wa_latest:
                            wa_latest = finish
                        if wa_arrived == window:
                            cur_acc.fill(window, wa_first, wa_work, wa_pmax, wa_latest)
                            cur_acc.full = True
                            cur_acc = None
                    arrived += 1
                    total_work += area
                    if jp > pmax:
                        pmax = jp
                    if finish > latest_lb_finish:
                        latest_lb_finish = finish
                    pending = next(it, None)
                    if pending is not None:
                        t_arrival = pending.release
                        if t_arrival < now:
                            raise _out_of_order(pending, now)
                    else:
                        t_arrival = None
                        if eof and window:
                            # the stream ended: flush the partial trailing
                            # window, then every open window is full
                            if cur_acc is not None:
                                cur_acc.fill(wa_arrived, wa_first, wa_work,
                                             wa_pmax, wa_latest)
                                cur_acc = None
                            self._close_windows()
                    if queue or t_arrival == now or not shortcuts:
                        queue[job.id] = job
                        # the queue only grows during the arrival phase,
                        # so sampling after each enqueue sees every
                        # high-water mark
                        qlen = len(queue)
                        if qlen > peak_queue:
                            peak_queue = qlen
                        continue
                    # Lone arrival on an empty queue: every built-in
                    # pass starts it iff it fits at `now`, so one probe
                    # decides and the job skips the queue into the
                    # per-start bookkeeping.  A blocked lone head backs
                    # no backfill (and a new id misses EASY's memo), so
                    # the pass is skipped after a failed probe: it would
                    # repeat it.
                    if not peak_queue:
                        peak_queue = 1
                    if try_reserve(now, jp, jq):
                        started = (job,)
                    else:
                        queue[job.id] = job
                        started = ()

                # 3. one decision pass (passes are idempotent per instant)
                # unless the lone arrival's probe already decided
                if queue and started is None:
                    if easy:
                        # Blocked-head memo: while `blocked_id` heads the
                        # queue, `blocked_until` is its exact earliest
                        # fit.  Inside the passes the profile only ever
                        # *loses* capacity (no shadow mutation), and each
                        # commit is either a head start — which changes
                        # the head id, missing the memo — or a
                        # shadow-checked backfill, which by construction
                        # leaves the head fitting at `blocked_until`
                        # while capacity loss cannot move an earliest fit
                        # earlier.  Every other profile change clears the
                        # memo.  So `now < blocked_until` proves the head
                        # probe fails and phase 2 may reuse the value.  A
                        # memoised head starts no earlier than
                        # `blocked_until`, so a later job reusing its id
                        # (serve allows that once the first finishes)
                        # meets the memo only at `now >= blocked_until`,
                        # where both phases ignore it.
                        started = []
                        # phase 1: heads (the queue is not empty here)
                        while queue:
                            head = next(iter(queue.values()))
                            if blocked_id == head.id and now < blocked_until:
                                break
                            if not try_reserve(now, head.p, head.q):
                                break
                            del queue[head.id]
                            started.append(head)
                        if len(queue) > 1:
                            # phase 2: the head's shadow reservation,
                            # expressed as window queries — a backfill
                            # candidate fits under the shadow iff each of
                            # the <=3 sub-windows clears its demand.
                            # (With no candidates behind the head the
                            # shadow can start nothing: skipped outright.)
                            hp = head.p
                            hq = head.q
                            if blocked_id == head.id and now < blocked_until:
                                s_head = blocked_until
                            else:
                                s_head = earliest_fit(hq, hp, after=now)
                                if s_head is None:
                                    raise SchedulingError(
                                        f"job {head.id!r} can never start"
                                    )
                                blocked_id = head.id
                                blocked_until = s_head
                            h_end = s_head + hp
                            # Every candidate's window contains `now`, and
                            # the shadow starts strictly after `now` (the
                            # head just failed to fit), so a width above
                            # the capacity at `now` cannot start: one int
                            # compare screens most blocked candidates.
                            cap_now = capacity_at(now)
                            backfill = iter(list(queue.values()))
                            next(backfill)  # the head itself
                            for job in backfill:
                                jq = job.q
                                if jq > cap_now:
                                    continue
                                jp = job.p
                                j_end = now + jp
                                if s_head >= j_end:
                                    ok = fits(jq, now, jp)
                                else:
                                    lim = j_end if j_end < h_end else h_end
                                    ok = (
                                        min_capacity(s_head, lim) >= jq + hq
                                        and (s_head <= now
                                             or min_capacity(now, s_head) >= jq)
                                        and (j_end <= h_end
                                             or min_capacity(h_end, j_end) >= jq)
                                    )
                                if ok:
                                    cap_now -= jq
                                    reserve_fitting(now, jp, jq)
                                    del queue[job.id]
                                    started.append(job)
                    elif kind is not None:
                        # fcfs / greedy: one ordered sweep; fcfs stops at
                        # the first job that does not fit
                        started = []
                        for job in list(queue.values()):
                            if not try_reserve(now, job.p, job.q):
                                if greedy:
                                    continue
                                break
                            del queue[job.id]
                            started.append(job)
                    else:
                        started = decide(self, now)
                # the per-start bookkeeping, for the pass's starts and a
                # lone arrival's alike
                if started:
                    for job in started:
                        running_count += 1
                        jp = job.p
                        end = now + jp
                        if uncertain:
                            end, doomed = self._draw_fate(job, now)
                        bucket = buckets.get(end)
                        if bucket is None:
                            buckets[end] = [job]
                            heappush(time_heap, end)
                        else:
                            bucket.append(job)
                            if use_heap:
                                heappush(time_heap, end)
                        if record is not None:
                            # restarted jobs overwrite: the recorded start
                            # is the final (completing) attempt's
                            record[job.id] = now
                        if running_ids is not None:
                            running_ids.add(job.id)
                        if not (uncertain and doomed):
                            # metrics measure each job's final attempt
                            # only — a doomed attempt's wait is not the
                            # job's wait
                            wait = now - job.release
                            sum_wait += wait
                            # repro: noqa-begin RPL2xx -- slowdown/bsld gauges
                            # are float aggregates; grid times never read them
                            sum_slowdown += (wait + jp) / jp
                            if wait:
                                if wait > max_wait:
                                    max_wait = wait
                                den = jp if jp > bsld_tau else bsld_tau
                                bsld = float(wait + jp) / float(den)
                                if bsld < 1.0:
                                    bsld = 1.0
                            else:
                                # no wait (most starts): the clamp floors
                                # jp/max(jp, tau) to exactly 1, and no
                                # maximum wait can move
                                bsld = 1.0
                            # repro: noqa-end RPL2xx
                            sum_bsld += bsld
                            if bsld > max_bsld:
                                max_bsld = bsld
                            if window:
                                acc = window_of[job.id]
                                acc.started += 1
                                acc.sum_wait += wait
                                if wait > acc.max_wait:
                                    acc.max_wait = wait
                                acc.sum_bsld += bsld
                                if bsld > acc.max_bsld:
                                    acc.max_bsld = bsld
                            if uncertain:
                                n_starts += 1
                                if bsld <= DEFAULT_SLOWDOWN_THRESHOLD:
                                    n_bsld_le += 1
                                if window:
                                    acc.waits.append(wait)
                                    acc.bslds.append(bsld)
                    if running_count > peak_running:
                        peak_running = running_count

                # 4. compact the profile behind the clock after every
                # event with completions (capacity history only accrues
                # when jobs finish).  Both backends prune with one prefix
                # delete and count segments in O(1), so the live profile
                # stays at the active window and the peak gauge, sampled
                # before each compaction, is exact.  The cut is the last
                # completion: `now` on an event the completion step did
                # not carry on from.  After a run of completions on an
                # empty queue in the certain world, nothing committed and
                # completions leave the profile alone, so one sample
                # equals the peak of per-completion samples and one
                # prune reaches the same live window as one per
                # completion; `now` may then be a later wake bucket
                # without completions (a reservation's), where no event
                # of its own would prune.
                if completed != pruned_to:
                    pruned_to = completed
                    segments = seg_count()
                    if segments > peak_segments:
                        peak_segments = segments
                    prune(last_completion)

            if pending is not None:
                # the look-ahead lies past `limit`: stage it again
                self._staged.appendleft(pending)
                self._staged_ids.add(pending.id)
        finally:
            if cur_acc is not None:
                # fold the filling window's locals back into its acc so
                # the next call (or a checkpoint) sees it exactly
                cur_acc.fill(wa_arrived, wa_first, wa_work, wa_pmax, wa_latest)
            self._blocked_id = blocked_id
            self._blocked_until = blocked_until
            self.now = now
            self.n_starts = n_starts
            self.n_bsld_le = n_bsld_le
            # every event is an arrival, a start, a completion or an
            # uncertainty event; starts are not counted one by one but
            # recovered from the running count, which each start enters
            # and each completion (or requeue, counted above) leaves
            events += (
                arrived - arrived0 + 2 * (completed - completed0)
                + running_count - running0 + uncertain_events
            )
            for name, value in zip(_CKPT_COUNTERS, (
                arrived, completed, events, total_work, pmax,
                latest_lb_finish, last_completion, sum_wait, max_wait,
                sum_slowdown, sum_bsld, max_bsld, peak_queue, running_count,
                peak_running, peak_segments, pruned_to,
            )):
                setattr(self, name, value)

    # -- uncertainty mechanics ---------------------------------------------
    def _draw_fate(self, job: Job, now):
        """Seal the fate of a starting attempt: ``(event time, doomed)``.

        The scheduler just committed ``[now, now + p)`` for the job; the
        model says what really happens.  The returned event time is when
        the calendar must next look at the job (failure instant, early
        completion, or the estimate boundary for overruns); ``doomed``
        marks attempts that will fail and requeue."""
        model = self.uncertainty
        actual, fail_at = model.draw(
            job.id, job.p, self._attempts.get(job.id, 0)
        )
        est_end = now + job.p
        if fail_at is not None:
            self._fates[job.id] = ("fail", est_end)
            return now + fail_at, True
        if actual < job.p:
            self._fates[job.id] = ("early", est_end)
            return now + actual, False
        if actual > job.p:
            if model.overrun == "kill":
                self._fates[job.id] = ("kill", est_end)
            else:
                self._fates[job.id] = ("grace", now + actual)
            return est_end, False
        return est_end, False

    def _resolve_fates(self, now, bucket: List[Job]):
        """Resolve the calendar bucket at ``now`` against recorded fates:
        ``(jobs completing here, extra events, jobs requeued, whether
        the profile changed)``.

        Failures credit their unused reservation tail and park the job
        for requeue; early exits credit the tail and complete; overruns
        are killed at the estimate or granted a capacity-checked grace
        extension (and re-bucketed at its end)."""
        model = self.uncertainty
        profile = self.profile
        window_of = self.window_of
        out: List[Job] = []
        extra = requeued = 0
        touched = False
        for job in bucket:
            fate = self._fates.pop(job.id, None)
            if fate is None:
                out.append(job)
                continue
            kind, boundary = fate
            if kind == "early":
                # finished short of the estimate: free the tail now
                profile.add(now, boundary - now, job.q)
                touched = True
                self.early_exits += 1
                out.append(job)
            elif kind == "fail":
                fire("uncertainty.requeue")
                if boundary > now:
                    # a p=1 job failing at its only tick has no tail
                    profile.add(now, boundary - now, job.q)
                    touched = True
                self._attempts[job.id] = self._attempts.get(job.id, 0) + 1
                if self._running_ids is not None:
                    self._running_ids.discard(job.id)
                self.requeues += 1
                extra += 1
                requeued += 1
                acc = window_of.get(job.id)
                if acc is not None:
                    acc.requeues += 1
                ready = now + model.backoff
                self._requeue_ready.setdefault(ready, []).append(job)
                if ready not in self.buckets:
                    self.buckets[ready] = []
                    heappush(self.time_heap, ready)
            elif kind == "kill":
                fire("uncertainty.overrun_kill")
                self.kills += 1
                acc = window_of.get(job.id)
                if acc is not None:
                    acc.kills += 1
                out.append(job)
            elif kind == "grace":
                actual_end = boundary
                cap_end = now + model.grace_budget(job.p)
                if actual_end < cap_end:
                    cap_end = actual_end
                try:
                    profile.reserve(now, cap_end - now, job.q)
                except CapacityError:
                    # the extension does not fit: walltime kill after all
                    fire("uncertainty.overrun_kill")
                    self.kills += 1
                    acc = window_of.get(job.id)
                    if acc is not None:
                        acc.kills += 1
                    out.append(job)
                    continue
                touched = True
                extra += 1
                if cap_end < actual_end:
                    # grace budget exhausted before the actual runtime:
                    # the kill lands at the extension boundary
                    self._fates[job.id] = ("kill", cap_end)
                bkt = self.buckets.get(cap_end)
                if bkt is None:
                    self.buckets[cap_end] = [job]
                    heappush(self.time_heap, cap_end)
                else:
                    bkt.append(job)
            else:
                raise SchedulingError(
                    f"unknown uncertainty fate {kind!r} for job {job.id!r}"
                )
        attempts = self._attempts
        if attempts:
            for job in out:
                attempts.pop(job.id, None)
        return out, extra, requeued, touched

    def _release_due(self, now) -> int:
        """Apply the no-show hole releases and failure re-entries due at
        ``now``; returns the number of events."""
        events = 0
        holes = self._no_shows_at.pop(now, None)
        if holes:
            for p, q in holes:
                self.profile.add(now, p, q)
                self.no_shows += 1
                events += 1
        ready = self._requeue_ready.pop(now, None)
        if ready:
            for job in ready:
                # the job arrived once: re-entry touches no arrival
                # counters, only the queue (and its retained window slot)
                self.queue[job.id] = job
                events += 1
        return events
