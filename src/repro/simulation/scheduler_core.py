"""The scheduler engine core: one event loop, many drivers.

:class:`SchedulerCore` is the event-application half of the replay
engine, promoted to a supported embedding API.  It owns the live
availability profile, the arrived-but-unstarted queue, the in-flight
calendar and the window/total accumulators, and exposes an explicit
four-verb surface:

``submit(job)``
    Stage an arrival.  Releases must be non-decreasing and at or after
    the advanced horizon — the core never time-travels.
``advance_to(t)``
    Apply every pending event (completions, staged arrivals, one
    policy decision pass, profile compaction) with event time ``<= t``.
``cancel(job_id)``
    Withdraw a staged or queued job (a live-service verb trace replay
    never uses; running jobs cannot be cancelled).
``drain()``
    Declare the arrival stream finished and run the event loop to
    quiescence, emitting every remaining window row.

:class:`~repro.simulation.replay.ReplayEngine` is now a thin
trace-driving client of this class (its generic loop groups an SWF
iterator's arrivals by release time and feeds them through
``submit``/``advance_to``), and ``repro serve`` is another driver
feeding the same core from sockets.  Both observe the exact event
ordering the replay module documents — completions < arrivals < one
decision pass < prune at each distinct time — so rows, totals and
checkpoints are byte-identical whichever driver is in front.

Embedders should program against this class (re-exported as
``repro.simulation.SchedulerCore``) rather than reaching into
``ReplayEngine._run_fused``/``_run_generic``; the fused loop is an
engine internal, deprecated as an extension point and guarded by the
``RPL503`` lint rule.

State beyond the :class:`~repro.simulation.replay.ReplayCheckpoint`
(staged future arrivals, the cancel count, the advanced horizon) is
exported by :meth:`SchedulerCore.extra_state` so a live service can
snapshot and restore the *whole* core, not just the replay-visible
part.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.job import Job
from ..core.metrics import (
    BSLD_TAU,
    DEFAULT_SLOWDOWN_THRESHOLD,
    bounded_slowdown,
)
from ..core.profiles import BackendSpec, convert_profile, make_profile
from ..devtools.failpoints import fire
from ..errors import CapacityError, SchedulingError
from ..workloads.uncertainty import resolve_uncertainty
from .online_sim import POLICIES
from .replay import (
    _CKPT_COUNTERS,
    _note_demotion,
    _WindowAcc,
    DEFAULT_PRUNE_INTERVAL,
    DEFAULT_WINDOW,
    ReplayCheckpoint,
)

__all__ = ["SchedulerCore"]


class SchedulerCore:
    """Live scheduling state plus the event-application loop.

    Parameters mirror :class:`~repro.simulation.replay.ReplayEngine`
    (same names, same validation, same defaults) minus the dispatch
    knob (``fused_policies``) that selects between engine loops — the
    core *is* the reference loop.

    ``decide`` optionally injects the policy function directly (an
    embedding convenience, and how the engine pins the function it
    resolved at construction time); by default the name is looked up in
    :data:`~repro.simulation.online_sim.POLICIES`.

    ``resume`` rehydrates a :class:`ReplayCheckpoint` — the calendar
    completion queue is required then, as for sliced replay.
    """

    def __init__(
        self,
        m: int,
        policy: str = "easy",
        *,
        profile_backend: BackendSpec = "auto",
        window: int = DEFAULT_WINDOW,
        store=None,
        prune_interval: int = DEFAULT_PRUNE_INTERVAL,
        bsld_tau=BSLD_TAU,
        record_starts: bool = False,
        completion_queue: str = "calendar",
        decide: Optional[Callable] = None,
        resume: Optional[ReplayCheckpoint] = None,
        uncertainty=None,
    ):
        from .replay import ReplayState  # circular-at-import-time guard

        if m < 1:
            raise SchedulingError(f"machine size must be >= 1, got {m!r}")
        if window < 0:
            raise SchedulingError(f"window must be >= 0, got {window!r}")
        if prune_interval < 1:
            raise SchedulingError("prune_interval must be >= 1")
        if completion_queue not in ("calendar", "heap"):
            raise SchedulingError(
                f"completion_queue must be 'calendar' or 'heap', "
                f"got {completion_queue!r}"
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
        self._decide = decide if decide is not None else POLICIES.get(policy)
        self.window = window
        self.prune_interval = prune_interval
        self.bsld_tau = bsld_tau
        self.use_heap = completion_queue == "heap"
        if store is not None and not hasattr(store, "append"):
            from ..run.store import JsonlStore

            store = JsonlStore(store)
        self.store = store

        backend: BackendSpec = profile_backend
        self._auto_backend = backend == "auto"
        self.demoted = resume is not None and resume.demoted
        self.demoted_at = resume.demoted_at if resume is not None else None
        if self._auto_backend:
            backend = "list" if self.demoted else "array"
        self.state = ReplayState(m, backend)
        # `auto` watches for non-integral job times and demotes the live
        # profile to the exact list backend before they reach the int64
        # columns; an explicit backend choice is honoured (and loud).
        self._watch_times = self._auto_backend and getattr(
            self.state.profile, "CHEAP_PRUNE", False
        )
        self._cheap_prune = getattr(self.state.profile, "CHEAP_PRUNE", False)

        self.heap: List[Tuple] = []     # heap mode: (end time, seq, job id)
        self.buckets: Dict = {}         # calendar mode: end time -> [jobs]
        self.time_heap: List = []       # calendar mode: distinct end times
        self.seq = 0
        self.now = None                 # last processed event time
        self._resume_clock = resume.clock if resume is not None else 0
        self.horizon = self._resume_clock  # furthest advance_to target

        self.windows: Dict[int, _WindowAcc] = {}
        self.window_of: Dict[object, int] = {}   # live jobs only
        self.emitted: List[Dict] = []
        self.next_emit = 0
        self.starts: Optional[Dict] = {} if record_starts else None

        self._staged: "deque[Job]" = deque()  # submitted, release in future
        self._staged_ids = set()
        self._eof = False
        self.cancelled = 0  # live-service gauge; not a checkpoint counter
        self.unstaged = 0   # staged reservations withdrawn before arrival

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

        # totals (names match _CKPT_COUNTERS where checkpointed)
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
        self.peak_running = 0
        self.peak_segments = 1
        self.since_prune = 0
        self.pruned_to = 0   # completions already compacted behind

        if resume is not None:
            self.state.profile = make_profile(
                list(resume.profile_times), list(resume.profile_caps), backend
            )
            for job in resume.queue:
                self.state.queue[job.id] = job
            for end, bucket in resume.buckets:
                self.buckets[end] = list(bucket)
                self.time_heap.append(end)
                for job in bucket:
                    self.state.running[job.id] = job
            heapify(self.time_heap)
            self.windows = {
                w: _WindowAcc.from_state(s) for w, s in resume.windows.items()
            }
            self.window_of = dict(resume.window_of)
            self.next_emit = resume.next_emit
            c = resume.counters
            (self.arrived, self.completed, self.events, self.total_work,
             self.pmax, self.latest_lb_finish, self.last_completion,
             self.sum_wait, self.max_wait, self.sum_slowdown, self.sum_bsld,
             self.max_bsld, self.peak_queue, _running_count,
             self.peak_running, self.peak_segments, self.since_prune,
             self.pruned_to) = (c[name] for name in _CKPT_COUNTERS)
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

    # -- the four verbs ---------------------------------------------------
    def submit(self, job: Job) -> None:
        """Stage one arrival (applied when ``advance_to`` reaches its
        release).  Releases are validated non-decreasing and at or
        after the horizon; ids must be unique among live jobs."""
        if self._eof:
            raise SchedulingError(
                f"job {job.id!r} submitted after drain: the stream has ended"
            )
        if self._staged:
            floor = self._staged[-1].release
        else:
            floor = self.horizon
        if job.release < floor:
            raise SchedulingError(
                f"job {job.id!r} arrives out of order: release "
                f"{job.release!r} is before the clock at {floor!r}"
            )
        if (
            job.id in self._staged_ids
            or job.id in self.state.queue
            or job.id in self.state.running
        ):
            raise SchedulingError(f"job id {job.id!r} is already live")
        self._staged.append(job)
        self._staged_ids.add(job.id)

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
        if job_id in self.state.queue:
            del self.state.queue[job_id]
            self.cancelled += 1
            w = self.window_of.pop(job_id, None)
            if w is not None:
                acc = self.windows[w]
                acc.completed += 1
                t = self.horizon
                if acc.last_completion is None or t > acc.last_completion:
                    acc.last_completion = t
                if acc.done:
                    self._emit_done_windows()
            return "queued"
        if job_id in self.state.running:
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
        try:
            self.state.profile.reserve(start, p, q)
        except CapacityError:
            raise SchedulingError(
                f"reservation of {q} processors at {start!r} for {p!r} "
                "does not fit"
            ) from None
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
                    self.state.profile.add(start, p, q)
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
        self._run_events(t)
        self.horizon = t

    def drain(self) -> None:
        """End the arrival stream and run the event loop to quiescence.

        Raises the replay stall error when queued jobs can never start
        (wider than the machine after a demotion, for instance); emits
        every remaining window row."""
        self._eof = True
        self._run_events(None)
        if self.state.queue:
            raise SchedulingError(
                f"replay stalled with {len(self.state.queue)} queued job(s) "
                "that can never start"
            )
        if self.window:
            self._emit_done_windows(force=True)
        segments = self.state.profile.segment_count()
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
        times_l, caps_l = self.state.profile.as_lists()
        return ReplayCheckpoint(
            m=self.m, policy=self.policy_name, window=self.window,
            clock=self.now if self.now is not None else self._resume_clock,
            profile_times=times_l, profile_caps=caps_l,
            demoted=self.demoted, demoted_at=self.demoted_at,
            queue=list(self.state.queue.values()),
            buckets=sorted(self.buckets.items()),
            window_of=dict(self.window_of),
            windows={w: acc.state() for w, acc in self.windows.items()},
            next_emit=self.next_emit,
            counters=dict(zip(_CKPT_COUNTERS, (
                self.arrived, self.completed, self.events, self.total_work,
                self.pmax, self.latest_lb_finish, self.last_completion,
                self.sum_wait, self.max_wait, self.sum_slowdown,
                self.sum_bsld, self.max_bsld, self.peak_queue,
                len(self.state.running), self.peak_running,
                self.peak_segments, self.since_prune, self.pruned_to,
            ))),
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
        (staged future arrivals, cancel count, horizon, eof flag)."""
        return {
            "staged": list(self._staged),
            "cancelled": self.cancelled,
            "unstaged": self.unstaged,
            "horizon": self.horizon,
            "eof": self._eof,
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

    def status(self) -> Dict:
        """Cheap JSON-safe live gauges (the serve ``/v1/status`` body)."""
        return {
            "clock": self.now,
            "horizon": self.horizon,
            "arrived": self.arrived,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "unstaged": self.unstaged,
            "queued": len(self.state.queue),
            "running": len(self.state.running),
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
        return {
            "m": ck.m,
            "policy": ck.policy,
            "window": ck.window,
            "clock": ck.clock,
            "horizon": self.horizon,
            "eof": self._eof,
            "cancelled": self.cancelled,
            "unstaged": self.unstaged,
            "demoted": ck.demoted,
            "demoted_at": ck.demoted_at,
            "profile_times": list(ck.profile_times),
            "profile_caps": list(ck.profile_caps),
            "staged": plain(self._staged),
            "queue": plain(ck.queue),
            "buckets": [[end, plain(bucket)] for end, bucket in ck.buckets],
            "window_of": {str(k): v for k, v in sorted(ck.window_of.items())},
            "windows": {str(w): s for w, s in sorted(ck.windows.items())},
            "next_emit": ck.next_emit,
            "counters": ck.counters,
            "uncertainty": None if self.uncertainty is None else {
                "spec": self.uncertainty.spec,
                "fates": {
                    str(k): list(v)
                    for k, v in sorted(
                        self._fates.items(), key=lambda kv: str(kv[0])
                    )
                },
                "attempts": {
                    str(k): v
                    for k, v in sorted(
                        self._attempts.items(), key=lambda kv: str(kv[0])
                    )
                },
                "requeue_ready": [
                    [t, plain(jobs)]
                    for t, jobs in sorted(self._requeue_ready.items())
                ],
                "no_shows_at": [
                    [t, [list(hole) for hole in holes]]
                    for t, holes in sorted(self._no_shows_at.items())
                ],
                "resv_seq": self._resv_seq,
                "counters": {
                    "requeues": self.requeues,
                    "kills": self.kills,
                    "no_shows": self.no_shows,
                    "early_exits": self.early_exits,
                    "n_starts": self.n_starts,
                    "n_bsld_le": self.n_bsld_le,
                },
            },
        }

    def totals_kwargs(self) -> Dict:
        """Keyword arguments for the engine's ``_finalize`` totals row."""
        kwargs = self._plain_totals_kwargs()
        if self.uncertainty is not None:
            n = self.n_starts
            kwargs["uncertainty_totals"] = {
                "uncertainty": self.uncertainty.spec,
                # repro: noqa-begin RPL2xx -- the guarantee level is a
                # probability, a float by definition
                "p_slowdown_le": (self.n_bsld_le / n) if n else 1.0,
                # repro: noqa-end RPL2xx
                "requeues": self.requeues,
                "kills": self.kills,
                "no_shows": self.no_shows,
                "early_exits": self.early_exits,
            }
        return kwargs

    def _plain_totals_kwargs(self) -> Dict:
        return {
            "arrived": self.arrived, "events": self.events,
            "total_work": self.total_work, "pmax": self.pmax,
            "latest_lb_finish": self.latest_lb_finish,
            "last_completion": self.last_completion,
            "sum_wait": self.sum_wait, "max_wait": self.max_wait,
            "sum_slowdown": self.sum_slowdown, "sum_bsld": self.sum_bsld,
            "max_bsld": self.max_bsld, "peak_queue": self.peak_queue,
            "peak_running": self.peak_running,
            "peak_segments": self.peak_segments,
            "demoted_at": self.demoted_at,
            "windows_emitted": self.next_emit,
        }

    # -- event loop --------------------------------------------------------
    def _current_window(self, index: int) -> Optional[_WindowAcc]:
        if not self.window:
            return None
        w = index // self.window
        acc = self.windows.get(w)
        if acc is None:
            acc = self.windows[w] = _WindowAcc(w)
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

    def _run_events(self, limit) -> None:
        """Apply pending events in time order, stopping after the last
        event time ``<= limit`` (``None``: run to quiescence)."""
        staged = self._staged
        while True:
            if self.use_heap:
                t_completion = self.heap[0][0] if self.heap else None
            else:
                t_completion = self.time_heap[0] if self.time_heap else None
            t_arrival = staged[0].release if staged else None
            if t_completion is not None and (
                t_arrival is None or t_completion <= t_arrival
            ):
                now = t_completion
            elif t_arrival is not None:
                now = t_arrival
            else:
                break
            if limit is not None and now > limit:
                break
            self._apply_event(now)

    def _apply_event(self, now) -> None:
        """One event: completions, then arrivals, then one decision
        pass, then profile compaction — the documented ordering."""
        state = self.state
        queue = state.queue
        running = state.running
        windows = self.windows
        window_of = self.window_of
        staged = self._staged

        # 1. completions at `now` free their processors first
        if self.use_heap:
            heap = self.heap
            while heap and heap[0][0] == now:
                _, _, job_id = heappop(heap)
                state.complete_job(job_id)
                self.events += 1
                self.completed += 1
                self.since_prune += 1
                self.last_completion = now
                w = window_of.pop(job_id, None)
                if w is not None:
                    acc = windows[w]
                    acc.completed += 1
                    acc.last_completion = now
                    if acc.done:
                        self._emit_done_windows()
        elif self.time_heap and self.time_heap[0] == now:
            # one bucket holds every job finishing at `now`, in start
            # order — a single heap pop serves them all
            heappop(self.time_heap)
            bucket = self.buckets.pop(now)
            if self.uncertainty is not None and bucket:
                bucket = self._apply_uncertain_completions(now, bucket)
            for job in bucket:
                job_id = job.id
                del running[job_id]
                self.events += 1
                self.completed += 1
                self.since_prune += 1
                self.last_completion = now
                w = window_of.pop(job_id, None)
                if w is not None:
                    acc = windows[w]
                    acc.completed += 1
                    acc.last_completion = now
                    if acc.done:
                        self._emit_done_windows()

        # 1b. uncertainty events at `now`: no-show holes release their
        # capacity, backed-off failed jobs re-enter the queue — both
        # before arrivals, so the decision pass sees the true state
        if self.uncertainty is not None:
            self._apply_uncertainty_events(now)

        # 2. arrivals at `now` join the queue in submission order
        while staged and staged[0].release == now:
            job = staged.popleft()
            self._staged_ids.discard(job.id)
            if self._watch_times and not (
                type(job.p) is int and type(job.release) is int
            ):
                # non-integral trace: demote the live profile to the
                # exact list backend (state converts losslessly)
                state.profile = convert_profile(state.profile, "list")
                self._watch_times = self._cheap_prune = False
                self.demoted = True
                self.demoted_at = _note_demotion(job)
            state.enqueue(job)
            self.events += 1
            acc = self._current_window(self.arrived)
            if acc is not None:
                window_of[job.id] = acc.index
                acc.arrived += 1
                if acc.first_release is None:
                    acc.first_release = job.release
                acc.work += job.area
                if job.p > acc.pmax:
                    acc.pmax = job.p
                finish = job.release + job.p
                if finish > acc.latest_lb_finish:
                    acc.latest_lb_finish = finish
                if acc.arrived == self.window:
                    acc.full = True
            self.arrived += 1
            self.total_work += job.area
            if job.p > self.pmax:
                self.pmax = job.p
            if job.release + job.p > self.latest_lb_finish:
                self.latest_lb_finish = job.release + job.p
        if self._eof and not staged and self.window:
            # the stream ended: the partial trailing window is full
            for acc in windows.values():
                acc.full = True
            self._emit_done_windows()

        if len(queue) > self.peak_queue:
            self.peak_queue = len(queue)

        # 3. one decision pass (policies are pass-idempotent)
        for job in self._decide(state, now) if queue else ():
            self.events += 1
            end = now + job.p
            doomed = False
            if self.uncertainty is not None:
                end, doomed = self._draw_fate(job, now)
            if self.starts is not None:
                # restarted jobs overwrite: the recorded start is the
                # final (completing) attempt's
                self.starts[job.id] = now
            if not doomed:
                # metrics measure each job's final attempt only — a
                # doomed attempt's wait is not the job's wait
                wait = now - job.release
                self.sum_wait += wait
                if wait > self.max_wait:
                    self.max_wait = wait
                # slowdown means are floats (order-noise accepted); the
                # identity-tested totals stay int-exact sums
                self.sum_slowdown += (wait + job.p) / job.p
                bsld = bounded_slowdown(wait, job.p, self.bsld_tau)
                self.sum_bsld += bsld
                if bsld > self.max_bsld:
                    self.max_bsld = bsld
                if self.uncertainty is not None:
                    self.n_starts += 1
                    if bsld <= DEFAULT_SLOWDOWN_THRESHOLD:
                        self.n_bsld_le += 1
                w = window_of.get(job.id)
                if w is not None:
                    acc = windows[w]
                    acc.started += 1
                    acc.sum_wait += wait
                    if wait > acc.max_wait:
                        acc.max_wait = wait
                    acc.sum_bsld += bsld
                    if bsld > acc.max_bsld:
                        acc.max_bsld = bsld
                    if acc.waits is not None:
                        acc.waits.append(wait)
                        acc.bslds.append(bsld)
            if self.use_heap:
                self.seq += 1
                heappush(self.heap, (end, self.seq, job.id))
            else:
                bucket = self.buckets.get(end)
                if bucket is None:
                    self.buckets[end] = [job]
                    heappush(self.time_heap, end)
                else:
                    bucket.append(job)

        if len(running) > self.peak_running:
            self.peak_running = len(running)

        # 4. compact the profile behind the clock (high-water sampled
        # just before pruning: the honest peak — cheap-prune backends
        # compact on every completion event, so the gauge is sampled
        # on a cadence)
        if self._cheap_prune:
            # O(1) prune and O(1) size probe: sample before every
            # compaction, so the peak gauge is exact
            if self.completed != self.pruned_to:
                self.pruned_to = self.completed
                segments = state.profile.segment_count()
                if segments > self.peak_segments:
                    self.peak_segments = segments
                state.profile.prune_before(now)
        elif self.since_prune >= self.prune_interval:
            self.since_prune = 0
            segments = state.profile.segment_count()
            if segments > self.peak_segments:
                self.peak_segments = segments
            state.profile.prune_before(now)

        self.now = now

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

    def _apply_uncertain_completions(self, now, bucket: List[Job]):
        """Resolve the calendar bucket at ``now`` against recorded fates,
        returning the jobs that actually complete here.

        Failures credit their unused reservation tail and park the job
        for requeue; early exits credit the tail and complete; overruns
        are killed at the estimate or granted a capacity-checked grace
        extension (and re-bucketed at its end)."""
        model = self.uncertainty
        state = self.state
        window_of = self.window_of
        out: List[Job] = []
        for job in bucket:
            fate = self._fates.pop(job.id, None)
            if fate is None:
                out.append(job)
                continue
            kind, boundary = fate
            if kind == "early":
                # finished short of the estimate: free the tail now
                state.profile.add(now, boundary - now, job.q)
                self.early_exits += 1
                out.append(job)
            elif kind == "fail":
                fire("uncertainty.requeue")
                if boundary > now:
                    # a p=1 job failing at its only tick has no tail
                    state.profile.add(now, boundary - now, job.q)
                del state.running[job.id]
                self._attempts[job.id] = self._attempts.get(job.id, 0) + 1
                self.requeues += 1
                self.events += 1
                w = window_of.get(job.id)
                if w is not None:
                    self.windows[w].requeues += 1
                ready = now + model.backoff
                self._requeue_ready.setdefault(ready, []).append(job)
                if ready not in self.buckets:
                    self.buckets[ready] = []
                    heappush(self.time_heap, ready)
            elif kind == "kill":
                fire("uncertainty.overrun_kill")
                self.kills += 1
                w = window_of.get(job.id)
                if w is not None:
                    self.windows[w].kills += 1
                out.append(job)
            elif kind == "grace":
                actual_end = boundary
                cap_end = now + model.grace_budget(job.p)
                if actual_end < cap_end:
                    cap_end = actual_end
                try:
                    state.profile.reserve(now, cap_end - now, job.q)
                except CapacityError:
                    # the extension does not fit: walltime kill after all
                    fire("uncertainty.overrun_kill")
                    self.kills += 1
                    w = window_of.get(job.id)
                    if w is not None:
                        self.windows[w].kills += 1
                    out.append(job)
                    continue
                self.events += 1
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
        for job in out:
            self._attempts.pop(job.id, None)
        return out

    def _apply_uncertainty_events(self, now) -> None:
        """No-show hole releases and failure re-entries due at ``now``."""
        holes = self._no_shows_at.pop(now, None)
        if holes:
            for p, q in holes:
                self.state.profile.add(now, p, q)
                self.no_shows += 1
                self.events += 1
        ready = self._requeue_ready.pop(now, None)
        if ready:
            for job in ready:
                # the job arrived once: re-entry touches no arrival
                # counters, only the queue (and its retained window slot)
                self.state.enqueue(job)
                self.events += 1
