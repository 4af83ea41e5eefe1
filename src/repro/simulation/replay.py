"""Rolling-horizon trace replay: online policies at million-job scale.

:class:`~repro.simulation.online_sim.OnlineSimulation` materialises the
whole instance, preloads every arrival into the event calendar and keeps
the full event trace — the right shape for paper-scale experiments, and
exactly the wrong one for archive SWF traces (10⁵–10⁷ jobs).  This
module is the out-of-core twin: :class:`ReplayEngine` consumes *any*
iterator of :class:`~repro.core.job.Job` arrivals in release order
(:func:`repro.workloads.swf.iter_swf` streams them off disk in constant
memory, :func:`repro.workloads.swf.synth_swf_jobs` generates them), runs
one of the registered online policies
(:data:`repro.simulation.online_sim.POLICIES`) against a live
availability profile, and keeps every structure bounded by the *active
window* of the simulation rather than by trace length:

* arrivals are pulled one look-ahead at a time — the trace never exists
  in memory;
* completed jobs are accounted into window/total aggregates and
  forgotten — there is no ``finished`` dict and no event trace;
* the availability profile is compacted behind the clock with
  :meth:`~repro.core.profiles.base.ProfileBackend.prune_before` (see the
  soundness argument there), so it holds the active segments only.

Equivalence with the in-memory engine
-------------------------------------
The engine processes, at each distinct event time, all completions, then
all arrivals, then one policy decision pass — the same
completion < arrival < decision ordering the event calendar of
:class:`~repro.simulation.engine.Simulator` enforces.  The built-in
policies are *pass-idempotent* (a second decision pass at the same
instant starts nothing new), so one pass per event time yields the exact
start times ``OnlineSimulation`` produces; a hypothesis differential
test in ``tests/test_replay.py`` asserts byte-identical schedules and
metrics across policies, profile backends and plain/gzip ingestion.
Third-party policies must be pass-idempotent to share that guarantee.

Times pass through arithmetically untouched: integer traces (all SWF
archives, the synthetic pack) therefore run entirely on machine ints —
the replay face of the ``timebase="auto"`` fast path, whose scale factor
a stream cannot compute but which is 1 for every integer trace anyway.

The hot path (the flat-array kernel + calendar queue)
-----------------------------------------------------
Two structures bound the per-event cost:

* the availability profile defaults to ``profile_backend="auto"``: the
  int64 flat-column :class:`~repro.core.profiles.ArrayProfile`, whose
  O(1) ``prune_before`` lets the engine compact behind the clock on
  *every* completion instead of every few thousand, keeping the live
  window at active-jobs size (a trace that turns out non-integral
  demotes to the exact ``"list"`` backend mid-stream — profile state
  converts losslessly, so results are unchanged);
* completions live in a **bucketed calendar queue** — a dict from end
  time to the jobs finishing then, plus a heap of *distinct* end times —
  so simultaneous completions cost one heap operation instead of one
  each, and the per-event peek is a list index.  The PR-4 per-job heap
  remains available as ``completion_queue="heap"``: it is the A/B
  reference the ``replay-throughput`` benchmark gate measures against,
  and both modes are asserted row-identical.

Built-in policies run in one fused loop (:meth:`ReplayEngine._run_fused`)
with two scalar shortcuts for the operation mix real traces produce
(~95% of event times carry a single arrival): with an empty queue, every
completion before the next arrival drains in one tight loop with a
single compaction, and a lone arrival on an empty queue starts through
one ``try_reserve`` probe without entering the queue.

``repro replay`` can also run **several policies at once** — serially,
or sharded across worker processes with ``--jobs N``
(:func:`replay_policies`): each policy's replay is independent, workers
return their per-window aggregates, and the merged JSONL rows are
written policy by policy in declaration order, so serial and sharded
output files are byte-identical (volatile wall-clock fields are kept
out of the merged rows).

A replay can also stop mid-stream and resume: :meth:`ReplayEngine.
run_slice` with ``drain=False`` captures the frontier state — pruned
profile, queued and in-flight jobs, open window accumulators, every
counter — as a :class:`ReplayCheckpoint`, and a successor slice resumed
from it continues byte-identically to a serial run.  The journaled
replay of :mod:`repro.durability.journaled` snapshots these checkpoints.

Windowed metrics
----------------
Jobs are grouped into fixed-size windows by arrival index (default
10 000).  A window's row reports its jobs' waiting times, bounded
slowdowns, work, utilization over the window's span, and the makespan
ratio against the certified per-window lower bound
``max(pmax, W/m, max_i(release_i + p_i) - first_release)`` — the
paper's ratio-vs-LB criterion applied per window.  Rows are emitted in
window order to an optional :class:`~repro.run.store.JsonlStore` as soon
as the trailing job of a window completes, so monitoring a multi-hour
replay costs no memory.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from numbers import Integral
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.job import Job
from ..core.metrics import (
    BSLD_TAU,
    TAIL_QUANTILES,
    bounded_slowdown,
    p_slowdown_le,
    quantile,
)
from ..core.profiles import (
    BackendSpec,
    convert_profile,
    make_profile,
)
from ..errors import CapacityError, SchedulingError, TraceFormatError
from .online_sim import POLICIES

#: Default window size (jobs per metrics window).
DEFAULT_WINDOW = 10_000

#: Default completions between profile compactions for backends whose
#: ``prune_before`` is O(active segments).  Pruning at a coarse cadence
#: amortises it to O(1) per job; backends advertising ``CHEAP_PRUNE``
#: (the array backend's O(1) offset bump) are pruned on every
#: completion instead, which keeps the live profile at active-window
#: size and this constant irrelevant to them.
DEFAULT_PRUNE_INTERVAL = 4096

#: ``totals`` fields excluded from the merged multi-policy JSONL rows:
#: anything wall-clock-dependent would break the byte-identity of
#: serial vs sharded output.
VOLATILE_TOTAL_FIELDS = frozenset({"elapsed_seconds"})

#: Keys of :attr:`ReplayResult.totals` — the metric names a spec's
#: ``traces`` factor may request (validated in
#: :meth:`repro.run.spec.ExperimentSpec.validate`).
REPLAY_METRIC_FIELDS = frozenset({
    "n_jobs", "makespan", "total_work", "utilization",
    "mean_wait", "max_wait", "mean_slowdown",
    "mean_bounded_slowdown", "max_bounded_slowdown",
    "lower_bound", "ratio_lb", "events", "windows",
    "peak_queue_length", "peak_running", "peak_profile_segments",
    "elapsed_seconds",
    "p_slowdown_le", "requeues", "kills", "no_shows", "early_exits",
})

#: The subset of :data:`REPLAY_METRIC_FIELDS` present in ``totals`` only
#: when a stochastic uncertainty model is active — requesting one of
#: these from a certain-world run is a loud error, not a silent zero.
UNCERTAINTY_METRIC_FIELDS = frozenset({
    "p_slowdown_le", "requeues", "kills", "no_shows", "early_exits",
})


class ReplayDemotionWarning(RuntimeWarning):
    """``profile_backend="auto"`` demoted to the list backend mid-stream."""


def _note_demotion(job: Job) -> Dict:
    """Emit the demotion warning and return the totals-row record.

    The demotion itself is lossless (profile state converts exactly),
    but silently switching kernels mid-stream made throughput
    regressions undiagnosable — so the offending job and time are both
    warned about and recorded in ``totals["demoted_to_list_at"]``.
    """
    record = {"job": job.id, "release": job.release}
    warnings.warn(
        f"profile_backend='auto' demoted to 'list' mid-stream: job "
        f"{job.id!r} (release {job.release!r}) has non-integral times; "
        f"results are unchanged but the int64 fast path is off from here",
        ReplayDemotionWarning,
        stacklevel=3,
    )
    return record


#: Counter names carried across a slice boundary (one source of truth
#: for the checkpoint builders and the resume hydrators).
_CKPT_COUNTERS = (
    "arrived", "completed", "events", "total_work", "pmax",
    "latest_lb_finish", "last_completion", "sum_wait", "max_wait",
    "sum_slowdown", "sum_bsld", "max_bsld", "peak_queue",
    "running_count", "peak_running", "peak_segments", "since_prune",
    "pruned_to",
)


@dataclass
class ReplayCheckpoint:
    """Full engine state at a frontier between two replay slices.

    Produced by :meth:`ReplayEngine.run_slice` with ``drain=False``
    after the last arrival of a slice's event time has been fully
    processed (completions < arrivals < decision < prune), and consumed
    by the successor slice's ``run_slice(..., resume=...)`` — the
    deterministic frontier handoff that makes a chain of slices
    byte-identical to one serial run.  Everything is plain picklable
    data, so journal snapshots can store it.
    """

    #: engine-config fingerprint (validated on resume, loud on mismatch)
    m: int
    policy: str
    window: int
    #: last processed event time
    clock: object
    #: pruned live profile, as canonical lists
    profile_times: List
    profile_caps: List[int]
    #: whether ``"auto"`` already demoted to the list backend
    demoted: bool
    demoted_at: Optional[Dict]
    #: queued (arrived, unstarted) jobs in submission order
    queue: List[Job]
    #: in-flight jobs bucketed by end time, ascending
    buckets: List[Tuple[object, List[Job]]]
    #: live job id -> arrival-window index
    window_of: Dict
    #: open window accumulators (slot dicts), keyed by window index
    windows: Dict[int, Dict]
    next_emit: int
    counters: Dict[str, object]
    #: EASY's blocked-head memo (an exact cache; carried so the resumed
    #: loop repeats the serial run's query pattern precisely)
    blocked_id: object = None
    blocked_until: object = 0
    #: uncertainty frontier state (fates of in-flight attempts, pending
    #: requeues/no-shows, event counters) — ``None`` when no stochastic
    #: model is active, keeping certain-world checkpoints byte-identical
    #: to pre-uncertainty ones
    uncertainty: Optional[Dict] = None


class ReplayState:
    """Policy-facing cluster state for one replay run.

    Implements the protocol the registered policies program against
    (``queue`` / ``queue_in_order`` / ``can_start_now`` / ``start_job``
    / ``earliest_start`` / ``profile``) like
    :class:`~repro.simulation.cluster.ClusterState`, with two scale
    adaptations: the queue is an insertion-ordered dict so committing a
    job is O(1) instead of an O(queue) rebuild, and completed jobs are
    dropped rather than archived.
    """

    def __init__(self, m: int, profile_backend: BackendSpec = None):
        self.m = m
        self.profile = make_profile([0], [m], profile_backend)
        self.queue: Dict[object, Job] = {}
        self.running: Dict[object, Job] = {}

    # -- queue management -------------------------------------------------
    def enqueue(self, job: Job) -> None:
        if job.q > self.m:
            raise SchedulingError(
                f"job {job.id!r} requires {job.q} processors but the "
                f"machine only has {self.m}"
            )
        self.queue[job.id] = job

    def queue_in_order(self) -> List[Job]:
        """Arrived jobs in submission order."""
        return list(self.queue.values())

    # -- placement --------------------------------------------------------
    def can_start_now(self, job: Job, now) -> bool:
        return self.profile.fits(job.q, now, job.p)

    def start_job(self, job: Job, now) -> None:
        # `reserve` re-validates capacity atomically, so committing costs
        # one windowed min instead of the former check-then-reserve two.
        try:
            self.profile.reserve(now, job.p, job.q)
        except CapacityError:
            raise SchedulingError(
                f"job {job.id!r} does not fit at time {now}"
            ) from None
        self.running[job.id] = job
        del self.queue[job.id]

    def complete_job(self, job_id) -> Job:
        job = self.running.pop(job_id, None)
        if job is None:
            raise SchedulingError(f"job {job_id!r} is not running")
        return job

    # -- introspection ----------------------------------------------------
    def earliest_start(self, job: Job, now):
        return self.profile.earliest_fit(job.q, job.p, after=now)


# ---------------------------------------------------------------------------
# fused decision-pass dispatch
# ---------------------------------------------------------------------------

def _fused_policy_kind(policy) -> Optional[str]:
    """Which fused in-engine loop implements ``policy`` — ``None`` for
    policies without one (they run through the generic loop).

    Dispatch is by *registered function object*: re-registering a
    built-in name under a custom function transparently routes it back
    to the generic loop.
    """
    from .online_sim import policy_easy, policy_fcfs, policy_greedy

    if policy is policy_fcfs:
        return "fcfs"
    if policy is policy_greedy:
        return "greedy"
    if policy is policy_easy:
        return "easy"
    return None


class _WindowAcc:
    """Metric accumulator for one arrival-index window."""

    __slots__ = (
        "index", "arrived", "started", "completed", "full",
        "first_release", "last_completion", "work", "pmax",
        "latest_lb_finish", "sum_wait", "max_wait",
        "sum_bsld", "max_bsld",
        "waits", "bslds", "requeues", "kills", "no_shows",
    )

    def __init__(self, index: int):
        self.index = index
        self.arrived = 0
        self.started = 0
        self.completed = 0
        self.full = False          # no more arrivals will join
        self.first_release = None
        self.last_completion = None
        self.work = 0
        self.pmax = 0
        self.latest_lb_finish = 0  # max(release + p): no window schedule beats it
        self.sum_wait = 0
        self.max_wait = 0
        self.sum_bsld = 0
        self.max_bsld = 0.0
        # distributional tracking, enabled (lists instead of None) only
        # under a stochastic uncertainty model — window rows then grow
        # quantile/guarantee/event columns; otherwise rows are unchanged
        self.waits = None
        self.bslds = None
        self.requeues = 0
        self.kills = 0
        self.no_shows = 0

    @property
    def done(self) -> bool:
        return self.full and self.completed == self.arrived

    def state(self) -> Dict:
        """Plain-dict snapshot (for :class:`ReplayCheckpoint`)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_state(cls, state: Dict) -> "_WindowAcc":
        acc = cls(state["index"])
        for slot, value in state.items():
            setattr(acc, slot, value)
        return acc

    def row(self, m: int) -> Dict:
        span = self.last_completion - self.first_release
        lb = max(
            self.pmax,
            self.work / m,
            self.latest_lb_finish - self.first_release,
        )
        n = self.arrived
        row = {
            "key": f"window-{self.index:08d}",
            "window": self.index,
            "jobs": n,
            "t_start": self.first_release,
            "t_end": self.last_completion,
            "makespan": span,
            "lower_bound": lb,
            "ratio_lb": float(span) / float(lb) if lb else 0.0,
            "utilization": float(self.work) / float(m * span) if span else 0.0,
            "mean_wait": _mean(self.sum_wait, n),
            "max_wait": self.max_wait,
            "mean_bounded_slowdown": _mean(self.sum_bsld, n),
            "max_bounded_slowdown": self.max_bsld,
        }
        if self.waits is not None:
            row["p_slowdown_le"] = p_slowdown_le(self.bslds)
            for q in TAIL_QUANTILES:
                pct = f"p{int(q * 100)}"
                row[f"wait_{pct}"] = quantile(self.waits, q)
                row[f"bsld_{pct}"] = quantile(self.bslds, q)
            row["requeues"] = self.requeues
            row["kills"] = self.kills
            row["no_shows"] = self.no_shows
        return row


def _mean(total, n: int) -> float:
    return float(total) / n if n else 0.0


@dataclass
class ReplayResult:
    """Outcome of one rolling-horizon replay."""

    policy: str
    m: int
    window_size: int
    totals: Dict = field(default_factory=dict)
    windows: List[Dict] = field(default_factory=list)
    #: start times, only populated under ``record_starts=True`` (testing /
    #: small traces — it is the one unbounded structure).
    starts: Optional[Dict] = None
    #: engine state at the slice frontier — set only by
    #: :meth:`ReplayEngine.run_slice` with ``drain=False``; ``None`` on
    #: every fully-drained run.
    checkpoint: Optional[ReplayCheckpoint] = None

    @property
    def n_jobs(self) -> int:
        return self.totals.get("n_jobs", 0)

    @property
    def makespan(self):
        return self.totals.get("makespan")


class ReplayEngine:
    """Rolling-horizon replay of an arrival stream (see module docs).

    Parameters
    ----------
    m:
        Machine size the stream is replayed on.
    policy:
        Registered online policy name (``repro list --kind policies``).
    profile_backend:
        Availability structure (``"list"``/``"tree"``/``"array"``/class,
        ``None`` for the module default, or the replay-specific
        ``"auto"``, the default).  ``"auto"`` starts on the int64
        flat-array kernel — pruned O(1) behind the clock on every
        completion, it holds only the active window, where flat columns
        beat both exact backends — and demotes the live profile to the
        exact ``"list"`` backend the moment a non-integral job time
        appears (conversion preserves the represented function, so
        results are identical; integer traces never demote).
    window:
        Jobs per metrics window (0 disables windowed rows).
    store:
        Optional :class:`~repro.run.store.JsonlStore` (or path) that
        window rows and the final totals row stream to.
    prune_interval:
        Completions between profile compactions (cheap-prune backends
        compact every completion regardless; see
        :data:`DEFAULT_PRUNE_INTERVAL`).
    bsld_tau:
        Bounded-slowdown runtime threshold.
    record_starts:
        Keep ``{job id: start}`` for the whole run — memory O(n); only
        for differential tests and paper-scale traces.
    completion_queue:
        ``"calendar"`` (default) buckets completions by end time with a
        heap of distinct times; ``"heap"`` is the PR-4 per-job heap,
        kept as the A/B reference for the throughput benchmark.  Both
        orderings are identical (same-time completions pop in start
        order either way).
    fused_policies:
        Dispatch built-in policies to their fused in-engine twins
        (identical semantics, fewer indirection layers; see the module
        docs).  ``False`` forces the generic registry functions — the
        A/B reference configuration.
    """

    def __init__(
        self,
        m: int,
        policy: str = "easy",
        profile_backend: BackendSpec = "auto",
        window: int = DEFAULT_WINDOW,
        store=None,
        prune_interval: int = DEFAULT_PRUNE_INTERVAL,
        bsld_tau=BSLD_TAU,
        record_starts: bool = False,
        completion_queue: str = "calendar",
        fused_policies: bool = True,
        uncertainty=None,
    ):
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
        self.m = m
        self.policy_name = policy
        self._policy = POLICIES.get(policy)
        self.profile_backend = profile_backend
        self.window = window
        self.prune_interval = prune_interval
        self.bsld_tau = bsld_tau
        self.record_starts = record_starts
        self.completion_queue = completion_queue
        self.fused_policies = fused_policies
        from ..workloads.uncertainty import resolve_uncertainty

        model = resolve_uncertainty(uncertainty)
        if model is not None and model.is_exact:
            # the degenerate model is no model: the run dispatches to
            # the fused loop and stays byte-identical
            model = None
        if model is not None and completion_queue != "calendar":
            raise SchedulingError(
                "uncertainty models require completion_queue='calendar'"
            )
        self.uncertainty = model
        if store is not None and not hasattr(store, "append"):
            from ..run.store import JsonlStore

            store = JsonlStore(store)
        self.store = store

    # ------------------------------------------------------------------
    def run(self, arrivals: Iterable[Job]) -> ReplayResult:
        """Replay ``arrivals``; returns the :class:`ReplayResult`.

        Dispatches to the fused hot loop (:meth:`_run_fused`) when the
        policy is a built-in with a fused twin and the calendar queue is
        active; the generic loop remains the reference implementation
        for custom policies, the heap queue, stochastic runs and
        ``fused_policies=False`` — all produce identical rows
        (differential-tested).
        """
        return self.run_slice(arrivals)

    def run_slice(
        self,
        arrivals: Iterable[Job],
        resume: Optional[ReplayCheckpoint] = None,
        drain: bool = True,
    ) -> ReplayResult:
        """Replay one slice of an arrival stream, optionally mid-state.

        The checkpoint-chaining entry point: with ``resume`` the engine
        starts from a predecessor's :class:`ReplayCheckpoint` (pruned
        profile + in-flight queue snapshot) instead of an empty machine;
        with ``drain=False`` it stops once the slice's last arrival's
        event time is fully processed — leaving in-flight jobs in flight
        — and attaches the frontier state as ``result.checkpoint``
        (totals are then left empty; windowed rows emitted by this slice
        are in ``result.windows``).  ``run_slice(arrivals)`` is exactly
        :meth:`run`.  Slicing requires the calendar queue.
        """
        if resume is not None:
            if (resume.m, resume.policy, resume.window) != (
                self.m, self.policy_name, self.window
            ):
                raise SchedulingError(
                    f"checkpoint was produced by a different engine config "
                    f"(m={resume.m}, policy={resume.policy!r}, "
                    f"window={resume.window}); this engine has m={self.m}, "
                    f"policy={self.policy_name!r}, window={self.window}"
                )
        if (resume is not None or not drain) and self.completion_queue != "calendar":
            raise SchedulingError(
                "sliced replay requires completion_queue='calendar'"
            )
        if self.uncertainty is not None:
            # stochastic runs delegate to the generic reference loop:
            # SchedulerCore owns the reschedule-on-actual mechanics, and
            # one implementation of them beats three drifting twins
            return self._run_generic(arrivals, resume, drain)
        if (
            self.fused_policies
            and self.completion_queue == "calendar"
            and _fused_policy_kind(self._policy) is not None
        ):
            return self._run_fused(arrivals, resume, drain)
        return self._run_generic(arrivals, resume, drain)

    def _run_generic(
        self,
        arrivals: Iterable[Job],
        resume: Optional[ReplayCheckpoint] = None,
        drain: bool = True,
    ) -> ReplayResult:
        """The reference loop, as a thin trace-driving client of
        :class:`~repro.simulation.scheduler_core.SchedulerCore`: group
        the stream's arrivals by release time, ``submit`` each group,
        ``advance_to`` its event time, then ``drain`` (or suspend at
        the frontier and attach the core's checkpoint)."""
        from .scheduler_core import SchedulerCore

        started_clock = _time.perf_counter()
        core = SchedulerCore(
            self.m, self.policy_name,
            profile_backend=self.profile_backend, window=self.window,
            store=self.store, prune_interval=self.prune_interval,
            bsld_tau=self.bsld_tau, record_starts=self.record_starts,
            completion_queue=self.completion_queue, decide=self._policy,
            resume=resume, uncertainty=self.uncertainty,
        )
        it = iter(arrivals)
        pending = next(it, None)
        while pending is not None:
            t = pending.release
            while pending is not None and pending.release == t:
                core.submit(pending)
                pending = next(it, None)
            if pending is not None or not drain:
                core.advance_to(t)
        result = ReplayResult(
            policy=self.policy_name, m=self.m, window_size=self.window,
            starts=core.starts,
        )
        if not drain:
            result.windows = core.emitted
            result.checkpoint = core.checkpoint()
            return result
        core.drain()
        return self._finalize(
            result, core.emitted, started_clock, **core.totals_kwargs()
        )

    # ------------------------------------------------------------------
    def _run_fused(
        self,
        arrivals: Iterable[Job],
        resume: Optional[ReplayCheckpoint] = None,
        drain: bool = True,
    ) -> ReplayResult:
        """The fused hot loop: the built-in policy's decision pass is
        inlined into the event loop, placement goes through the
        profile's single-bisect :meth:`~repro.core.profiles.base.
        ProfileBackend.try_reserve`, EASY's shadow reservation is
        replaced by the equivalent three-window queries (no mutation
        churn), and the calendar queue stores Job objects directly so
        there is no separate running dict.  Semantically identical to
        :meth:`_run_generic` — the differential tests and the
        ``replay-throughput`` identity matrix assert equal rows."""
        started_clock = _time.perf_counter()
        m = self.m
        backend: BackendSpec = self.profile_backend
        auto_backend = backend == "auto"
        demoted = resume is not None and resume.demoted
        demoted_at = resume.demoted_at if resume is not None else None
        if auto_backend:
            backend = "list" if demoted else "array"
        if resume is not None:
            profile = make_profile(
                list(resume.profile_times), list(resume.profile_caps), backend
            )
        else:
            profile = make_profile([0], [m], backend)
        watch_times = (
            auto_backend and not demoted
            and getattr(profile, "CHEAP_PRUNE", False)
        )
        cheap_prune = getattr(profile, "CHEAP_PRUNE", False)
        kind = _fused_policy_kind(self._policy)
        easy = kind == "easy"
        greedy = kind == "greedy"

        try_reserve = profile.try_reserve
        reserve_fitting = profile.reserve_fitting
        earliest_fit = profile.earliest_fit
        min_capacity = profile.min_capacity
        capacity_at = profile.capacity_at
        fits = profile.fits
        prune = profile.prune_before
        seg_count = profile.segment_count

        queue: Dict[object, Job] = {}
        buckets: Dict = {}           # end time -> jobs finishing then
        time_heap: List = []         # distinct end times
        now = None
        blocked_id: object = None    # easy: memoised blocked head ...
        blocked_until = 0            # ... and its exact earliest fit
        # arrival-side accumulators of the window currently filling —
        # arrivals are strictly sequential by index, so these live in
        # locals and flush into the _WindowAcc at rollover/stream end
        cur_acc = None
        wa_arrived = wa_work = wa_pmax = wa_latest = 0
        wa_first = None

        window = self.window
        prune_interval = self.prune_interval
        bsld_tau = self.bsld_tau
        store = self.store
        windows: Dict[int, _WindowAcc] = {}
        #: live jobs only; values are the accumulator objects themselves
        window_of: Dict[object, _WindowAcc] = {}
        emitted: List[Dict] = []
        next_emit = 0
        result = ReplayResult(
            policy=self.policy_name, m=m, window_size=window,
            starts={} if self.record_starts else None,
        )
        record = result.starts

        # totals
        arrived = 0
        completed = 0
        total_work = 0
        pmax = 0
        latest_lb_finish = 0
        last_completion = 0
        sum_wait = 0
        max_wait = 0
        sum_slowdown = 0
        sum_bsld = 0
        max_bsld = 0.0  # repro: noqa RPL201 -- bsld gauge is float by definition
        peak_queue = 0
        running_count = 0
        peak_running = 0
        peak_segments = 1
        since_prune = 0
        pruned_to = 0   # completions already compacted behind

        if resume is not None:
            for job in resume.queue:
                queue[job.id] = job
            for end, bucket in resume.buckets:
                buckets[end] = list(bucket)
                time_heap.append(end)
            heapify(time_heap)
            windows = {
                w: _WindowAcc.from_state(s) for w, s in resume.windows.items()
            }
            window_of = {
                jid: windows[w] for jid, w in resume.window_of.items()
            }
            next_emit = resume.next_emit
            blocked_id = resume.blocked_id
            blocked_until = resume.blocked_until
            c = resume.counters
            (arrived, completed, _events, total_work, pmax, latest_lb_finish,
             last_completion, sum_wait, max_wait, sum_slowdown, sum_bsld,
             max_bsld, peak_queue, running_count, peak_running,
             peak_segments, since_prune, pruned_to) = (
                c[name] for name in _CKPT_COUNTERS
            )
            if window:
                acc0 = windows.get(arrived // window)
                if acc0 is not None and not acc0.full:
                    # re-open the window that was filling at the frontier
                    cur_acc = acc0
                    wa_arrived = acc0.arrived
                    wa_work = acc0.work
                    wa_pmax = acc0.pmax
                    wa_latest = acc0.latest_lb_finish
                    wa_first = acc0.first_release

        def emit_done_windows(force: bool = False) -> None:
            nonlocal next_emit
            while next_emit in windows and (windows[next_emit].done or force):
                acc = windows.pop(next_emit)
                if acc.arrived:
                    row = acc.row(m)
                    emitted.append(row)
                    if store is not None:
                        store.append(row)
                next_emit += 1

        it = iter(arrivals)
        pending = next(it, None)
        t_arrival = pending.release if pending is not None else None

        while pending is not None or time_heap or queue:
            if pending is None and not drain:
                break  # slice exhausted: suspend at the frontier
            if pending is None and not time_heap:
                raise SchedulingError(
                    f"replay stalled with {len(queue)} queued job(s) "
                    "that can never start"
                )
            if cheap_prune and not queue and time_heap:
                tc = time_heap[0]
                if t_arrival is None or tc < t_arrival:
                    # Empty-queue drain: no decision can start anything,
                    # so every completion before the next arrival is
                    # processed in one tight loop.  Nothing commits while
                    # draining and completions leave the profile alone,
                    # so one segment sample on entry equals the peak of
                    # the per-completion samples, and one prune on exit
                    # reaches the same live window as one per completion.
                    segments = seg_count()
                    if segments > peak_segments:
                        peak_segments = segments
                    while True:
                        heappop(time_heap)
                        finished = buckets.pop(tc)
                        n_finished = len(finished)
                        completed += n_finished
                        since_prune += n_finished
                        running_count -= n_finished
                        if window:
                            for job in finished:
                                acc = window_of.pop(job.id)
                                acc.completed += 1
                                acc.last_completion = tc
                                if acc.full and acc.completed == acc.arrived:
                                    emit_done_windows()
                        if not time_heap:
                            break
                        tn = time_heap[0]
                        if t_arrival is not None and tn >= t_arrival:
                            break
                        tc = tn
                    now = last_completion = tc
                    pruned_to = completed
                    prune(now)
                    if t_arrival is None:
                        continue  # drained dry: the loop condition ends it
            # clock advance fused with completion processing: when the
            # next completion is due it *is* the event
            if time_heap:
                tc = time_heap[0]
                if t_arrival is None or tc <= t_arrival:
                    now = tc
                    # 1. completions at `now` free their processors first
                    heappop(time_heap)
                    finished = buckets.pop(now)
                    n_finished = len(finished)
                    completed += n_finished
                    since_prune += n_finished
                    running_count -= n_finished
                    last_completion = now
                    if window:
                        for job in finished:
                            acc = window_of.pop(job.id)
                            acc.completed += 1
                            acc.last_completion = now
                            if acc.full and acc.completed == acc.arrived:
                                emit_done_windows()
                else:
                    now = t_arrival
            else:
                now = t_arrival

            # 2. arrivals at `now` join the queue in stream order
            probed = False
            while t_arrival == now and pending is not None:
                job = pending
                if watch_times and not (
                    type(job.p) is int and type(job.release) is int
                ):
                    # non-integral trace: demote to the exact list
                    # backend (conversion preserves the function)
                    profile = convert_profile(profile, "list")
                    watch_times = cheap_prune = False
                    demoted = True
                    demoted_at = _note_demotion(job)
                    try_reserve = profile.try_reserve
                    reserve_fitting = profile.reserve_fitting
                    earliest_fit = profile.earliest_fit
                    min_capacity = profile.min_capacity
                    capacity_at = profile.capacity_at
                    fits = profile.fits
                    prune = profile.prune_before
                    seg_count = profile.segment_count
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
                        w = arrived // window
                        cur_acc = windows[w] = _WindowAcc(w)
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
                        acc = cur_acc
                        acc.arrived = window
                        acc.first_release = wa_first
                        acc.work = wa_work
                        acc.pmax = wa_pmax
                        acc.latest_lb_finish = wa_latest
                        acc.full = True
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
                else:
                    t_arrival = None
                    if window and drain:
                        # the stream ended: flush the partial trailing
                        # window, then every open window is full
                        if cur_acc is not None:
                            acc = cur_acc
                            acc.arrived = wa_arrived
                            acc.first_release = wa_first
                            acc.work = wa_work
                            acc.pmax = wa_pmax
                            acc.latest_lb_finish = wa_latest
                            cur_acc = None
                        for acc in windows.values():
                            acc.full = True
                        emit_done_windows()
                if queue or t_arrival == now:
                    queue[job.id] = job
                    # the queue only grows during the arrival phase, so
                    # sampling after each enqueue sees every high-water
                    # mark
                    qlen = len(queue)
                    if qlen > peak_queue:
                        peak_queue = qlen
                    continue
                # Lone arrival on an empty queue: every policy's pass
                # starts it iff it fits at `now`, so one probe decides.
                # A blocked lone head backs no backfill (and a new id
                # misses EASY's memo), so the pass is skipped after a
                # failed probe: it would repeat the same probe.
                if not peak_queue:
                    peak_queue = 1
                if not try_reserve(now, jp, jq):
                    queue[job.id] = job
                    probed = True
                    continue
                running_count += 1
                # wait == 0, so the slowdown and bounded slowdown are
                # exactly 1.0 (x/x, and the clamp floors jp/tau).  The
                # int check behind `watch_times` makes the slowdown a
                # float; other time types (Fraction) keep the exact
                # quotient so the sum matches the generic loop's
                # repro: noqa-begin RPL2xx -- float slowdown/bsld gauges
                sum_slowdown += 1.0 if watch_times else (now - rel + jp) / jp
                sum_bsld += 1.0
                if 1.0 > max_bsld:
                    max_bsld = 1.0
                if window:
                    acc = window_of[job.id]
                    acc.started += 1
                    acc.sum_bsld += 1.0
                    if 1.0 > acc.max_bsld:
                        acc.max_bsld = 1.0
                # repro: noqa-end RPL2xx
                if record is not None:
                    record[job.id] = now
                end = now + jp
                bucket = buckets.get(end)
                if bucket is None:
                    buckets[end] = [job]
                    heappush(time_heap, end)
                else:
                    bucket.append(job)

            # 3. one inlined decision pass (identical to the registered
            # policy; see _fused_policy_kind).  The per-start bookkeeping
            # block is intentionally repeated in each branch: a shared
            # closure would turn every hot counter into a cell variable
            # (slowing the whole loop), and the fused-vs-generic
            # differential tests pin all copies to _run_generic anyway.
            if queue and not probed:
                if easy:
                    # Blocked-head memo: while `blocked_id` heads the
                    # queue, `blocked_until` is its exact earliest fit.
                    # It stays exact because inside this loop the profile
                    # only ever *loses* capacity (no shadow mutation, no
                    # `add`), and each commit is either a head start —
                    # which changes the head id, missing the memo — or a
                    # shadow-checked backfill, which by construction
                    # leaves the head fitting at `blocked_until` while
                    # capacity loss cannot move an earliest fit earlier.
                    # So `now < blocked_until` proves the head probe
                    # fails and phase 2 may reuse the cached value.
                    # phase 1: heads
                    head = None
                    while queue:
                        head = next(iter(queue.values()))
                        if blocked_id == head.id and now < blocked_until:
                            break
                        jp = head.p
                        if not try_reserve(now, jp, head.q):
                            break
                        del queue[head.id]
                        running_count += 1
                        wait = now - head.release
                        sum_wait += wait
                        if wait > max_wait:
                            max_wait = wait
                        # repro: noqa-begin RPL2xx -- slowdown/bsld gauges are
                        # float aggregates; grid times never read them back
                        sum_slowdown += (wait + jp) / jp
                        den = jp if jp > bsld_tau else bsld_tau
                        bsld = float(wait + jp) / float(den)
                        if bsld < 1.0:
                            bsld = 1.0
                        # repro: noqa-end RPL2xx
                        sum_bsld += bsld
                        if bsld > max_bsld:
                            max_bsld = bsld
                        if window:
                            acc = window_of[head.id]
                            acc.started += 1
                            acc.sum_wait += wait
                            if wait > acc.max_wait:
                                acc.max_wait = wait
                            acc.sum_bsld += bsld
                            if bsld > acc.max_bsld:
                                acc.max_bsld = bsld
                        if record is not None:
                            record[head.id] = now
                        end = now + jp
                        bucket = buckets.get(end)
                        if bucket is None:
                            buckets[end] = [head]
                            heappush(time_heap, end)
                        else:
                            bucket.append(head)
                    if len(queue) > 1:
                        # phase 2: the head's shadow reservation,
                        # expressed as window queries — a backfill
                        # candidate fits under the shadow iff each of
                        # the <=3 sub-windows clears its demand.  (With
                        # no candidates behind the head the shadow can
                        # start nothing, so it is skipped outright.)
                        hp = head.p
                        hq = head.q
                        if blocked_id == head.id:
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
                        # the shadow starts strictly after `now`
                        # (s_head > now — the head just failed to fit),
                        # so a width above the capacity at `now` cannot
                        # start: one int compare screens most blocked
                        # candidates before any window query.
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
                                running_count += 1
                                wait = now - job.release
                                sum_wait += wait
                                if wait > max_wait:
                                    max_wait = wait
                                # repro: noqa-begin RPL2xx -- float slowdown/
                                # bsld gauges; never read back into grid times
                                sum_slowdown += (wait + jp) / jp
                                den = jp if jp > bsld_tau else bsld_tau
                                bsld = float(wait + jp) / float(den)
                                if bsld < 1.0:
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
                                if record is not None:
                                    record[job.id] = now
                                end = now + jp
                                bucket = buckets.get(end)
                                if bucket is None:
                                    buckets[end] = [job]
                                    heappush(time_heap, end)
                                else:
                                    bucket.append(job)
                else:
                    # fcfs / greedy: one ordered sweep; fcfs stops at
                    # the first job that does not fit
                    for job in list(queue.values()):
                        jp = job.p
                        if not try_reserve(now, jp, job.q):
                            if greedy:
                                continue
                            break
                        del queue[job.id]
                        running_count += 1
                        wait = now - job.release
                        sum_wait += wait
                        if wait > max_wait:
                            max_wait = wait
                        # repro: noqa-begin RPL2xx -- slowdown/bsld gauges are
                        # float aggregates; grid times never read them back
                        sum_slowdown += (wait + jp) / jp
                        den = jp if jp > bsld_tau else bsld_tau
                        bsld = float(wait + jp) / float(den)
                        if bsld < 1.0:
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
                        if record is not None:
                            record[job.id] = now
                        end = now + jp
                        bucket = buckets.get(end)
                        if bucket is None:
                            buckets[end] = [job]
                            heappush(time_heap, end)
                        else:
                            bucket.append(job)

            if running_count > peak_running:
                peak_running = running_count

            # 4. compact the profile behind the clock (completion events
            # only: capacity history only accrues when jobs finish).
            # segment_count is O(1), so the peak gauge samples before
            # every compaction and is exact.
            if cheap_prune:
                if completed != pruned_to:
                    pruned_to = completed
                    segments = seg_count()
                    if segments > peak_segments:
                        peak_segments = segments
                    prune(now)
            elif since_prune >= prune_interval:
                since_prune = 0
                segments = seg_count()
                if segments > peak_segments:
                    peak_segments = segments
                prune(now)

        if not drain:
            if cur_acc is not None:
                # fold the filling window's locals back into its acc so
                # the successor slice re-opens it exactly where it was
                acc = cur_acc
                acc.arrived = wa_arrived
                acc.first_release = wa_first
                acc.work = wa_work
                acc.pmax = wa_pmax
                acc.latest_lb_finish = wa_latest
            times_l, caps_l = profile.as_lists()
            result.windows = emitted
            result.checkpoint = ReplayCheckpoint(
                m=m, policy=self.policy_name, window=window,
                clock=now if now is not None else (
                    resume.clock if resume is not None else 0
                ),
                profile_times=times_l, profile_caps=caps_l,
                demoted=demoted, demoted_at=demoted_at,
                queue=list(queue.values()),
                buckets=sorted(buckets.items()),
                window_of={jid: acc.index for jid, acc in window_of.items()},
                windows={w: acc.state() for w, acc in windows.items()},
                next_emit=next_emit,
                counters=dict(zip(_CKPT_COUNTERS, (
                    arrived, completed, 0, total_work, pmax,
                    latest_lb_finish, last_completion, sum_wait, max_wait,
                    sum_slowdown, sum_bsld, max_bsld, peak_queue,
                    running_count, peak_running, peak_segments, since_prune,
                    pruned_to,
                ))),
                blocked_id=blocked_id, blocked_until=blocked_until,
            )
            return result

        if window:
            emit_done_windows(force=True)
        segments = seg_count()
        if segments > peak_segments:
            peak_segments = segments

        # the loop only exits fully drained, so every job contributed
        # exactly one arrival, one start and one completion event
        return self._finalize(
            result, emitted, started_clock,
            arrived=arrived, events=3 * arrived, total_work=total_work,
            pmax=pmax, latest_lb_finish=latest_lb_finish,
            last_completion=last_completion, sum_wait=sum_wait,
            max_wait=max_wait, sum_slowdown=sum_slowdown,
            sum_bsld=sum_bsld, max_bsld=max_bsld, peak_queue=peak_queue,
            peak_running=peak_running, peak_segments=peak_segments,
            demoted_at=demoted_at, windows_emitted=next_emit,
        )

    # ------------------------------------------------------------------
    def _finalize(
        self, result: ReplayResult, emitted: List[Dict], started_clock,
        *, arrived, events, total_work, pmax, latest_lb_finish,
        last_completion, sum_wait, max_wait, sum_slowdown, sum_bsld,
        max_bsld, peak_queue, peak_running, peak_segments,
        demoted_at=None, windows_emitted=None, uncertainty_totals=None,
    ) -> ReplayResult:
        """Assemble the totals row (shared by both loops, so the fused
        and generic paths cannot drift)."""
        makespan = last_completion
        lb = max(pmax, _exact_ratio(total_work, self.m), latest_lb_finish)
        result.windows = emitted
        result.totals = {
            "n_jobs": arrived,
            "makespan": makespan,
            "total_work": total_work,
            "utilization": (
                float(total_work) / float(self.m * makespan) if makespan else 0.0
            ),
            "mean_wait": _mean(sum_wait, arrived),
            "max_wait": max_wait,
            "mean_slowdown": _mean(sum_slowdown, arrived),
            "mean_bounded_slowdown": _mean(sum_bsld, arrived),
            "max_bounded_slowdown": max_bsld,
            "lower_bound": float(lb),
            "ratio_lb": float(makespan) / float(lb) if lb else 0.0,
            "events": events,
            "windows": len(emitted) if windows_emitted is None else windows_emitted,
            "peak_queue_length": peak_queue,
            "peak_running": peak_running,
            "peak_profile_segments": peak_segments,
            "elapsed_seconds": _time.perf_counter() - started_clock,
        }
        if demoted_at is not None:
            result.totals["demoted_to_list_at"] = dict(demoted_at)
        if uncertainty_totals is not None:
            result.totals.update(uncertainty_totals)
        if self.store is not None:
            self.store.append({"key": "totals", **result.totals})
        return result


def _exact_ratio(num, den):
    """``num / den`` kept exact for int inputs (Fractions sum without
    float-order noise), plain division otherwise."""
    if isinstance(num, Integral) and isinstance(den, Integral):
        f = Fraction(int(num), int(den))
        return f.numerator if f.denominator == 1 else f
    return num / den


def replay(
    arrivals: Iterable[Job],
    m: int,
    policy: str = "easy",
    **engine_kwargs,
) -> ReplayResult:
    """Convenience wrapper: replay an arrival iterable on ``m`` machines."""
    return ReplayEngine(m, policy=policy, **engine_kwargs).run(arrivals)


def replay_swf(
    source,
    policy: str = "easy",
    m: Optional[int] = None,
    max_jobs: Optional[int] = None,
    **engine_kwargs,
) -> ReplayResult:
    """Stream an SWF trace (path, ``.gz`` path or text stream) through
    the replay engine.

    The machine size comes from ``m=`` or the trace's ``; MaxProcs:``
    header (resolved from the first arrival before the engine starts).
    Returns the :class:`ReplayResult`; the stream's counters are
    attached as ``totals["skipped_lines"]`` (lines dropped from the
    stream) and ``totals["clipped_jobs"]`` (jobs replayed at reduced
    width).
    """
    from itertools import chain

    from ..workloads.swf import iter_swf

    stream = iter_swf(source, m=m, max_jobs=max_jobs)
    it: Iterator[Job] = iter(stream)
    first = next(it, None)
    if first is None:
        raise TraceFormatError("SWF stream contains no usable jobs")
    engine = ReplayEngine(stream.m, policy=policy, **engine_kwargs)
    result = engine.run(chain([first], it))
    result.totals["skipped_lines"] = stream.n_skipped
    result.totals["clipped_jobs"] = stream.n_clipped
    return result


# ---------------------------------------------------------------------------
# sharded multi-policy replay
# ---------------------------------------------------------------------------

#: Prefix of a synthetic scenario-pack source (``synth:<profile>[:<n>]``).
SYNTH_PREFIX = "synth:"

#: Job count of a synthetic source that names no ``:<n>`` (shared by the
#: CLI and the sharded runner so the default cannot drift).
DEFAULT_SYNTH_JOBS = 100_000


def parse_synth_source(source: str) -> Tuple[str, Optional[int]]:
    """Split ``synth:<profile>[:<n>]`` into ``(profile, n-or-None)``.

    Raises :class:`~repro.errors.TraceFormatError` on unknown profiles
    or a non-integer length, so the CLI and the sharded runner reject
    malformed sources with the same message.
    """
    from ..workloads.swf import SYNTH_PROFILES

    parts = source.split(":")
    profile = parts[1] if len(parts) > 1 else ""
    if profile not in SYNTH_PROFILES:
        raise TraceFormatError(
            f"unknown synthetic profile {profile!r}; known: "
            f"{', '.join(SYNTH_PROFILES)}"
        )
    if len(parts) > 2:
        try:
            return profile, int(parts[2])
        except ValueError:
            raise TraceFormatError(
                f"synthetic trace length {parts[2]!r} is not an integer "
                "(expected synth:<profile>[:<n>])"
            ) from None
    return profile, None


@dataclass
class MultiReplayResult:
    """Outcome of a multi-policy replay (serial or sharded).

    ``results`` maps each policy to its :class:`ReplayResult` (in the
    declaration order of the run); ``rows`` is the merged JSONL row list
    — per-window rows then a totals row per policy, policies in
    declaration order, volatile wall-clock fields stripped — which is
    byte-identical between serial and sharded executions.
    """

    m: int
    results: Dict[str, ReplayResult] = field(default_factory=dict)
    rows: List[Dict] = field(default_factory=list)


def _merged_policy_rows(policy: str, result: ReplayResult) -> List[Dict]:
    """The deterministic JSONL rows one policy contributes."""
    rows: List[Dict] = []
    for window_row in result.windows:
        row = {"key": f"{policy}/{window_row['key']}", "policy": policy}
        row.update(
            (k, v) for k, v in window_row.items() if k != "key"
        )
        rows.append(row)
    totals = {
        k: v for k, v in result.totals.items()
        if k not in VOLATILE_TOTAL_FIELDS
    }
    rows.append({"key": f"{policy}/totals", "policy": policy, **totals})
    return rows


def _run_policy_shard(payload: Tuple) -> Tuple[str, ReplayResult]:
    """One worker: replay ``source`` under a single policy.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor`
    can pickle it; the payload re-creates the arrival stream inside the
    worker (streams themselves are not picklable).
    """
    source, policy, m, n, max_jobs, seed, engine_kwargs = payload
    if isinstance(source, str) and source.startswith(SYNTH_PREFIX):
        from ..workloads.swf import synth_swf_jobs

        profile, parsed_n = parse_synth_source(source)
        jobs_n = n if n is not None else (parsed_n or DEFAULT_SYNTH_JOBS)
        if max_jobs is not None:
            jobs_n = min(jobs_n, max_jobs)
        machine = m or 256
        engine = ReplayEngine(machine, policy=policy, **engine_kwargs)
        result = engine.run(
            synth_swf_jobs(profile, jobs_n, m=machine, seed=seed)
        )
    else:
        result = replay_swf(
            source, policy=policy, m=m, max_jobs=max_jobs, **engine_kwargs
        )
    return policy, result


def replay_policies(
    source,
    policies: Iterable[str] = ("easy",),
    m: Optional[int] = None,
    jobs: int = 1,
    store=None,
    n: Optional[int] = None,
    max_jobs: Optional[int] = None,
    seed: int = 0,
    **engine_kwargs,
) -> MultiReplayResult:
    """Replay one trace under several policies — sharded when asked.

    Each policy's replay consumes an *independent* stream of the same
    source (an SWF path or ``synth:<profile>[:<n>]``), so the K policies
    are embarrassingly parallel: ``jobs > 1`` runs them on a process
    pool, one worker per policy.  Workers return their per-window
    aggregates, and the merged rows are assembled **policy by policy in
    declaration order** with wall-clock fields stripped, so the JSONL
    written to ``store`` is byte-identical between ``jobs=1`` and any
    sharded execution (a test and the ``replay-throughput`` benchmark
    gate both assert this).

    ``engine_kwargs`` pass through to :class:`ReplayEngine` (window,
    profile_backend, record_starts, ...).  Returns a
    :class:`MultiReplayResult`.
    """
    policy_list = list(policies)
    if not policy_list:
        raise SchedulingError("replay needs at least one policy")
    if len(set(policy_list)) != len(policy_list):
        raise SchedulingError(f"duplicate policies in {policy_list}")
    for name in policy_list:
        POLICIES.get(name)  # loud, early resolution
    if jobs < 1:
        raise SchedulingError(f"jobs must be >= 1, got {jobs!r}")
    if store is not None and not hasattr(store, "append"):
        from ..run.store import JsonlStore

        store = JsonlStore(store)

    payloads = [
        (source, policy, m, n, max_jobs, seed, dict(engine_kwargs))
        for policy in policy_list
    ]
    if jobs == 1 or len(policy_list) == 1:
        outcomes = [_run_policy_shard(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, len(policy_list))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map() preserves submission order: merged rows come out in
            # declaration order no matter which shard finishes first
            outcomes = list(pool.map(_run_policy_shard, payloads))

    merged = MultiReplayResult(m=outcomes[0][1].m)
    for policy, result in outcomes:
        merged.results[policy] = result
        rows = _merged_policy_rows(policy, result)
        merged.rows.extend(rows)
        if store is not None:
            for row in rows:
                store.append(row)
    return merged
