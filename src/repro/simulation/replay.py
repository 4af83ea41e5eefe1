"""Rolling-horizon trace replay: online policies at million-job scale.

:func:`~repro.simulation.online_sim.simulate` materialises the whole
instance and keeps every start — the right shape for paper-scale
experiments, and exactly the wrong one for archive SWF traces
(10⁵–10⁷ jobs).  This module is the out-of-core driver of the same
event loop: :class:`ReplayEngine` consumes *any* iterator of
:class:`~repro.core.job.Job` arrivals in release order
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
  soundness argument there) after every event with completions, on the
  kernel and the reference profile alike, so it holds the active
  segments only and the ``peak_profile_segments`` gauge reads the same
  on each.

Equivalence with the in-memory run
----------------------------------
The core processes, at each distinct event time, all completions, then
all arrivals, then one policy decision pass.  The built-in policies are
*pass-idempotent* (a second decision pass at the same instant starts
nothing new), so one pass per event time loses no start.  A hypothesis
differential test in ``tests/test_replay.py`` asserts byte-identical
schedules and metrics against an in-memory run of the whole instance
on the core's policy protocol, across policies and plain/gzip
ingestion, and ``tests/test_tick_oracle.py`` checks the event-time-only
decisions against a reference that decides at every integer tick.
Third-party policies must be pass-idempotent to share that guarantee.

Times pass through arithmetically untouched: integer traces (all SWF
archives, the synthetic pack) therefore run entirely on machine ints —
the replay face of the ``timebase="auto"`` fast path, whose scale factor
a stream cannot compute but which is 1 for every integer trace anyway.

One event loop
--------------
:class:`ReplayEngine` is a short driver: it builds a
:class:`~repro.simulation.scheduler_core.SchedulerCore` (resumed from a
checkpoint when asked), streams the arrival iterator into the core's
one event loop in a single ``feed`` call, then drains or checkpoints.
``repro serve``, stochastic replay and ``simulate`` run the same loop,
so the built-in policies' inlined passes and the conditions on the
loop's completion and start steps (documented on the core) serve every
driver.  The per-event cost rests on the array profile kernel
(``profile_backend="auto"``) and on the bucketed calendar completion
queue (see :class:`ReplayEngine`'s parameters);
``fused_policies=False`` runs the registered policy
functions through the core's policy protocol instead of the inlined
passes, and with ``profile_backend="list"`` and
``completion_queue="heap"`` it makes the reference configuration the
differential tests compare against.

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

import os
import time as _time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from numbers import Integral
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.job import Job
from ..core.metrics import BSLD_TAU, TAIL_QUANTILES, p_slowdown_le, quantile
from ..errors import SchedulingError, TraceFormatError
from .online_sim import POLICIES

if TYPE_CHECKING:
    from ..workloads.swf import SWFStream

#: Default window size (jobs per metrics window).
DEFAULT_WINDOW = 10_000

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


#: Version of the :class:`ReplayCheckpoint` contents, part of the
#: journaled-replay config fingerprint so a snapshot of another version
#: fails the header check instead of resuming.  Version 2 carries the
#: live ``events`` count (version 1 recorded 0 for exact-runtime runs)
#: and no blocked-head memo.  Version 3 drops the ``since_prune``
#: counter and the two fields that recorded a mid-stream switch from
#: the array to the list backend (one profile kernel now holds every
#: time type), so an older build refuses its snapshots instead of
#: dying on a missing key or attribute.
CHECKPOINT_VERSION = 3

#: Counter names carried across a slice boundary (one source of truth
#: for the checkpoint builders and the resume hydrators).
_CKPT_COUNTERS = (
    "arrived", "completed", "events", "total_work", "pmax",
    "latest_lb_finish", "last_completion", "sum_wait", "max_wait",
    "sum_slowdown", "sum_bsld", "max_bsld", "peak_queue",
    "running_count", "peak_running", "peak_segments", "pruned_to",
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
    #: uncertainty frontier state (fates of in-flight attempts, pending
    #: requeues/no-shows, event counters) — ``None`` when no stochastic
    #: model is active, keeping certain-world checkpoints byte-identical
    #: to pre-uncertainty ones
    uncertainty: Optional[Dict] = None


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

    def fill(self, arrived, first_release, work, pmax, latest_lb_finish):
        """Store the arrival-side sums a loop kept in locals."""
        self.arrived = arrived
        self.first_release = first_release
        self.work = work
        self.pmax = pmax
        self.latest_lb_finish = latest_lb_finish

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
        ``"auto"`` (the default): the profile kernel
        :class:`~repro.core.profiles.ResourceProfile`, for times of any
        exact type; ``"list"``: the simple reference
        :class:`~repro.core.profiles.ListProfile`.  Both give identical
        rows, totals and checkpoints, and both are pruned behind the
        clock after each event with completions, so they hold only the
        active window.
    window:
        Jobs per metrics window (0 disables windowed rows).
    store:
        Optional :class:`~repro.run.store.JsonlStore` (or path) that
        window rows and the final totals row stream to.
    bsld_tau:
        Bounded-slowdown runtime threshold.
    record_starts:
        Keep ``{job id: start}`` for the whole run — memory O(n); only
        for differential tests and paper-scale traces.
    completion_queue:
        ``"calendar"`` (default) buckets completions by end time with a
        heap of distinct times, so simultaneous completions cost one heap
        operation; ``"heap"`` keeps one heap entry per job, the per-job
        reference.  Both orderings are identical (same-time
        completions pop in start order either way).
    fused_policies:
        Run the built-in policies as the core's inlined passes (the
        default).  ``False`` runs the registered functions through the
        core's policy protocol — the reference configuration.
    """

    def __init__(
        self,
        m: int,
        policy: str = "easy",
        profile_backend: str = "auto",
        window: int = DEFAULT_WINDOW,
        store=None,
        bsld_tau=BSLD_TAU,
        record_starts: bool = False,
        completion_queue: str = "calendar",
        fused_policies: bool = True,
        uncertainty=None,
    ):
        from .scheduler_core import resolve_engine_config

        self.uncertainty = resolve_engine_config(
            m, window, completion_queue, uncertainty, profile_backend
        )
        self.m = m
        self.policy_name = policy
        policy_fn = POLICIES.get(policy)
        # a wrapper is not the registered function object, so the core
        # runs it through the policy protocol instead of its inlined pass
        self._decide = policy_fn if fused_policies else partial(policy_fn)
        self.profile_backend = profile_backend
        self.window = window
        self.bsld_tau = bsld_tau
        self.record_starts = record_starts
        self.completion_queue = completion_queue
        self.store = resolve_store(store)

    # ------------------------------------------------------------------
    def run(self, arrivals: Iterable[Job], stream=None) -> ReplayResult:
        """Replay ``arrivals``; returns the :class:`ReplayResult`.  The
        :func:`swf_counters` of ``stream``, the SWF stream the arrivals
        come from (if any), join the totals."""
        return self.run_slice(arrivals, stream=stream)

    def run_slice(
        self,
        arrivals: Iterable[Job],
        resume: Optional[ReplayCheckpoint] = None,
        drain: bool = True,
        stream=None,
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
        from .scheduler_core import SchedulerCore

        started_clock = _time.perf_counter()
        core = SchedulerCore(
            self.m, self.policy_name,
            profile_backend=self.profile_backend, window=self.window,
            store=self.store, bsld_tau=self.bsld_tau,
            record_starts=self.record_starts,
            completion_queue=self.completion_queue, decide=self._decide,
            resume=resume, uncertainty=self.uncertainty,
        )
        core.feed(arrivals)
        result = ReplayResult(
            policy=self.policy_name, m=self.m, window_size=self.window,
            starts=core.starts,
        )
        if not drain:
            result.windows = core.emitted
            result.checkpoint = core.checkpoint()
            return result
        core.drain()
        return self._finalize(result, core, started_clock, stream)

    def _finalize(
        self, result: ReplayResult, core, started_clock, stream
    ) -> ReplayResult:
        """Assemble the totals row from a drained core."""
        arrived = core.arrived
        makespan = core.last_completion
        lb = max(
            core.pmax, _exact_ratio(core.total_work, self.m),
            core.latest_lb_finish,
        )
        result.windows = core.emitted
        result.totals = {
            "n_jobs": arrived,
            "makespan": makespan,
            "total_work": core.total_work,
            "utilization": (
                float(core.total_work) / float(self.m * makespan)
                if makespan else 0.0
            ),
            "mean_wait": _mean(core.sum_wait, arrived),
            "max_wait": core.max_wait,
            "mean_slowdown": _mean(core.sum_slowdown, arrived),
            "mean_bounded_slowdown": _mean(core.sum_bsld, arrived),
            "max_bounded_slowdown": core.max_bsld,
            "lower_bound": float(lb),
            "ratio_lb": float(makespan) / float(lb) if lb else 0.0,
            "events": core.events,
            "windows": core.next_emit,
            "peak_queue_length": core.peak_queue,
            "peak_running": core.peak_running,
            "peak_profile_segments": core.peak_segments,
            "elapsed_seconds": _time.perf_counter() - started_clock,
        }
        model = core.uncertainty
        if model is not None:
            n = core.n_starts
            result.totals.update({
                "uncertainty": model.spec,
                "p_slowdown_le": (core.n_bsld_le / n) if n else 1.0,
                "requeues": core.requeues,
                "kills": core.kills,
                "no_shows": core.no_shows,
                "early_exits": core.early_exits,
            })
        result.totals.update(swf_counters(stream))
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
    header (see :func:`open_replay_source`).  Returns the
    :class:`ReplayResult`, whose totals carry the stream's
    :func:`swf_counters`.
    """
    arrivals, machine, stream = open_replay_source(
        source, m=m, max_jobs=max_jobs
    )
    engine = ReplayEngine(machine, policy=policy, **engine_kwargs)
    return engine.run(arrivals, stream=stream)


def resolve_store(store):
    """``store`` as an appendable row store: ``None`` and objects with
    an ``append`` method pass through, a path opens a
    :class:`~repro.run.store.JsonlStore`."""
    if store is None or hasattr(store, "append"):
        return store
    from ..run.store import JsonlStore

    return JsonlStore(store)


# ---------------------------------------------------------------------------
# replay sources
# ---------------------------------------------------------------------------

#: Prefix of a synthetic scenario-pack source (``synth:<profile>[:<n>]``).
SYNTH_PREFIX = "synth:"

#: Length of a synthetic source that names no ``:<n>`` when the caller
#: passes no ``n`` either.
DEFAULT_SYNTH_JOBS = 100_000


def parse_synth_source(source: str) -> Tuple[str, Optional[int]]:
    """Split ``synth:<profile>[:<n>]`` into ``(profile, n-or-None)``.

    Raises :class:`~repro.errors.TraceFormatError` on unknown profiles
    or a non-integer length.
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


def open_replay_source(
    source,
    *,
    m: Optional[int] = None,
    n: Optional[int] = None,
    max_jobs: Optional[int] = None,
    seed: int = 0,
) -> Tuple[Iterator[Job], int, Optional["SWFStream"]]:
    """Resolve a replay source to ``(arrivals, machine size, SWF stream)``.

    The one reading of a source for every replay path (``repro replay``
    plain, multi-policy and ``--journal``, :func:`replay_swf`, ``repro
    run`` trace points); nothing is materialised.

    * ``synth:<profile>[:<n>]`` — the scenario pack
      (:func:`~repro.workloads.swf.synth_swf_jobs`, seeded by ``seed``)
      on ``m`` machines (default 256); its length is the source's own
      ``:<n>``, else ``n``, else :data:`DEFAULT_SYNTH_JOBS`, capped at
      ``max_jobs``.
    * any other string, path or text stream — an SWF trace on ``m`` or
      its ``; MaxProcs:`` header, read from the first arrival up front.
    * any other iterable of jobs (``m`` required), capped at ``max_jobs``.

    The third item is the :class:`~repro.workloads.swf.SWFStream` of an
    SWF source, else ``None``; pass it to :meth:`ReplayEngine.run`.
    """
    if isinstance(source, str) and source.startswith(SYNTH_PREFIX):
        from ..workloads.swf import synth_swf_jobs

        profile, jobs_n = parse_synth_source(source)
        if jobs_n is None:
            jobs_n = n if n is not None else DEFAULT_SYNTH_JOBS
        if max_jobs is not None:
            jobs_n = min(jobs_n, max_jobs)
        machine = m or 256
        return synth_swf_jobs(profile, jobs_n, m=machine, seed=seed), machine, None
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        from ..workloads.swf import iter_swf

        stream = iter_swf(source, m=m, max_jobs=max_jobs)
        it = iter(stream)
        first = next(it, None)
        if first is None:
            raise TraceFormatError("SWF stream contains no usable jobs")
        return chain([first], it), stream.m, stream
    if m is None:
        raise SchedulingError("replaying an in-memory job stream needs m=")
    it = iter(source)
    if max_jobs is not None:
        it = islice(it, max_jobs)
    return it, m, None


def swf_counters(stream) -> Dict:
    """The totals fields an SWF source adds: ``skipped_lines`` (lines
    dropped from the stream) and ``clipped_jobs`` (jobs replayed at
    reduced width).  Empty for synthetic and in-memory sources
    (``stream`` is ``None``), which keeps their rows unchanged."""
    if stream is None:
        return {}
    return {"skipped_lines": stream.n_skipped, "clipped_jobs": stream.n_clipped}


# ---------------------------------------------------------------------------
# sharded multi-policy replay
# ---------------------------------------------------------------------------


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
    arrivals, machine, stream = open_replay_source(
        source, m=m, n=n, max_jobs=max_jobs, seed=seed
    )
    engine = ReplayEngine(machine, policy=policy, **engine_kwargs)
    result = engine.run(arrivals, stream=stream)
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
    store = resolve_store(store)

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
