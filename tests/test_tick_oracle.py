"""A tick-stepped reference for stochastic replay.

The scheduler core decides only at event times: arrivals, completions,
failures, requeue re-entries, no-show releases and hole ends.  Under
runtime uncertainty it keeps that promise with calendar buckets and
wake-ups: early exits credit their unused tail at the exit instant,
failures park a job for re-entry after a backoff, grace extensions
re-bucket the job at the extension's end, and every hole end has a wake
bucket of its own.  Yao & Zhang's significant-moment argument says a
scheduler that decides only at such moments loses nothing against one
that decides at every instant — provided no moment is missed.

The oracle below checks exactly that, independently of the core's
machinery.  It steps an integer clock one tick at a time and, at every
tick, applies the fates due then (in the order they were scheduled),
the no-show releases, the requeue re-entries and the arrivals; then it
rebuilds the availability profile from scratch — ``m``, minus the holes
still standing, minus every running job up to its estimated (or
grace-extended) end — and applies the textbook rule: FCFS starts queue
heads while they fit; greedy (LSRC run online) starts every queued job
that fits, in queue order; EASY starts heads while they fit, reserves the
blocked head at its earliest fit and backfills, in queue order, each job
that fits now on the profile holding that reservation.  Actual runtimes
come from a test-side model overriding ``_actual``, as third-party
models do.  Starts, kills, requeues, early exits, hole releases and the
last completion must equal the core's, on its inlined passes and on the
reference protocol path.
"""

from dataclasses import dataclass
from functools import partial
from typing import Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.job import Job
from repro.simulation.online_sim import POLICIES
from repro.simulation.scheduler_core import SchedulerCore
from repro.workloads.uncertainty import UncertaintyModel


@dataclass(frozen=True)
class _OffsetModel(UncertaintyModel):
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


def tick_replay(m, policy, jobs, holes, model, max_ticks=10_000):
    """Replay ``jobs`` (release order) around the reservation ``holes``
    (``(start, p, q)``, accepted in order) one integer tick at a time;
    returns the observable outcome as a dict."""
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
        if policy == "greedy":
            for job in list(queue):
                if fits(job.q, t, job.p):
                    start(job, t)
        else:
            while queue and fits(queue[0].q, t, queue[0].p):
                start(queue[0], t)
        if policy == "easy" and len(queue) > 1:
            head = queue[0]
            shadow = t
            while not fits(head.q, shadow, head.p):
                shadow += 1
            held = ((shadow, shadow + head.p, head.q),)
            for job in list(queue[1:]):
                if fits(job.q, t, job.p, held):
                    start(job, t)
        t += 1
    return out


def core_replay(m, policy, jobs, holes, model, fast):
    """The same replay through :class:`SchedulerCore`: the holes
    reserved up front, every job submitted, then drained."""
    decide = POLICIES.get(policy)
    core = SchedulerCore(
        m, policy, record_starts=True, uncertainty=model,
        decide=decide if fast else partial(decide),
    )
    for hole in holes:
        core.reserve(*hole)
    for job in jobs:
        core.submit(job)
    core.drain()
    return dict(starts=core.starts, kills=core.kills,
                requeues=core.requeues, early_exits=core.early_exits,
                no_shows=core.no_shows, completed=core.completed,
                last_completion=core.last_completion)


M = 8

_jobs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),   # submit gap
        st.integers(min_value=1, max_value=8),   # runtime estimate
        st.integers(min_value=1, max_value=M),   # processors
    ),
    min_size=1,
    max_size=12,
)

#: at most two holes, each at most half the machine, so both always fit
_holes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),      # start
        st.integers(min_value=1, max_value=10),      # duration
        st.integers(min_value=1, max_value=M // 2),  # processors
    ),
    max_size=2,
)

_model = st.builds(
    _OffsetModel,
    model=st.just("offset"),
    offsets=st.lists(st.integers(min_value=-7, max_value=4),
                     min_size=1, max_size=3).map(tuple),
    failure_rate=st.sampled_from([0.0, 0.3]),
    max_retries=st.just(2),
    backoff=st.sampled_from([1, 3]),
    no_show_rate=st.sampled_from([0.0, 0.5]),
    overrun=st.sampled_from(["kill", "grace"]),
    grace=st.sampled_from([0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)


@pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy"])
@given(rows=_jobs, holes=_holes, model=_model)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_event_core_equals_tick_oracle(policy, rows, holes, model):
    jobs = []
    t = 0
    for i, (gap, p, q) in enumerate(rows):
        t += gap
        jobs.append(Job.trusted(i, p, q, t))
    want = tick_replay(M, policy, jobs, holes, model)
    for fast in (True, False):
        assert core_replay(M, policy, jobs, holes, model, fast) == want


def test_oracle_hand_checked_case():
    """The oracle on a case worked by hand: an early exit frees its tail
    at the exit tick, where EASY backfills into it; the blocked head
    waits out a hole and starts at the hole's end."""
    model = _OffsetModel(model="offset", offsets=(-3,))
    jobs = [Job.trusted("a", 5, 4, 0), Job.trusted("b", 4, 8, 0),
            Job.trusted("c", 1, 8, 0)]
    holes = [(3, 5, 4)]
    out = tick_replay(8, "easy", jobs, holes, model)
    # a runs [0, 2) of its estimated [0, 5); c takes the whole machine
    # in [2, 3), before the hole [3, 8); b needs it for 4 ticks: at 8
    assert out["starts"] == {"a": 0, "b": 8, "c": 2}
    assert out["early_exits"] == 2 and out["last_completion"] == 9
    for fast in (True, False):
        assert core_replay(8, "easy", jobs, holes, model, fast) == out
