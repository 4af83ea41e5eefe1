"""A tick-stepped reference for stochastic replay and online runs.

The scheduler core decides only at event times: arrivals, completions,
failures, requeue re-entries, no-show releases and hole ends.  Under
runtime uncertainty it keeps that promise with calendar buckets and
wake-ups: early exits credit their unused tail at the exit instant,
failures park a job for re-entry after a backoff, grace extensions
re-bucket the job at the extension's end, and every hole end has a wake
bucket of its own.  Yao & Zhang's significant-moment argument says a
scheduler that decides only at such moments loses nothing against one
that decides at every instant — provided no moment is missed.

The oracle (``tests/conftest.py::tick_replay``) checks exactly that,
independently of the core's machinery: it steps an integer clock one
tick at a time, rebuilds the availability profile from scratch at
every tick and applies each policy's textbook rule — FCFS, greedy
(LSRC run online), EASY and conservative.  Actual runtimes come from a
test-side model overriding ``_actual``, as third-party models do.
Starts, kills, requeues, early exits, hole releases and the last
completion must equal the core's, on its inlined passes and on the
reference protocol path.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.job import Job
from repro.simulation.online_sim import POLICIES
from repro.simulation.scheduler_core import SchedulerCore

from conftest import OffsetModel, tick_replay


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
    OffsetModel,
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


@pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy", "conservative"])
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
    model = OffsetModel(model="offset", offsets=(-3,))
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


def test_oracle_hand_checked_conservative_case():
    """Conservative on a case worked by hand: an early exit moves a
    later job's planned start earlier.  ``b`` needs the whole machine,
    so at 0 it is planned after ``a``'s estimated end (6); ``c`` fits
    beside ``a`` and starts at 0.  ``a`` exits at 3 instead of 6, and
    the plan made at 3 starts ``b`` there."""
    model = OffsetModel(model="offset", offsets=(-3,))
    jobs = [Job.trusted("a", 6, 4, 0), Job.trusted("b", 2, 8, 0),
            Job.trusted("c", 1, 4, 0)]
    out = tick_replay(8, "conservative", jobs, [], model)
    # b runs 1 of its estimated 2 ticks: a second early exit
    assert out["starts"] == {"a": 0, "b": 3, "c": 0}
    assert out["early_exits"] == 2 and out["last_completion"] == 4
    # on estimates alone, b keeps its plan at a's estimated end
    assert tick_replay(8, "conservative", jobs, [])["starts"]["b"] == 6
    for fast in (True, False):
        assert core_replay(8, "conservative", jobs, [], model, fast) == out
