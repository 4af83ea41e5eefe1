"""Policy invariants of the scheduler core, stepped one tick at a time.

Hypothesis properties over small integer arrival streams with committed
reservations (every hole is reserved before the first ``advance_to``):

* EASY and FCFS never push back the queue head: while one job heads the
  queue, its earliest fit on the live profile never moves later, and the
  job starts at the last value seen;
* FCFS starts jobs in queue order (start times non-decreasing);
* no start overlaps a hole: the schedule, checked against an instance
  carrying the reservations, passes ``Schedule.verify()``.

Offline EASY (:class:`~repro.algorithms.backfilling.EasyBackfillScheduler`)
drives the same core, so these checks cover it too.
"""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.core.instance import ReservationInstance
from repro.core.job import Job
from repro.core.schedule import Schedule
from repro.errors import ReproError
from repro.simulation import SchedulerCore

_jobs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),   # p
        st.integers(min_value=1, max_value=5),   # q
        st.integers(min_value=0, max_value=8),   # release
    ),
    min_size=1, max_size=8,
)
_holes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10),  # start
        st.integers(min_value=1, max_value=4),   # duration
        st.integers(min_value=1, max_value=4),   # q
    ),
    max_size=3,
)


def _instance(m, jobs, holes) -> ReservationInstance:
    """The stream as an instance (jobs in stable release order); an
    over-full set of holes is not an instance at all."""
    specs = sorted(((p, min(q, m), r) for p, q, r in jobs), key=lambda s: s[2])
    res = [(s, d, min(q, m - 1)) for s, d, q in holes]
    try:
        return ReservationInstance.from_specs(m, specs, res)
    except ReproError:
        assume(False)


def _step(instance, policy, backend):
    """Run ``policy`` on a core one tick at a time; returns the starts
    and, per job that headed the queue after some tick, the earliest
    fits seen for it."""
    core = SchedulerCore(
        instance.m, policy, window=0, record_starts=True,
        profile_backend=backend,
    )
    for res in instance.reservations:
        core.reserve(res.start, res.p, res.q)
    for job in instance.jobs:
        core.submit(job)
    horizon = sum(job.p for job in instance.jobs) + max(
        [job.release for job in instance.jobs]
        + [res.end for res in instance.reservations]
    )
    seen = {}
    for t in range(horizon + 1):
        core.advance_to(t)
        if core.queue:
            head = next(iter(core.queue.values()))
            seen.setdefault(head.id, []).append(
                core.profile.earliest_fit(head.q, head.p, after=t)
            )
        if len(core.starts) == instance.n:
            break
    core.drain()
    return core.starts, seen


# derandomized: the same examples every run, so tier-1 stays repeatable
@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    m=st.integers(min_value=2, max_value=5),
    jobs=_jobs,
    holes=_holes,
    policy=st.sampled_from(["easy", "fcfs"]),
    backend=st.sampled_from(["auto", "list"]),
)
def test_head_is_never_pushed_back(m, jobs, holes, policy, backend):
    instance = _instance(m, jobs, holes)
    starts, seen = _step(instance, policy, backend)
    for jid, fits in seen.items():
        assert all(b <= a for a, b in zip(fits, fits[1:])), (jid, fits)
        assert starts[jid] == fits[-1], (jid, fits)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(min_value=2, max_value=5), jobs=_jobs, holes=_holes)
def test_fcfs_starts_in_queue_order(m, jobs, holes):
    instance = _instance(m, jobs, holes)
    starts, _ = _step(instance, "fcfs", "auto")
    ordered = [starts[job.id] for job in instance.jobs]
    assert ordered == sorted(ordered)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(min_value=2, max_value=5),
    jobs=_jobs,
    holes=_holes,
    policy=st.sampled_from(["easy", "fcfs", "greedy"]),
)
def test_no_start_overlaps_a_hole(m, jobs, holes, policy):
    instance = _instance(m, jobs, holes)
    starts, _ = _step(instance, policy, "auto")
    Schedule(instance, starts).verify()
