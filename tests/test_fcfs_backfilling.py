"""Tests for FCFS and backfilling policies (Section 2.2's spectrum)."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from repro.algorithms import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FCFSScheduler,
    ListScheduler,
    conservative_backfill,
    easy_backfill,
    fcfs_schedule,
)
from repro.core import ReservationInstance, RigidInstance
from repro.core.timebase import TIMEBASE_POLICIES
from repro.errors import ReproError

from conftest import protocol_schedule, random_resa, random_rigid, tick_replay


class TestFCFS:
    def test_no_overtaking(self):
        """A wide head job blocks narrow later jobs (the FCFS pathology)."""
        inst = RigidInstance.from_specs(2, [(2, 2), (1, 1), (1, 1)])
        s = fcfs_schedule(inst)
        s.verify()
        assert s.starts[0] == 0
        # narrow jobs wait behind nothing (wide started first), then fill
        assert s.starts[1] == 2 and s.starts[2] == 2
        assert s.makespan == 3

    def test_head_blocks_queue(self):
        # order: narrow long, wide, narrow: wide blocks the final narrow
        inst = RigidInstance.from_specs(2, [(4, 1), (1, 2), (1, 1)])
        s = fcfs_schedule(inst)
        s.verify()
        assert s.starts[0] == 0
        assert s.starts[1] == 4  # wide waits for the narrow long
        assert s.starts[2] >= s.starts[1]  # no overtaking

    def test_start_times_nondecreasing_in_queue_order(self):
        inst = random_rigid(3, n=10)
        s = fcfs_schedule(inst)
        starts = [s.starts[j.id] for j in inst.jobs]
        assert all(a <= b for a, b in zip(starts, starts[1:]))

    def test_fcfs_worse_than_lsrc_on_pathological_instance(self):
        inst = RigidInstance.from_specs(
            4, [(1, 4), (5, 1), (1, 4), (5, 1)]
        )
        fc = fcfs_schedule(inst)
        ls = ListScheduler().schedule(inst)
        assert fc.makespan >= ls.makespan

    def test_respects_releases(self):
        inst = RigidInstance.from_specs(2, [(1, 1, 3), (1, 1)])
        s = fcfs_schedule(inst)
        s.verify()
        # release order puts job 1 (release 0) first
        assert s.starts[1] == 0
        assert s.starts[0] == 3

    def test_reservation_gap_not_backfilled(self):
        # FCFS head waits for the reservation; the short job behind it
        # could fit in the gap but FCFS must NOT backfill it
        inst = ReservationInstance.from_specs(
            1, [(3, 1), (2, 1)], [(2, 1, 1)]
        )
        s = fcfs_schedule(inst)
        s.verify()
        assert s.starts[0] == 3   # head: after the reservation
        assert s.starts[1] == 6   # no overtaking: gap [0,2) stays empty
        ls = ListScheduler().schedule(inst)
        assert ls.makespan < s.makespan  # LSRC uses the gap


class TestConservativeBackfill:
    def test_backfills_into_gap_without_delaying(self):
        inst = ReservationInstance.from_specs(
            1, [(3, 1), (2, 1)], [(2, 1, 1)]
        )
        s = conservative_backfill(inst)
        s.verify()
        # job 0 placed first at its earliest fit (3); job 1 then slides
        # into the [0, 2) gap without delaying job 0
        assert s.starts[0] == 3
        assert s.starts[1] == 0
        assert s.makespan == 6

    def test_earlier_jobs_never_delayed(self):
        """Placement of job j never moves jobs < j (prefix stability)."""
        inst = random_resa(21, n=8)
        jobs = list(inst.jobs)
        prefix_starts = None
        for upto in range(1, len(jobs) + 1):
            sub = inst.with_jobs(jobs[:upto])
            s = conservative_backfill(sub)
            if prefix_starts is not None:
                for j in jobs[: upto - 1]:
                    assert s.starts[j.id] == prefix_starts[j.id]
            prefix_starts = s.starts

    def test_feasible_on_random(self):
        for seed in range(10):
            s = conservative_backfill(random_resa(seed))
            s.verify()


class TestEasyBackfill:
    def test_head_never_delayed_by_backfill(self):
        # head is wide; a narrow long job must NOT backfill past the
        # head's earliest start, but a narrow short one may
        inst = RigidInstance.from_specs(
            2, [(2, 1), (2, 2), (10, 1), (2, 1)]
        )
        s = easy_backfill(inst)
        s.verify()
        assert s.starts[0] == 0
        # head (job 1, q=2) can start at 2; the 10-long narrow job would
        # push it to 10 if backfilled at 0 on the second processor
        assert s.starts[1] == 2
        assert s.starts[2] >= 2  # long narrow did not jump the queue
        assert s.starts[3] == 0  # short narrow fits before the head

    def test_easy_between_fcfs_and_lsrc_here(self):
        inst = ReservationInstance.from_specs(
            1, [(3, 1), (2, 1)], [(2, 1, 1)]
        )
        easy = easy_backfill(inst)
        easy.verify()
        fc = fcfs_schedule(inst)
        assert easy.makespan <= fc.makespan

    def test_feasible_on_random(self):
        for seed in range(10):
            s = easy_backfill(random_resa(seed))
            s.verify()

    def test_with_releases(self):
        inst = RigidInstance.from_specs(
            2, [(2, 2, 0), (1, 1, 1), (3, 1, 1)]
        )
        s = easy_backfill(inst)
        s.verify()
        for job in inst.jobs:
            assert s.starts[job.id] >= job.release


class TestPolicyOrdering:
    """The classic dominance pattern on random workloads: aggressive
    backfilling (LSRC) tends to beat conservative, which tends to beat
    pure FCFS — not a theorem instance-by-instance, so compare averages."""

    def test_average_makespans_ordered(self):
        totals = {"lsrc": 0, "cons": 0, "fcfs": 0}
        for seed in range(30):
            inst = random_rigid(seed, n=12)
            totals["lsrc"] += ListScheduler().schedule(inst).makespan
            totals["cons"] += conservative_backfill(inst).makespan
            totals["fcfs"] += fcfs_schedule(inst).makespan
        assert totals["lsrc"] <= totals["cons"] <= totals["fcfs"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_all_policies_feasible(seed):
    inst = random_resa(seed)
    for scheduler in (
        FCFSScheduler(),
        ConservativeBackfillScheduler(),
        EasyBackfillScheduler(),
    ):
        scheduler.schedule(inst).verify()


def _time(kind: str, k: int, offset: bool):
    """Grid value ``k`` as an int, a Fraction (thirds) or a float (binary
    quarters, plus 0.1 — no short binary expansion — when ``offset``)."""
    if kind == "int":
        return k
    if kind == "fraction":
        return Fraction(k, 3)
    return k * 0.25 + (0.1 if offset else 0.0)


# derandomized: the same examples every run, so tier-1 stays repeatable
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    m=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(["int", "fraction", "float"]),
    jobs=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),   # p
            st.integers(min_value=1, max_value=6),   # q
            st.integers(min_value=0, max_value=10),  # release
            st.booleans(),                           # float offset
        ),
        min_size=1, max_size=10,
    ),
    holes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),  # start
            st.integers(min_value=1, max_value=5),   # duration
            st.integers(min_value=1, max_value=3),   # q
        ),
        max_size=3,
    ),
    timebase=st.sampled_from(TIMEBASE_POLICIES),
)
def test_easy_matches_online_simulation(m, kind, jobs, holes, timebase):
    """Offline EASY (a driver of the scheduler core's inlined EASY pass)
    gives the starts of an independent online EASY on every time type
    and timebase: the tick-stepped oracle on int instances, the core's
    protocol path (the registered ``policy_easy`` function run through
    ``decide``) on Fraction and float ones."""
    specs = [
        (_time(kind, p, off), min(q, m), _time(kind, r, off))
        for p, q, r, off in jobs
    ]
    res = [(_time(kind, s, False), _time(kind, d, False), min(q, m - 1))
           for s, d, q in holes]
    try:
        inst = ReservationInstance.from_specs(m, specs, res)
    except ReproError:
        assume(False)  # overlapping holes exceeded the machine
    easy = EasyBackfillScheduler(timebase=timebase).schedule(inst)
    if kind == "int":
        arrivals = sorted(inst.jobs, key=lambda j: j.release)
        blocks = [(r.start, r.p, r.q) for r in inst.reservations]
        want = tick_replay(m, "easy", arrivals, blocks)["starts"]
    else:
        want = protocol_schedule(inst, "easy", timebase).starts
    assert easy.starts == want
    easy.verify()
