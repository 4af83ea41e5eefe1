"""Tests for the online cluster simulation (``simulate`` on the scheduler
core) and its derived event trace."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import fcfs_schedule, list_schedule
from repro.core import ReservationInstance, RigidInstance
from repro.errors import SchedulingError
from repro.simulation import simulate
from repro.workloads import uniform_instance, with_poisson_releases

from conftest import OffsetModel, random_resa


class TestOnlinePolicies:
    def test_greedy_matches_offline_lsrc_on_offline_instance(self):
        for seed in range(8):
            inst = uniform_instance(15, 8, seed=seed)
            online = simulate(inst, "greedy")
            offline = list_schedule(inst)
            assert online.schedule.starts == offline.starts, f"seed {seed}"

    def test_fcfs_matches_offline_fcfs_on_offline_instance(self):
        for seed in range(8):
            inst = uniform_instance(15, 8, seed=seed)
            online = simulate(inst, "fcfs")
            offline = fcfs_schedule(inst)
            assert (
                online.schedule.makespan == offline.makespan
            ), f"seed {seed}"

    def test_conservative_close_to_offline(self):
        # online conservative re-plans, so starts can differ, but the
        # schedule must verify and respect arrival order reservations
        for seed in range(5):
            inst = uniform_instance(12, 8, seed=seed)
            online = simulate(inst, "conservative")
            online.schedule.verify()

    def test_all_policies_with_arrivals_and_reservations(self):
        base = uniform_instance(15, 8, seed=9)
        timed = with_poisson_releases(base, rate=0.1, seed=10)
        inst = ReservationInstance(
            m=8,
            jobs=timed.jobs,
            reservations=(
                __import__("repro").core.Reservation(
                    id="R", start=20, p=30, q=4
                ),
            ),
        )
        for policy in ("fcfs", "greedy", "easy", "conservative"):
            result = simulate(inst, policy)
            result.schedule.verify()
            for job in inst.jobs:
                assert result.schedule.starts[job.id] >= job.release

    def test_trace_structure(self):
        inst = uniform_instance(6, 4, seed=11)
        result = simulate(inst, "greedy")
        kinds = [e.kind for e in result.trace]
        assert kinds.count("arrive") == 6
        assert kinds.count("start") == 6
        assert kinds.count("finish") == 6
        # arrivals precede starts precede finishes per job
        for job in inst.jobs:
            t_arr = next(
                e.time for e in result.trace
                if e.kind == "arrive" and e.job_id == job.id
            )
            t_start = next(
                e.time for e in result.trace
                if e.kind == "start" and e.job_id == job.id
            )
            t_fin = next(
                e.time for e in result.trace
                if e.kind == "finish" and e.job_id == job.id
            )
            assert t_arr <= t_start < t_fin

    def test_unknown_policy(self):
        inst = uniform_instance(3, 4, seed=0)
        with pytest.raises(SchedulingError):
            simulate(inst, "psychic")

    def test_easy_head_not_delayed(self):
        """EASY's contract: the queue head never starts later than its
        earliest start computed at any decision instant (spot-check via
        comparison with pure FCFS head starts)."""
        inst = RigidInstance.from_specs(
            2, [(2, 1), (2, 2), (10, 1), (2, 1)]
        )
        easy = simulate(inst, "easy").schedule
        assert easy.starts[1] == 2   # same as offline analysis
        assert easy.starts[3] == 0   # short narrow backfilled


def _events(result):
    return [(e.time, e.kind, e.job_id, e.queue_length) for e in result.trace]


class TestDerivedTrace:
    """The trace is rebuilt from the schedule: at one instant finishes
    (in start order), then arrivals (in queue order), then the pass's
    starts, each start carrying the queue left after the whole pass."""

    def test_finish_arrival_and_start_pass_share_an_instant(self):
        # greedy on 4 processors: job 0 holds the machine over [0, 2);
        # at 2 it finishes, jobs 2 and 3 arrive, and one pass starts
        # jobs 1 and 2 and leaves job 3 (all 4 processors) queued
        inst = ReservationInstance.from_specs(
            4, [(2, 4, 0), (1, 2, 1), (3, 2, 2), (1, 4, 2)]
        )
        assert _events(simulate(inst, "greedy")) == [
            (0, "arrive", 0, 1), (0, "start", 0, 0),
            (1, "arrive", 1, 1),
            (2, "finish", 0, 1), (2, "arrive", 2, 2), (2, "arrive", 3, 3),
            (2, "start", 1, 1), (2, "start", 2, 1),
            (3, "finish", 1, 1),
            (5, "finish", 2, 1), (5, "start", 3, 0),
            (6, "finish", 3, 0),
        ]

    def test_finish_at_the_actual_end(self):
        # every job runs one tick under its estimate: job 0 (estimate
        # 3) finishes at 2, where jobs 1 and 2 start together and both
        # finish at 3 (in start order) instead of at their estimated 4
        inst = ReservationInstance.from_specs(
            4, [(3, 4, 0), (2, 2, 1), (2, 2, 2)]
        )
        model = OffsetModel(model="offset", offsets=(-1,))
        result = simulate(inst, "greedy", uncertainty=model)
        assert _events(result) == [
            (0, "arrive", 0, 1), (0, "start", 0, 0),
            (1, "arrive", 1, 1),
            (2, "finish", 0, 1), (2, "arrive", 2, 2),
            (2, "start", 1, 0), (2, "start", 2, 0),
            (3, "finish", 1, 0), (3, "finish", 2, 0),
        ]
        assert [j.p for j in result.schedule.instance.jobs] == [2, 1, 1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(["fcfs", "greedy", "easy", "conservative"]),
)
def test_simulation_always_produces_feasible_schedules(seed, policy):
    inst = random_resa(seed)
    result = simulate(inst, policy)
    result.schedule.verify()
