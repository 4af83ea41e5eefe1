"""Integer-timebase fast path: exactness, differential guarantees, units.

The load-bearing claim of :mod:`repro.core.timebase` is *byte identity*:
scheduling on the scaled-integer twin and denormalising produces exactly
the schedule the exact ``Fraction`` path produces.  These tests check it
the hard way — hypothesis-style randomized grids across **every
registered scheduler and workload generator**, plus targeted property
tests of the engine pieces (``Timebase``, the integer sweep kernel as
the schedulers build it, the incremental LSRC sweep, the online
simulation twin).  The kernel, ``ArrayProfile``, is also held to the
list backend op by op, past 2**63, in ``tests/test_profile_backends.py``.
"""

from __future__ import annotations

import ast
import math
import numbers
import random
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms import available_schedulers, get_scheduler
from repro.algorithms.backfilling import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
)
from repro.algorithms.list_scheduling import (
    ListScheduler,
    SequentialPlacementScheduler,
    incremental_sweep,
)
from repro.core.instance import ReservationInstance
from repro.core.job import Job, Reservation
from repro.core.metrics import evaluate_metrics
from repro.core.profiles import ArrayProfile, ListProfile
from repro.core.schedule import Schedule
from repro.core.timebase import (
    TIMEBASE_POLICIES,
    Timebase,
    check_timebase_policy,
    exactify_instance,
    on_int_timebase,
    timebase_for,
)
from repro.errors import InvalidInstanceError, ReproError, SchedulingError
from repro.simulation import available_policies, simulate
from repro.workloads import available_workloads, make_workload

from conftest import reference_starts


# ---------------------------------------------------------------------------
# Timebase units
# ---------------------------------------------------------------------------

class TestTimebase:
    def test_integer_instance_has_trivial_scale(self):
        inst = ReservationInstance.from_specs(4, [(3, 2), (5, 1)], [(1, 2, 1)])
        tb = Timebase.of(inst)
        assert tb is not None and tb.scale == 1
        assert tb.normalize_instance(inst) is inst

    def test_scale_is_lcm_of_denominators(self):
        inst = ReservationInstance.from_specs(
            4,
            [(Fraction(1, 2), 2), (Fraction(2, 3), 1, Fraction(5, 6))],
            [(Fraction(1, 4), Fraction(1, 2), 1)],
        )
        tb = Timebase.of(inst)
        assert tb.scale == 12  # lcm(2, 3, 6, 4, 2)

    def test_twin_profile_scales_instance_times(self):
        inst = ReservationInstance.from_specs(
            4, [(Fraction(1, 2), 2)], [(Fraction(1, 2), Fraction(3, 2), 3)]
        )
        twin = Timebase.of(inst).normalize_instance(inst)
        fast = twin.availability_profile()
        assert list(fast.breakpoints) == [0, 1, 4]
        assert fast.capacity_at(0) == 4 and fast.capacity_at(2) == 1

    def test_scale_and_denormalize_roundtrip(self):
        tb = Timebase(12)
        for t in [0, 1, Fraction(1, 2), Fraction(7, 3), Fraction(11, 12)]:
            v = tb.scale_time(t)
            assert isinstance(v, int)
            assert tb.denormalize(v) == t
        # whole grid values come back as plain ints
        assert tb.denormalize(24) == 2 and isinstance(tb.denormalize(24), int)

    def test_off_grid_time_is_loud(self):
        with pytest.raises(InvalidInstanceError):
            Timebase(2).scale_time(Fraction(1, 3))

    def test_invalid_scale_rejected(self):
        for bad in [0, -3, Fraction(1, 2), 1.5]:
            with pytest.raises(InvalidInstanceError):
                Timebase(bad)

    def test_auto_declines_floats_int_grids_them(self):
        inst = ReservationInstance.from_specs(4, [(0.5, 2), (1.25, 1)])
        assert Timebase.of(inst, exact_only=True) is None
        tb = Timebase.of(inst, exact_only=False)
        assert tb is not None and tb.scale == 4  # 0.5 and 1.25 are exact

    def test_nonfinite_floats_never_grid(self):
        inst = ReservationInstance.from_specs(4, [(float("inf"), 1)])
        assert Timebase.of(inst, exact_only=False) is None

    def test_normalized_twin_preserves_structure(self):
        inst = ReservationInstance.from_specs(
            4, [(Fraction(1, 2), 2, Fraction(3, 2))], [(1, Fraction(5, 2), 1)]
        )
        tb = Timebase.of(inst)
        twin = tb.normalize_instance(inst)
        assert twin is not inst
        assert [j.id for j in twin.jobs] == [j.id for j in inst.jobs]
        assert all(isinstance(j.p, int) and isinstance(j.release, int)
                   for j in twin.jobs)
        assert all(isinstance(r.start, int) and isinstance(r.p, int)
                   for r in twin.reservations)
        assert twin.jobs[0].p == 1  # scale lcm(2,2,1,2) = 2
        assert twin.jobs[0].release == 3 and twin.reservations[0].p == 5

    def test_policy_validation(self):
        for ok in TIMEBASE_POLICIES:
            assert check_timebase_policy(ok) == ok
        with pytest.raises(InvalidInstanceError):
            check_timebase_policy("fast")
        with pytest.raises(InvalidInstanceError):
            ListScheduler(timebase="bogus")

    def test_timebase_for_policies(self):
        ints = ReservationInstance.from_specs(4, [(3, 2)])
        floats = ReservationInstance.from_specs(4, [(0.5, 2)])
        assert timebase_for(ints, "exact") is None
        assert timebase_for(ints, "auto").scale == 1
        assert timebase_for(floats, "auto") is None
        assert timebase_for(floats, "int").scale == 2

    def test_exactify_instance(self):
        inst = ReservationInstance.from_specs(
            4, [(0.5, 2, 0.25)], [(0.75, 1.5, 1)]
        )
        exact = exactify_instance(inst)
        assert exact.jobs[0].p == Fraction(1, 2)
        assert exact.jobs[0].release == Fraction(1, 4)
        assert exact.reservations[0].start == Fraction(3, 4)
        assert isinstance(exact.jobs[0].p, Fraction)


# ---------------------------------------------------------------------------
# the placement kernel, as the sweep schedulers build it, vs the reference
# ---------------------------------------------------------------------------

def _random_profile(rng):
    n = rng.randint(1, 14)
    times = sorted(rng.sample(range(0, 120), n))
    if times[0] != 0:
        times.insert(0, 0)
    caps = [rng.randint(0, 12) for _ in times]
    # canonicalize (merge equal neighbours) through the reference backend
    ref = ListProfile(times, caps)
    t, c = ref.as_lists()
    return ref, ArrayProfile(t, c, _validate=False)


def _segments(profile):
    """``(start, capacity)`` of every segment: the whole profile."""
    return [(t, profile.capacity_at(t)) for t in profile.breakpoints]


class TestIntSweepProfile:
    """The integer sweep kernel (``ArrayProfile`` built unvalidated, as
    LSRC, conservative backfilling and ``seq`` build it)."""

    def test_differential_ops_against_list_backend(self):
        """Random mirrored op sequences: every query agrees with the
        reference backend; mutations keep agreeing afterwards."""
        rng = random.Random(20260730)
        for _ in range(120):
            ref, fast = _random_profile(rng)
            for _ in range(30):
                op = rng.randrange(6)
                start = rng.randint(0, 130)
                dur = rng.randint(1, 25)
                q = rng.randint(1, 8)
                if op == 0:
                    assert fast.capacity_at(start) == ref.capacity_at(start)
                elif op == 1:
                    assert fast.fits(q, start, dur) == ref.fits(q, start, dur)
                elif op == 2:
                    assert (fast.earliest_fit(q, dur, after=start)
                            == ref.earliest_fit(q, dur, after=start))
                elif op == 3:
                    # the fused probe-and-commit: commits iff it fits, and
                    # a miss leaves the profile as it was
                    before = _segments(fast)
                    fits = ref.fits(q, start, dur)
                    assert fast.try_reserve(start, dur, q) == fits
                    if fits:
                        ref.reserve(start, dur, q)
                    else:
                        assert _segments(fast) == before
                    assert _segments(fast) == _segments(ref)
                elif op == 4:
                    # the fused earliest fit and commit: the reference's
                    # earliest_fit, committed there (None changes nothing)
                    s = ref.earliest_fit(q, dur, after=start)
                    assert fast.reserve_earliest(q, dur, after=start) == s
                    if s is not None:
                        ref.reserve(s, dur, q)
                    assert _segments(fast) == _segments(ref)
                else:
                    # the sweep commits only what it has probed to fit
                    if ref.min_capacity(start, start + dur) >= q:
                        ref.reserve(start, dur, q)
                        fast.reserve_fitting(start, dur, q)
            assert list(fast.breakpoints), "profile must keep a segment"
            assert _segments(fast) == _segments(ref)

    def test_prune_before_preserves_future_queries(self):
        rng = random.Random(7)
        for _ in range(40):
            ref, fast = _random_profile(rng)
            front = rng.randint(0, 100)
            fast.prune_before(front)
            for _ in range(10):
                t = front + rng.randint(0, 40)
                dur = rng.randint(1, 20)
                q = rng.randint(1, 8)
                assert fast.capacity_at(t) == ref.capacity_at(t)
                assert fast.fits(q, t, dur) == ref.fits(q, t, dur)
                assert (fast.earliest_fit(q, dur, after=t)
                        == ref.earliest_fit(q, dur, after=t))


# ---------------------------------------------------------------------------
# the differential guarantee, across every registered surface
# ---------------------------------------------------------------------------

#: The generators registered at import time (tests elsewhere register
#: throwaway workloads at runtime; those are not ours to cover).
BUILTIN_WORKLOADS = tuple(available_workloads())

#: Small-but-structured parameter sets per registered workload family.
WORKLOAD_PARAMS = {
    "uniform": {"n": 9, "m": 8, "p_range": (1, 12)},
    "loguniform": {"n": 8, "m": 8, "p_max": 40.0},
    "feitelson": {"n": 8, "m": 8},
    "alpha-uniform": {"n": 8, "m": 8, "alpha": 0.5, "reservations": 3,
                      "horizon": 60.0},
    "staircase": {"n": 8, "m": 8, "steps": 3, "horizon": 40.0},
    "maintenance": {"n": 8, "m": 8, "period": 20, "duration": 5, "count": 3},
    "poisson-online": {"n": 8, "m": 8, "rate": 0.4, "p_range": (1, 10)},
    # the synthetic SWF scenario pack (all-integer times by construction)
    "swf-steady": {"n": 8, "m": 8},
    "swf-bursty": {"n": 8, "m": 8},
    "swf-heavy": {"n": 8, "m": 8},
}


def _schedule_under(name: str, instance, policy: str):
    """Run a registered scheduler under a timebase policy; exceptions are
    returned (not raised) so both paths can be compared symmetrically."""
    scheduler = get_scheduler(name)
    if hasattr(scheduler, "timebase"):
        scheduler.timebase = policy
    try:
        return scheduler.schedule(instance)
    except ReproError as exc:
        return type(exc)


def test_workload_params_cover_every_registered_generator():
    assert sorted(WORKLOAD_PARAMS) == sorted(BUILTIN_WORKLOADS)


@pytest.mark.parametrize("algorithm", available_schedulers())
def test_int_and_exact_paths_identical_everywhere(algorithm):
    """The acceptance property: for every registered scheduler x every
    registered workload generator x random seeds, the integer-timebase
    path and the exact path produce identical schedules and identical
    ``ratio_lb`` metrics.  Float-producing generators are exactified
    (floats -> equal-valued Fractions) so the fast path engages."""
    for workload, params in sorted(WORKLOAD_PARAMS.items()):
        seeds = (1, 2, 3)
        if algorithm == "optimal":  # exponential solver: tiny grids only
            params = {**params, "n": 4}
            seeds = (1,)
        for seed in seeds:
            instance = exactify_instance(
                make_workload(workload, seed=seed, **params)
            )
            exact = _schedule_under(algorithm, instance, "exact")
            fast = _schedule_under(algorithm, instance, "auto")
            context = f"{algorithm} on {workload} seed {seed}"
            if isinstance(exact, type):  # both paths must fail identically
                assert fast is exact, context
                continue
            assert not isinstance(fast, type), context
            assert exact.starts == fast.starts, context
            exact_metrics = evaluate_metrics(exact, ("makespan", "ratio_lb"))
            fast_metrics = evaluate_metrics(fast, ("makespan", "ratio_lb"))
            assert exact_metrics == fast_metrics, context


def test_fraction_heavy_congestion_grid():
    """Dense random grids with Fraction times, releases and reservations:
    the incremental sweep's wake-up/skip machinery under real contention
    (small m forces long pending queues)."""
    rng = random.Random(99)
    for trial in range(60):
        m = rng.randint(2, 6)
        denom = rng.choice([1, 2, 3, 4, 6])
        jobs = []
        for _ in range(rng.randint(4, 18)):
            jobs.append((
                Fraction(rng.randint(1, 18), denom),
                rng.randint(1, m),
                Fraction(rng.randint(0, 12), denom),
            ))
        reservations = []
        t = Fraction(rng.randint(0, 4), denom)
        for _ in range(rng.randint(0, 3)):
            dur = Fraction(rng.randint(1, 8), denom)
            reservations.append((t, dur, rng.randint(1, max(1, m - 1))))
            t += dur + Fraction(rng.randint(0, 5), denom)
        instance = ReservationInstance.from_specs(m, jobs, reservations)
        priority = rng.choice([None, "lpt", "spt", "laf"])
        fast = ListScheduler(priority, timebase="auto").schedule(instance)
        assert fast.starts == reference_starts(instance, priority), (
            f"trial {trial}"
        )
        fast.verify()


_job_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=12),   # p (scaled by 1/denom)
        st.integers(min_value=1, max_value=6),    # q
        st.integers(min_value=0, max_value=10),   # release (scaled)
    ),
    min_size=1, max_size=14,
)
_res_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),   # start (scaled)
        st.integers(min_value=1, max_value=6),    # duration (scaled)
        st.integers(min_value=1, max_value=3),    # q
    ),
    max_size=3,
)


#: The offline schedulers with an integer-grid engine (``ArrayProfile``),
#: each built from a priority rule (EASY has none: it is FCFS-ordered).
SWEEP_SCHEDULERS = {
    "lsrc": ListScheduler,
    "backfill-cons": ConservativeBackfillScheduler,
    "seq": SequentialPlacementScheduler,
    "backfill-easy": lambda priority, timebase: EasyBackfillScheduler(
        timebase=timebase
    ),
}


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=8),
    denom=st.sampled_from([1, 2, 3, 5, 12]),
    jobs=_job_specs,
    reservations=_res_specs,
    priority=st.sampled_from([None, "lpt", "spt"]),
    scheduler=st.sampled_from(sorted(SWEEP_SCHEDULERS)),
)
def test_incremental_sweep_property(
    m, denom, jobs, reservations, priority, scheduler
):
    """Hypothesis property: for any instance on any 1/denom grid, each
    offline scheduler on the integer twin equals its exact path
    (conservative and ``seq`` on ``ArrayProfile``, EASY through the
    scheduler core); LSRC's incremental sweep, which both paths run,
    equals the exact reference sweep."""
    specs = [
        (Fraction(p, denom), min(q, m), Fraction(r, denom))
        for p, q, r in jobs
    ]
    res = [
        (Fraction(s, denom), Fraction(d, denom), min(q, m - 1) or 1)
        for s, d, q in reservations
        if m > 1
    ]
    try:
        instance = ReservationInstance.from_specs(m, specs, res)
    except ReproError:
        assume(False)  # overlapping reservations exceeded the machine
    make = SWEEP_SCHEDULERS[scheduler]
    fast = make(priority, timebase="auto").schedule(instance)
    if scheduler == "lsrc":  # one engine on every timebase: the oracle
        assert fast.starts == reference_starts(instance, priority)
    else:
        exact = make(priority, timebase="exact").schedule(instance)
        assert exact.starts == fast.starts


def test_incremental_sweep_probes_only_jobs_that_fit_now(monkeypatch):
    """The sweep's running capacity at ``t`` (lowered by each commit) is
    exact, so it never probes a job wider than what is left free at
    ``t``: two full-width jobs released together cost one probe."""
    probes = []
    original = ArrayProfile.try_reserve

    def try_reserve(self, start, duration, amount):
        probes.append(amount <= self.capacity_at(start))
        return original(self, start, duration, amount)

    monkeypatch.setattr(ArrayProfile, "try_reserve", try_reserve)
    two_wide = ReservationInstance.from_specs(2, [(5, 2), (5, 2)])
    assert ListScheduler().schedule(two_wide).starts == {0: 0, 1: 5}
    assert probes == [True, True]
    for seed in (1, 2, 3, 4, 5):
        ListScheduler().schedule(_wrapper_instance("int", seed))
    assert all(probes)


def test_incremental_sweep_wakes_waiting_jobs_by_width(monkeypatch):
    """Where every job is released at 0 and holes cut the machine, a job
    that waits for capacity costs no ``earliest_fit`` until its width
    fits: one bound per collision with a hole, one lazy wake per
    decision point — at most 2n calls, not one per job per event."""
    calls = []
    original = ArrayProfile.earliest_fit

    def earliest_fit(self, q, duration, after=0):
        calls.append(q)
        return original(self, q, duration, after)

    monkeypatch.setattr(ArrayProfile, "earliest_fit", earliest_fit)
    rng = random.Random(33)
    m, n = 64, 500
    jobs = tuple(
        Job(id=i, p=rng.choice([1, 2, 3, 5, 8, 13, 21, 34, 55]),
            q=rng.choice([1, 1, 2, 2, 4, 8, 16, 32, 64]))
        for i in range(n)
    )
    holes = tuple(
        Reservation(id=f"r{k}", start=1 + 100 * k, p=33, q=m // 8)
        for k in range(20)
    )
    instance = ReservationInstance(m=m, jobs=jobs, reservations=holes)
    starts = ListScheduler().schedule(instance).starts
    assert 0 < len(calls) <= 2 * n
    assert starts == reference_starts(instance)


def test_incremental_sweep_decides_a_lone_release_by_one_probe(monkeypatch):
    """Where releases are spread and the machine, holes included, is
    never short, every job starts at its release: the sweep decides each
    one by a single ``try_reserve`` and never needs an ``earliest_fit``."""
    calls = {"try_reserve": 0, "earliest_fit": 0}
    for name in calls:
        original = getattr(ArrayProfile, name)

        def counted(self, *args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(self, *args, **kw)

        monkeypatch.setattr(ArrayProfile, name, counted)
    rng = random.Random(36)
    m, n = 64, 400
    release = 0
    jobs = []
    for i in range(n):
        release += rng.randint(0, 3)
        jobs.append(Job(id=i, p=rng.randint(1, 4), q=rng.randint(1, 4),
                        release=release))
    holes = tuple(
        Reservation(id=f"r{k}", start=1 + 50 * k, p=10, q=m // 4)
        for k in range(release // 50)
    )
    instance = ReservationInstance(m=m, jobs=tuple(jobs), reservations=holes)
    starts = ListScheduler().schedule(instance).starts
    assert starts == {job.id: job.release for job in jobs}
    assert calls == {"try_reserve": n, "earliest_fit": 0}


@pytest.mark.parametrize("release", [0, 6])
def test_incremental_sweep_refuses_a_job_that_never_fits(release):
    """A job wider than the profile's eventual capacity fails at once:
    released at 0 it fits by width, collides and has no bound to sleep
    until; released at 6 it waits by width and has no lazy wake."""
    profile = ArrayProfile([0, 5], [4, 2])
    with pytest.raises(SchedulingError, match="job 'x' .q=3. never fits"):
        incremental_sweep([(0, 1, 1, "a"), (release, 10, 3, "x")], profile)


def test_on_int_timebase_generic_wrapper():
    """Any scheduler gains the fast path through the generic wrapper."""
    inst = ReservationInstance.from_specs(
        4, [(Fraction(3, 2), 2), (Fraction(1, 2), 3), (2, 1)],
        [(Fraction(1, 2), 1, 2)],
    )
    exact = ListScheduler(timebase="exact")
    wrapped = on_int_timebase(exact, inst)
    assert wrapped.starts == exact.schedule(inst).starts


def _wrapper_instance(kind: str, seed: int) -> ReservationInstance:
    """A small contended instance whose times are all ``int``, all
    ``Fraction`` (thirds) or all ``float`` (binary fractions plus 0.1,
    which has no short binary expansion)."""
    rng = random.Random(seed)

    def t(k: int):
        if kind == "int":
            return k
        if kind == "fraction":
            return Fraction(k, 3)
        return k * 0.25 + (0.1 if rng.random() < 0.3 else 0.0)

    jobs = [(t(rng.randint(1, 9)), rng.randint(1, 4), t(rng.randint(0, 12)))
            for _ in range(12)]
    reservations = [(t(2), t(5), 1), (t(20), t(4), 2)]
    return ReservationInstance.from_specs(4, jobs, reservations)


WRAPPED_SCHEDULERS = ("lsrc", "backfill-cons", "backfill-easy", "seq")


@pytest.mark.parametrize("exact_scheduler", [True, False])
@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
@pytest.mark.parametrize("name", WRAPPED_SCHEDULERS)
def test_on_int_timebase_matches_scheduler_policy(name, kind, exact_scheduler):
    """``on_int_timebase`` gives the starts of the scheduler's own
    ``timebase="exact"`` run, whether it wraps an ``"exact"`` scheduler
    (run on the integer twin of an int/Fraction instance) or the
    registered ``"auto"`` one (handed the instance as it is)."""
    for seed in (1, 2, 3):
        instance = _wrapper_instance(kind, seed)
        scheduler = get_scheduler(name)
        if exact_scheduler:
            scheduler.timebase = "exact"
        wrapped = on_int_timebase(scheduler, instance)
        expected = _schedule_under(name, instance, "exact")
        assert wrapped.starts == expected.starts, (name, kind, seed)
        assert wrapped.algorithm == expected.algorithm
        assert wrapped.instance is instance
        wrapped.verify()


FLOAT_SEEDS = range(30)


@pytest.mark.parametrize("name", WRAPPED_SCHEDULERS)
def test_float_instance_on_the_grid_verifies(name):
    """``timebase="int"`` on a float-timed instance: the starts are those
    of the exact run on the equal-valued Fraction instance, and they
    verify against the float instance itself (exact Fraction starts plus
    float runtimes must not round into an overlap)."""
    for seed in FLOAT_SEEDS:
        instance = _wrapper_instance("float", seed)
        gridded = _schedule_under(name, instance, "int")
        exact = _schedule_under(name, exactify_instance(instance), "exact")
        assert gridded.starts == exact.starts, (name, seed)
        assert gridded.instance is instance
        assert gridded.violations() == [], (name, seed)


@pytest.mark.parametrize("policy", available_policies())
def test_float_simulation_on_the_grid_verifies(policy):
    for seed in FLOAT_SEEDS:
        instance = _wrapper_instance("float", seed)
        result = simulate(instance, policy, timebase="int")
        exact = simulate(exactify_instance(instance), policy, timebase="exact")
        assert result.schedule.starts == exact.schedule.starts, (policy, seed)
        assert [e.time for e in result.trace] == [e.time for e in exact.trace]
        assert result.schedule.violations() == [], (policy, seed)


def test_one_grid_step_overlap_is_reported():
    """Exact ends must not hide a real overlap: moving a start one grid
    step earlier into its predecessor is a violation."""
    instance = ReservationInstance.from_specs(1, [(0.1, 1), (0.2, 1)])
    step = Fraction(1, Timebase.of(instance, exact_only=False).scale)
    schedule = ListScheduler(timebase="int").schedule(instance)
    assert schedule.starts == {0: 0, 1: Fraction(0.1)}
    assert schedule.end_of(1) == Fraction(0.1) + Fraction(0.2)
    schedule.verify()
    moved = Schedule(instance, {0: 0, 1: schedule.starts[1] - step})
    assert moved.violations()
    # LSRC is greedy (Lemma 1): a job that starts after its release did
    # not fit any earlier, so one grid step earlier is always an overlap
    for seed in FLOAT_SEEDS:
        instance = _wrapper_instance("float", seed)
        step = Fraction(1, Timebase.of(instance, exact_only=False).scale)
        schedule = ListScheduler(timebase="int").schedule(instance)
        for job in instance.jobs:
            start = schedule.starts[job.id]
            if start > job.release:
                starts = {**schedule.starts, job.id: start - step}
                assert Schedule(instance, starts).violations(), (seed, job.id)


def _count_passes(monkeypatch) -> list:
    """Count the passes over an instance's times (each one is a call of
    ``_iter_instance_times``)."""
    import repro.core.timebase as timebase_module

    passes = []
    original = timebase_module._iter_instance_times

    def counted(instance):
        passes.append(instance)
        return original(instance)

    monkeypatch.setattr(timebase_module, "_iter_instance_times", counted)
    return passes


@pytest.mark.parametrize("name", WRAPPED_SCHEDULERS)
def test_one_pass_per_offline_run(monkeypatch, name):
    """On an all-int instance the timebase is resolved in one pass over
    its times, through the wrapper and through the scheduler alike."""
    instance = _wrapper_instance("int", 1)
    passes = _count_passes(monkeypatch)
    on_int_timebase(get_scheduler(name), instance)
    assert len(passes) == 1
    del passes[:]
    get_scheduler(name).schedule(instance)
    assert len(passes) == 1


def test_one_pass_for_wrapped_exact_scheduler_and_simulation(monkeypatch):
    instance = _wrapper_instance("int", 2)
    passes = _count_passes(monkeypatch)
    # a wrapped "exact" scheduler: the wrapper's own pass is the only one
    on_int_timebase(ListScheduler(timebase="exact"), instance)
    assert len(passes) == 1
    del passes[:]
    simulate(instance, "fcfs")
    assert len(passes) == 1


ROUND_TRIP_CALLS = ("normalize_instance", "denormalize_starts")
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize("package", ["algorithms", "simulation"])
def test_schedulers_make_no_round_trip_of_their_own(package):
    """``Scheduler.schedule`` and the online simulation reach the grid
    through ``run_on_grid`` alone: no scheduler or simulation module
    builds a twin or maps starts back itself."""
    offenders = []
    for path in sorted((SRC / package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name in ROUND_TRIP_CALLS:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _replace_built_twin(instance, tb):
    """The twin built the validating way, one ``dataclasses.replace`` per
    job and reservation."""
    scale = tb.scale_time
    jobs = tuple(
        replace(job, p=scale(job.p), release=scale(job.release))
        for job in instance.jobs
    )
    reservations = tuple(
        replace(
            res,
            start=scale(res.start),
            p=scale(res.start + res.p) - scale(res.start),
        )
        for res in instance.reservations
    )
    return replace(instance, jobs=jobs, reservations=reservations)


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_twin_equals_replace_built_twin(kind):
    for seed in (1, 2, 3):
        base = _wrapper_instance(kind, seed)
        named = tuple(
            replace(job, name=f"job-{job.id}") if job.id % 2 else job
            for job in base.jobs
        )
        instance = replace(base, jobs=named)
        tb = Timebase.of(instance, exact_only=False)
        twin = tb.normalize_instance(instance)
        expected = _replace_built_twin(instance, tb)
        assert twin == expected
        for got, want in zip(twin.jobs, expected.jobs):
            assert type(got) is Job
            assert (got.id, got.p, got.q, got.release, got.name) == (
                want.id, want.p, want.q, want.release, want.name
            )
            assert type(got.p) is int and type(got.release) is int
        assert twin.availability_profile() == expected.availability_profile()
        if kind == "float":
            # the exactified instance has the same twin
            exact = exactify_instance(instance)
            assert Timebase.of(exact).normalize_instance(exact) == twin


def test_float_reservation_keeps_its_rounded_end():
    """``0.6 + 1.35`` rounds up: the twin and the exactified instance
    block the window the float instance's own profile blocks."""
    instance = ReservationInstance.from_specs(4, [(1, 4)], [(0.6, 1.35, 1)])
    end = instance.reservations[0].end
    assert Fraction(end) != Fraction(0.6) + Fraction(1.35)
    exact = exactify_instance(instance)
    assert exact.reservations[0].end == Fraction(end)
    tb = Timebase.of(instance, exact_only=False)
    twin = tb.normalize_instance(instance)
    assert twin.reservations[0].end == tb.scale_time(end)
    gridded = ListScheduler(timebase="int").schedule(instance)
    assert gridded.starts == {0: Fraction(end)}
    gridded.verify()


MIXED_RESERVATION_STARTS = (Fraction(1, 3), Fraction(2, 3), Fraction(2, 7))
MIXED_RESERVATION_DURATIONS = (0.1, 0.3, 0.7)


@pytest.mark.parametrize("name", WRAPPED_SCHEDULERS)
def test_mixed_reservation_has_one_end(name):
    """A reservation with a Fraction start and a float duration ends at
    its exact end, on the instance's own profile and on its twin alike,
    so a job placed right after it verifies.  (``Fraction + float``
    rounds: at (1/3, 0.1) and (2/3, 0.7) the rounded end falls after
    the exact one.)"""
    for start in MIXED_RESERVATION_STARTS:
        for duration in MIXED_RESERVATION_DURATIONS:
            instance = ReservationInstance.from_specs(
                2, [(1, 2)], [(start, duration, 1)]
            )
            end = start + Fraction(duration)
            assert instance.reservations[0].end == end
            assert instance.availability_profile().breakpoints == (
                0, start, end
            )
            gridded = _schedule_under(name, instance, "int")
            assert gridded.starts == {0: end}, (name, start, duration)
            assert gridded.violations() == [], (name, start, duration)


GRID_PLACED_SCHEDULERS = ("backfill-cons", "seq")


@pytest.mark.parametrize("name", GRID_PLACED_SCHEDULERS)
def test_grid_path_places_on_array_profile(monkeypatch, name):
    """On the integer twin, conservative and ``seq`` place on the
    kernel ``ArrayProfile`` and never on the reference ``ListProfile``,
    one fused ``reserve_earliest`` per job."""
    calls = {"int": 0, "list": 0}

    def counting(cls, key):
        original = cls.reserve_earliest

        def reserve_earliest(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "reserve_earliest", reserve_earliest)

    counting(ArrayProfile, "int")
    counting(ListProfile, "list")
    instance = _wrapper_instance("int", 1)
    get_scheduler(name).schedule(instance)
    assert calls["int"] == len(instance.jobs) and calls["list"] == 0


def test_easy_profile_backend_reaches_the_core(monkeypatch):
    """Offline EASY places through the scheduler core's pass on the
    core's profile, the kernel, on the grid as on the exact path, and
    never on the reference."""
    calls = {"kernel": 0, "list": 0}

    def counting(cls, key):
        original = cls.try_reserve

        def try_reserve(self, *args):
            calls[key] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, "try_reserve", try_reserve)

    counting(ArrayProfile, "kernel")
    counting(ListProfile, "list")
    instance = _wrapper_instance("int", 1)
    starts = []
    for timebase in ("auto", "exact"):
        calls.update(kernel=0, list=0)
        starts.append(
            EasyBackfillScheduler(timebase=timebase).schedule(instance).starts
        )
        assert calls["kernel"] > 0 and calls["list"] == 0, timebase
    assert starts[0] == starts[1]


def _reference_scale(times, exact_only: bool):
    """Reference LCM fold over time denominators (ABC checks only)."""
    scale = 1
    for t in times:
        if isinstance(t, numbers.Integral):
            den = 1
        elif isinstance(t, Fraction):
            den = t.denominator
        elif exact_only:
            return None
        else:
            try:
                den = Fraction(t).denominator
            except (ValueError, OverflowError, TypeError):
                return None
        scale = math.lcm(scale, den)
    return scale


class Tick(IntEnum):
    TWO = 2


def _typed_times():
    values = [
        ("bool", True),
        ("intenum", Tick.TWO),
        ("fraction-whole", Fraction(4, 2)),
        ("fraction", Fraction(5, 6)),
        ("float", 0.75),
        ("nan", float("nan")),
    ]
    try:
        import numpy
    except ImportError:
        pass
    else:
        values.append(("numpy-int64", numpy.int64(3)))
    return values


@pytest.mark.parametrize("exact_only", [True, False])
@pytest.mark.parametrize("label, value", _typed_times())
def test_timebase_of_type_fidelity(label, value, exact_only):
    """``Timebase.of`` agrees with a reference LCM fold for every numeric
    type a time can have, placed as a release, a processing time and a
    reservation start; its twin has plain-int times (or is the instance
    itself when every time already is an ``int``)."""
    placements = {
        "release": dict(jobs=(Job(id=0, p=3, q=1, release=value),),
                        reservations=()),
        "p": dict(jobs=(Job(id=0, p=value, q=1, release=2),),
                  reservations=()),
        "start": dict(jobs=(Job(id=0, p=3, q=1),),
                      reservations=(Reservation(id=0, start=value, p=1, q=1),)),
    }
    for where, parts in placements.items():
        if where == "start" and value != value:
            # a NaN reservation start never reaches the timebase: the
            # instance's availability profile refuses it
            with pytest.raises(InvalidInstanceError, match="finite"):
                ReservationInstance(m=2, **parts)
            continue
        instance = ReservationInstance(m=2, **parts)
        times = [job.p for job in instance.jobs]
        times += [job.release for job in instance.jobs]
        times += [t for r in instance.reservations for t in (r.start, r.p)]
        expected = _reference_scale(times, exact_only)
        tb = Timebase.of(instance, exact_only=exact_only)
        context = (label, where, exact_only)
        if expected is None:
            assert tb is None, context
            continue
        assert tb is not None and tb.scale == expected, context
        twin = tb.normalize_instance(instance)
        if all(isinstance(t, int) for t in times):
            assert twin is instance, context
        else:
            assert twin is not instance, context
            twin_times = [t for j in twin.jobs for t in (j.p, j.release)]
            twin_times += [t for r in twin.reservations for t in (r.start, r.p)]
            assert all(type(t) is int for t in twin_times), context
            assert sorted(twin_times) == sorted(
                tb.scale_time(t) for t in times
            ), context
        # a fresh Timebase (no scan recorded) draws the same conclusion
        fresh = Timebase(tb.scale).normalize_instance(instance)
        assert (fresh is instance) == (twin is instance), context


@pytest.mark.parametrize("policy", available_policies())
def test_simulation_twin_identical(policy):
    """Online simulation on the integer twin: identical schedule *and*
    identical (denormalised) event trace."""
    for seed in (1, 2):
        instance = exactify_instance(
            make_workload("poisson-online", seed=seed, n=10, m=6, rate=0.5,
                          p_range=(1, 8))
        )
        exact = simulate(instance, policy, timebase="exact")
        fast = simulate(instance, policy, timebase="auto")
        assert exact.schedule.starts == fast.schedule.starts
        assert [(e.time, e.kind, e.job_id, e.queue_length)
                for e in exact.trace] == [
            (e.time, e.kind, e.job_id, e.queue_length) for e in fast.trace
        ]
        fast.schedule.verify()


# ---------------------------------------------------------------------------
# the experiment layer's timebase factor
# ---------------------------------------------------------------------------

class TestRunTimebaseFactor:
    def test_spec_roundtrip_and_validation(self):
        from repro.run import ExperimentSpec, WorkloadSpec
        from repro.run.spec import dumps_spec, loads_spec

        spec = ExperimentSpec(
            name="tb", algorithms=("lsrc",),
            workloads=(WorkloadSpec("uniform", params={"n": 4, "m": 4}),),
            timebases=("exact", "auto"),
        )
        assert loads_spec(dumps_spec(spec)) == spec
        assert spec.n_points == 2
        with pytest.raises(InvalidInstanceError):
            ExperimentSpec(
                name="bad", algorithms=("lsrc",),
                workloads=(WorkloadSpec("uniform"),),
                timebases=("warp",),
            ).validate()
        with pytest.raises(InvalidInstanceError):
            ExperimentSpec(
                name="dup", algorithms=("lsrc",),
                workloads=(WorkloadSpec("uniform"),),
                timebases=("auto", "auto"),
            )

    def test_default_timebase_keys_are_backward_compatible(self):
        """Points under the default policy must keep their pre-timebase
        keys so existing JSONL stores still resume."""
        from repro.run.runner import ExperimentPoint

        point = ExperimentPoint(0, "uniform", {"n": 4}, "lsrc", 3,
                                ("makespan",))
        assert point.timebase == "auto"
        assert "timebase" not in point.factors
        pinned = ExperimentPoint(0, "uniform", {"n": 4}, "lsrc", 3,
                                 ("makespan",), timebase="exact")
        assert pinned.factors["timebase"] == "exact"
        assert pinned.key != point.key

    def test_runner_sweeps_timebases_with_identical_metrics(self):
        from repro.run import ExperimentSpec, Runner, WorkloadSpec

        spec = ExperimentSpec(
            name="tb-sweep", algorithms=("lsrc", "backfill-cons"),
            workloads=(WorkloadSpec("maintenance",
                                    params={"n": 8, "m": 8, "count": 2}),),
            seeds=(0, 1),
            timebases=("exact", "auto"),
        )
        result = Runner().run(spec)
        assert len(result.rows) == spec.n_points == 8
        for algorithm in spec.algorithms:
            for seed in spec.seeds:
                pair = {
                    row["timebase"]: row for row in result.filtered(
                        algorithm=algorithm, seed=seed)
                }
                assert set(pair) == {"exact", "auto"}
                assert (pair["exact"]["makespan"]
                        == pair["auto"]["makespan"])
                assert (pair["exact"]["ratio_lb"]
                        == pair["auto"]["ratio_lb"])
