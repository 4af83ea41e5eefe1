"""Cross-validation of the production LSRC against an independent,
deliberately naive reference implementation.

The reference shares no code with the production scheduler: capacity is
recomputed from the raw job/reservation intervals at every query, and the
event sweep is a plain sorted-set loop.  Hypothesis then asserts the two
produce *identical* schedules (same start for every job) across random
instances — the strongest correctness statement available for the
library's central algorithm.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ListScheduler
from repro.algorithms.priority import get_rule
from repro.core import Job, Reservation, ReservationInstance, ResourceProfile

from conftest import random_resa, random_rigid, reference_starts


def naive_lsrc(instance: ReservationInstance) -> Dict:
    """Reference LSRC: raw interval arithmetic, no shared data structures."""
    jobs = list(instance.jobs)
    placed: Dict = {}  # job id -> start

    def capacity_at(t) -> int:
        used = 0
        for res in instance.reservations:
            if res.start <= t < res.end:
                used += res.q
        for job in jobs:
            if job.id in placed:
                s = placed[job.id]
                if s <= t < s + job.p:
                    used += job.q
        return instance.m - used

    def fits(job, t) -> bool:
        # capacity changes only at interval endpoints; sample t and every
        # endpoint strictly inside [t, t + p)
        points = {t}
        for res in instance.reservations:
            for e in (res.start, res.end):
                if t < e < t + job.p:
                    points.add(e)
        for other in jobs:
            if other.id in placed:
                s = placed[other.id]
                for e in (s, s + other.p):
                    if t < e < t + job.p:
                        points.add(e)
        return all(capacity_at(p) >= job.q for p in points)

    # event times: 0, releases, reservation boundaries, plus completions
    # as they appear
    events = {0}
    events.update(j.release for j in jobs)
    for res in instance.reservations:
        events.update((res.start, res.end))
    done_events = set()
    while len(placed) < len(jobs):
        future = sorted(e for e in events if e not in done_events)
        if not future:
            raise AssertionError("reference LSRC ran out of events")
        t = future[0]
        done_events.add(t)
        for job in jobs:  # list order
            if job.id in placed or job.release > t:
                continue
            if fits(job, t):
                placed[job.id] = t
                events.add(t + job.p)
    return placed


class TestAgainstReference:
    def test_tiny_instances(self, tiny_rigid, tiny_resa):
        for inst in (tiny_rigid.to_reservation_instance(), tiny_resa):
            production = ListScheduler().schedule(inst)
            reference = naive_lsrc(inst)
            assert production.starts == reference

    def test_reservation_heavy(self):
        inst = ReservationInstance.from_specs(
            4,
            [(3, 2), (5, 1), (2, 4), (1, 1), (4, 2)],
            [(2, 3, 2), (8, 2, 3)],
        )
        assert ListScheduler().schedule(inst).starts == naive_lsrc(inst)

    def test_with_releases(self):
        inst = ReservationInstance.from_specs(
            3,
            [(2, 1, 0), (3, 2, 1), (1, 3, 2), (4, 1, 0)],
            [(4, 2, 1)],
        )
        assert ListScheduler().schedule(inst).starts == naive_lsrc(inst)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_production_equals_reference_random_rigid(seed):
    inst = random_rigid(seed, n=8).to_reservation_instance()
    assert ListScheduler().schedule(inst).starts == naive_lsrc(inst)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_production_equals_reference_random_reservations(seed):
    inst = random_resa(seed, n=7)
    assert ListScheduler().schedule(inst).starts == naive_lsrc(inst)


#: Time casts for :func:`instance_with_holes`: tenths of a unit on float
#: times are not binary rationals, so every sum there rounds.
TIME_KINDS = {
    "int": int,
    "fraction": lambda v: Fraction(v, 3),
    "float": lambda v: v / 10,
}


def instance_with_holes(
    seed: int, kind: str = "int", staggered: bool = False
) -> ReservationInstance:
    """Widths up to the whole machine, and reservations that may take
    all of it for a while, on ``kind`` times: every job released at 0
    (the paper's offline setting, where jobs wait by width and collide
    with holes) unless ``staggered``."""
    rng = random.Random(seed)
    cast = TIME_KINDS[kind]
    m = rng.choice([2, 3, 4, 8, 16])
    jobs = []
    for i in range(rng.randint(1, 24)):
        p, q = cast(rng.randint(1, 12)), rng.randint(1, m)
        release = cast(rng.randint(0, 30)) if staggered else 0
        jobs.append(Job(id=i, p=p, q=q, release=release))
    room = ResourceProfile.constant(m)
    reservations = []
    for r in range(rng.randint(1, 5)):
        start, dur = cast(rng.randint(0, 40)), cast(rng.randint(1, 12))
        avail = room.min_capacity(start, start + dur)
        if avail:
            q = rng.randint(1, avail)
            room.reserve(start, dur, q)
            reservations.append(Reservation(id=f"r{r}", start=start, p=dur, q=q))
    return ReservationInstance(
        m=m, jobs=tuple(jobs), reservations=tuple(reservations)
    )


# derandomized: the same instances every run, so tier-1 stays repeatable
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=1_000_000))
def test_sweep_equals_references_at_release_0_with_holes(seed):
    """The integer sweep (waiting jobs woken by width) against the naive
    reference in list order and the exact reference sweep under two
    priority rules."""
    inst = instance_with_holes(seed)
    assert ListScheduler().schedule(inst).starts == naive_lsrc(inst)
    for priority in ("lpt", "spt"):
        assert (ListScheduler(priority).schedule(inst).starts
                == reference_starts(inst, priority))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    kind=st.sampled_from(sorted(TIME_KINDS)),
    staggered=st.booleans(),
    priority=st.sampled_from([None, "lpt", "spt"]),
)
def test_sweep_on_own_times_equals_references(seed, kind, staggered, priority):
    """The sweep on the instance's own int, Fraction or float times
    (``timebase="exact"``: no grid) against the exact reference sweep,
    and against the naive reference in list order on small instances."""
    inst = instance_with_holes(seed, kind, staggered)
    starts = ListScheduler(priority, timebase="exact").schedule(inst).starts
    assert starts == reference_starts(inst, priority)
    if priority is None and len(inst.jobs) <= 12:
        assert starts == naive_lsrc(inst)


def released_with_holes(seed: int) -> ReservationInstance:
    """Releases spread by gaps of 0 to 9 (so a few jobs often share one
    release time), widths up to the whole machine, and holes that may
    take all of it for a while: the shape where a lone release's one
    probe collides with a hole or finds its width taken, and where a
    sleeper's bound meets a release."""
    rng = random.Random(seed)
    m = rng.choice([2, 3, 4, 8])
    jobs = []
    release = 0
    for i in range(rng.randint(1, 16)):
        release += rng.choice([0, 0, 1, 2, 5, 9])
        jobs.append(Job(id=i, p=rng.randint(1, 10), q=rng.randint(1, m),
                        release=release))
    room = ResourceProfile.constant(m)
    reservations = []
    for r in range(rng.randint(1, 6)):
        start, dur = rng.randint(0, release + 10), rng.randint(1, 10)
        avail = room.min_capacity(start, start + dur)
        if avail:
            q = rng.randint(1, avail)
            room.reserve(start, dur, q)
            reservations.append(Reservation(id=f"r{r}", start=start, p=dur, q=q))
    return ReservationInstance(
        m=m, jobs=tuple(jobs), reservations=tuple(reservations)
    )


def in_list_order(instance: ReservationInstance, priority) -> ReservationInstance:
    """``instance`` with its jobs in ``ListScheduler(priority)``'s list
    order, the order :func:`naive_lsrc` scans."""
    if priority is None:
        return instance
    return ReservationInstance(
        m=instance.m, jobs=tuple(get_rule(priority)(instance.jobs)),
        reservations=instance.reservations,
    )


# derandomized: the same instances every run, so tier-1 stays repeatable
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    priority=st.sampled_from([None, "lpt", "spt"]),
)
def test_sweep_equals_references_on_spread_releases_with_holes(seed, priority):
    """The integer sweep, whose lone releases are decided by one probe,
    against the exact reference sweep and the naive reference, in list,
    LPT and SPT order."""
    inst = released_with_holes(seed)
    starts = ListScheduler(priority).schedule(inst).starts
    assert starts == reference_starts(inst, priority)
    assert starts == naive_lsrc(in_list_order(inst, priority))


@pytest.mark.parametrize("jobs, holes, want", [
    # a's probe at 1 collides with the full-width hole and a sleeps
    # until 5; b, released with it, joins the merge and starts at 1
    ([(3, 1, 1), (1, 1, 1)], [(2, 3, 4)], {0: 5, 1: 1}),
    # a sleeps until 5, when b is released: a comes first in the list
    # and takes 3 of 4 processors, so b waits for a to end at 8
    ([(3, 3, 1), (2, 2, 5)], [(2, 3, 4)], {0: 5, 1: 8}),
    # b is released while a holds 3 of 4: its width is screened out
    # without a probe and it starts when a ends
    ([(4, 3, 0), (2, 2, 1)], [], {0: 0, 1: 4}),
], ids=["lone-probe-collides", "sleeper-meets-release", "width-above-capacity"])
def test_sweep_probe_cases(monkeypatch, jobs, holes, want):
    """The three ways a release's probe meets other work, by hand, on
    ``m = 4``: every ``try_reserve`` fits by width at its time, and the
    starts are LSRC's."""
    probes = []
    original = ResourceProfile.try_reserve

    def try_reserve(self, start, duration, amount):
        probes.append(amount <= self.capacity_at(start))
        return original(self, start, duration, amount)

    monkeypatch.setattr(ResourceProfile, "try_reserve", try_reserve)
    inst = ReservationInstance.from_specs(4, jobs, holes)
    starts = ListScheduler().schedule(inst).starts
    assert starts == want == naive_lsrc(inst) == reference_starts(inst)
    assert probes and all(probes)
