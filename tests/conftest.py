"""Shared fixtures and reference implementations for the test suite.

The reference implementations here are deliberately naive (dictionaries
of sampled times, quadratic scans) so they share no code — and therefore
no bugs — with the production data structures they validate.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.core import Job, Reservation, ReservationInstance, RigidInstance
from repro.core.profiles import ListProfile


# ---------------------------------------------------------------------------
# reference (naive) capacity model
# ---------------------------------------------------------------------------

class NaiveCapacity:
    """Capacity over time as an explicit list of (start, end, amount) holds.

    Query cost is O(holds); used to cross-check ResourceProfile.
    """

    def __init__(self, m: int):
        self.m = m
        self.holds = []  # (start, end, amount)

    def reserve(self, start, duration, amount):
        self.holds.append((start, start + duration, amount))

    def release(self, start, duration, amount):
        self.holds.append((start, start + duration, -amount))

    def capacity_at(self, t):
        used = sum(a for (s, e, a) in self.holds if s <= t < e)
        return self.m - used

    def min_capacity(self, start, end):
        # capacity changes only at hold boundaries: sample each boundary in
        # [start, end) plus start itself
        points = {start}
        for s, e, _ in self.holds:
            if start < s < end:
                points.add(s)
            if start < e < end:
                points.add(e)
        return min(self.capacity_at(p) for p in points)

    def earliest_fit(self, q, duration, after=0):
        # candidate starts: `after` and every hold boundary after it
        points = {after}
        for s, e, _ in self.holds:
            if s > after:
                points.add(s)
            if e > after:
                points.add(e)
        for p in sorted(points):
            if self.min_capacity(p, p + duration) >= q:
                return p
        return None  # pragma: no cover - capacity returns to m eventually


@pytest.fixture
def naive_capacity():
    return NaiveCapacity


# ---------------------------------------------------------------------------
# the reference profile, swapped in under a scheduler
# ---------------------------------------------------------------------------

def _reference_availability_profile(self):
    return ListProfile(*self._master_profile.as_lists())


@contextlib.contextmanager
def on_reference_profile():
    """Within the block, every instance's availability profile is the
    reference :class:`ListProfile` instead of the kernel, so an offline
    scheduler run inside it places on the reference.  The library has
    no knob for this: the differential tests are its only user."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReservationInstance, "availability_profile",
                      _reference_availability_profile)
        yield


@pytest.fixture
def reference_profile():
    """The :func:`on_reference_profile` context manager."""
    return on_reference_profile


# ---------------------------------------------------------------------------
# canonical small instances
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny_rigid() -> RigidInstance:
    """4 machines, 4 jobs; optimal makespan is 5 (hand-checkable)."""
    return RigidInstance.from_specs(
        4, [(3, 2), (2, 1), (4, 2), (1, 4)], name="tiny"
    )


@pytest.fixture
def tiny_resa() -> ReservationInstance:
    """The tiny instance plus a 2-wide reservation on [2, 4)."""
    return ReservationInstance.from_specs(
        4, [(3, 2), (2, 1), (4, 2), (1, 4)], [(2, 2, 2)], name="tiny+res"
    )


@pytest.fixture
def single_machine_holes() -> ReservationInstance:
    """m = 1 with two unit holes — the Figure 1 shape in miniature."""
    return ReservationInstance.from_specs(
        1,
        [(2, 1), (1, 1), (3, 1)],
        [(3, 1, 1), (7, 1, 1)],
        name="m1-holes",
    )


def random_rigid(seed: int, n=None, m=None) -> RigidInstance:
    """Seeded random rigid instance for property-style loops in tests."""
    rng = random.Random(seed)
    m = m or rng.choice([2, 3, 4, 8, 16])
    n = n or rng.randint(1, 12)
    jobs = [
        Job(id=i, p=rng.randint(1, 9), q=rng.randint(1, m)) for i in range(n)
    ]
    return RigidInstance(m=m, jobs=tuple(jobs), name=f"rand{seed}")


def random_resa(seed: int, n=None, m=None, n_res=None) -> ReservationInstance:
    """Seeded random instance with feasible, α-compatible reservations.

    Reservation widths stay at most ``m - qmax`` over any overlap by
    admitting candidates against a budget profile, mirroring (in a
    simplified way) how production systems cap the reservation feature.
    """
    from repro.core import ResourceProfile

    rng = random.Random(seed + 10_000)
    m = m or rng.choice([2, 4, 8, 16])
    n = n or rng.randint(1, 10)
    jobs = [
        Job(id=i, p=rng.randint(1, 9), q=rng.randint(1, max(1, m // 2)))
        for i in range(n)
    ]
    qmax = max(j.q for j in jobs)
    budget = m - qmax
    reservations = []
    if budget >= 1:
        room = ResourceProfile.constant(budget)
        n_res = n_res if n_res is not None else rng.randint(0, 4)
        for r in range(n_res):
            start = rng.randint(0, 30)
            dur = rng.randint(1, 10)
            avail = room.min_capacity(start, start + dur)
            if avail < 1:
                continue
            q = rng.randint(1, avail)
            room.reserve(start, dur, q)
            reservations.append(Reservation(id=f"r{r}", start=start, p=dur, q=q))
    return ReservationInstance(
        m=m, jobs=tuple(jobs), reservations=tuple(reservations),
        name=f"randres{seed}",
    )


# ---------------------------------------------------------------------------
# checkpoint chaining
# ---------------------------------------------------------------------------

def replay_chained(jobs, interval, m, store=None, **engine_kwargs):
    """Replay ``jobs`` as a chain of ``run_slice`` calls cut like the
    journaled driver cuts them, each engine resumed from its
    predecessor's checkpoint after a pickle round trip (the
    journal-snapshot format).  Returns a result stitched from the
    slices: the final slice's totals, every slice's window rows and
    the union of their recorded starts."""
    import pickle

    from repro.durability.journaled import _chunk_stream
    from repro.simulation.replay import ReplayEngine

    ckpt = None
    windows = []
    starts = None
    result = None
    for chunk, final in _chunk_stream(jobs, interval):
        engine = ReplayEngine(m, store=store, **engine_kwargs)
        result = engine.run_slice(chunk, resume=ckpt, drain=final)
        if result.starts is not None:
            starts = {**(starts or {}), **result.starts}
        if not final:
            windows.extend(result.windows)
            ckpt = pickle.loads(pickle.dumps(result.checkpoint))
    result.windows = windows + result.windows
    result.starts = starts
    return result
