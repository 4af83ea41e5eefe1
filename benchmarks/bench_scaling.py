"""Engineering benchmarks — substrate and scheduler scaling.

Not a paper figure: these benches track the computational cost of the
pieces every experiment relies on (profile operations, LSRC event sweep,
verification), so performance regressions in the substrate are caught by
the same harness that regenerates the science.
"""

import random

import pytest

from repro.algorithms import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FCFSScheduler,
    ListScheduler,
)
from repro.core import Job, ReservationInstance, ResourceProfile
from repro.workloads import (
    feitelson_instance,
    periodic_maintenance,
    uniform_instance,
)


def released_with_maintenance(inst):
    """``inst``'s jobs released apart by gaps of 0 to 40 (the machine
    about two-thirds loaded: about half the jobs start at their release,
    the rest wait up to a few hundred ticks) around ``periodic_maintenance``
    holes of a quarter of the machine."""
    rng = random.Random(1)
    release = 0
    jobs = []
    for job in inst.jobs:
        release += rng.randint(0, 40)
        jobs.append(Job(id=job.id, p=job.p, q=job.q, release=release))
    holes = periodic_maintenance(
        inst.m, inst.m // 4, period=200, duration=40,
        count=release // 200 + 1, first_start=1,
    )
    return ReservationInstance(m=inst.m, jobs=tuple(jobs), reservations=holes)


# every job released at 0: the paper's offline setting, where a sweep
# that re-probes each waiting job at every completion goes quadratic
# (n = 8,000 took ~22 s that way; waking jobs by width takes ~0.1 s).
# The off-grid leg sweeps the same instance on its own float times
# (timebase="exact"), where a wake that fails to advance would loop.
# The released leg spreads the releases around holes, where most
# decisions are a lone release's one probe and the rest merge releases,
# sleepers and wakes.
@pytest.mark.parametrize("n, shape", [
    pytest.param(100, "release-0", id="100"),
    pytest.param(500, "release-0", id="500"),
    pytest.param(2000, "release-0", id="2000"),
    pytest.param(8000, "release-0", id="8000"),
    pytest.param(8000, "float", id="8000-float"),
    pytest.param(8000, "released", id="8000-released"),
])
def test_scaling_lsrc(benchmark, n, shape):
    inst = uniform_instance(n, 64, p_range=(1, 100), q_range=(1, 32), seed=1)
    if shape == "float":
        inst = inst.scaled(0.1)
    elif shape == "released":
        inst = released_with_maintenance(inst)
    scheduler = ListScheduler(timebase="exact" if shape == "float" else "auto")
    result = benchmark(lambda: scheduler.schedule(inst))
    assert len(result.starts) == n


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_scaling_conservative(benchmark, n):
    inst = uniform_instance(n, 64, p_range=(1, 100), q_range=(1, 32), seed=2)
    result = benchmark(lambda: ConservativeBackfillScheduler().schedule(inst))
    assert len(result.starts) == n


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_scaling_easy(benchmark, n):
    inst = uniform_instance(n, 64, p_range=(1, 100), q_range=(1, 32), seed=3)
    result = benchmark(lambda: EasyBackfillScheduler().schedule(inst))
    assert len(result.starts) == n


def test_scaling_fcfs_large(benchmark):
    inst = feitelson_instance(2000, 128, seed=4)
    result = benchmark(lambda: FCFSScheduler().schedule(inst))
    assert len(result.starts) == 2000


def test_scaling_profile_operations(benchmark):
    """reserve + earliest_fit churn with a maintenance calendar."""
    reservations = periodic_maintenance(
        64, 16, period=100, duration=20, count=50
    )

    def churn():
        profile = ResourceProfile.from_reservations(64, reservations)
        t = 0
        for i in range(500):
            s = profile.earliest_fit(8, 13, after=t)
            profile.reserve(s, 13, 8)
            t = s if i % 7 else 0
        return profile

    profile = benchmark(churn)
    assert profile.capacity_at(0) <= 64


def test_scaling_verification(benchmark):
    inst = uniform_instance(1000, 64, q_range=(1, 32), seed=5)
    schedule = ListScheduler().schedule(inst)
    benchmark(lambda: schedule.violations())
    schedule.verify()
