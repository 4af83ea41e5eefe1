"""Engineering benchmarks — substrate and scheduler scaling.

Not a paper figure: these benches track the computational cost of the
pieces every experiment relies on (profile operations, LSRC event sweep,
verification), so performance regressions in the substrate are caught by
the same harness that regenerates the science.
"""

import pytest

from repro.algorithms import (
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FCFSScheduler,
    ListScheduler,
)
from repro.core import ResourceProfile
from repro.workloads import (
    feitelson_instance,
    periodic_maintenance,
    uniform_instance,
)


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_scaling_lsrc(benchmark, n):
    inst = uniform_instance(n, 64, p_range=(1, 100), q_range=(1, 32), seed=1)
    result = benchmark(lambda: ListScheduler().schedule(inst))
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
