"""repro — reproduction of *Analysis of Scheduling Algorithms with
Reservations* (Eyraud-Dubois, Mounié, Trystram; IPDPS 2007).

A library for scheduling rigid parallel jobs on a homogeneous cluster in
the presence of advance reservations:

* exact problem models (RIGIDSCHEDULING, RESASCHEDULING,
  α-RESASCHEDULING) — :mod:`repro.core`;
* the paper's algorithms and the production policies it discusses (LSRC
  list scheduling, FCFS, conservative/EASY backfilling, shelf heuristics,
  an exact branch-and-bound) — :mod:`repro.algorithms`;
* the paper's theory as executable artifacts (Graham's bound and its
  continuous proof, the α bounds B1/B2/2α, the 3-PARTITION reduction, the
  adversarial instance families) — :mod:`repro.theory`;
* workload and reservation generators plus SWF trace I/O —
  :mod:`repro.workloads`;
* a discrete-event online cluster simulator — :mod:`repro.simulation`;
* the experiment layer: declarative JSON specs, a parallel resumable
  runner and name-addressable registries — :mod:`repro.run`;
* statistics and reporting — :mod:`repro.analysis`;
* Gantt/SVG rendering — :mod:`repro.viz`.

Quickstart::

    from repro import ReservationInstance, list_schedule

    inst = ReservationInstance.from_specs(
        m=4,
        job_specs=[(3, 2), (2, 1), (4, 2), (1, 4)],
        reservation_specs=[(2, 2, 2)],   # 2 processors blocked on [2, 4)
    )
    sched = list_schedule(inst)
    sched.verify()
    print(sched.makespan)
"""

from .core import (
    Job,
    ProfileBackend,
    Reservation,
    ReservationInstance,
    ResourceProfile,
    RigidInstance,
    Schedule,
    ScheduleMetrics,
    area_bound,
    as_reservation_instance,
    left_shifted,
    lower_bound,
    make_jobs,
    make_reservations,
    pmax_bound,
    ratio_to_lower_bound,
    summarize,
    work_bound,
)
from .errors import (
    AlphaViolationError,
    CapacityError,
    InfeasibleInstanceError,
    InfeasibleScheduleError,
    InvalidInstanceError,
    ReproError,
    SchedulingError,
    SearchBudgetExceeded,
    TraceFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core model
    "Job",
    "Reservation",
    "RigidInstance",
    "ReservationInstance",
    "ResourceProfile",
    "ProfileBackend",
    "Schedule",
    "ScheduleMetrics",
    "as_reservation_instance",
    "make_jobs",
    "make_reservations",
    "left_shifted",
    "summarize",
    # bounds
    "lower_bound",
    "work_bound",
    "area_bound",
    "pmax_bound",
    "ratio_to_lower_bound",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleInstanceError",
    "AlphaViolationError",
    "InfeasibleScheduleError",
    "SchedulingError",
    "CapacityError",
    "SearchBudgetExceeded",
    "TraceFormatError",
    # algorithms (lazily resolved)
    "list_schedule",
    "fcfs_schedule",
    "conservative_backfill",
    "easy_backfill",
    "optimal_schedule",
    # experiment layer (lazily resolved)
    "ExperimentSpec",
    "WorkloadSpec",
    "Runner",
    "RunResult",
    "run_experiment",
]


def __getattr__(name):
    # Lazy imports keep `import repro` light and avoid import cycles.
    if name in {
        "list_schedule",
        "fcfs_schedule",
        "conservative_backfill",
        "easy_backfill",
        "optimal_schedule",
    }:
        from . import algorithms

        return getattr(algorithms, name)
    if name in {
        "ExperimentSpec",
        "WorkloadSpec",
        "Runner",
        "RunResult",
        "run_experiment",
    }:
        from . import run

        return getattr(run, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
