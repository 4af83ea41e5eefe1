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

Every name in ``__all__`` except ``__version__`` loads on first use
(:mod:`repro._lazy`), as do the re-exports of :mod:`repro.core`,
:mod:`repro.run`, :mod:`repro.workloads`, :mod:`repro.durability`,
:mod:`repro.serve` and :mod:`repro.devtools.lint`: ``import repro``
loads no other repro module, and a process compiles only the modules
it uses.  ``from repro import X`` and ``repro.X`` work as before.
"""

from ._lazy import lazy_exports as _lazy_exports

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
    # algorithms
    "list_schedule",
    "fcfs_schedule",
    "conservative_backfill",
    "easy_backfill",
    "optimal_schedule",
    # experiment layer
    "ExperimentSpec",
    "WorkloadSpec",
    "Runner",
    "RunResult",
    "run_experiment",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".core": (
        "Job", "ProfileBackend", "Reservation", "ReservationInstance",
        "ResourceProfile", "RigidInstance", "Schedule", "ScheduleMetrics",
        "area_bound", "as_reservation_instance", "left_shifted", "lower_bound",
        "make_jobs", "make_reservations", "pmax_bound", "ratio_to_lower_bound",
        "summarize", "work_bound",
    ),
    ".errors": (
        "AlphaViolationError", "CapacityError", "InfeasibleInstanceError",
        "InfeasibleScheduleError", "InvalidInstanceError", "ReproError",
        "SchedulingError", "SearchBudgetExceeded", "TraceFormatError",
    ),
    ".algorithms": (
        "list_schedule", "fcfs_schedule", "conservative_backfill",
        "easy_backfill", "optimal_schedule",
    ),
    ".run": (
        "ExperimentSpec", "WorkloadSpec", "Runner", "RunResult",
        "run_experiment",
    ),
})
