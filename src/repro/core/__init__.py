"""Core model: jobs, reservations, instances, profiles, schedules, bounds.

This package implements the paper's problem definitions:

* RIGIDSCHEDULING (``P | p_j, size_j | Cmax``, Section 2.1) via
  :class:`~repro.core.instance.RigidInstance`;
* RESASCHEDULING (Section 3.1) via
  :class:`~repro.core.instance.ReservationInstance`;
* the α-restricted variant (Section 4.2) via
  :meth:`~repro.core.instance.ReservationInstance.validate_alpha`;

plus the shared machinery every scheduler uses: the availability profile
``m(t) = m - U(t)``, exact schedule verification, certified lower bounds
and schedule metrics.
"""

from .._lazy import lazy_exports as _lazy_exports

__all__ = [
    "Job",
    "Reservation",
    "Time",
    "make_jobs",
    "make_reservations",
    "RigidInstance",
    "ReservationInstance",
    "as_reservation_instance",
    "ResourceProfile",
    "ProfileBackend",
    "Schedule",
    "ScheduledJob",
    "left_shifted",
    "Timebase",
    "TIMEBASE_POLICIES",
    "check_timebase_policy",
    "timebase_for",
    "exactify_instance",
    "on_int_timebase",
    "work_bound",
    "area_bound",
    "pmax_bound",
    "squashed_area_bound",
    "release_bound",
    "lower_bound",
    "ratio_to_lower_bound",
    "ScheduleMetrics",
    "summarize",
    "utilization",
    "waiting_times",
    "slowdowns",
    "bounded_slowdown",
    "bounded_slowdowns",
    "available_area",
    "METRICS",
    "register_metric",
    "get_metric",
    "available_metrics",
    "evaluate_metrics",
    "Registry",
    "RegistryCollisionWarning",
    "dumps_instance",
    "loads_instance",
    "save_instance",
    "load_instance",
    "dumps_schedule",
    "loads_schedule",
    "save_schedule",
    "load_schedule",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".bounds": (
        "area_bound", "lower_bound", "pmax_bound", "ratio_to_lower_bound",
        "release_bound", "squashed_area_bound", "work_bound",
    ),
    ".instance": (
        "ReservationInstance", "RigidInstance", "as_reservation_instance",
    ),
    ".job": ("Job", "Reservation", "Time", "make_jobs", "make_reservations"),
    ".metrics": (
        "METRICS", "ScheduleMetrics", "available_area", "available_metrics",
        "bounded_slowdown", "bounded_slowdowns", "evaluate_metrics",
        "get_metric", "register_metric", "slowdowns", "summarize",
        "utilization", "waiting_times",
    ),
    ".registry": ("Registry", "RegistryCollisionWarning"),
    ".profiles": ("ProfileBackend", "ResourceProfile"),
    ".schedule": ("Schedule", "ScheduledJob", "left_shifted"),
    ".timebase": (
        "TIMEBASE_POLICIES", "Timebase", "check_timebase_policy",
        "exactify_instance", "on_int_timebase", "timebase_for",
    ),
    ".serialize": (
        "dumps_instance", "dumps_schedule", "load_instance", "load_schedule",
        "loads_instance", "loads_schedule", "save_instance", "save_schedule",
    ),
})
