"""Workload generation and trace I/O.

* :mod:`repro.workloads.synthetic` — seeded random rigid-job generators
  (uniform, log-uniform, α-constrained, tiny exact-solver instances);
* :mod:`repro.workloads.feitelson` — stylised Feitelson parallel-workload
  model (power-of-two widths, hyper-exponential correlated runtimes);
* :mod:`repro.workloads.reservations` — reservation calendars (periodic
  maintenance, α-budgeted random, non-increasing staircases);
* :mod:`repro.workloads.swf` — Standard Workload Format reader/writer;
* :mod:`repro.workloads.registry` — name-addressable generators for the
  experiment layer (``make_workload("alpha-uniform", n=30, m=64, ...)``);
* :mod:`repro.workloads.uncertainty` — seeded runtime-uncertainty models
  (estimate error, failure/requeue, reservation no-shows) for the
  reschedule-on-actual engines.
"""

from .._lazy import lazy_exports as _lazy_exports

__all__ = [
    "uniform_instance",
    "loguniform_instance",
    "alpha_constrained_instance",
    "small_exact_instance",
    "with_poisson_releases",
    "FeitelsonModel",
    "feitelson_instance",
    "periodic_maintenance",
    "random_alpha_reservations",
    "nonincreasing_staircase",
    "reservation_load",
    "read_swf",
    "iter_swf",
    "write_swf",
    "write_swf_jobs",
    "save_swf_trace",
    "synth_swf_jobs",
    "synth_swf_instance",
    "SYNTH_PROFILES",
    "SWFStream",
    "SWFReadReport",
    "SAMPLE_SWF",
    "WorkloadProfile",
    "characterize",
    "characterize_many",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "available_workloads",
    "make_workload",
    "DEFAULT_FAILURE_RATE",
    "UNCERTAINTY_MODELS",
    "UncertaintyModel",
    "available_uncertainty_models",
    "parse_uncertainty",
    "register_uncertainty_model",
    "resolve_uncertainty",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".characterize": ("WorkloadProfile", "characterize", "characterize_many"),
    ".feitelson": ("FeitelsonModel", "feitelson_instance"),
    ".reservations": (
        "nonincreasing_staircase", "periodic_maintenance",
        "random_alpha_reservations", "reservation_load",
    ),
    ".registry": (
        "WORKLOADS", "available_workloads", "get_workload", "make_workload",
        "register_workload",
    ),
    ".swf": (
        "SAMPLE_SWF", "SYNTH_PROFILES", "SWFReadReport", "SWFStream",
        "iter_swf", "read_swf", "save_swf_trace", "synth_swf_instance",
        "synth_swf_jobs", "write_swf", "write_swf_jobs",
    ),
    ".uncertainty": (
        "DEFAULT_FAILURE_RATE", "UNCERTAINTY_MODELS", "UncertaintyModel",
        "available_uncertainty_models", "parse_uncertainty",
        "register_uncertainty_model", "resolve_uncertainty",
    ),
    ".synthetic": (
        "alpha_constrained_instance", "loguniform_instance",
        "small_exact_instance", "uniform_instance", "with_poisson_releases",
    ),
})
