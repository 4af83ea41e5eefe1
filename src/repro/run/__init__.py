"""The experiment layer: declarative specs, a parallel runner, durable rows.

The paper's results are grids — algorithm × workload × α × seed sweeps
of makespan ratios — and this package makes a grid a first-class, durable
object instead of a script:

* :class:`ExperimentSpec` (:mod:`repro.run.spec`) declares the factor
  grid by *registry names*: algorithms
  (:data:`repro.algorithms.base.SCHEDULERS`, with ``"online:<policy>"``
  routed to :data:`repro.simulation.POLICIES`), workloads
  (:data:`repro.workloads.WORKLOADS`) and metric extractors
  (:data:`repro.core.METRICS`).  Specs round-trip to JSON
  (``repro-spec/1``) via :mod:`repro.core.serialize`.
* :class:`Runner` (:mod:`repro.run.runner`) executes the grid serially
  or on a :class:`~concurrent.futures.ProcessPoolExecutor` with
  per-point derived seeds, streaming rows to a JSONL store
  (:mod:`repro.run.store`) and *resuming* past completed points by key.
* :mod:`repro.run.presets` holds the built-in paper grid.

Quickstart::

    from repro.run import ExperimentSpec, WorkloadSpec, Runner

    spec = ExperimentSpec(
        name="alpha-sweep",
        algorithms=["lsrc", "backfill-cons", "online:easy"],
        workloads=[WorkloadSpec("alpha-uniform",
                                params={"n": 30, "m": 64},
                                grid={"alpha": [0.25, 0.5, 0.75]})],
        seeds=range(10),
        metrics=["makespan", "ratio_lb"],
    )
    result = Runner(jobs=4, store="alpha-sweep.jsonl").run(spec)
    lsrc = result.filtered(algorithm="lsrc")

The same spec runs from the command line: ``repro run spec.json --jobs 4``.
"""

from .._lazy import lazy_exports as _lazy_exports

__all__ = [
    "ExperimentSpec",
    "WorkloadSpec",
    "TraceSpec",
    "TRACE_WORKLOAD",
    "Runner",
    "RunResult",
    "ExperimentPoint",
    "run_experiment",
    "expand_points",
    "execute_point",
    "JsonlStore",
    "SPEC_FORMAT",
    "ONLINE_PREFIX",
    "iter_grid",
    "encode_value",
    "decode_value",
    "dumps_spec",
    "loads_spec",
    "save_spec",
    "load_spec",
    "paper_grid_spec",
    "PAPER_GRID_ALGORITHMS",
    "PAPER_GRID_ALPHAS",
    "mean_metric_series",
    "summary_rows",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".presets": (
        "PAPER_GRID_ALGORITHMS", "PAPER_GRID_ALPHAS", "mean_metric_series",
        "paper_grid_spec", "summary_rows",
    ),
    ".runner": (
        "ExperimentPoint", "RunResult", "Runner", "execute_point",
        "expand_points", "run_experiment",
    ),
    ".spec": (
        "ONLINE_PREFIX", "SPEC_FORMAT", "TRACE_WORKLOAD", "ExperimentSpec",
        "TraceSpec", "WorkloadSpec", "decode_value", "dumps_spec",
        "encode_value", "iter_grid", "load_spec", "loads_spec", "save_spec",
    ),
    ".store": ("JsonlStore",),
})
