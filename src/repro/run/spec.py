"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a *factor grid* — algorithms (registry
names, with ``"online:<policy>"`` addressing the simulation policies),
workloads (registry name + parameters, with an optional per-parameter
value grid), profile backends (``"list"`` or ``"array"``), seeds and
metric extractors — and round-trips to JSON (format ``repro-spec/1``) so an experiment is a
durable artifact like instances and schedules, not a script.

The grid semantics mirror the paper's evaluation: every figure is an
algorithm × workload × α × seed sweep of makespan ratios, and the spec
is exactly that cross product, written down once and executed by
:class:`repro.run.Runner`.

>>> spec = ExperimentSpec(
...     name="demo",
...     algorithms=("lsrc", "online:easy"),
...     workloads=(WorkloadSpec("alpha-uniform", params={"n": 12, "m": 16},
...                             grid={"alpha": [0.25, 0.5]}),),
...     seeds=(0, 1),
...     metrics=("makespan", "ratio_lb"),
... )
>>> spec == loads_spec(dumps_spec(spec))
True
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from ..core.serialize import SPEC_FORMAT, _decode_number, _encode_number
from ..errors import InvalidInstanceError, TraceFormatError

#: Row fields the runner owns; metric names must not shadow them.
RESERVED_ROW_FIELDS = frozenset(
    {"key", "workload", "params", "algorithm", "profile_backend",
     "seed", "derived_seed", "timebase", "uncertainty"}
)

#: The timebase factor value every pre-existing row implicitly ran
#: under; points using it omit the factor from their key so old stores
#: keep resuming.
DEFAULT_TIMEBASE = "auto"

#: The uncertainty factor value every pre-existing row implicitly ran
#: under (the degenerate exact model); points using it omit the factor
#: from their key so old stores keep resuming.
DEFAULT_UNCERTAINTY = "exact"

#: Prefix routing an "algorithm" entry to the online-policy registry.
ONLINE_PREFIX = "online:"

#: Reserved ``workload`` value marking a trace-replay grid point (the
#: rolling-horizon engine instead of a registered generator).
TRACE_WORKLOAD = "trace"

#: Length of a ``synth:<profile>`` trace point that sets neither an
#: ``n`` parameter nor a ``:<n>`` suffix (the CLI's default is longer).
TRACE_SYNTH_JOBS = 10_000

#: Parameters a :class:`TraceSpec` accepts (anything else is a typo).
TRACE_PARAMS = frozenset({"m", "n", "max_jobs", "window"})


# ---------------------------------------------------------------------------
# JSON value encoding (numbers via the repro.core.serialize conventions)
# ---------------------------------------------------------------------------

def encode_value(value):
    """Encode a parameter value losslessly for JSON.

    Fractions become ``{"num": ..., "den": ...}`` (the
    :mod:`repro.core.serialize` convention); tuples become lists; dicts
    and lists recurse.  Anything else must already be a JSON scalar.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return _encode_number(value)
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TraceFormatError(f"cannot encode spec value {value!r}")


def decode_value(value):
    """Inverse of :func:`encode_value` (``{"num", "den"}`` → Fraction)."""
    if isinstance(value, Mapping):
        if set(value) == {"num", "den"}:
            return _decode_number(dict(value))
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def canonical_json(value) -> str:
    """Deterministic JSON text (sorted keys, no whitespace) used for
    point keys and derived seeds — stable across processes and runs."""
    return json.dumps(encode_value(value), sort_keys=True,
                      separators=(",", ":"))


def iter_grid(factors: Mapping[str, Sequence]) -> Iterator[Dict]:
    """Cartesian product of ``{factor: values}`` in declaration order."""
    names = list(factors)
    if not names:
        yield {}
        return
    for combo in itertools.product(*(list(factors[k]) for k in names)):
        yield dict(zip(names, combo))


# ---------------------------------------------------------------------------
# workload spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadSpec:
    """One workload family of the grid.

    ``params`` are fixed keyword arguments for the registered generator;
    ``grid`` maps parameter names to value lists that are expanded as
    factors (so ``grid={"alpha": [0.25, 0.5]}`` contributes two grid
    columns per seed/algorithm/backend combination).
    """

    name: str
    params: Mapping = field(default_factory=dict)
    grid: Mapping[str, Sequence] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(
            self, "grid", {k: list(v) for k, v in dict(self.grid).items()}
        )
        overlap = set(self.params) & set(self.grid)
        if overlap:
            raise InvalidInstanceError(
                f"workload {self.name!r} lists {sorted(overlap)} in both "
                f"params and grid"
            )
        for param, values in self.grid.items():
            if len({canonical_json(v) for v in values}) != len(values):
                raise InvalidInstanceError(
                    f"workload {self.name!r} grid {param!r} repeats a value"
                )

    def expand(self) -> Iterator[Dict]:
        """Concrete parameter dicts, one per grid combination."""
        for combo in iter_grid(self.grid):
            yield {**self.params, **combo}

    def to_dict(self) -> Dict:
        out: Dict = {"name": self.name}
        if self.params:
            out["params"] = encode_value(self.params)
        if self.grid:
            out["grid"] = encode_value(self.grid)
        return out

    @classmethod
    def from_dict(cls, data) -> "WorkloadSpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, Mapping) or "name" not in data:
            raise TraceFormatError(
                f"workload entry must be a name or an object with a "
                f"'name' field, got {data!r}"
            )
        unknown = sorted(set(data) - {"name", "params", "grid"})
        if unknown:
            raise TraceFormatError(
                f"unknown workload field(s) {unknown}; known fields: "
                f"['grid', 'name', 'params']"
            )
        return cls(
            name=data["name"],
            params=decode_value(data.get("params", {})),
            grid=decode_value(data.get("grid", {})),
        )


# ---------------------------------------------------------------------------
# trace spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSpec:
    """One replay trace of the grid's ``traces`` factor.

    ``source`` is read by :func:`repro.simulation.replay.
    open_replay_source`, the one grammar ``repro replay`` uses too: an
    SWF path (``.swf`` / ``.swf.gz``), or ``synth:<profile>[:<n>]``
    naming the deterministic scenario pack
    (:func:`repro.workloads.swf.synth_swf_jobs`, seeded per point).
    ``params`` tune the replay: ``m`` (machine size, default 256 for a
    synthetic trace), ``n`` (synthetic trace length when the source
    names no ``:<n>``, default :data:`TRACE_SYNTH_JOBS`), ``max_jobs``
    (truncation) and ``window`` (metrics window).  File traces' totals
    carry their ``skipped_lines``/``clipped_jobs`` counters too, but a
    point keeps only the spec's ``metrics``.  Trace points cross with
    the ``algorithms``
    (online policies only), ``profile_backends`` and ``seeds`` factors;
    file traces are deterministic, so give them ``seeds=[0]``.
    """

    source: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        unknown = sorted(set(self.params) - TRACE_PARAMS)
        if unknown:
            raise InvalidInstanceError(
                f"trace {self.source!r} has unknown parameter(s) {unknown}; "
                f"known parameters: {sorted(TRACE_PARAMS)}"
            )

    def to_dict(self) -> Dict:
        out: Dict = {"source": self.source}
        if self.params:
            out["params"] = encode_value(self.params)
        return out

    @classmethod
    def from_dict(cls, data) -> "TraceSpec":
        if isinstance(data, str):
            return cls(source=data)
        if not isinstance(data, Mapping) or "source" not in data:
            raise TraceFormatError(
                f"trace entry must be a path/synth name or an object with "
                f"a 'source' field, got {data!r}"
            )
        unknown = sorted(set(data) - {"source", "params"})
        if unknown:
            raise TraceFormatError(
                f"unknown trace field(s) {unknown}; known fields: "
                f"['params', 'source']"
            )
        return cls(
            source=data["source"],
            params=decode_value(data.get("params", {})),
        )


# ---------------------------------------------------------------------------
# experiment spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative factor grid: the unit of work of :mod:`repro.run`."""

    name: str
    algorithms: Tuple[str, ...]
    workloads: Tuple[WorkloadSpec, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    metrics: Tuple[str, ...] = ("makespan", "ratio_lb")
    profile_backends: Tuple[str, ...] = ("list",)
    timebases: Tuple[str, ...] = (DEFAULT_TIMEBASE,)
    traces: Tuple[TraceSpec, ...] = ()
    #: uncertainty-model spec strings, a trace-replay-only factor: each
    #: trace point runs once per entry, with the point's derived seed
    #: unless the entry pins ``seed=`` itself.
    uncertainties: Tuple[str, ...] = (DEFAULT_UNCERTAINTY,)

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(
            self,
            "workloads",
            tuple(
                w if isinstance(w, WorkloadSpec) else WorkloadSpec.from_dict(w)
                for w in self.workloads
            ),
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(
            self, "profile_backends", tuple(self.profile_backends)
        )
        object.__setattr__(self, "timebases", tuple(self.timebases))
        object.__setattr__(
            self, "uncertainties", tuple(self.uncertainties)
        )
        object.__setattr__(
            self,
            "traces",
            tuple(
                t if isinstance(t, TraceSpec) else TraceSpec.from_dict(t)
                for t in self.traces
            ),
        )
        if not self.workloads and not self.traces:
            raise InvalidInstanceError(
                "spec needs at least one workload or trace"
            )
        if self.uncertainties != (DEFAULT_UNCERTAINTY,) and not self.traces:
            raise InvalidInstanceError(
                "the uncertainties factor applies to trace replay points "
                "only; add traces or drop it"
            )
        for label, values in [
            ("algorithms", self.algorithms),
            ("seeds", self.seeds),
            ("metrics", self.metrics),
            ("profile_backends", self.profile_backends),
            ("timebases", self.timebases),
            ("uncertainties", self.uncertainties),
        ]:
            if not values:
                raise InvalidInstanceError(f"spec needs at least one of {label}")
        # duplicate factor values are almost certainly typos, and they
        # would break the computed+skipped==rows accounting of the runner
        for label, values in [
            ("algorithms", self.algorithms),
            ("seeds", self.seeds),
            ("metrics", self.metrics),
            ("profile_backends", self.profile_backends),
            ("timebases", self.timebases),
            ("uncertainties", self.uncertainties),
            ("workloads", tuple(
                canonical_json(w.to_dict()) for w in self.workloads
            )),
            ("traces", tuple(
                canonical_json(t.to_dict()) for t in self.traces
            )),
        ]:
            if len(set(values)) != len(values):
                raise InvalidInstanceError(f"spec repeats a value in {label}")

    @property
    def n_points(self) -> int:
        """Grid size (number of result rows a full run produces)."""
        per_workload = sum(
            max(1, len(list(w.expand()))) for w in self.workloads
        )
        # trace points pin the timebase factor (replay's fast path is
        # intrinsic) but cross with the uncertainties factor; workload
        # points are the mirror image (timebases yes, uncertainty no)
        return (
            per_workload
            * len(self.algorithms)
            * len(self.seeds)
            * len(self.profile_backends)
            * len(self.timebases)
        ) + (
            len(self.traces)
            * len(self.algorithms)
            * len(self.seeds)
            * len(self.profile_backends)
            * len(self.uncertainties)
        )

    def validate(self) -> None:
        """Resolve every name against its registry — loud, early errors
        instead of a grid that dies on point 37."""
        from ..algorithms.base import SCHEDULERS
        from ..core.metrics import METRICS
        from ..core.profiles import resolve_backend
        from ..core.timebase import check_timebase_policy
        from ..simulation.online_sim import POLICIES
        from ..workloads.registry import WORKLOADS

        for algo in self.algorithms:
            if algo.startswith(ONLINE_PREFIX):
                POLICIES.get(algo[len(ONLINE_PREFIX):])
            else:
                SCHEDULERS.get(algo)
        for workload in self.workloads:
            WORKLOADS.get(workload.name)
        for metric in self.metrics:
            if metric in RESERVED_ROW_FIELDS:
                raise InvalidInstanceError(
                    f"metric name {metric!r} shadows a reserved row field"
                )
            if self.workloads:
                # trace-only specs may use replay-only metric names
                # (requeues, kills, ...) that have no schedule extractor;
                # _validate_traces checks those against the replay fields
                METRICS.get(metric)
        for backend in self.profile_backends:
            resolve_backend(backend)
        for timebase in self.timebases:
            check_timebase_policy(timebase)
        from ..workloads.uncertainty import parse_uncertainty

        for uncertainty in self.uncertainties:
            parse_uncertainty(uncertainty)
        if self.traces:
            self._validate_traces()

    def _validate_traces(self) -> None:
        import os

        from ..simulation.replay import (
            REPLAY_METRIC_FIELDS,
            SYNTH_PREFIX,
            parse_synth_source,
        )

        for algo in self.algorithms:
            if not algo.startswith(ONLINE_PREFIX):
                raise InvalidInstanceError(
                    f"trace replay runs online policies only; algorithm "
                    f"{algo!r} is offline — use 'online:<policy>' or move "
                    f"the traces to their own spec"
                )
        for metric in self.metrics:
            if metric not in REPLAY_METRIC_FIELDS:
                raise InvalidInstanceError(
                    f"metric {metric!r} is not produced by trace replay; "
                    f"replay metrics: {sorted(REPLAY_METRIC_FIELDS)}"
                )
        if self.timebases != (DEFAULT_TIMEBASE,):
            raise InvalidInstanceError(
                "trace replay pins the timebase factor (its integer fast "
                "path is intrinsic); use the default timebases with traces"
            )
        for trace in self.traces:
            if trace.source.startswith(SYNTH_PREFIX):
                parse_synth_source(trace.source)
            elif not os.path.exists(trace.source):
                raise InvalidInstanceError(
                    f"trace file {trace.source!r} does not exist"
                )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        out = {
            "format": SPEC_FORMAT,
            "name": self.name,
            "algorithms": list(self.algorithms),
            "workloads": [w.to_dict() for w in self.workloads],
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "profile_backends": list(self.profile_backends),
            "timebases": list(self.timebases),
        }
        if self.traces:
            out["traces"] = [t.to_dict() for t in self.traces]
        if self.uncertainties != (DEFAULT_UNCERTAINTY,):
            out["uncertainties"] = list(self.uncertainties)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        if not isinstance(data, Mapping):
            raise TraceFormatError("spec document must be a JSON object")
        if data.get("format") != SPEC_FORMAT:
            raise TraceFormatError(
                f"unsupported spec format {data.get('format')!r}; "
                f"expected {SPEC_FORMAT!r}"
            )
        known = {"format", "name", "algorithms", "workloads", "seeds",
                 "repeats", "metrics", "profile_backends", "timebases",
                 "traces", "uncertainties"}
        unknown = sorted(set(data) - known)
        if unknown:
            # a typo ("seed" for "seeds") must not silently shrink a grid
            raise TraceFormatError(
                f"unknown spec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        if "seeds" in data and "repeats" in data:
            raise TraceFormatError("give either 'seeds' or 'repeats', not both")
        if "repeats" in data:
            repeats = int(data["repeats"])
            if repeats < 1:
                raise TraceFormatError("repeats must be >= 1")
            seeds: Sequence[int] = range(repeats)
        else:
            seeds = data.get("seeds", (0,))
        try:
            return cls(
                name=data.get("name", "experiment"),
                algorithms=data["algorithms"],
                workloads=[
                    WorkloadSpec.from_dict(w)
                    for w in data.get("workloads", [])
                ],
                seeds=seeds,
                metrics=data.get("metrics", ("makespan", "ratio_lb")),
                profile_backends=data.get("profile_backends", ("list",)),
                timebases=data.get("timebases", (DEFAULT_TIMEBASE,)),
                traces=[
                    TraceSpec.from_dict(t) for t in data.get("traces", [])
                ],
                uncertainties=data.get(
                    "uncertainties", (DEFAULT_UNCERTAINTY,)
                ),
            )
        except KeyError as exc:
            raise TraceFormatError(
                f"spec document is missing field {exc}"
            ) from exc


def dumps_spec(spec: ExperimentSpec, indent: int = 2) -> str:
    """Spec → JSON text."""
    return json.dumps(spec.to_dict(), indent=indent)


def loads_spec(text: str) -> ExperimentSpec:
    """JSON text → spec."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON: {exc}") from exc
    return ExperimentSpec.from_dict(data)


def save_spec(spec: ExperimentSpec, path: str) -> str:
    """Write a spec JSON file atomically; returns the path."""
    from ..durability.atomic import atomic_write_text

    atomic_write_text(path, dumps_spec(spec))
    return path


def load_spec(path: str) -> ExperimentSpec:
    """Read a spec JSON file."""
    with open(path) as fh:
        return loads_spec(fh.read())
