"""Grid execution: serial or process-parallel, resumable, deterministic.

The runner expands an :class:`~repro.run.spec.ExperimentSpec` into
:class:`ExperimentPoint` s in a fixed order (workload → grid combo →
timebase → algorithm → seed), executes each point, and streams
one JSON-safe row per point to an optional
:class:`~repro.run.store.JsonlStore`.

Determinism
-----------
Every point carries a *derived seed* — a SHA-256 digest of its factor
values and base seed — so workload generation never depends on process
identity, execution order, or Python's per-process string-hash salt.
Rows are emitted in point order under both execution modes, which makes
serial and parallel runs of the same spec produce byte-identical JSONL
files (a test asserts this).

Resume
------
A point's ``key`` is a digest of its factor values.  When a store is
given, rows whose keys are already present are *skipped*, so re-running
a spec after a crash (or after appending new factor values) computes
only the missing points.
"""

from __future__ import annotations

import hashlib
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..errors import InvalidInstanceError
from .spec import (
    DEFAULT_TIMEBASE,
    DEFAULT_UNCERTAINTY,
    ONLINE_PREFIX,
    TRACE_SYNTH_JOBS,
    TRACE_WORKLOAD,
    ExperimentSpec,
    canonical_json,
    encode_value,
)
from .store import JsonlStore


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPoint:
    """One fully-resolved grid cell."""

    index: int
    workload: str
    params: Mapping
    algorithm: str
    seed: int
    metrics: Tuple[str, ...]
    timebase: str = DEFAULT_TIMEBASE
    uncertainty: str = DEFAULT_UNCERTAINTY

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))

    @property
    def factors(self) -> Dict:
        """The identity of the point — everything but index and metrics.

        The ``timebase`` factor joins the identity only when it differs
        from :data:`~repro.run.spec.DEFAULT_TIMEBASE`: the fast path is
        schedule-identical by construction, and every pre-timebase store
        row was computed under the default, so default-timebase keys must
        keep matching them on resume.  ``uncertainty`` follows the same
        rule: the default exact model is byte-identical to no model, so
        pre-uncertainty rows keep resuming.  A stochastic uncertainty
        factor also keys on the draw-stream version, so rows drawn by an
        older stream are recomputed rather than resumed.
        """
        factors = {
            "workload": self.workload,
            "params": self.params,
            "algorithm": self.algorithm,
            "seed": self.seed,
        }
        if self.timebase != DEFAULT_TIMEBASE:
            factors["timebase"] = self.timebase
        if self.uncertainty != DEFAULT_UNCERTAINTY:
            from ..workloads.uncertainty import (
                DRAW_STREAM_VERSION,
                parse_uncertainty,
            )

            factors["uncertainty"] = self.uncertainty
            if not parse_uncertainty(self.uncertainty).is_exact:
                factors["draw_stream"] = DRAW_STREAM_VERSION
        return factors

    @property
    def key(self) -> str:
        """Stable digest of the factor values: the resume/store key."""
        digest = hashlib.sha256(canonical_json(self.factors).encode())
        return digest.hexdigest()[:16]

    @property
    def derived_seed(self) -> int:
        """Per-point RNG seed: stable across processes and spec edits that
        do not touch this point (unlike ``hash()``, which is salted)."""
        basis = canonical_json(
            {"workload": self.workload, "params": self.params,
             "seed": self.seed}
        )
        digest = hashlib.sha256(basis.encode()).digest()
        return int.from_bytes(digest[:4], "big") % (2**31)


def expand_points(spec: ExperimentSpec) -> Iterator[ExperimentPoint]:
    """The spec's grid cells, in the canonical deterministic order.

    Trace points come after workload points.  They cross with the
    algorithm/seed factors like everything else, but pin the
    timebase factor (the replay engine's integer fast path is intrinsic)
    and carry their trace source in ``params["source"]`` under the
    reserved workload name :data:`~repro.run.spec.TRACE_WORKLOAD`.
    """
    index = 0
    for workload in spec.workloads:
        for params in workload.expand():
            for timebase in spec.timebases:
                for algorithm in spec.algorithms:
                    for seed in spec.seeds:
                        yield ExperimentPoint(
                            index=index,
                            workload=workload.name,
                            params=params,
                            algorithm=algorithm,
                            seed=seed,
                            metrics=spec.metrics,
                            timebase=timebase,
                        )
                        index += 1
    for trace in spec.traces:
        for uncertainty in spec.uncertainties:
            for algorithm in spec.algorithms:
                for seed in spec.seeds:
                    yield ExperimentPoint(
                        index=index,
                        workload=TRACE_WORKLOAD,
                        params={"source": trace.source, **trace.params},
                        algorithm=algorithm,
                        seed=seed,
                        metrics=spec.metrics,
                        uncertainty=uncertainty,
                    )
                    index += 1


def _execute_trace_point(point: ExperimentPoint) -> Dict:
    """Replay a trace grid cell; returns ``{metric: value}``.

    Synthetic sources are seeded with the point's derived seed; file
    sources are deterministic (the seed factor only names the row).
    """
    from ..simulation.replay import ReplayEngine, open_replay_source
    from ..workloads.uncertainty import parse_uncertainty

    params = dict(point.params)
    source = params.pop("source")
    policy = point.algorithm[len(ONLINE_PREFIX):]
    kwargs = dict(policy=policy, window=params.pop("window", 10_000))
    if point.uncertainty != DEFAULT_UNCERTAINTY:
        # the model draws from the point's derived seed unless the spec
        # string pins seed= itself — every grid cell gets its own world
        kwargs["uncertainty"] = parse_uncertainty(
            point.uncertainty, default_seed=point.derived_seed
        )
    arrivals, m, stream = open_replay_source(
        source,
        m=params.pop("m", None),
        n=params.pop("n", TRACE_SYNTH_JOBS),
        max_jobs=params.pop("max_jobs", None),
        seed=point.derived_seed,
    )
    result = ReplayEngine(m, **kwargs).run(arrivals, stream=stream)
    missing = [name for name in point.metrics if name not in result.totals]
    if missing:
        raise InvalidInstanceError(
            f"metric(s) {missing} are not in the replay totals for this "
            f"point; distributional/event metrics require a stochastic "
            f"uncertainty factor (this point ran {point.uncertainty!r})"
        )
    return {name: result.totals[name] for name in point.metrics}


def execute_point(point: ExperimentPoint) -> Dict:
    """Run one grid cell and return its JSON-safe result row.

    Module-level (not a closure) so :class:`ProcessPoolExecutor` can
    pickle it; workers re-import the registries, so only workloads,
    algorithms and metrics registered at import time are addressable in
    parallel mode.
    """
    from ..algorithms.base import get_scheduler
    from ..core.metrics import evaluate_metrics
    from ..simulation.online_sim import simulate
    from ..workloads.registry import make_workload

    if point.workload == TRACE_WORKLOAD:
        values = _execute_trace_point(point)
        row = {
            "key": point.key,
            "workload": point.workload,
            "params": encode_value(point.params),
            "algorithm": point.algorithm,
            "seed": point.seed,
            "derived_seed": point.derived_seed,
            "timebase": point.timebase,
            "uncertainty": point.uncertainty,
        }
        for name, value in values.items():
            row[name] = encode_value(value)
        return row

    instance = make_workload(
        point.workload, seed=point.derived_seed, **point.params
    )
    if point.algorithm.startswith(ONLINE_PREFIX):
        policy = point.algorithm[len(ONLINE_PREFIX):]
        schedule = simulate(instance, policy, timebase=point.timebase).schedule
    else:
        scheduler = get_scheduler(point.algorithm)
        if hasattr(scheduler, "timebase"):
            scheduler.timebase = point.timebase
        elif point.timebase != DEFAULT_TIMEBASE:
            import warnings

            warnings.warn(
                f"scheduler {point.algorithm!r} has no timebase knob; "
                f"the timebase={point.timebase!r} grid cell runs the "
                "scheduler's only engine (row label is aspirational)",
                stacklevel=2,
            )
        schedule = scheduler.schedule(instance)
    values = evaluate_metrics(schedule, point.metrics)
    row = {
        "key": point.key,
        "workload": point.workload,
        "params": encode_value(point.params),
        "algorithm": point.algorithm,
        "seed": point.seed,
        "derived_seed": point.derived_seed,
        "timebase": point.timebase,
    }
    for name, value in values.items():
        row[name] = encode_value(value)
    return row


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """All rows of one grid execution, with provenance."""

    spec: ExperimentSpec
    rows: List[Dict] = field(default_factory=list)
    computed: int = 0       #: points executed this run
    skipped: int = 0        #: points resumed from the store
    elapsed_seconds: float = 0.0
    store_path: Optional[str] = None

    def column(self, name: str) -> List:
        return [row[name] for row in self.rows]

    def filtered(self, **conditions) -> List[Dict]:
        """Rows matching all ``column=value`` conditions (params included:
        a condition key absent from the row is looked up in ``params``).
        Values are decoded before comparison, so Fraction-valued grid
        parameters match ``filtered(alpha=Fraction(1, 2))`` — and, since
        Fractions equal their float value, ``filtered(alpha=0.5)``."""
        from .spec import decode_value

        out = []
        for row in self.rows:
            params = row.get("params", {})
            if all(
                decode_value(row[k] if k in row else params.get(k)) == v
                for k, v in conditions.items()
            ):
                out.append(row)
        return out


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

class Runner:
    """Executes specs serially or on a process pool.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process, which is
        also the mode that can address workloads/metrics registered at
        runtime (worker processes only see import-time registrations).
    store:
        Optional JSONL path.  Rows stream to it as they are computed and
        existing rows are *skipped by key* on re-runs (resume).
    progress:
        Optional ``callable(done, total, row)`` invoked after every
        computed point — the CLI uses it for a live counter.
    """

    def __init__(
        self,
        jobs: int = 1,
        store=None,
        progress: Optional[Callable[[int, int, Dict], None]] = None,
    ):
        if jobs < 1:
            raise InvalidInstanceError("jobs must be >= 1")
        self.jobs = jobs
        self.store = JsonlStore(store) if store is not None else None
        self.progress = progress

    def run(self, spec: ExperimentSpec, resume: bool = True) -> RunResult:
        """Execute the spec's grid; returns every row of the grid (both
        freshly computed and resumed), in canonical point order.

        ``resume=False`` truncates the store first, so the file never
        accumulates duplicate rows per key."""
        spec.validate()
        started = _time.perf_counter()
        points = list(expand_points(spec))

        rows_by_key: Dict[str, Dict] = {}
        if self.store is not None:
            if resume:
                for row in self.store.load():
                    if "key" in row:
                        rows_by_key[row["key"]] = row
            else:
                self.store.delete()

        def satisfies(point: ExperimentPoint) -> bool:
            # a stored row only stands in for the point if it carries every
            # requested metric — a spec that grew a metric recomputes
            row = rows_by_key.get(point.key)
            return row is not None and all(m in row for m in point.metrics)

        skipped = sum(1 for point in points if satisfies(point))
        todo: List[ExperimentPoint] = []
        seen = set()
        for point in points:
            if not satisfies(point) and point.key not in seen:
                seen.add(point.key)
                todo.append(point)

        done = 0
        for row in self._execute(todo):
            rows_by_key[row["key"]] = row
            if self.store is not None:
                self.store.append(row)
            done += 1
            if self.progress is not None:
                self.progress(done, len(todo), row)

        return RunResult(
            spec=spec,
            rows=[rows_by_key[p.key] for p in points],
            computed=len(todo),
            skipped=skipped,
            elapsed_seconds=_time.perf_counter() - started,
            store_path=self.store.path if self.store is not None else None,
        )

    def _execute(self, todo: List[ExperimentPoint]) -> Iterator[Dict]:
        if not todo:
            return
        if self.jobs == 1:
            for point in todo:
                yield execute_point(point)
            return
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(todo))) as pool:
            # map() preserves submission order, so rows stream to the
            # store in canonical point order — identical to a serial run.
            yield from pool.map(execute_point, todo)


def run_experiment(
    spec: ExperimentSpec,
    jobs: int = 1,
    store=None,
    resume: bool = True,
) -> RunResult:
    """Convenience one-call façade over :class:`Runner`."""
    return Runner(jobs=jobs, store=store).run(spec, resume=resume)
