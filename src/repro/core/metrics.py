"""Schedule quality metrics beyond the makespan.

The paper's criterion is the makespan, but production batch schedulers
(the motivation of Section 1) are additionally judged on utilization,
waiting time and slowdown; the examples and the online simulator report
these.  All metrics are exact sums/maxima over the schedule's event
structure — no sampling.

Metrics are also *name-addressable* through the :data:`METRICS`
registry: a metric extractor is any ``schedule -> number`` callable, and
the experiment layer (:mod:`repro.run`) selects extractors by name so a
JSON spec can say ``"metrics": ["makespan", "ratio_lb"]``.  Third-party
extractors join via :func:`register_metric`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..errors import InvalidInstanceError
from .registry import Registry

if TYPE_CHECKING:
    from .schedule import Schedule


@dataclass(frozen=True)
class ScheduleMetrics:
    """Summary statistics of a schedule.

    Attributes
    ----------
    makespan:
        ``Cmax`` — latest job completion.
    total_work:
        ``W`` — total job area processed.
    utilization:
        ``W / (m * Cmax)``: fraction of the raw machine used by jobs.
    available_utilization:
        ``W / available_area``: fraction of the *reservation-free* capacity
        in ``[0, Cmax)`` used by jobs.  Equals ``utilization`` when there
        are no reservations.
    mean_wait / max_wait:
        Waiting time ``sigma_i - release_i`` statistics.
    mean_slowdown / max_slowdown:
        Bounded slowdown ``(wait + p) / p`` statistics (>= 1).
    idle_area:
        Capacity left unused by jobs within ``[0, Cmax)``, reservations
        excluded: ``available_area - W``.
    n_jobs:
        Number of jobs.
    """

    makespan: float
    total_work: float
    utilization: float
    available_utilization: float
    mean_wait: float
    max_wait: float
    mean_slowdown: float
    max_slowdown: float
    idle_area: float
    n_jobs: int

    def as_dict(self) -> Dict[str, float]:
        """Plain dict, handy for table rows and CSV export."""
        return {
            "makespan": self.makespan,
            "total_work": self.total_work,
            "utilization": self.utilization,
            "available_utilization": self.available_utilization,
            "mean_wait": self.mean_wait,
            "max_wait": self.max_wait,
            "mean_slowdown": self.mean_slowdown,
            "max_slowdown": self.max_slowdown,
            "idle_area": self.idle_area,
            "n_jobs": self.n_jobs,
        }


def waiting_times(schedule: Schedule) -> List:
    """Per-job waiting times ``sigma_i - release_i``."""
    inst = schedule.instance
    return [
        schedule.starts[job.id] - job.release for job in inst.jobs
    ]


def slowdowns(schedule: Schedule) -> List:
    """Per-job slowdowns ``(wait_i + p_i) / p_i``; 1.0 means no wait."""
    inst = schedule.instance
    result = []
    for job in inst.jobs:
        wait = schedule.starts[job.id] - job.release
        result.append((wait + job.p) / job.p)
    return result


#: Bounded-slowdown runtime threshold (the literature's tau): short jobs
#: are measured against tau instead of their own runtime, so a 1-second
#: job waiting a minute does not read as a 60x degradation.
BSLD_TAU = 10


def bounded_slowdown(wait, p, tau=BSLD_TAU) -> float:
    """One job's bounded slowdown ``max(1, (wait + p) / max(p, tau))``.

    The single definition both the schedule-level extractors below and
    the replay engine's windowed metrics
    (:mod:`repro.simulation.replay`) compute with, so the two stay
    comparable by construction.
    """
    return max(1.0, float(wait + p) / float(max(p, tau)))


def bounded_slowdowns(schedule: Schedule, tau=BSLD_TAU) -> List[float]:
    """Per-job bounded slowdowns — the trace-evaluation standard."""
    inst = schedule.instance
    return [
        bounded_slowdown(schedule.starts[job.id] - job.release, job.p, tau)
        for job in inst.jobs
    ]


#: Default slowdown guarantee level: ``p_slowdown_le`` reports
#: ``P(bounded slowdown <= 10)`` unless asked otherwise — the threshold
#: reservation-based analyses (Palopoli et al.) quote guarantees at.
DEFAULT_SLOWDOWN_THRESHOLD = 10.0

#: The tail quantiles windowed replay rows report.
TAIL_QUANTILES = (0.50, 0.95, 0.99)


def quantile(values, q: float):
    """Nearest-rank quantile of ``values`` (exact, no interpolation).

    Nearest-rank keeps every reported quantile an *observed* sample —
    integer traces yield integer quantiles, so the distributional
    columns obey the same exactness discipline as every other replay
    metric.  Empty input returns 0; ``q`` outside ``[0, 1]`` is a loud
    error.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidInstanceError(f"quantile level must be in [0, 1], got {q!r}")
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0
    k = int(q * n)
    if k < q * n:  # nearest rank is ceil(q * n)
        k += 1
    if k < 1:
        k = 1
    return ordered[k - 1]


def p_slowdown_le(
    values: Iterable[float], threshold: float = DEFAULT_SLOWDOWN_THRESHOLD
) -> float:
    """Empirical ``P(slowdown <= threshold)`` — the distributional
    guarantee level.  Vacuously 1.0 over no samples."""
    count = 0
    n = 0
    for value in values:
        n += 1
        if value <= threshold:
            count += 1
    return (count / n) if n else 1.0


def utilization(schedule: Schedule) -> float:
    """``W / (m * Cmax)``: raw machine utilization by jobs."""
    cmax = schedule.makespan
    if cmax == 0:
        return 0.0
    inst = schedule.instance
    return inst.total_work / (inst.m * cmax)


def available_area(schedule: Schedule):
    """Reservation-free capacity area within ``[0, Cmax)``."""
    cmax = schedule.makespan
    if cmax == 0:
        return 0
    return schedule.instance.availability_profile().area(0, cmax)


def summarize(schedule: Schedule) -> ScheduleMetrics:
    """Compute every metric at once."""
    inst = schedule.instance
    cmax = schedule.makespan
    work = inst.total_work
    waits = waiting_times(schedule)
    slows = slowdowns(schedule)
    avail = available_area(schedule)
    n = len(waits)
    return ScheduleMetrics(
        makespan=cmax,
        total_work=work,
        utilization=(work / (inst.m * cmax)) if cmax else 0.0,
        available_utilization=(work / avail) if avail else 0.0,
        mean_wait=(sum(waits) / n) if n else 0.0,
        max_wait=max(waits) if waits else 0.0,
        mean_slowdown=(sum(slows) / n) if n else 0.0,
        max_slowdown=max(slows) if slows else 0.0,
        idle_area=avail - work,
        n_jobs=n,
    )


# ---------------------------------------------------------------------------
# name-addressable metric extractors
# ---------------------------------------------------------------------------

#: Metric extractor registry: name -> ``schedule -> number``.
METRICS: Registry[Callable[[Schedule], float]] = Registry(
    "metric", error=InvalidInstanceError
)


def register_metric(
    name: str,
    extractor: Optional[Callable[[Schedule], float]] = None,
    *,
    overwrite: Optional[bool] = None,
):
    """Register a ``schedule -> number`` extractor (usable as decorator)."""
    return METRICS.register(name, extractor, overwrite=overwrite)


def get_metric(name: str) -> Callable[[Schedule], float]:
    """The extractor registered under ``name`` (loud error otherwise)."""
    return METRICS.get(name)


def available_metrics() -> List[str]:
    """Sorted names of all registered metric extractors."""
    return METRICS.names()


_SUMMARY_FIELDS = frozenset(ScheduleMetrics.__dataclass_fields__)


def evaluate_metrics(schedule: Schedule, names: Iterable[str]) -> Dict[str, float]:
    """Evaluate the named extractors on one schedule, as ``{name: value}``.

    Built-in extractors share their intermediates: ``summarize`` runs at
    most once however many of its fields are requested, and the certified
    lower bound is computed once for ``lower_bound`` and ``ratio_lb``
    together — a grid run evaluates metrics on every point, so the
    duplicate work would multiply across the whole sweep.
    """
    summary = None
    reference = None
    out: Dict[str, float] = {}
    for name in names:
        extractor = METRICS.get(name)
        if extractor is not _BUILTIN_EXTRACTORS.get(name):
            # a user override replaced the built-in — honour it
            out[name] = extractor(schedule)
        elif name in _SUMMARY_FIELDS:
            if summary is None:
                summary = summarize(schedule)
            out[name] = getattr(summary, name)
        elif name in ("lower_bound", "ratio_lb"):
            if reference is None:
                from .bounds import lower_bound

                reference = lower_bound(schedule.instance)
            out[name] = (
                reference if name == "lower_bound"
                else _checked_ratio(schedule, reference)
            )
        else:
            out[name] = extractor(schedule)
    return out


def _checked_ratio(schedule: Schedule, reference) -> float:
    if reference <= 0:
        raise InvalidInstanceError(
            f"degenerate lower bound {reference!r}; ratio_lb is undefined"
        )
    return float(schedule.makespan) / float(reference)


#: The stock extractor objects; :func:`evaluate_metrics` only takes its
#: shared-intermediate fast path while these are still the registered ones.
_BUILTIN_EXTRACTORS: Dict[str, Callable[[Schedule], float]] = {}


def _register_builtin_metrics() -> None:
    # every ScheduleMetrics field, addressable individually so experiment
    # specs can ask for exactly the columns they need
    for field_name in ScheduleMetrics.__dataclass_fields__:
        _BUILTIN_EXTRACTORS[field_name] = METRICS.register(
            field_name,  # repro: noqa RPL501 -- one name per dataclass field

            (lambda f: lambda schedule: getattr(summarize(schedule), f))(
                field_name
            ),
            overwrite=True,
        )

    def _lower_bound(schedule: Schedule):
        from .bounds import lower_bound

        return lower_bound(schedule.instance)

    def _ratio_lb(schedule: Schedule) -> float:
        return _checked_ratio(schedule, _lower_bound(schedule))

    _BUILTIN_EXTRACTORS["lower_bound"] = METRICS.register(
        "lower_bound", _lower_bound, overwrite=True
    )
    _BUILTIN_EXTRACTORS["ratio_lb"] = METRICS.register(
        "ratio_lb", _ratio_lb, overwrite=True
    )

    def _mean_bsld(schedule: Schedule) -> float:
        values = bounded_slowdowns(schedule)
        return sum(values) / len(values) if values else 0.0

    def _max_bsld(schedule: Schedule) -> float:
        values = bounded_slowdowns(schedule)
        return max(values) if values else 0.0

    _BUILTIN_EXTRACTORS["mean_bounded_slowdown"] = METRICS.register(
        "mean_bounded_slowdown", _mean_bsld, overwrite=True
    )
    _BUILTIN_EXTRACTORS["max_bounded_slowdown"] = METRICS.register(
        "max_bounded_slowdown", _max_bsld, overwrite=True
    )

    def _p_slowdown_le(schedule: Schedule) -> float:
        return p_slowdown_le(bounded_slowdowns(schedule))

    _BUILTIN_EXTRACTORS["p_slowdown_le"] = METRICS.register(
        "p_slowdown_le", _p_slowdown_le, overwrite=True
    )

    # distributional tails: wait_p50/p95/p99 and bsld_p50/p95/p99 —
    # the same columns windowed replay rows report under uncertainty
    for _q in TAIL_QUANTILES:
        _pct = f"p{int(_q * 100)}"
        for _prefix, _values in (
            ("wait", waiting_times), ("bsld", bounded_slowdowns)
        ):
            _name = f"{_prefix}_{_pct}"
            _BUILTIN_EXTRACTORS[_name] = METRICS.register(
                _name,  # repro: noqa RPL501 -- one name per fixed quantile
                (lambda fn, lvl: lambda schedule: quantile(fn(schedule), lvl))(
                    _values, _q
                ),
                overwrite=True,
            )


_register_builtin_metrics()
