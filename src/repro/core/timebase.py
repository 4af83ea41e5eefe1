"""Scaled-integer timebase: exact normalisation of times to machine ints.

The library keeps every time exact — ``int``, :class:`~fractions.Fraction`
or ``float`` — all the way through the scheduling core.  That exactness is
what makes the paper's worst-case constructions verifiable, but paying
Fraction arithmetic (a gcd per operation) inside a scheduler hot loop is
pure overhead: the *set* of values a run ever touches is generated by
``+`` from the instance's times, so it lives in the lattice ``(1/L)·Z``
where ``L`` is the least common multiple of the time denominators.

This module exploits that closure property:

* :class:`Timebase` computes ``L`` once per instance and converts times
  to and from the integer grid **exactly** — ``t ↦ t·L`` is a bijection
  between instance times and ints, so a schedule computed on the integer
  twin denormalises to *the same schedule* the exact path produces
  (property tests in ``tests/test_timebase.py`` assert equality across
  every registered scheduler and workload generator);
* :func:`run_on_grid` is the one round trip (resolve the grid, schedule
  the twin, map the starts back).  :meth:`~repro.algorithms.base.
  Scheduler.schedule` runs every scheduler with a ``timebase`` policy
  through it, the online simulation uses it, and
  :func:`on_int_timebase` wraps any other scheduler in it;
* the policy picks the arithmetic, never the algorithm: a scheduler
  runs the same code on the twin and off it.  The offline placement
  schedulers (LSRC's incremental sweep, conservative backfilling and
  ``seq``) place on :class:`~repro.core.profiles.ArrayProfile`, the one
  profile kernel (the replay and serve event loop places on it too).
  On the twin its columns hold Python ints of any magnitude, and
  because event-driven schedulers only ever move *forward* in time,
  its ``prune_before`` drops segments behind the sweep front, keeping
  every bisect/splice O(active window) instead of O(whole history).

Float times are exact binary rationals, so they normalise exactly too —
but float *arithmetic* in the exact path rounds (``0.1 + 0.2``), so
bit-identical equality with the exact path is only guaranteed for
``int``/``Fraction`` instances.  ``Timebase.of(..., exact_only=True)``
(the ``"auto"`` policy) therefore declines float instances; pass
``exact_only=False`` (the ``"int"`` policy) to force them onto the grid.
The starts then come back as exact Fractions, which
:class:`~repro.core.schedule.Schedule` adds to float runtimes exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import replace
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Optional, Union

from ..errors import InvalidInstanceError
from .instance import as_reservation_instance
from .job import Job
from .profiles.array_backend import ArrayProfile
from .schedule import Schedule

#: Recognised timebase policies for scheduler/simulation entry points.
TIMEBASE_POLICIES = ("auto", "int", "exact")


def check_timebase_policy(policy: str) -> str:
    """Validate a ``timebase=`` argument (early, loud)."""
    if policy not in TIMEBASE_POLICIES:
        raise InvalidInstanceError(
            f"timebase must be one of {TIMEBASE_POLICIES}, got {policy!r}"
        )
    return policy


def timebase_for(instance: Any, policy: str) -> Optional["Timebase"]:
    """Resolve a ``timebase=`` policy against an instance.

    Returns the :class:`Timebase` to fast-path on, or ``None`` for the
    exact path (always for ``"exact"``; for ``"auto"`` when any time is
    a float; for ``"int"`` only when a time cannot be gridded at all —
    non-finite floats and exotic numeric types).
    """
    check_timebase_policy(policy)
    if policy == "exact":
        return None
    return Timebase.of(instance, exact_only=(policy == "auto"))


def _denominator_of(t: Any, exact_only: bool) -> Optional[int]:
    """Denominator of one time value, or ``None`` when it cannot (or, under
    ``exact_only``, should not) be put on an integer grid."""
    if isinstance(t, numbers.Integral):
        return 1
    if isinstance(t, Fraction):
        return t.denominator
    if exact_only:
        return None  # floats (and exotica) stay on the exact path
    try:
        return Fraction(t).denominator  # floats are exact binary rationals
    except (ValueError, OverflowError, TypeError):
        return None  # inf/nan/unsupported


def _iter_instance_times(instance: Any) -> Iterable[Any]:
    for job in instance.jobs:
        yield job.p
        yield job.release
    for res in getattr(instance, "reservations", ()):
        yield res.start
        yield res.p


class Timebase:
    """An exact bijection between instance times and an integer grid.

    ``scale`` is the LCM of every time denominator in the instance, so
    ``t * scale`` is an integer for every time ``t`` the instance (and any
    schedule of it, closed under addition) can produce.
    """

    __slots__ = ("scale", "_source", "_native", "_floats")

    def __init__(self, scale: int = 1) -> None:
        if (
            type(scale) is not int and not isinstance(scale, numbers.Integral)
        ) or scale < 1:
            raise InvalidInstanceError(
                f"timebase scale must be a positive integer, got {scale!r}"
            )
        self.scale = int(scale)
        # the instance :meth:`of` scanned, whether every one of its times
        # was already an int (then it is its own integer twin), and
        # whether any was a float
        self._source: Any = None
        self._native = False
        self._floats = False

    @classmethod
    def of(cls, instance: Any, exact_only: bool = True) -> Optional["Timebase"]:
        """The timebase of an instance, or ``None`` when some time cannot
        be normalised (non-finite float, exotic type) — or, with
        ``exact_only`` (the default), when any time is a float at all.

        One pass over the instance's times, with a ``type(t) is int``
        test before any ABC or :class:`Fraction` check.  The same pass
        notes whether every time is already an int, so
        :meth:`normalize_instance` on this instance returns it without
        scanning again, and whether any time is a float (see
        :meth:`denormalize`).
        """
        scale = 1
        native = True
        floats = False
        for t in _iter_instance_times(instance):
            if type(t) is int:
                continue
            den = _denominator_of(t, exact_only)
            if den is None:
                return None
            if den != 1:
                scale = scale * den // math.gcd(scale, den)
            # int subclasses (bool, IntEnum) keep the instance its own
            # twin, as normalize_instance's all-int check always had it
            if native and not isinstance(t, int):
                native = False
            if isinstance(t, float):
                floats = True
        timebase = cls(scale)
        timebase._source = instance
        timebase._native = native
        timebase._floats = floats
        return timebase

    # ------------------------------------------------------------------
    # value conversion
    # ------------------------------------------------------------------
    def scale_time(self, t: Any) -> int:
        """``t * scale`` as an exact int (raises when off-grid)."""
        if type(t) is int:
            return t * self.scale
        if type(t) is Fraction:
            factor, rest = divmod(self.scale, t.denominator)
            if not rest:
                return t.numerator * factor
        elif isinstance(t, numbers.Integral):
            return int(t) * self.scale
        else:
            v = Fraction(t) * self.scale
            if v.denominator == 1:
                return v.numerator
        raise InvalidInstanceError(
            f"time {t!r} is not on the 1/{self.scale} grid"
        )

    def denormalize(self, v: int) -> Union[int, Fraction]:
        """Grid int → exact time (``int`` when the value lands on whole
        units, :class:`Fraction` otherwise).

        On the grid of an instance with float times it is always a
        :class:`Fraction`: :class:`~repro.core.schedule.Schedule` adds a
        float runtime to a Fraction start exactly, but to an int start in
        float arithmetic, as the exact path does.
        """
        if self._floats:
            return Fraction(v, self.scale)
        if self.scale == 1:
            return int(v)
        f = Fraction(v, self.scale)
        return f.numerator if f.denominator == 1 else f

    def denormalize_starts(self, starts: Dict[Any, int]) -> Dict[Any, Any]:
        """Map a ``{job id: grid start}`` dict back to exact times."""
        return {jid: self.denormalize(s) for jid, s in starts.items()}

    # ------------------------------------------------------------------
    # instance conversion
    # ------------------------------------------------------------------
    def is_own_twin(self, instance: Any) -> bool:
        """True when every time of ``instance`` is already a plain int on
        this grid (scale 1).  For the instance :meth:`of` resolved, its
        scan already settled this; any other instance is scanned."""
        if instance is self._source:
            return self._native
        return self.scale == 1 and all(
            isinstance(t, int) for t in _iter_instance_times(instance)
        )

    def normalize_instance(self, instance: Any) -> Any:
        """The integer-time twin of ``instance`` (same ids, same widths).

        Returns ``instance`` itself when it :meth:`is_own_twin`, so the
        trivial case costs nothing.  The twin's jobs skip re-validation:
        scaling valid times by a positive int keeps every
        :class:`~repro.core.job.Job` invariant.

        A reservation blocks ``[res.start, res.end)``, the window its
        instance's own availability profile blocks (on a float instance
        ``start + p`` rounds; see :func:`~repro.core.job.end_time`).
        """
        if self.is_own_twin(instance):
            return instance
        scale = self.scale_time
        jobs = tuple(
            Job.trusted(job.id, scale(job.p), job.q, scale(job.release), job.name)
            for job in instance.jobs
        )
        if getattr(instance, "reservations", None):
            reservations = tuple(
                replace(
                    res,
                    start=scale(res.start),
                    p=scale(res.end) - scale(res.start),
                )
                for res in instance.reservations
            )
            return replace(instance, jobs=jobs, reservations=reservations)
        return replace(instance, jobs=jobs)


def exactify_instance(instance: Any) -> Any:
    """Copy of ``instance`` with every float time replaced by its *exact*
    :class:`Fraction` value (ints and Fractions pass through untouched).

    Floats are binary rationals, so this changes no job time's value — it
    only moves the instance into the exact-arithmetic regime where the
    integer timebase guarantees schedule identity.  A reservation keeps
    ``[res.start, res.end)`` (a float ``start + p`` rounds, see
    :meth:`Timebase.normalize_instance`), so the copy has the same
    availability profile and the same integer twin.  Used by the
    differential tests to cover float-producing workload generators.
    """

    def fix(t: Any) -> Any:
        if isinstance(t, float):
            return Fraction(t)
        return t

    jobs = tuple(
        replace(job, p=fix(job.p), release=fix(job.release))
        for job in instance.jobs
    )
    if getattr(instance, "reservations", None):
        reservations = tuple(
            replace(
                res,
                start=fix(res.start),
                p=fix(res.end) - fix(res.start),
            )
            for res in instance.reservations
        )
        return replace(instance, jobs=jobs, reservations=reservations)
    return replace(instance, jobs=jobs)


def run_on_grid(
    instance: Any,
    policy: str,
    run: Callable[[Any], Schedule],
) -> Schedule:
    """The grid round trip: resolve ``policy`` against ``instance`` once,
    then schedule it.

    ``run`` gets the instance's integer twin (the instance itself when it
    is its own twin), or the instance itself when the policy keeps it off
    the grid.  The schedule comes back on ``instance``'s own times, under
    the run's ``algorithm`` label.
    """
    tb = timebase_for(instance, policy)
    if tb is None:
        return run(instance)
    twin = tb.normalize_instance(instance)
    scheduled = run(twin)
    if twin is instance:
        return scheduled
    starts = tb.denormalize_starts(scheduled.starts)
    return Schedule(instance, starts, algorithm=scheduled.algorithm)


def on_int_timebase(scheduler: Any, instance: Any) -> Any:
    """Run any scheduler through the integer timebase.

    A scheduler whose own ``timebase=`` policy grids int/Fraction
    instances (``"auto"`` or ``"int"``) gets the instance unchanged:
    :meth:`~repro.algorithms.base.Scheduler.schedule` makes the round
    trip itself, so the instance's times are scanned once per call.  Any
    other scheduler (an ``"exact"`` one, or one with no policy) is
    handed the integer twin of an int/Fraction instance and its starts
    are mapped back; a float-timed instance runs as it is.
    """
    if getattr(scheduler, "timebase", None) in ("auto", "int"):
        return scheduler.schedule(instance)
    return run_on_grid(
        as_reservation_instance(instance), "auto", scheduler.schedule
    )


#: Former name of the offline schedulers' integer profile, now the one
#: profile kernel.  perfbench's tracer still imports it by this name;
#: ROADMAP item 1.3 moves the tracer off it and then deletes the alias.
IntSweepProfile = ArrayProfile
