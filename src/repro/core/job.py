"""Jobs and reservations: the atoms of the scheduling model.

The paper's model (Sections 2.1 and 3.1) features two kinds of entities:

* **rigid parallel jobs** ``T_i`` characterised by a processing time
  ``p_i > 0`` and a fixed number of required processors ``q_i in [1..m]``;
  the scheduler chooses their start times;
* **reservations** ``R_j`` characterised by a processing time ``p_j > 0``,
  a processor count ``q_j in [1..m]`` *and* a fixed start time ``r_j``;
  the scheduler must work around them.

Times are deliberately generic: any :class:`numbers.Real` works (``int``,
``float``, :class:`fractions.Fraction`).  The theory constructions in
:mod:`repro.theory` use exact integers or fractions so that worst-case
ratios are verified without floating-point noise, while randomly generated
workloads use floats.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Union

from ..errors import InvalidInstanceError

#: Any real-number-like time value accepted by the library.
Time = Union[int, float]


def _check_real(value, what: str, owner: str) -> None:
    # exact-type fast path: the ABC instance check costs ~10x a type
    # check, and ints/floats are ~all values on trace-scale hot paths
    if type(value) is int or type(value) is float:
        return
    if not isinstance(value, numbers.Real):
        raise InvalidInstanceError(
            f"{owner}: {what} must be a real number, got {value!r}"
        )


@dataclass(frozen=True, order=False)
class Job:
    """A rigid parallel job ``(p, q)``.

    Attributes
    ----------
    id:
        Identifier, unique within an instance.  Any hashable value works;
        generators use small integers, traces use the trace's job numbers.
    p:
        Processing time ``p > 0`` (the paper's :math:`p_i`).
    q:
        Number of required processors ``q >= 1`` (the paper's :math:`q_i`).
        The job may run on *any* subset of ``q`` processors (no contiguity,
        Section 2.1).
    release:
        Earliest time the job may start.  The paper's core model is offline
        (all jobs available at 0, the default); the online simulation and
        the batch-doubling wrapper of Section 2.1 use positive releases.
    name:
        Optional human-readable label used by Gantt renderers.
    """

    id: object
    p: Time
    q: int
    release: Time = 0
    name: str = ""

    def __post_init__(self):
        # the f-string owner labels are only needed on the error paths;
        # building them eagerly would dominate trace-scale construction
        if not (type(self.p) is int or type(self.p) is float):
            _check_real(self.p, "processing time", f"job {self.id!r}")
        if not (type(self.release) is int or type(self.release) is float):
            _check_real(self.release, "release time", f"job {self.id!r}")
        if self.p <= 0:
            raise InvalidInstanceError(
                f"job {self.id!r}: processing time must be positive, got {self.p}"
            )
        if type(self.q) is not int and (
            not isinstance(self.q, numbers.Integral) or isinstance(self.q, bool)
        ):
            raise InvalidInstanceError(
                f"job {self.id!r}: processor count must be an integer, got {self.q!r}"
            )
        if self.q < 1:
            raise InvalidInstanceError(
                f"job {self.id!r}: processor count must be >= 1, got {self.q}"
            )
        if self.release < 0:
            raise InvalidInstanceError(
                f"job {self.id!r}: release time must be >= 0, got {self.release}"
            )

    @classmethod
    def trusted(
        cls, id: object, p: Time, q: int, release: Time, name: str = ""
    ) -> "Job":
        """Construct without re-validation — for generators whose values
        are valid *by construction* (the synthetic trace pack builds
        millions of jobs; the dataclass ``__init__``'s five frozen
        ``object.__setattr__`` calls plus ``__post_init__`` would be
        ~half its cost; an instance's integer twin scales valid jobs).
        The result is indistinguishable from a normal ``Job``; callers
        feeding unchecked external data must use the regular
        constructor.
        """
        job = object.__new__(cls)
        d = job.__dict__  # mutating the dict sidesteps the frozen setattr
        d["id"] = id
        d["p"] = p
        d["q"] = q
        d["release"] = release
        d["name"] = name
        return job

    @property
    def area(self) -> Time:
        """Work of the job, ``p * q`` — its contribution to ``W(I)``."""
        return self.p * self.q

    @property
    def label(self) -> str:
        """Display label: explicit ``name`` if set, else the id."""
        return self.name or str(self.id)

    def with_release(self, release: Time) -> "Job":
        """Copy of this job with a different release time."""
        return replace(self, release=release)

    def scaled(self, time_factor: Time) -> "Job":
        """Copy with processing time and release multiplied by a factor.

        Used by the theory constructions to turn fractional instances (for
        example the ``p = 1/k`` tasks of Proposition 2) into exact integer
        ones, which leaves all makespan *ratios* unchanged.
        """
        if time_factor <= 0:
            raise InvalidInstanceError("time factor must be positive")
        return replace(
            self, p=self.p * time_factor, release=self.release * time_factor
        )


def end_time(start: Any, p: Any) -> Any:
    """``start + p``, exact when ``start`` is a :class:`Fraction` and
    ``p`` a ``float``.

    ``Fraction + float`` rounds to a float.  On a float-timed instance,
    starts computed on the integer grid come back as exact Fractions, so
    a rounded end could overlap the next job's start; a reservation with
    a Fraction start and a float duration would end off the instance's
    own grid.  A finite float is an exact binary rational, so
    ``Fraction(p)`` loses nothing.  Every other sum is left to Python, as
    the exact path computes it.
    """
    if type(start) is Fraction and type(p) is float:
        return start + Fraction(p)
    return start + p


@dataclass(frozen=True, order=False)
class Reservation:
    """An advance reservation: a fixed block of ``q`` processors.

    Attributes
    ----------
    id:
        Identifier, unique among the reservations of an instance.
    start:
        Fixed start time ``r >= 0`` (the paper's :math:`r_j`).
    p:
        Duration ``p > 0``.
    q:
        Number of processors removed from the machine during
        ``[start, start + p)``.
    name:
        Optional label for rendering.
    """

    id: object
    start: Time
    p: Time
    q: int
    name: str = ""

    def __post_init__(self):
        # exact-type fast paths first, as in Job.__post_init__
        if not (type(self.start) is int or type(self.start) is float):
            _check_real(self.start, "start time", f"reservation {self.id!r}")
        if not (type(self.p) is int or type(self.p) is float):
            _check_real(self.p, "duration", f"reservation {self.id!r}")
        if self.p <= 0:
            raise InvalidInstanceError(
                f"reservation {self.id!r}: duration must be positive, got {self.p}"
            )
        if type(self.q) is not int and (
            not isinstance(self.q, numbers.Integral) or isinstance(self.q, bool)
        ):
            raise InvalidInstanceError(
                f"reservation {self.id!r}: processor count must be an integer, "
                f"got {self.q!r}"
            )
        if self.q < 1:
            raise InvalidInstanceError(
                f"reservation {self.id!r}: processor count must be >= 1, got {self.q}"
            )
        if self.start < 0:
            raise InvalidInstanceError(
                f"reservation {self.id!r}: start time must be >= 0, got {self.start}"
            )

    @property
    def end(self) -> Time:
        """Completion time ``start + p`` (see :func:`end_time`)."""
        return end_time(self.start, self.p)

    @property
    def area(self) -> Time:
        """Capacity consumed: ``p * q``."""
        return self.p * self.q

    @property
    def label(self) -> str:
        """Display label: explicit ``name`` if set, else the id."""
        return self.name or f"R{self.id}"

    def overlaps(self, t: Time) -> bool:
        """True when the reservation is active at time ``t``."""
        return self.start <= t < self.end

    def scaled(self, time_factor: Time) -> "Reservation":
        """Copy with start and duration multiplied by a factor."""
        if time_factor <= 0:
            raise InvalidInstanceError("time factor must be positive")
        return replace(
            self, start=self.start * time_factor, p=self.p * time_factor
        )


def make_jobs(specs, start_id: int = 0) -> tuple:
    """Build a tuple of jobs from ``(p, q)`` or ``(p, q, release)`` tuples.

    A convenience used heavily in tests and constructions::

        jobs = make_jobs([(3, 2), (1, 4), (2, 1)])
    """
    jobs = []
    for offset, spec in enumerate(specs):
        if len(spec) == 2:
            p, q = spec
            release = 0
        elif len(spec) == 3:
            p, q, release = spec
        else:
            raise InvalidInstanceError(
                f"job spec must have 2 or 3 fields, got {spec!r}"
            )
        jobs.append(Job(id=start_id + offset, p=p, q=q, release=release))
    return tuple(jobs)


def make_reservations(specs, start_id: int = 0) -> tuple:
    """Build a tuple of reservations from ``(start, p, q)`` tuples."""
    reservations = []
    for offset, spec in enumerate(specs):
        if len(spec) != 3:
            raise InvalidInstanceError(
                f"reservation spec must have 3 fields (start, p, q), got {spec!r}"
            )
        start, p, q = spec
        reservations.append(Reservation(id=start_id + offset, start=start, p=p, q=q))
    return tuple(reservations)
