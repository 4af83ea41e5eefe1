"""Problem instances: RIGIDSCHEDULING and RESASCHEDULING.

Two instance classes mirror the two problems of the paper:

* :class:`RigidInstance` — the classical problem
  ``P | p_j, size_j | Cmax`` of Section 2.1: ``n`` independent rigid jobs
  on ``m`` identical processors, no reservations;
* :class:`ReservationInstance` — the RESASCHEDULING problem of Section 3.1:
  the same jobs plus ``n'`` advance reservations, inducing an
  unavailability function ``U(t)``.

The α-restricted problem of Section 4.2 is not a separate class but a
*validation predicate* on :class:`ReservationInstance`
(:meth:`ReservationInstance.validate_alpha`): an instance belongs to
α-RESASCHEDULING when every reservation point uses at most ``(1 - α) m``
processors and every job at most ``α m``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

from ..errors import (
    AlphaViolationError,
    CapacityError,
    InfeasibleInstanceError,
    InvalidInstanceError,
)
from .job import Job, Reservation, make_jobs, make_reservations
from .profiles import ResourceProfile


def _check_machine_count(m) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidInstanceError(
            f"machine count must be a positive integer, got {m!r}"
        )


def _check_unique_ids(items, what: str) -> None:
    seen = set()
    for item in items:
        if item.id in seen:
            raise InvalidInstanceError(f"duplicate {what} id {item.id!r}")
        seen.add(item.id)


@dataclass(frozen=True)
class RigidInstance:
    """An instance of RIGIDSCHEDULING: ``m`` machines and rigid jobs.

    Attributes
    ----------
    m:
        Number of identical processors.
    jobs:
        The rigid jobs; each must satisfy ``1 <= q_i <= m``.
    name:
        Optional label used in reports.
    """

    m: int
    jobs: Tuple[Job, ...]
    name: str = ""

    def __post_init__(self):
        _check_machine_count(self.m)
        object.__setattr__(self, "jobs", tuple(self.jobs))
        _check_unique_ids(self.jobs, "job")
        for job in self.jobs:
            if job.q > self.m:
                raise InvalidInstanceError(
                    f"job {job.id!r} requires {job.q} processors but the "
                    f"machine only has {self.m}"
                )

    # -- convenience constructors ------------------------------------
    @classmethod
    def from_specs(cls, m: int, specs, name: str = "") -> "RigidInstance":
        """Build from ``(p, q)`` / ``(p, q, release)`` tuples."""
        return cls(m=m, jobs=make_jobs(specs), name=name)

    # -- basic aggregates ---------------------------------------------
    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @cached_property
    def total_work(self):
        """``W(I) = sum p_i q_i`` (appendix notation)."""
        return sum(job.area for job in self.jobs)

    @cached_property
    def pmax(self):
        """Longest processing time, the appendix's ``pmax``."""
        return max(job.p for job in self.jobs) if self.jobs else 0

    @cached_property
    def qmax(self) -> int:
        """Largest processor requirement among the jobs."""
        return max(job.q for job in self.jobs) if self.jobs else 0

    @cached_property
    def max_release(self):
        """Latest release time (0 for purely offline instances)."""
        return max((job.release for job in self.jobs), default=0)

    @cached_property
    def job_by_id(self) -> Dict:
        """Mapping from job id to job."""
        return {job.id: job for job in self.jobs}

    # -- transformations ------------------------------------------------
    def with_jobs(self, jobs: Iterable[Job]) -> "RigidInstance":
        """Copy with a different job set."""
        return replace(self, jobs=tuple(jobs))

    def scaled(self, time_factor) -> "RigidInstance":
        """Copy with all processing/release times multiplied by a factor."""
        return replace(
            self, jobs=tuple(job.scaled(time_factor) for job in self.jobs)
        )

    def to_reservation_instance(
        self, reservations: Iterable[Reservation] = ()
    ) -> "ReservationInstance":
        """Lift into RESASCHEDULING, optionally adding reservations."""
        return ReservationInstance(
            m=self.m,
            jobs=self.jobs,
            reservations=tuple(reservations),
            name=self.name,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"RigidInstance{label}(m={self.m}, n={self.n})"


@dataclass(frozen=True)
class ReservationInstance:
    """An instance of RESASCHEDULING: jobs plus advance reservations.

    Only *feasible* instances are representable: construction fails with
    :class:`~repro.errors.InfeasibleInstanceError` when the reservations
    overlap beyond the machine size (``U(t) > m`` for some ``t``), matching
    the paper's Section 3.1 restriction to feasible instances.
    """

    m: int
    jobs: Tuple[Job, ...]
    reservations: Tuple[Reservation, ...] = ()
    name: str = ""

    def __post_init__(self):
        _check_machine_count(self.m)
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "reservations", tuple(self.reservations))
        _check_unique_ids(self.jobs, "job")
        _check_unique_ids(self.reservations, "reservation")
        for job in self.jobs:
            if job.q > self.m:
                raise InvalidInstanceError(
                    f"job {job.id!r} requires {job.q} processors but the "
                    f"machine only has {self.m}"
                )
        for res in self.reservations:
            if res.q > self.m:
                raise InfeasibleInstanceError(
                    f"reservation {res.id!r} requires {res.q} processors but "
                    f"the machine only has {self.m}"
                )
        # Feasibility: build the availability profile once; overlapping
        # reservations beyond m processors surface as a CapacityError.
        try:
            master = ResourceProfile.from_reservations(self.m, self.reservations)
        except CapacityError as exc:
            raise InfeasibleInstanceError(
                f"reservations are infeasible on {self.m} machines: {exc}"
            ) from exc
        object.__setattr__(self, "_master_profile", master)

    # -- convenience constructors ------------------------------------
    @classmethod
    def from_specs(
        cls, m: int, job_specs, reservation_specs=(), name: str = ""
    ) -> "ReservationInstance":
        """Build from ``(p, q[, release])`` job tuples and
        ``(start, p, q)`` reservation tuples."""
        return cls(
            m=m,
            jobs=make_jobs(job_specs),
            reservations=make_reservations(reservation_specs),
            name=name,
        )

    @classmethod
    def from_rigid(
        cls, rigid: RigidInstance, reservations: Iterable[Reservation] = ()
    ) -> "ReservationInstance":
        """Lift a RIGIDSCHEDULING instance (``n' = 0`` when no reservations)."""
        return cls(
            m=rigid.m,
            jobs=rigid.jobs,
            reservations=tuple(reservations),
            name=rigid.name,
        )

    # -- aggregates -----------------------------------------------------
    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @property
    def n_reservations(self) -> int:
        """Number of reservations, the paper's ``n'``."""
        return len(self.reservations)

    @cached_property
    def total_work(self):
        """Total job work ``W = sum p_i q_i`` (reservations excluded)."""
        return sum(job.area for job in self.jobs)

    @cached_property
    def pmax(self):
        """Longest job processing time."""
        return max(job.p for job in self.jobs) if self.jobs else 0

    @cached_property
    def qmax(self) -> int:
        """Largest job processor requirement."""
        return max(job.q for job in self.jobs) if self.jobs else 0

    @cached_property
    def job_by_id(self) -> Dict:
        """Mapping from job id to job."""
        return {job.id: job for job in self.jobs}

    @cached_property
    def reservation_by_id(self) -> Dict:
        """Mapping from reservation id to reservation."""
        return {res.id: res for res in self.reservations}

    @cached_property
    def last_reservation_end(self):
        """Completion time of the latest reservation (0 when none)."""
        return max((res.end for res in self.reservations), default=0)

    # -- availability -----------------------------------------------------
    def availability_profile(self) -> ResourceProfile:
        """Fresh mutable copy of ``m(t) = m - U(t)``.

        Each call returns an independent copy so schedulers can commit
        placements without corrupting the instance.
        """
        return self._master_profile.copy()  # type: ignore[attr-defined]

    def unavailability_at(self, t) -> int:
        """The paper's ``U(t)``: processors blocked by reservations at ``t``."""
        return self.m - self._master_profile.capacity_at(t)  # type: ignore[attr-defined]

    @cached_property
    def max_unavailability(self) -> int:
        """``max_t U(t)`` — determines the α feasible for this instance."""
        return self.m - self._master_profile.min_capacity_overall()  # type: ignore[attr-defined]

    def has_nonincreasing_reservations(self) -> bool:
        """True when ``U`` is non-increasing (Section 4.1's restriction)."""
        return self._master_profile.is_nondecreasing()  # type: ignore[attr-defined]

    # -- alpha restrictions (Section 4.2) ---------------------------------
    @property
    def min_alpha(self) -> Fraction:
        """Smallest α compatible with the jobs: ``qmax / m``."""
        return Fraction(self.qmax, self.m) if self.jobs else Fraction(0)

    @property
    def max_alpha(self) -> Fraction:
        """Largest α compatible with the reservations: ``1 - Umax / m``."""
        return 1 - Fraction(self.max_unavailability, self.m)

    def is_alpha_restricted(self, alpha) -> bool:
        """True when the instance belongs to α-RESASCHEDULING."""
        if not 0 < alpha <= 1:
            return False
        return self.min_alpha <= alpha <= self.max_alpha

    def validate_alpha(self, alpha) -> None:
        """Raise :class:`~repro.errors.AlphaViolationError` if the instance
        is outside α-RESASCHEDULING for the given α."""
        if not 0 < alpha <= 1:
            raise AlphaViolationError(f"alpha must lie in (0, 1], got {alpha!r}")
        if self.min_alpha > alpha:
            raise AlphaViolationError(
                f"a job requires {self.qmax}/{self.m} = {self.min_alpha} of the "
                f"machine, exceeding alpha = {alpha}"
            )
        if self.max_alpha < alpha:
            raise AlphaViolationError(
                f"reservations block {self.max_unavailability}/{self.m} "
                f"processors, exceeding (1 - alpha) = {1 - alpha}"
            )

    @property
    def admissible_alpha(self) -> Optional[Fraction]:
        """The largest valid α, or ``None`` when no α makes the instance
        α-restricted (jobs wider than what reservations leave over)."""
        if self.min_alpha <= self.max_alpha and self.max_alpha > 0:
            return self.max_alpha
        return None

    # -- transformations ------------------------------------------------
    def with_jobs(self, jobs: Iterable[Job]) -> "ReservationInstance":
        """Copy with a different job set."""
        return replace(self, jobs=tuple(jobs))

    def with_reservations(
        self, reservations: Iterable[Reservation]
    ) -> "ReservationInstance":
        """Copy with a different reservation set."""
        return replace(self, reservations=tuple(reservations))

    def without_reservations(self) -> RigidInstance:
        """Drop the reservations, yielding the underlying RIGID instance."""
        return RigidInstance(m=self.m, jobs=self.jobs, name=self.name)

    def scaled(self, time_factor) -> "ReservationInstance":
        """Copy with every time (jobs and reservations) multiplied by a
        positive factor.  Makespans scale by the same factor, so all
        performance *ratios* are preserved."""
        return ReservationInstance(
            m=self.m,
            jobs=tuple(job.scaled(time_factor) for job in self.jobs),
            reservations=tuple(
                res.scaled(time_factor) for res in self.reservations
            ),
            name=self.name,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"ReservationInstance{label}(m={self.m}, n={self.n}, "
            f"n'={self.n_reservations})"
        )


def as_reservation_instance(instance) -> ReservationInstance:
    """Coerce either instance type into a :class:`ReservationInstance`.

    Schedulers accept both problem flavours; this is the single conversion
    point.
    """
    if isinstance(instance, ReservationInstance):
        return instance
    if isinstance(instance, RigidInstance):
        return ReservationInstance.from_rigid(instance)
    raise InvalidInstanceError(
        f"expected RigidInstance or ReservationInstance, got {type(instance)!r}"
    )
