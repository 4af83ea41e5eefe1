"""Shelf-based scheduling heuristics.

The paper's conclusion points at "heuristics like those based on packing
(partition on shelves) algorithms" as a further direction.  A *shelf* is a
group of jobs started simultaneously side by side: its width is the sum of
the jobs' processor requirements (``<= m``) and its height the longest
processing time inside.  Shelf algorithms come from strip packing
(NFDH/FFDH); for rigid jobs without reservations FFDH-style shelving is a
classical 3-approximation-grade heuristic, and it extends naturally to
reservations by placing each closed shelf as one rigid block with
:meth:`~repro.core.profiles.ResourceProfile.earliest_fit`.

Two variants:

* :class:`NextFitShelfScheduler` (NFDH) — jobs sorted by decreasing ``p``;
  a job opens a new shelf as soon as it does not fit in the current one;
* :class:`FirstFitShelfScheduler` (FFDH) — jobs sorted by decreasing
  ``p``; each job goes to the *first* shelf with room, a new shelf is
  opened only when none fits.

Shelf schedules are intentionally more rigid than LSRC; the ablation
benchmark (``bench_shelf_ablation.py``) quantifies the price paid for the
simpler structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.instance import ReservationInstance
from ..core.job import Job
from ..core.schedule import Schedule
from ..errors import SchedulingError
from .base import Scheduler, register


@dataclass
class _Shelf:
    """A group of jobs that will start at the same time."""

    jobs: List[Job] = field(default_factory=list)
    width: int = 0  # sum of q over jobs

    @property
    def height(self):
        return max(job.p for job in self.jobs)

    def fits(self, job: Job, m: int) -> bool:
        return self.width + job.q <= m

    def push(self, job: Job) -> None:
        self.jobs.append(job)
        self.width += job.q


def _build_shelves_nf(jobs: List[Job], m: int) -> List[_Shelf]:
    """Next-fit shelving over decreasing processing times."""
    shelves: List[_Shelf] = []
    current: _Shelf | None = None
    for job in sorted(jobs, key=lambda j: (-j.p, str(j.id))):
        if current is None or not current.fits(job, m):
            current = _Shelf()
            shelves.append(current)
        current.push(job)
    return shelves


def _build_shelves_ff(jobs: List[Job], m: int) -> List[_Shelf]:
    """First-fit shelving over decreasing processing times."""
    shelves: List[_Shelf] = []
    for job in sorted(jobs, key=lambda j: (-j.p, str(j.id))):
        target = next((s for s in shelves if s.fits(job, m)), None)
        if target is None:
            target = _Shelf()
            shelves.append(target)
        target.push(job)
    return shelves


class _ShelfSchedulerBase(Scheduler):
    """Shared placement logic: each shelf becomes one rigid block.

    Because all jobs of a shelf start together and the shelf's jobs jointly
    need ``width`` processors for ``height`` time, placing the block with
    ``earliest_fit(width, height)`` keeps the schedule feasible against
    reservations.  Shelves are placed in decreasing height order (the
    strip-packing order), each at its earliest feasible time.

    Shelf scheduling ignores release times by design (it is an offline
    packing heuristic); instances with positive releases are rejected.
    """

    _builder = staticmethod(_build_shelves_nf)

    def _run(self, instance: ReservationInstance) -> Schedule:
        if any(job.release > 0 for job in instance.jobs):
            raise SchedulingError(
                f"{self.name} is an offline packing heuristic and does not "
                "support release times"
            )
        if not instance.jobs:
            return Schedule(instance, {})
        shelves = self._builder(list(instance.jobs), instance.m)
        profile = instance.availability_profile()
        starts: Dict = {}
        for shelf in shelves:
            s = profile.earliest_fit(shelf.width, shelf.height, after=0)
            if s is None:
                raise SchedulingError(
                    f"shelf of width {shelf.width} never fits in the profile"
                )
            profile.reserve(s, shelf.height, shelf.width)
            for job in shelf.jobs:
                starts[job.id] = s
        return Schedule(instance, starts)


class NextFitShelfScheduler(_ShelfSchedulerBase):
    """NFDH-style shelving: close a shelf as soon as a job does not fit."""

    name = "shelf-nf"
    _builder = staticmethod(_build_shelves_nf)


class FirstFitShelfScheduler(_ShelfSchedulerBase):
    """FFDH-style shelving: put each job on the first shelf with room."""

    name = "shelf-ff"
    _builder = staticmethod(_build_shelves_ff)


def shelf_schedule(instance, variant: str = "ff") -> Schedule:
    """Convenience wrapper: run a shelf heuristic (``"ff"`` or ``"nf"``)."""
    if variant == "ff":
        return FirstFitShelfScheduler().schedule(instance)
    if variant == "nf":
        return NextFitShelfScheduler().schedule(instance)
    raise SchedulingError(f"unknown shelf variant {variant!r}; use 'ff' or 'nf'")


register("shelf-nf", NextFitShelfScheduler)
register("shelf-ff", FirstFitShelfScheduler)
