"""Scheduler interface and registry.

Every algorithm in this package is a :class:`Scheduler`: a named object
whose :meth:`Scheduler.schedule` maps an instance (either flavour) to a
verified-by-construction :class:`~repro.core.schedule.Schedule`.  A global
registry provides lookup by name, which the experiment harness and the
benchmarks use to iterate over algorithm sets.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, List, Optional

from ..core.instance import ReservationInstance, as_reservation_instance
from ..core.registry import Registry
from ..core.schedule import Schedule
from ..core.timebase import run_on_grid
from ..errors import SchedulingError


class Scheduler(abc.ABC):
    """Abstract base class for makespan schedulers.

    Subclasses implement :meth:`_run` on a
    :class:`~repro.core.instance.ReservationInstance`; the public
    :meth:`schedule` handles input coercion and tags the produced schedule
    with the algorithm name.

    A subclass that sets a ``timebase`` attribute (``"auto"``, ``"int"``
    or ``"exact"``, see :mod:`repro.core.timebase`) is scheduled through
    the grid round trip: :meth:`schedule` resolves the instance's integer
    grid once, runs :meth:`_run` on the integer twin (or on the instance
    itself when the policy keeps it off the grid) and maps the starts
    back.  The policy picks the arithmetic, never the algorithm.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    def schedule(self, instance) -> Schedule:
        """Produce a schedule for ``instance`` (rigid or with reservations)."""
        inst = as_reservation_instance(instance)
        policy = getattr(self, "timebase", None)
        if policy is None:
            schedule = self._run(inst)
        else:
            schedule = run_on_grid(inst, policy, self._run)
        schedule.algorithm = self.name
        return schedule

    @abc.abstractmethod
    def _run(self, instance: ReservationInstance) -> Schedule:
        """Algorithm body; must return a feasible schedule."""

    def __call__(self, instance) -> Schedule:
        return self.schedule(instance)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


#: Global name -> factory registry (a shared :class:`~repro.core.registry.Registry`).
SCHEDULERS: Registry[Callable[[], Scheduler]] = Registry(
    "scheduler", error=SchedulingError
)


def register(
    name: str,
    factory: Callable[[], Scheduler],
    overwrite: Optional[bool] = None,
) -> None:
    """Register a scheduler factory under ``name``.

    ``overwrite=True`` replaces silently (so reloading modules in
    notebooks does not error); leaving it implicit warns on collision,
    and ``overwrite=False`` raises — accidental clashes used to be
    invisible.
    """
    SCHEDULERS.register(name, factory, overwrite=overwrite)


def get_scheduler(name: str) -> Scheduler:
    """Instantiate the scheduler registered under ``name``.

    Raises :class:`~repro.errors.SchedulingError` for unknown names, listing
    the available ones.
    """
    return SCHEDULERS.get(name)()


def available_schedulers() -> List[str]:
    """Sorted names of all registered schedulers."""
    return SCHEDULERS.names()


def schedule_with(names: Iterable[str], instance) -> Dict[str, Schedule]:
    """Run several registered schedulers on one instance."""
    return {name: get_scheduler(name).schedule(instance) for name in names}
