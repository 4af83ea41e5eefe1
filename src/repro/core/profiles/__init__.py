"""The availability profile.

The availability profile ``m(t) = m - U(t)`` (Section 3.1) is the data
structure every scheduler layer queries and mutates.  This package keeps
the *protocol* (:class:`~repro.core.profiles.base.ProfileBackend`)
separate from its two implementations:

:class:`ResourceProfile` — :class:`ArrayProfile`
    The one profile the library builds: plain ``list`` time/capacity
    columns, scanned in place, pruned behind the clock with a prefix
    delete.  Every scheduler, bound and simulation, the replay and
    serve event loop, :meth:`~repro.core.instance.ReservationInstance.
    availability_profile` and :meth:`~repro.core.schedule.Schedule.
    usage_profile` place on it, whatever the type of the times.

:class:`ListProfile`
    The deliberately simple reference, registered nowhere: flat sorted
    breakpoint lists, one bisection and one splice per call.  The
    differential tests hold the kernel to it in value and in type, and
    the replay engine's reference configuration
    (``profile_backend="list"``) runs on it.

Both implement identical semantics — exact integer capacities,
canonical merged segments, times of any ordered numeric type, kept as
given — and compare equal whenever they represent the same function.

When exactness costs you
------------------------
Profiles are exact at *every* layer: capacities are ints, times keep
whatever exact type the instance uses (``int``/``Fraction``), and every
query is answered without rounding.  That is what makes the paper's
worst-case certificates checkable, but ``Fraction`` times pay a gcd per
arithmetic op — an order of magnitude over machine ints.  Schedulers
therefore normalise exact instances onto an integer grid first
(``timebase="auto"``, see :mod:`repro.core.timebase`) and only
denormalise the final schedule; the profile then never sees a Fraction
in the hot loop.
"""

from __future__ import annotations

from .array_backend import ArrayProfile
from .base import ProfileBackend, Segment, Time
from .list_backend import ListProfile

#: The public name of the one profile the library builds.
ResourceProfile = ArrayProfile

__all__ = [
    "ProfileBackend",
    "Segment",
    "Time",
    "ResourceProfile",
    "ListProfile",
    "ArrayProfile",
]
