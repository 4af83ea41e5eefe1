"""Availability-profile backends.

The availability profile ``m(t) = m - U(t)`` (Section 3.1) is the data
structure every scheduler layer queries and mutates.  This package keeps
the *protocol* (:class:`~repro.core.profiles.base.ProfileBackend`)
separate from its two implementations:

``"list"`` — :class:`ListProfile`
    Flat sorted breakpoint arrays, O(window) local mutation, tiny
    constants, fully transparent.  The **default** (``None`` resolves
    to it) and the *reference*: it accepts any exact time type, the
    theory modules' Fraction-exact worst-case constructions cite it,
    and the differential tests measure the other implementation against
    it.

``"array"`` — :class:`ArrayProfile`
    The one fast kernel: plain ``list`` time/capacity columns, scanned
    in place, pruned behind the clock with the same prefix delete as
    the list backend.  The offline schedulers place on it on an
    instance's integer twin, and the replay and serve event loop runs
    on it (``"auto"``, the replay default, is this backend) whatever
    the type of the trace's times.

Both backends implement identical semantics — exact integer capacities,
canonical merged segments, times of any ordered numeric type, kept as
given — and compare equal whenever they represent the same function.
Every answer agrees in value and in type, which the differential tests
check and exploit to prove schedulers produce byte-identical schedules
under either backend.

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

Selecting a backend
-------------------
Call sites accept a ``profile_backend`` argument (a registry name or a
backend class); ``None`` means ``"list"``:

>>> inst.availability_profile(profile_backend="array")

For backward compatibility :data:`ResourceProfile` remains an alias of
:class:`ListProfile`.
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from ...errors import InvalidInstanceError
from .array_backend import ArrayProfile
from .base import ProfileBackend, Segment, Time
from .list_backend import ListProfile

#: Backward-compatible name for the historical flat-list implementation.
ResourceProfile = ListProfile

BackendSpec = Union[None, str, Type[ProfileBackend]]

_BACKENDS: Dict[str, Type[ProfileBackend]] = {
    "list": ListProfile,
    "array": ArrayProfile,
}


def available_backends() -> List[str]:
    """Sorted registry names."""
    return sorted(_BACKENDS)


def resolve_backend(spec: BackendSpec = None) -> Type[ProfileBackend]:
    """Map a ``profile_backend`` argument to a backend class.

    ``None`` resolves to :class:`ListProfile`; a string is looked up in
    the registry; a :class:`ProfileBackend` subclass passes through.
    """
    if spec is None:
        return ListProfile
    if isinstance(spec, str):
        try:
            return _BACKENDS[spec]
        except KeyError:
            known = ", ".join(available_backends())
            raise InvalidInstanceError(
                f"unknown profile backend {spec!r}; known backends: {known}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, ProfileBackend):
        return spec
    raise InvalidInstanceError(
        f"profile_backend must be None, a registry name or a ProfileBackend "
        f"subclass, got {spec!r}"
    )


def make_profile(times: List[Time], caps: List[int],
                 profile_backend: BackendSpec = None) -> ProfileBackend:
    """Construct a profile on the selected backend (``None``: list)."""
    return resolve_backend(profile_backend)(times, caps)


def convert_profile(profile: ProfileBackend,
                    profile_backend: BackendSpec = None) -> ProfileBackend:
    """Re-house a profile on another backend (fresh copy either way)."""
    cls = resolve_backend(profile_backend)
    if type(profile) is cls:
        return profile.copy()
    times, caps = profile.as_lists()
    return cls(times, caps, _validate=False)


__all__ = [
    "ProfileBackend",
    "Segment",
    "Time",
    "ResourceProfile",
    "ListProfile",
    "ArrayProfile",
    "available_backends",
    "resolve_backend",
    "make_profile",
    "convert_profile",
]
