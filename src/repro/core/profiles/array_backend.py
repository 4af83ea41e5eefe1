"""The profile kernel: flat time/capacity columns, scanned in place.

:class:`ArrayProfile` is the one profile the library builds (public
name :data:`~repro.core.profiles.ResourceProfile`): every offline
scheduler, bound and simulation, and the online event loop behind
replay and ``repro serve``, place on it.  The simple
:class:`~repro.core.profiles.list_backend.ListProfile` is the reference
it is tested against.  Breakpoint times and segment capacities live
in two plain ``list`` columns, and its design points are:

* **prefix-delete pruning** — :meth:`prune_before` deletes the
  segments behind the frontier and re-anchors the frontier segment at
  time 0, the rule the reference shares.  A forward sweep prunes
  behind its clock (the replay loop, on either profile, after every
  event with completions), so the live profile stays at tens of
  segments;
* **inline scans** — ``try_reserve`` walks the window from one
  bisection and stops at its right edge or at the first segment too
  low to fit;
* **one commit** — ``reserve``, ``reserve_fitting``, ``try_reserve``,
  ``reserve_earliest`` and ``add`` all end in
  :meth:`ArrayProfile._commit`, which splits the two
  window boundaries, shifts the covered segments and re-merges only at
  those boundaries (a uniform delta cannot un-merge interior segments);
* **batched overlay** — :meth:`reserve_many` rebuilds the columns in one
  sweep via the shared :func:`overlay_reservation_blocks` engine.

Times are any ordered exact type, as on the reference: ints of
any magnitude (what ``timebase="auto"`` normalisation, SWF archives and
the synthetic trace pack produce), ``Fraction`` and ``float``, mixed
freely.  No algorithm here depends on ``int``; the kernel stores the
times it is given, untouched, and every answer equals the list
backend's in value and in type (the differential tests hold it to
that).  Every argument check of the protocol stays, screened by one
``type(x) is int`` test per mutator so the trusted integer hot-loop
calls skip it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from types import ModuleType
from typing import Iterable, Iterator, List, Optional, Tuple

from ...errors import CapacityError, InvalidInstanceError
from .base import (
    ProfileBackend,
    Segment,
    Time,
    bad_query_time,
    check_reserve_args,
    iter_segments,
    merge_equal_segments,
    overlay_reservation_blocks,
    validate_profile_inputs,
)


def numpy_module() -> Optional[ModuleType]:
    """numpy when it is importable, else ``None``; imports it only when
    called.

    No profile code calls this: the kernel in this module is
    stdlib-only, so ``import repro`` never loads numpy.  It remains only
    because perfbench's replay workload reports it in its run context.
    ROADMAP item 1.2 drops that import, and item 2 then deletes this
    function.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _checked_args(
    start: Time, duration: Time, amount: int, verb: str
) -> Tuple[Time, Time, int]:
    """The protocol's argument checks: the slow path behind every
    mutator's ``type(x) is int`` screen (times pass through untouched,
    as on the list backend)."""
    check_reserve_args(start, duration, amount, verb)
    return start, duration, int(amount)


class ArrayProfile(ProfileBackend):
    """Capacity profile on flat time/capacity columns.

    ``self._times``/``self._caps`` hold exactly the live segments,
    indexed from 0; the first time is always 0 (re-anchored by
    :meth:`prune_before`).  ``_validate=False`` trusts the caller's
    lists to be canonical (as :meth:`as_lists` returns them), skipping
    the shape checks and the merge.
    """

    __slots__ = ("_times", "_caps")

    def __init__(
        self,
        times: List[Time],
        caps: List[int],
        _validate: bool = True,
    ) -> None:
        if _validate:
            validate_profile_inputs(times, caps)
            times, caps = merge_equal_segments(list(times), list(caps))
        self._times: List[Time] = list(times)
        self._caps: List[int] = [int(c) for c in caps]

    def copy(self) -> "ArrayProfile":
        """Independent mutable copy."""
        clone = type(self).__new__(type(self))
        clone._times = self._times[:]
        clone._caps = self._caps[:]
        return clone

    def as_lists(self) -> Tuple[List[Time], List[int]]:
        """Canonical ``(times, caps)`` lists (fresh copies)."""
        return list(self._times), list(self._caps)

    def segment_count(self) -> int:
        """Number of segments — O(1)."""
        return len(self._times)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _index_at(self, t: Time) -> int:
        """Index of the segment containing time ``t >= 0``."""
        if t < 0:
            raise InvalidInstanceError(f"profile queried at negative time {t!r}")
        return bisect_right(self._times, t) - 1

    def _commit(self, i: int, j: int, start: int, end: int, amount: int) -> None:
        """Subtract ``amount`` on ``[start, end)``, where segment ``i``
        holds ``start`` and ``j`` is the first breakpoint at or after
        ``end`` (``len`` when there is none); a negative ``amount`` adds."""
        times, caps = self._times, self._caps
        if j == len(times) or times[j] != end:
            times.insert(j, end)
            caps.insert(j, caps[j - 1])
        if times[i] != start:
            i += 1
            j += 1
            times.insert(i, start)
            caps.insert(i, caps[i - 1])
        for k in range(i, j):
            caps[k] -= amount
        # A uniform delta preserves interior inequalities; only the two
        # boundaries can have become mergeable.
        if caps[j] == caps[j - 1]:
            del times[j]
            del caps[j]
        if i > 0 and caps[i] == caps[i - 1]:
            del times[i]
            del caps[i]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[Time, ...]:
        """The times at which capacity changes (first is always 0)."""
        return tuple(self._times)

    def capacity_at(self, t: Time) -> int:
        """Number of free processors at time ``t``."""
        if t < 0:
            raise InvalidInstanceError(f"profile queried at negative time {t!r}")
        return self._caps[bisect_right(self._times, t) - 1]

    def final_capacity(self) -> int:
        """Capacity on the unbounded last segment."""
        return self._caps[-1]

    def max_capacity(self) -> int:
        """Largest capacity reached anywhere."""
        return max(self._caps)

    def min_capacity_overall(self) -> int:
        """Smallest capacity reached anywhere."""
        return min(self._caps)

    def segments(self, horizon: Optional[Time] = None) -> Iterator[Segment]:
        """Yield ``(start, end, capacity)``; the last ``end`` is ``horizon``
        (if given) or ``math.inf``."""
        return iter_segments(self._times, self._caps, horizon)

    def min_capacity(self, start: Time, end: Time) -> int:
        """Minimum capacity over the window ``[start, end)``."""
        if end <= start:
            raise InvalidInstanceError("window must have positive length")
        if not start >= 0:  # one compare refuses negatives and NaN
            raise bad_query_time(start)
        times = self._times
        i = bisect_right(times, start) - 1
        j = bisect_left(times, end, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i]
        return min(caps[i:j])

    def area(self, start: Time, end: Time) -> Time:
        """Integral of the capacity over ``[start, end)`` (bisects to the
        window like the list backend)."""
        if end < start:
            raise InvalidInstanceError("area window must be ordered")
        if end == start:
            return 0
        times, caps = self._times, self._caps
        n = len(times)
        i = self._index_at(start) if start > 0 else 0
        total: Time = 0
        for j in range(i, n):
            seg_start = times[j]
            if seg_start >= end:
                break
            seg_end = times[j + 1] if j + 1 < n else math.inf
            # max()/min() tie-breaking, so a tie between an int and a
            # float/Fraction keeps the list backend's type
            lo = start if start > seg_start else seg_start
            hi = end if end < seg_end else seg_end
            if hi > lo:
                total += caps[j] * (hi - lo)
        return total

    def earliest_fit(
        self, q: int, duration: Time, after: Time = 0
    ) -> Optional[Time]:
        """Earliest ``s >= after`` with capacity ``>= q`` throughout
        ``[s, s + duration)`` — a linear scan over the live columns
        (bisected to ``after``), ``None`` exactly when the final
        segment's capacity is below ``q``."""
        if duration <= 0:
            raise InvalidInstanceError("duration must be positive")
        if q < 0:
            raise InvalidInstanceError("width must be non-negative")
        times, caps = self._times, self._caps
        n = len(times)
        if after > 0:
            i = bisect_right(times, after) - 1
        elif after != after:  # NaN (a negative `after` reads as 0)
            raise bad_query_time(after)
        else:
            i = 0
        candidate: Optional[Time] = None
        while i < n:
            if caps[i] >= q:
                if candidate is None:
                    seg_start = times[i]
                    candidate = seg_start if seg_start > after else after
                    end = candidate + duration
                if i + 1 == n or times[i + 1] >= end:
                    return candidate
            else:
                candidate = None
            i += 1
        return None  # the final (infinite) segment's capacity is below q

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def reserve(self, start: Time, duration: Time, amount: int) -> None:
        """Subtract ``amount`` processors over ``[start, start + duration)``.

        Raises :class:`~repro.errors.CapacityError` (profile unchanged)
        when any covered instant would drop below ``amount``.
        """
        if (type(start) is not int or type(duration) is not int
                or type(amount) is not int or start < 0 or duration <= 0
                or amount < 0):
            start, duration, amount = _checked_args(
                start, duration, amount, "reserved"
            )
        if not amount:
            return
        times, caps = self._times, self._caps
        end = start + duration
        i = bisect_right(times, start) - 1
        j = bisect_left(times, end, i + 1)
        lowest = caps[i] if j - i == 1 else min(caps[i:j])
        if lowest < amount:
            raise CapacityError(
                f"cannot reserve {amount} processors on [{start}, {end}): "
                f"minimum available is {lowest}"
            )
        self._commit(i, j, start, end, amount)

    def add(self, start: Time, duration: Time, amount: int) -> None:
        """Add ``amount`` processors over ``[start, start + duration)``
        (inverse of :meth:`reserve`)."""
        if (type(start) is not int or type(duration) is not int
                or type(amount) is not int or start < 0 or duration <= 0
                or amount < 0):
            start, duration, amount = _checked_args(
                start, duration, amount, "added"
            )
        if not amount:
            return
        times = self._times
        end = start + duration
        i = bisect_right(times, start) - 1
        self._commit(i, bisect_left(times, end, i + 1), start, end, -amount)

    def fits(self, q: int, start: Time, duration: Time) -> bool:
        """True when a ``q``-wide block of length ``duration`` fits at
        ``start`` (inlined min scan: the hot probe of the replay loop)."""
        end = start + duration
        if end <= start:  # as the reference's window check: start=inf too
            raise InvalidInstanceError("window must have positive length")
        if not start >= 0:  # one compare refuses negatives and NaN
            raise bad_query_time(start)
        times = self._times
        i = bisect_right(times, start) - 1
        j = bisect_left(times, end, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i] >= q
        return min(caps[i:j]) >= q

    def reserve_fitting(self, start: Time, duration: Time, amount: int) -> None:
        """Commit a just-verified reservation without revalidating
        capacity (see :meth:`ProfileBackend.reserve_fitting` for the
        contract; arguments are still validated — only the windowed
        minimum is skipped)."""
        if (type(start) is not int or type(duration) is not int
                or type(amount) is not int or start < 0 or duration <= 0
                or amount < 0):
            start, duration, amount = _checked_args(
                start, duration, amount, "reserved"
            )
        if not amount:
            return
        times = self._times
        end = start + duration
        i = bisect_right(times, start) - 1
        self._commit(i, bisect_left(times, end, i + 1), start, end, amount)

    def try_reserve(self, start: Time, duration: Time, amount: int) -> bool:
        """Probe-and-commit in one bisection: reserve iff it fits.

        The placement primitive of every greedy loop (LSRC's sweep, the
        core's fused passes): the probe's scan ends at the window's right
        edge, and the commit reuses both indices, so a successful
        placement costs one bisection instead of the three a ``fits`` +
        ``reserve`` pair pays.
        """
        if (type(start) is not int or type(duration) is not int
                or type(amount) is not int or start < 0 or duration <= 0
                or amount < 0):
            start, duration, amount = _checked_args(
                start, duration, amount, "reserved"
            )
        times, caps = self._times, self._caps
        i = bisect_right(times, start) - 1
        if caps[i] < amount:  # the window's first segment already fails
            return False
        end = start + duration
        n = len(times)
        j = i + 1
        while j < n and times[j] < end:
            if caps[j] < amount:
                return False
            j += 1
        if amount:
            self._commit(i, j, start, end, amount)
        return True

    def reserve_earliest(
        self, q: int, duration: Time, after: Time = 0
    ) -> Optional[Time]:
        """Earliest fit and commit in one scan: the ``earliest_fit``
        walk, then :meth:`_commit` at the window's first and
        one-past-last segments, which the walk has just found (see
        :meth:`ProfileBackend.reserve_earliest` for the contract).
        Non-int arguments, and a zero width, take the generic path."""
        if (type(q) is not int or type(duration) is not int
                or type(after) is not int or q <= 0 or duration <= 0
                or after < 0):
            return ProfileBackend.reserve_earliest(self, q, duration, after)
        times, caps = self._times, self._caps
        n = len(times)
        i = bisect_right(times, after) - 1
        first = i  # the segment holding the candidate start
        candidate: Optional[int] = None
        while i < n:
            if caps[i] >= q:
                if candidate is None:
                    first = i
                    seg_start = times[i]
                    candidate = seg_start if seg_start > after else after
                    end = candidate + duration
                if i + 1 == n or times[i + 1] >= end:
                    self._commit(first, i + 1, candidate, end, q)
                    return candidate
            else:
                candidate = None
            i += 1
        return None  # the final (infinite) segment's capacity is below q

    def prune_before(self, t: Time) -> None:
        """Drop breakpoints before ``t`` and re-anchor the frontier
        segment at 0 (see :meth:`ProfileBackend.prune_before` for the
        soundness contract).  One prefix deletion: O(remaining)."""
        if t <= 0:
            return
        times = self._times
        i = bisect_right(times, t) - 1
        if i > 0:
            del times[:i]
            del self._caps[:i]
        times[0] = 0

    def reserve_many(self, blocks: Iterable[Tuple[Time, Time, int]]) -> None:
        """Apply many ``(start, duration, amount)`` reservations in one
        overlay sweep (all-or-nothing, like the list backend)."""
        new_times, new_caps = overlay_reservation_blocks(
            *self.as_lists(), blocks
        )
        self._times, self._caps = new_times, new_caps

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def first_time_area_reaches(self, work: Time, start: Time = 0) -> Optional[Time]:
        """Smallest ``T`` with ``area(start, T) >= work`` (same division
        semantics as the list backend, so answers are type-identical)."""
        if work <= 0:
            return start
        times, caps = self._times, self._caps
        n = len(times)
        i = self._index_at(start) if start > 0 else 0
        acc: Time = 0
        for j in range(i, n):
            seg_start = times[j]
            seg_end = times[j + 1] if j + 1 < n else math.inf
            cap = caps[j]
            if seg_end <= start:
                continue
            lo = start if start > seg_start else seg_start
            if seg_end == math.inf:
                if cap == 0:
                    return None
                # list-backend division parity: type-identical answers
                return lo + (work - acc) / cap  # repro: noqa RPL202
            gain = cap * (seg_end - lo)
            if acc + gain >= work:
                if cap == 0:
                    return seg_end
                # list-backend division parity: type-identical answers
                return lo + (work - acc) / cap  # repro: noqa RPL202
            acc += gain
        return None  # pragma: no cover - the last segment is infinite
