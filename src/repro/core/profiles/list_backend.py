"""The reference profile: sorted breakpoint lists, simple and canonical.

:class:`ListProfile` is the original, deliberately transparent
implementation of the profile protocol: two parallel lists (breakpoint
times and segment capacities) kept in canonical merged form after every
mutation.  Point and window queries bisect into the lists; mutations
splice and re-merge; a batch of reservations is the protocol's
validate-then-roll-back loop over :meth:`ListProfile.reserve`, and the
derived queries (``breakpoints``, ``segment_count``, ...) are the
protocol's generic ones.  No scheduler builds it: it is the
independent oracle the differential tests hold the kernel
:class:`~repro.core.profiles.array_backend.ArrayProfile` to, in value
and in type, on int, ``Fraction``, ``float`` and mixed times, and the
profile of the replay engine's reference configuration
(``profile_backend="list"``).  ``benchmarks/bench_profile_backends.py``
times the two.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator, List, Optional, Tuple

from ...errors import CapacityError, InvalidInstanceError
from .base import (
    ProfileBackend,
    Segment,
    Time,
    bad_query_time,
    check_reserve_args,
    iter_segments,
    merge_equal_segments,
    validate_profile_inputs,
)


class ListProfile(ProfileBackend):
    """Integer capacity as a piecewise-constant function of time on
    ``[0, inf)``, stored as flat breakpoint/capacity lists."""

    __slots__ = ("_times", "_caps")

    def __init__(self, times: List[Time], caps: List[int],
                 _validate: bool = True) -> None:
        if _validate:
            validate_profile_inputs(times, caps)
        self._times = list(times)
        self._caps = [int(c) for c in caps]
        self._merge_equal()

    def copy(self) -> "ListProfile":
        """Independent mutable copy."""
        clone = type(self).__new__(type(self))
        clone._times = list(self._times)
        clone._caps = list(self._caps)
        return clone

    def as_lists(self) -> Tuple[List[Time], List[int]]:
        """Canonical ``(times, caps)`` lists (fresh copies)."""
        return list(self._times), list(self._caps)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _merge_equal(self) -> None:
        """Restore the invariant that adjacent segments differ in capacity."""
        self._times, self._caps = merge_equal_segments(self._times, self._caps)

    def _index_at(self, t: Time) -> int:
        """Index of the segment containing time ``t >= 0``."""
        if t < 0:
            raise InvalidInstanceError(f"profile queried at negative time {t!r}")
        return bisect_right(self._times, t) - 1

    def _ensure_breakpoint(self, t: Time) -> int:
        """Split the segment containing ``t`` so ``t`` is a breakpoint.

        Returns the index whose segment now starts at ``t``.
        """
        i = self._index_at(t)
        if self._times[i] == t:
            return i
        self._times.insert(i + 1, t)
        self._caps.insert(i + 1, self._caps[i])
        return i + 1

    def _shift_window(self, start: Time, end: Time, delta: int) -> None:
        """Add ``delta`` to every segment in ``[start, end)`` and restore
        canonical form *locally*: a uniform delta preserves the inequality
        between interior neighbours, so only the two window boundaries can
        need merging — reserve/add are O(window + log n), not O(n)
        (see "Mutation cost" in :mod:`repro.core.profiles.base`).
        """
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end)
        caps = self._caps
        if j - i == 1:  # the common sweep-local case
            caps[i] += delta
        else:
            caps[i:j] = [c + delta for c in caps[i:j]]
        if caps[j] == caps[j - 1]:
            del self._times[j]
            del caps[j]
        if i > 0 and caps[i] == caps[i - 1]:
            del self._times[i]
            del caps[i]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def capacity_at(self, t: Time) -> int:
        """Number of free processors at time ``t``."""
        return self._caps[self._index_at(t)]

    def segments(self, horizon: Optional[Time] = None) -> Iterator[Segment]:
        """Yield ``(start, end, capacity)``; the last ``end`` is ``horizon``
        (if given) or ``math.inf``."""
        return iter_segments(self._times, self._caps, horizon)

    def min_capacity(self, start: Time, end: Time) -> int:
        """Minimum capacity over the window ``[start, end)``."""
        if end <= start:
            raise InvalidInstanceError("window must have positive length")
        if not start >= 0:
            raise bad_query_time(start)
        i = self._index_at(start)
        lo = self._caps[i]
        j = i + 1
        while j < len(self._times) and self._times[j] < end:
            lo = min(lo, self._caps[j])
            j += 1
        return lo

    def area(self, start: Time, end: Time) -> Time:
        """Integral of the capacity over ``[start, end)``.

        Bisects to the segment containing ``start`` so the cost is
        proportional to the number of breakpoints inside the window, not
        to the profile size.
        """
        if end < start:
            raise InvalidInstanceError("area window must be ordered")
        if end == start:
            return 0
        times, caps = self._times, self._caps
        n = len(times)
        i = self._index_at(start) if start > 0 else 0
        total = 0
        for j in range(i, n):
            seg_start = times[j]
            if seg_start >= end:
                break
            seg_end = times[j + 1] if j + 1 < n else math.inf
            lo = max(seg_start, start)
            hi = min(seg_end, end)
            if hi > lo:
                total += caps[j] * (hi - lo)
        return total

    def earliest_fit(self, q: int, duration: Time,
                     after: Time = 0) -> Optional[Time]:
        """Earliest ``s >= after`` such that capacity is ``>= q`` throughout
        ``[s, s + duration)``.

        Returns ``None`` when no such time exists, which happens exactly when
        the final (infinite) segment has capacity below ``q``.

        This single primitive implements: conservative backfilling placement,
        the FCFS head-of-queue start rule, and the "fit now" test of LSRC
        (by checking whether the returned time equals ``after``).
        """
        if duration <= 0:
            raise InvalidInstanceError("duration must be positive")
        if q < 0:
            raise InvalidInstanceError("width must be non-negative")
        if after != after:
            raise bad_query_time(after)
        n = len(self._times)
        i = self._index_at(after) if after > 0 else 0
        candidate = None
        while i < n:
            seg_start = self._times[i]
            seg_end = self._times[i + 1] if i + 1 < n else math.inf
            if self._caps[i] >= q:
                if candidate is None:
                    candidate = seg_start if seg_start > after else after
                    end = candidate + duration
                if seg_end == math.inf or seg_end >= end:
                    return candidate
            else:
                candidate = None
            i += 1
        return None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def reserve(self, start: Time, duration: Time, amount: int) -> None:
        """Subtract ``amount`` processors over ``[start, start + duration)``.

        Raises :class:`~repro.errors.CapacityError` when any covered segment
        would drop below zero; the profile is left unchanged in that case.
        """
        check_reserve_args(start, duration, amount, "reserved")
        if amount == 0:
            return
        end = start + duration
        if self.min_capacity(start, end) < amount:
            raise CapacityError(
                f"cannot reserve {amount} processors on [{start}, {end}): "
                f"minimum available is {self.min_capacity(start, end)}"
            )
        self._shift_window(start, end, -int(amount))

    def add(self, start: Time, duration: Time, amount: int) -> None:
        """Add ``amount`` processors over ``[start, start + duration)``.

        Inverse of :meth:`reserve`; used for what-if probing (EASY
        backfilling) and by tests.
        """
        check_reserve_args(start, duration, amount, "added")
        if amount == 0:
            return
        self._shift_window(start, start + duration, int(amount))

    def prune_before(self, t: Time) -> None:
        """Drop breakpoints before ``t`` and re-anchor the frontier
        segment at 0 (see :meth:`ProfileBackend.prune_before` for the
        soundness contract).  One prefix deletion: O(remaining)."""
        if t <= 0:
            return
        i = self._index_at(t)
        if i > 0:
            del self._times[:i]
            del self._caps[:i]
        self._times[0] = 0

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def first_time_area_reaches(self, work: Time,
                                start: Time = 0) -> Optional[Time]:
        """Smallest ``T`` with ``area(start, T) >= work``.

        Supports the reservation-aware area lower bound
        (:func:`repro.core.bounds.area_bound`): no schedule can finish
        ``work`` units of processing before the machine has offered that
        much capacity.  Bisects to the segment containing ``start``.
        Returns ``None`` if the profile's tail capacity is 0 and the work
        cannot be accumulated (only possible on degenerate profiles).
        """
        if work <= 0:
            return start
        times, caps = self._times, self._caps
        n = len(times)
        i = self._index_at(start) if start > 0 else 0
        acc = 0
        for j in range(i, n):
            seg_start = times[j]
            seg_end = times[j + 1] if j + 1 < n else math.inf
            cap = caps[j]
            if seg_end <= start:
                continue
            lo = max(seg_start, start)
            if seg_end == math.inf:
                if cap == 0:
                    return None
                return lo + (work - acc) / cap
            gain = cap * (seg_end - lo)
            if acc + gain >= work:
                if cap == 0:
                    # gain is 0, cannot happen when acc + gain >= work > acc
                    return seg_end
                return lo + (work - acc) / cap
            acc += gain
        return None  # pragma: no cover - the last segment is infinite
