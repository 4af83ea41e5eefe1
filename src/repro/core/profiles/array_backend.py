"""The flat-array backend: contiguous int64 columns for the integer grid.

:class:`ArrayProfile` is the int64 kernel of the profile protocol:
breakpoint times and segment capacities live in two contiguous
``array('q')`` columns, so the structures the replay hot loop touches
every event are two machine-typed buffers instead of boxed lists.  It is
stdlib-only, and its design points are:

* **prefix-delete pruning** — :meth:`prune_before` deletes the
  segments behind the frontier and re-anchors the frontier segment at
  time 0, the rule the list backend and
  :class:`~repro.core.timebase.IntSweepProfile` share.  A
  rolling-horizon sweep (:mod:`repro.simulation.replay`) prunes on every
  completion, so the live profile stays at tens of segments and the
  prefix memmove costs about as much as bumping an offset would;
* **branch-light scans** — ``earliest_fit``/``min_capacity``/``fits``
  are tight linear scans bisected to the query point, which on a
  continuously-pruned profile cover the active-jobs frontier only;
* **batched overlay** — :meth:`reserve_many` rebuilds the columns in one
  sweep via the shared :func:`overlay_reservation_blocks` engine.

The int64 columns are also the backend's contract: **breakpoints live on
the integer grid**.  Construction and mutation require machine-int times
(``timebase="auto"`` normalisation produces exactly that grid;
every SWF archive and the synthetic trace pack are integral already) and
raise :class:`~repro.errors.InvalidInstanceError` loudly otherwise —
*queries* accept any ordered numeric, so probing an integer profile at a
``Fraction`` instant still works.  For exact ``Fraction``/``float``
breakpoints use the ``"list"`` backend.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_left, bisect_right
from types import ModuleType
from typing import Iterable, Iterator, List, Optional, Tuple

from ...errors import CapacityError, InvalidInstanceError
from .base import (
    ProfileBackend,
    Segment,
    Time,
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


#: Largest representable breakpoint: mutations whose window end exceeds
#: this would otherwise surface as a raw OverflowError from the column
#: insert (and, worse, after a partial boundary split).
_INT64_MAX = 2**63 - 1


def _as_int_time(value: object, what: str) -> int:
    """Coerce an Integral time to ``int``; anything else is a loud error."""
    if isinstance(value, numbers.Integral):
        return int(value)
    raise InvalidInstanceError(
        f"array backend requires integer {what}, got {value!r} "
        f"({type(value).__name__}); use the 'list' backend for "
        f"exact Fraction/float breakpoints, or normalise onto the integer "
        f"grid first (timebase='auto')"
    )


def _int64_column(values: Iterable[int], what: str) -> "array[int]":
    """Build an int64 column, mapping range/type failures to our error."""
    try:
        return array("q", values)
    except (TypeError, OverflowError) as exc:
        raise InvalidInstanceError(
            f"array backend requires machine-int (int64) {what}: {exc}"
        ) from exc


class ArrayProfile(ProfileBackend):
    """Integer-grid capacity profile on flat int64 time/capacity columns.

    ``self._times``/``self._caps`` hold exactly the live segments,
    indexed from 0; the first time is always 0 (re-anchored by
    :meth:`prune_before`).
    """

    __slots__ = ("_times", "_caps")

    #: Engine hint: :meth:`prune_before` costs O(live segments) and the
    #: live window stays small, so sweep callers may prune on every
    #: event instead of amortising over a coarse cadence.
    CHEAP_PRUNE = True

    def __init__(
        self,
        times: List[Time],
        caps: List[int],
        _validate: bool = True,
    ) -> None:
        if _validate:
            validate_profile_inputs(times, caps)
        merged_t, merged_c = merge_equal_segments(list(times), list(caps))
        self._times: "array[int]" = _int64_column(
            (_as_int_time(t, "breakpoint times") for t in merged_t), "times"
        )
        self._caps: "array[int]" = _int64_column(
            (int(c) for c in merged_c), "capacities"
        )

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
        """Number of segments — O(1) (the replay engine samples this on
        every compaction for an exact peak gauge)."""
        return len(self._times)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _index_at(self, t: Time) -> int:
        """Index of the segment containing time ``t >= 0``."""
        if t < 0:
            raise InvalidInstanceError(f"profile queried at negative time {t!r}")
        return bisect_right(self._times, t) - 1

    def _ensure_breakpoint(self, t: int) -> int:
        """Split the segment containing ``t`` so ``t`` is a breakpoint."""
        i = bisect_right(self._times, t) - 1
        if self._times[i] == t:
            return i
        self._times.insert(i + 1, t)
        self._caps.insert(i + 1, self._caps[i])
        return i + 1

    def _shift_window(self, start: int, end: int, delta: int) -> None:
        """Add ``delta`` on ``[start, end)`` and restore canonical form
        locally (only the two window boundaries can need merging)."""
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end)
        caps = self._caps
        if j - i == 1:  # the common sweep case: one covered segment
            caps[i] += delta
        else:
            caps[i:j] = array("q", [c + delta for c in caps[i:j]])
        if caps[j] == caps[j - 1]:
            del self._times[j]
            del caps[j]
        if i > 0 and caps[i] == caps[i - 1]:
            del self._times[i]
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
        return self._caps[self._index_at(t)]

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
        if start < 0:
            raise InvalidInstanceError(
                f"profile queried at negative time {start!r}"
            )
        times = self._times
        i = bisect_right(times, start) - 1
        j = bisect_left(times, end, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i]
        return min(caps[i:j])

    def max_capacity_between(
        self, start: Time, end: Optional[Time] = None
    ) -> int:
        """Largest capacity on ``[start, end)`` (``end=None`` → infinity)."""
        if end is not None and end <= start:
            raise InvalidInstanceError("window must have positive length")
        if start < 0:
            raise InvalidInstanceError(
                f"profile queried at negative time {start!r}"
            )
        times = self._times
        i = bisect_right(times, start) - 1
        j = len(times) if end is None else bisect_left(times, end, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i]
        return max(caps[i:j])

    def area(self, start: Time, end: Time) -> Time:
        """Integral of the capacity over ``[start, end)`` (exact for
        integral windows; bisects to the window like the list backend)."""
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
            lo = seg_start if seg_start > start else start
            hi = seg_end if seg_end < end else end
            if hi > lo:
                total += caps[j] * (hi - lo)
        return total

    def earliest_fit(
        self, q: int, duration: Time, after: Time = 0
    ) -> Optional[Time]:
        """Earliest ``s >= after`` with capacity ``>= q`` throughout
        ``[s, s + duration)`` — a branch-light linear scan over the live
        columns (bisected to ``after``), ``None`` exactly when the final
        segment's capacity is below ``q``."""
        if duration <= 0:
            raise InvalidInstanceError("duration must be positive")
        if q < 0:
            raise InvalidInstanceError("width must be non-negative")
        times, caps = self._times, self._caps
        n = len(times)
        i = bisect_right(times, after) - 1 if after > 0 else 0
        candidate: Optional[Time] = None
        while i < n:
            if caps[i] >= q:
                if candidate is None:
                    seg_start = times[i]
                    candidate = seg_start if seg_start > after else after
                if i + 1 == n or times[i + 1] - candidate >= duration:
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
        when any covered instant would drop below ``amount``.  ``start``
        and ``duration`` must be integers (the backend's grid contract).
        """
        check_reserve_args(start, duration, amount, "reserved")
        if amount == 0:
            return
        if type(start) is not int:
            start = _as_int_time(start, "reservation start")
        if type(duration) is not int:
            duration = _as_int_time(duration, "reservation duration")
        end = start + duration
        if end > _INT64_MAX:
            raise InvalidInstanceError(
                f"array backend requires machine-int (int64) times: "
                f"window end {end!r} overflows"
            )
        i = self._ensure_breakpoint(start)
        j = self._ensure_breakpoint(end)
        caps = self._caps
        amount = int(amount)
        lowest = min(caps[i:j])
        if lowest < amount:
            # roll back the breakpoint splits so the profile is untouched
            if caps[j] == caps[j - 1]:
                del self._times[j]
                del caps[j]
            if i > 0 and caps[i] == caps[i - 1]:
                del self._times[i]
                del caps[i]
            raise CapacityError(
                f"cannot reserve {amount} processors on [{start}, {end}): "
                f"minimum available is {lowest}"
            )
        if j - i == 1:
            caps[i] -= amount
        else:
            caps[i:j] = array("q", [c - amount for c in caps[i:j]])
        if caps[j] == caps[j - 1]:
            del self._times[j]
            del caps[j]
        if i > 0 and caps[i] == caps[i - 1]:
            del self._times[i]
            del caps[i]

    def add(self, start: Time, duration: Time, amount: int) -> None:
        """Add ``amount`` processors over ``[start, start + duration)``
        (inverse of :meth:`reserve`)."""
        check_reserve_args(start, duration, amount, "added")
        if amount == 0:
            return
        if type(start) is not int:
            start = _as_int_time(start, "start time")
        if type(duration) is not int:
            duration = _as_int_time(duration, "duration")
        end = start + duration
        if end > _INT64_MAX:
            raise InvalidInstanceError(
                f"array backend requires machine-int (int64) times: "
                f"window end {end!r} overflows"
            )
        self._shift_window(start, end, int(amount))

    def fits(self, q: int, start: Time, duration: Time) -> bool:
        """True when a ``q``-wide block of length ``duration`` fits at
        ``start`` (inlined min scan: the hot probe of the replay loop)."""
        if duration <= 0:
            raise InvalidInstanceError("window must have positive length")
        if start < 0:
            raise InvalidInstanceError(
                f"profile queried at negative time {start!r}"
            )
        times = self._times
        i = bisect_right(times, start) - 1
        j = bisect_left(times, start + duration, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i] >= q
        return min(caps[i:j]) >= q

    def reserve_fitting(self, start: Time, duration: Time, amount: int) -> None:
        """Commit a just-verified reservation without revalidating
        capacity (see :meth:`ProfileBackend.reserve_fitting` for the
        contract; arguments are still validated — only the windowed
        minimum is skipped); one boundary split + windowed shift."""
        check_reserve_args(start, duration, amount, "reserved")
        if amount == 0:
            return
        if type(start) is not int:
            start = _as_int_time(start, "reservation start")
        if type(duration) is not int:
            duration = _as_int_time(duration, "reservation duration")
        end = start + duration
        if end > _INT64_MAX:
            raise InvalidInstanceError(
                f"array backend requires machine-int (int64) times: "
                f"window end {end!r} overflows"
            )
        self._shift_window(start, end, -int(amount))

    def try_reserve(self, start: Time, duration: Time, amount: int) -> bool:
        """Probe-and-commit in one bisection: reserve iff it fits.

        The replay hot loop's placement primitive — the probe's window
        indices are reused for the commit, so a successful placement
        costs one bisect pair instead of the two a ``fits`` +
        ``reserve`` pair pays.
        """
        check_reserve_args(start, duration, amount, "reserved")
        if type(start) is not int:
            start = _as_int_time(start, "reservation start")
        if type(duration) is not int:
            duration = _as_int_time(duration, "reservation duration")
        end = start + duration
        if end > _INT64_MAX:
            # before the capacity screen, so an out-of-grid time is
            # always loud, never masked as an ordinary "does not fit"
            raise InvalidInstanceError(
                f"array backend requires machine-int (int64) times: "
                f"window end {end!r} overflows"
            )
        times, caps = self._times, self._caps
        i = bisect_right(times, start) - 1
        if caps[i] < amount:  # the window's first segment already fails
            return False
        j = bisect_left(times, end, i + 1)
        if j - i > 1 and min(caps[i:j]) < amount:
            return False
        if amount == 0:
            return True
        # split the boundaries, reusing the probe's indices
        if times[i] != start:
            i += 1
            times.insert(i, start)
            caps.insert(i, caps[i - 1])
            j += 1
        if j == len(times) or times[j] != end:
            times.insert(j, end)
            caps.insert(j, caps[j - 1])
        amount = int(amount)
        if j - i == 1:
            caps[i] -= amount
        else:
            caps[i:j] = array("q", [c - amount for c in caps[i:j]])
        if caps[j] == caps[j - 1]:
            del times[j]
            del caps[j]
        if i > 0 and caps[i] == caps[i - 1]:
            del times[i]
            del caps[i]
        return True

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

    def reserve_many(self, blocks: Iterable[Tuple[Time, Time, int]]) -> None:
        """Apply many ``(start, duration, amount)`` reservations in one
        overlay sweep (all-or-nothing, like the list backend)."""
        new_times, new_caps = overlay_reservation_blocks(
            *self.as_lists(), blocks
        )
        times = _int64_column(
            (_as_int_time(t, "breakpoint times") for t in new_times), "times"
        )
        self._times = times
        self._caps = _int64_column(new_caps, "capacities")

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
            lo = seg_start if seg_start > start else start
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
