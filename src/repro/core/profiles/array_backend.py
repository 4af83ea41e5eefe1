"""The flat-array backend: contiguous int64 columns for the integer grid.

:class:`ArrayProfile` is the cache-friendly kernel of the profile
protocol: breakpoint times and segment capacities live in two contiguous
``array('q')`` (int64) columns, so the structures the replay hot loop
touches every event are two machine-typed buffers instead of boxed
lists.  Three design points give it its speed:

* **offset-bump pruning** — :meth:`prune_before` advances a live-window
  offset and re-anchors the frontier segment in O(1); the dead prefix is
  reclaimed by periodic compaction, so a rolling-horizon sweep
  (:mod:`repro.simulation.replay`) can prune *every* event and keep the
  live window at tens of segments where the list backend's
  prune-every-4096 cadence lets thousands accumulate;
* **branch-light scans** — ``earliest_fit``/``min_capacity`` are tight
  linear scans over the live window (bisected to the query point), which
  on a continuously-pruned profile is the active-jobs frontier only;
* **batched overlay** — :meth:`reserve_many` rebuilds the columns in one
  sweep via the shared :func:`overlay_reservation_blocks` engine.

When numpy is importable (a feature probe, never a requirement), wide
windowed ``min_capacity``/``max_capacity_between`` scans are answered by
vectorised reductions over zero-copy views of the same buffers; the
pure-stdlib scan is the always-available fallback and the semantics are
identical (the reductions do no arithmetic, so there is nothing to
overflow or round).

The int64 columns are also the backend's contract: **breakpoints live on
the integer grid**.  Construction and mutation require machine-int times
(PR 3's ``timebase="auto"`` normalisation produces exactly that grid;
every SWF archive and the synthetic trace pack are integral already) and
raise :class:`~repro.errors.InvalidInstanceError` loudly otherwise —
*queries* accept any ordered numeric, so probing an integer profile at a
``Fraction`` instant still works.  For exact ``Fraction``/``float``
breakpoints use the ``"list"`` backend.
"""

from __future__ import annotations

import math
import numbers
import os
from array import array
from bisect import bisect_left, bisect_right
from types import ModuleType
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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

#: Environment kill-switch for the vectorised path: set (to any non-empty
#: value) before the first import to force the pure-stdlib scalar
#: fallback even when numpy is installed (reported by
#: :func:`vector_info`).
NUMPY_DISABLE_ENV = "REPRO_NO_NUMPY"


def _probe_numpy() -> Optional[ModuleType]:
    """The numpy feature probe: import once, honouring the kill-switch.

    Runs exactly once per process (the result is cached in the
    module-level ``_np``), so profile construction never re-probes.
    """
    if os.environ.get(NUMPY_DISABLE_ENV):
        return None
    try:  # feature probe: vectorised reductions/scans are optional
        import numpy
    except ImportError:  # pragma: no cover - numpy ships in the dev image
        return None
    return numpy


#: Cached module-level probe result — the single source of truth every
#: vectorised code path (here and in the replay engine) branches on.
_np: Optional[ModuleType] = _probe_numpy()


def numpy_module() -> Optional[ModuleType]:
    """The cached probe result (``None`` when the scalar fallback rules)."""
    return _np


def vector_info() -> Dict[str, object]:
    """Whether the vectorised path is active, and why not when it isn't.

    Feeds ``repro list --kind backends``; keys: ``active`` (bool),
    ``numpy_version`` (str or None), ``disabled_by_env`` (bool).
    """
    return {
        "active": _np is not None,
        "numpy_version": getattr(_np, "__version__", None),
        "disabled_by_env": bool(os.environ.get(NUMPY_DISABLE_ENV)),
    }

#: Window length (in segments) above which the numpy reduction beats the
#: scalar scan; below it the per-call numpy overhead dominates.
_VECTOR_MIN_SEGMENTS = 64

#: Compaction policy: reclaim the dead prefix once it holds at least
#: this many segments *and* at least half the buffer (so compaction work
#: is always amortised against the O(1) prunes that created the prefix).
_COMPACT_MIN_DEAD = 512

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

    Storage is ``self._times[self._lo:]`` / ``self._caps[self._lo:]`` —
    the *live window*; indices before ``_lo`` are a dead prefix left by
    O(1) pruning, invisible to every query and reclaimed by periodic
    compaction.  The first live time is always 0 (re-anchored by
    :meth:`prune_before`), so the live slice stays sorted and bisect
    works with ``lo=self._lo`` untouched.
    """

    __slots__ = ("_times", "_caps", "_lo")

    #: Engine hint: :meth:`prune_before` is O(1), so sweep callers may
    #: prune on every event instead of amortising over a coarse cadence.
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
        self._lo: int = 0

    def copy(self) -> "ArrayProfile":
        """Independent mutable copy (the dead prefix is not copied)."""
        clone = type(self).__new__(type(self))
        clone._times = self._times[self._lo:]
        clone._caps = self._caps[self._lo:]
        clone._lo = 0
        return clone

    def as_lists(self) -> Tuple[List[Time], List[int]]:
        """Canonical ``(times, caps)`` lists (fresh copies)."""
        lo = self._lo
        return list(self._times[lo:]), list(self._caps[lo:])

    def segment_count(self) -> int:
        """Number of live segments — O(1) (the replay engine samples
        this on every compaction for an exact peak gauge)."""
        return len(self._times) - self._lo

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _index_at(self, t: Time) -> int:
        """Index of the live segment containing time ``t >= 0``."""
        if t < 0:
            raise InvalidInstanceError(f"profile queried at negative time {t!r}")
        return bisect_right(self._times, t, self._lo) - 1

    def _ensure_breakpoint(self, t: int) -> int:
        """Split the segment containing ``t`` so ``t`` is a breakpoint."""
        i = bisect_right(self._times, t, self._lo) - 1
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
        if i > self._lo and caps[i] == caps[i - 1]:
            del self._times[i]
            del caps[i]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[Time, ...]:
        """The times at which capacity changes (first is always 0)."""
        return tuple(self._times[self._lo:])

    def capacity_at(self, t: Time) -> int:
        """Number of free processors at time ``t``."""
        return self._caps[self._index_at(t)]

    def final_capacity(self) -> int:
        """Capacity on the unbounded last segment."""
        return self._caps[-1]

    def max_capacity(self) -> int:
        """Largest capacity reached anywhere."""
        return max(self._caps[self._lo:])

    def min_capacity_overall(self) -> int:
        """Smallest capacity reached anywhere."""
        return min(self._caps[self._lo:])

    def segments(self, horizon: Optional[Time] = None) -> Iterator[Segment]:
        """Yield ``(start, end, capacity)``; the last ``end`` is ``horizon``
        (if given) or ``math.inf``."""
        return iter_segments(
            self._times[self._lo:], self._caps[self._lo:], horizon
        )

    def min_capacity(self, start: Time, end: Time) -> int:
        """Minimum capacity over the window ``[start, end)``."""
        if end <= start:
            raise InvalidInstanceError("window must have positive length")
        if start < 0:
            raise InvalidInstanceError(
                f"profile queried at negative time {start!r}"
            )
        times = self._times
        i = bisect_right(times, start, self._lo) - 1
        j = bisect_left(times, end, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i]
        if _np is not None and j - i >= _VECTOR_MIN_SEGMENTS:
            return int(_np.frombuffer(caps, dtype=_np.int64)[i:j].min())
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
        i = bisect_right(times, start, self._lo) - 1
        j = len(times) if end is None else bisect_left(times, end, i + 1)
        caps = self._caps
        if j - i == 1:
            return caps[i]
        if _np is not None and j - i >= _VECTOR_MIN_SEGMENTS:
            return int(_np.frombuffer(caps, dtype=_np.int64)[i:j].max())
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
        i = self._index_at(start) if start > 0 else self._lo
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
        if after > 0:
            i = bisect_right(times, after, self._lo) - 1
        else:
            i = self._lo
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
            if i > self._lo and caps[i] == caps[i - 1]:
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
        if i > self._lo and caps[i] == caps[i - 1]:
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
        i = bisect_right(times, start, self._lo) - 1
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
        i = bisect_right(times, start, self._lo) - 1
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
        if i > self._lo and caps[i] == caps[i - 1]:
            del times[i]
            del caps[i]
        return True

    def prune_before(self, t: Time) -> None:
        """Compact behind the frontier ``t`` in O(1): bump the live-window
        offset to the segment containing ``t`` and re-anchor it at time 0
        (see :meth:`ProfileBackend.prune_before` for the soundness
        contract).  The dead prefix is reclaimed once it exceeds
        ``_COMPACT_MIN_DEAD`` segments *and* half the buffer, so memory
        stays proportional to the live window while each prune stays
        constant-time."""
        if t <= 0:
            return
        i = self._index_at(t)
        if i > self._lo:
            self._lo = i
            self._times[i] = 0
        lo = self._lo
        if lo >= _COMPACT_MIN_DEAD and 2 * lo >= len(self._times):
            del self._times[:lo]
            del self._caps[:lo]
            self._lo = 0

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
        self._lo = 0

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
        i = self._index_at(start) if start > 0 else self._lo
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
