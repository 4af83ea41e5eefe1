"""The profile-backend protocol: what every availability structure provides.

A *profile backend* represents integer capacity as a piecewise-constant
function of time on ``[0, inf)`` — the availability ``m(t) = m - U(t)`` of
Section 3.1 — and supports the operation set every scheduler in
:mod:`repro.algorithms` is written against:

===========================  ==============================================
point query                  :meth:`ProfileBackend.capacity_at`
window queries               :meth:`ProfileBackend.min_capacity`,
                             :meth:`ProfileBackend.area`
placement query              :meth:`ProfileBackend.earliest_fit`
placement                    :meth:`ProfileBackend.try_reserve`,
                             :meth:`ProfileBackend.reserve_earliest`
mutation                     :meth:`ProfileBackend.reserve`,
                             :meth:`ProfileBackend.add`
batch mutation               :meth:`ProfileBackend.reserve_many`
area inversion               :meth:`ProfileBackend.first_time_area_reaches`
===========================  ==============================================

Two invariants are part of the protocol, not of any one implementation:

* **canonical form** — breakpoints are strictly increasing, start at 0,
  and adjacent segments always differ in capacity (mutators re-establish
  this), so ``breakpoints`` is exactly the set of instants where
  availability changes and backends compare equal iff they represent the
  same function;
* **exact arithmetic** — capacities are non-negative ``int``; times may be
  ``int``, ``float`` or :class:`fractions.Fraction` and are never coerced,
  so the worst-case constructions of :mod:`repro.theory` stay exact in
  every backend.

Concrete backends subclass this ABC and implement the primitive set; the
derived operations (``fits``, ``truncated_after``, equality,
hashing, the constructors) are shared here so all backends agree on their
semantics by construction.

The protocol is *enforced*, not just documented: ``repro lint`` compares
every backend listed in ``[tool.repro-lint.protocol]`` against this
class — a missing primitive is RPL301, a signature that drifts from the
declaration here is RPL302, a public method a backend grows that the
protocol never declared is RPL303, and an inherited fallback where the
config demands an override (the array backend's hot paths) is RPL304.
To extend the protocol, declare the primitive here first (body =
docstring + ``raise NotImplementedError``), then implement it in every
backend in the same CI run.

Mutation cost
-------------
A ``reserve``/``add`` over a window covering ``w`` of the profile's ``n``
segments costs O(w + log n) on either implementation: bisect to the
window, split its two boundaries, shift the covered capacities and
re-merge only at the boundaries.  The interior update is Θ(w), so
*wide* windows (w → n) stay linear — a deliberate trade: going
sublinear needs lazy range-add aggregates (an augmented tree), whose
constants lost to the flat lists on every caller the repo runs.

Both prune with the same prefix delete, cheap enough to run on every
completion, so a rolling sweep that prunes behind its clock (the replay
and serve loop does) keeps n, and hence every w, at the active-window
size.

``benchmarks/bench_profile_backends.py`` times the kernel against the
reference per scenario.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ...errors import CapacityError, InvalidInstanceError
from ..job import reservation_block

#: The time types profiles are exercised with in practice.  The protocol
#: is duck-typed (any ordered numeric with exact +/-/* works), but the
#: alias names the supported surface for annotations and readers.
Time = Union[int, float, Fraction]

Segment = Tuple[object, object, int]  # (start, end, capacity); end may be math.inf

#: One ``(start, duration, amount)`` reservation block.
Block = Tuple[Time, Time, int]


def validate_profile_inputs(times: List[Time], caps: List[int]) -> None:
    """Shared construction-time validation (raises InvalidInstanceError)."""
    if not times or times[0] != 0:
        raise InvalidInstanceError("profile must start at time 0")
    if len(times) != len(caps):
        raise InvalidInstanceError("times and caps must have equal length")
    for i in range(1, len(times)):
        if not times[i - 1] < times[i]:
            raise InvalidInstanceError(
                f"profile breakpoints must be strictly increasing, got "
                f"{times[i - 1]!r} then {times[i]!r}"
            )
    for c in caps:
        if not isinstance(c, numbers.Integral) or c < 0:
            raise InvalidInstanceError(
                f"profile capacities must be non-negative integers, got {c!r}"
            )


def merge_equal_segments(
    times: List[Time], caps: List[int]
) -> Tuple[List[Time], List[int]]:
    """Drop breakpoints where capacity does not change (canonical form)."""
    merged_t, merged_c = [times[0]], [caps[0]]
    for t, c in zip(times[1:], caps[1:]):
        if c != merged_c[-1]:
            merged_t.append(t)
            merged_c.append(c)
    return merged_t, merged_c


def check_reserve_args(start: Time, duration: Time, amount: int,
                       verb: str) -> None:
    """Shared argument validation for reserve/add/reserve_many.

    A NaN or infinite start and a NaN duration are refused: a NaN
    compares false with everything, so it would slip past the order
    checks and land as a breakpoint that breaks the canonical form.
    """
    if not duration > 0:  # also refuses NaN
        raise InvalidInstanceError(
            f"duration must be positive, got {duration!r}"
        )
    if (type(amount) is not int and not isinstance(amount, numbers.Integral)) \
            or amount < 0:
        raise InvalidInstanceError(
            f"{verb} amount must be a non-negative integer, got {amount!r}"
        )
    if start < 0:
        if verb == "added":
            raise InvalidInstanceError("cannot add capacity before time 0")
        raise InvalidInstanceError("reservation cannot start before time 0")
    if not start < math.inf:  # NaN or +inf
        raise InvalidInstanceError(f"{verb} start must be finite, got {start!r}")


def bad_query_time(t: Time) -> InvalidInstanceError:
    """The refusal of a query at ``t``, a negative or NaN time (a NaN
    compares false with everything, so it would slip past the order
    checks and answer from an arbitrary segment)."""
    what = "negative" if t < 0 else "NaN"
    return InvalidInstanceError(f"profile queried at {what} time {t!r}")


def overlay_reservation_blocks(
    times: List[Time], caps: List[int], blocks: Iterable[Block]
) -> Tuple[List[Time], List[int]]:
    """Apply many ``(start, duration, amount)`` reservations to canonical
    ``(times, caps)`` lists in **one sweep**, returning fresh merged lists.

    The engine behind the kernel's atomic :meth:`reserve_many`:
    block boundaries become capacity deltas, a single merge pass overlays
    them on the existing breakpoints, and a :class:`CapacityError` is
    raised (before anything is returned, so callers stay untouched) when
    any instant would drop below zero.
    """
    deltas: dict[Time, int] = {}
    for start, duration, amount in blocks:
        check_reserve_args(start, duration, amount, "reserved")
        if amount == 0:
            continue
        end = start + duration
        deltas[start] = deltas.get(start, 0) - int(amount)
        deltas[end] = deltas.get(end, 0) + int(amount)
    if not deltas:
        return list(times), list(caps)
    new_times = sorted(set(times) | set(deltas))
    new_caps: List[int] = []
    src = 0  # index into the existing segments
    pending = 0  # accumulated reservation depth
    for t in new_times:
        while src + 1 < len(times) and times[src + 1] <= t:
            src += 1
        pending += deltas.get(t, 0)
        cap = caps[src] + pending
        if cap < 0:
            raise CapacityError(
                f"cannot reserve {-cap} processor(s) beyond availability "
                f"at time {t}: batch reservation overflows the profile"
            )
        new_caps.append(cap)
    return merge_equal_segments(new_times, new_caps)


class ProfileBackend:
    """Abstract piecewise-constant availability function on ``[0, inf)``.

    Subclasses implement the primitives marked ``NotImplementedError``;
    everything else is derived here so backends share exact semantics.
    ``repro lint`` (rules RPL301–RPL304) keeps registered backends
    aligned with the primitive set and signatures declared here.
    """

    __slots__ = ()

    # ------------------------------------------------------------------
    # constructors (shared)
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, capacity: int) -> "ProfileBackend":
        """A machine with ``capacity`` processors free at every time."""
        return cls([0], [capacity])

    @classmethod
    def from_reservations(
        cls, m: int, reservations: Iterable[object]
    ) -> "ProfileBackend":
        """Availability of an ``m``-processor machine minus its reservations.

        Uses the batch primitive :meth:`reserve_many`, so construction
        costs one sweep instead of one full rebuild per reservation.
        Raises :class:`~repro.errors.CapacityError` when the reservations
        overlap beyond ``m`` processors (the instance is then infeasible in
        the sense of Section 3.1).

        Each reservation blocks ``[res.start, res.end)``
        (:func:`~repro.core.job.reservation_block`).
        """
        profile = cls.constant(m)
        profile.reserve_many(reservation_block(res) for res in reservations)
        return profile

    @classmethod
    def from_segments(
        cls, segments: Iterable[Tuple[Time, int]]
    ) -> "ProfileBackend":
        """Build from ``(start, capacity)`` pairs; last extends to infinity."""
        times: List[Time] = []
        caps: List[int] = []
        for start, cap in segments:
            times.append(start)
            caps.append(cap)
        return cls(times, caps)

    # ------------------------------------------------------------------
    # primitives every backend implements
    # ------------------------------------------------------------------
    def as_lists(self) -> Tuple[List[Time], List[int]]:
        """Canonical ``(times, caps)`` lists (fresh copies)."""
        raise NotImplementedError

    def copy(self) -> "ProfileBackend":
        """Independent mutable copy."""
        raise NotImplementedError

    def capacity_at(self, t: Time) -> int:
        """Number of free processors at time ``t``."""
        raise NotImplementedError

    def min_capacity(self, start: Time, end: Time) -> int:
        """Minimum capacity over the window ``[start, end)``."""
        raise NotImplementedError

    def area(self, start: Time, end: Time) -> Time:
        """Integral of the capacity over ``[start, end)`` (available work
        area).  Implementations locate ``start``'s segment by bisection
        rather than scanning from time 0."""
        raise NotImplementedError

    def earliest_fit(self, q: int, duration: Time,
                     after: Time = 0) -> Optional[Time]:
        """Earliest ``s >= after`` such that capacity is ``>= q`` throughout
        ``[s, s + duration)``; ``None`` exactly when the final (infinite)
        segment has capacity below ``q``."""
        raise NotImplementedError

    def reserve(self, start: Time, duration: Time, amount: int) -> None:
        """Subtract ``amount`` processors over ``[start, start + duration)``.

        Raises :class:`~repro.errors.CapacityError` (leaving the profile
        unchanged) when any covered instant would drop below zero.
        """
        raise NotImplementedError

    def add(self, start: Time, duration: Time, amount: int) -> None:
        """Add ``amount`` processors over ``[start, start + duration)``
        (inverse of :meth:`reserve`)."""
        raise NotImplementedError

    def reserve_fitting(self, start: Time, duration: Time,
                        amount: int) -> None:
        """Commit a reservation the caller has *just verified* fits
        (``fits(amount, start, duration)`` held with no intervening
        mutation).  Semantically identical to :meth:`reserve`; backends
        may skip capacity revalidation, so violating the precondition on
        such a backend corrupts the profile instead of raising — only
        tight scheduling loops that pair it with :meth:`fits` (the
        replay engine's fused decision passes) should call this.
        """
        self.reserve(start, duration, amount)

    def try_reserve(self, start: Time, duration: Time, amount: int) -> bool:
        """Reserve ``amount`` over ``[start, start + duration)`` iff it
        fits; returns whether it was committed.

        The fused probe-and-commit of every greedy placement loop: one
        call replaces the ``fits`` + ``reserve`` pair (which pays the
        window location twice).  Backends override this with a variant
        that reuses the probe's bisection for the commit.
        """
        check_reserve_args(start, duration, amount, "reserved")
        if self.min_capacity(start, start + duration) < amount:
            return False
        self.reserve_fitting(start, duration, amount)
        return True

    def reserve_earliest(self, q: int, duration: Time,
                         after: Time = 0) -> Optional[Time]:
        """Reserve ``q`` processors at the earliest feasible start and
        return it: :meth:`earliest_fit` and the commit in one call.

        Raises what :meth:`earliest_fit` raises on bad arguments;
        returns ``None``, leaving the profile unchanged, exactly when
        ``earliest_fit`` does.  The placement primitive of every
        earliest-start scheduler (conservative backfilling, ``seq``,
        FCFS); the kernel overrides it with one scan that commits at the
        indices it found.
        """
        s = self.earliest_fit(q, duration, after)
        if s is not None:
            self.reserve_fitting(s, duration, q)
        return s

    def first_time_area_reaches(self, work: Time,
                                start: Time = 0) -> Optional[Time]:
        """Smallest ``T`` with ``area(start, T) >= work`` (area bound
        support); ``None`` only on degenerate zero-tail profiles."""
        raise NotImplementedError

    def prune_before(self, t: Time) -> None:
        """Compact the profile behind the time frontier ``t``.

        Every breakpoint strictly before ``t`` is dropped and the
        segment containing ``t`` is re-anchored to start at time 0, so
        the stored size becomes the number of *future* capacity changes
        — the operation the rolling-horizon replay engine
        (:mod:`repro.simulation.replay`) uses to keep a million-job
        trace's profile bounded by its active window.

        **Soundness.**  Pruning rewrites the function on ``[0, t)`` (the
        pre-frontier history becomes one flat segment at the frontier
        segment's capacity) and is the identity on ``[t, inf)``.  It is
        therefore sound for exactly the callers that never look behind
        their own clock: a forward sweep whose current time has reached
        ``t`` only ever issues queries and mutations over windows
        contained in ``[t, inf)`` — ``capacity_at(u)``,
        ``min_capacity``/``area`` on
        ``[a, b) ⊆ [t, inf)``, ``earliest_fit(..., after >= t)`` and
        ``reserve``/``add`` starting at or after ``t`` — and each of
        these depends only on the function's restriction to ``[t, inf)``:

        * point/window queries with ``a >= t`` bisect into the segment
          containing ``a``; re-anchoring the frontier segment's start to
          0 moves its left edge but no covered instant's capacity, so
          the located segment and every later one are unchanged;
        * ``earliest_fit`` clamps its candidate to
          ``max(segment start, after)``; since the re-anchored start
          ``0 <= t <= after``, the clamp returns ``after`` exactly as it
          did on the unpruned profile;
        * windowed ``area``/``first_time_area_reaches`` integrate
          ``max(segment start, a)`` to ``min(segment end, b)`` with
          ``a >= t``, which never reaches into the rewritten region.

        What pruning deliberately gives up is the *global* protocol
        view: ``breakpoints``, equality/hash, ``area(0, x)`` for
        ``x < t`` and ``truncated_after`` now describe the
        compacted function, not the original — which is why consumers
        must own their profile copy (schedulers and the replay engine
        always do; :meth:`~repro.core.instance.ReservationInstance.
        availability_profile` hands out fresh copies).  A differential
        test (``tests/test_replay.py``) drives pruned and unpruned
        backends through identical post-frontier operation sequences and
        asserts equal answers.
        """
        raise NotImplementedError

    def segments(self, horizon: Optional[Time] = None) -> Iterator[Segment]:
        """Yield ``(start, end, capacity)``; the last ``end`` is ``horizon``
        (if given) or ``math.inf``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # derived queries (shared; backends may override with faster variants)
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[Time, ...]:
        """The times at which capacity changes (first is always 0)."""
        return tuple(self.as_lists()[0])

    def segment_count(self) -> int:
        """Number of segments (= breakpoints) the profile holds.

        Derived in O(n) here; the kernel answers in O(1), which is what
        lets the replay engine sample an exact peak-size gauge before
        every compaction cheaply.
        """
        return len(self.as_lists()[0])

    def final_capacity(self) -> int:
        """Capacity on the unbounded last segment (after every reservation)."""
        return self.as_lists()[1][-1]

    def max_capacity(self) -> int:
        """Largest capacity reached anywhere."""
        return max(self.as_lists()[1])

    def min_capacity_overall(self) -> int:
        """Smallest capacity reached anywhere."""
        return min(self.as_lists()[1])

    def fits(self, q: int, start: Time, duration: Time) -> bool:
        """True when a ``q``-wide block of length ``duration`` fits at ``start``."""
        return self.min_capacity(start, start + duration) >= q

    # ------------------------------------------------------------------
    # batch mutation
    # ------------------------------------------------------------------
    def reserve_many(self, blocks: Iterable[Block]) -> None:
        """Apply many ``(start, duration, amount)`` reservations atomically.

        Either every block is applied or (on :class:`CapacityError` or
        invalid arguments) none is.  The generic implementation validates
        every block up front, then reserves one at a time and rolls back
        on a capacity failure; the kernel overrides this with a single
        sweep so ``k`` reservations cost one rebuild, not ``k``.
        """
        pending: List[Block] = []
        for start, duration, amount in blocks:
            check_reserve_args(start, duration, amount, "reserved")
            pending.append((start, duration, amount))
        applied: List[Block] = []
        try:
            for start, duration, amount in pending:
                self.reserve(start, duration, amount)
                applied.append((start, duration, amount))
        except CapacityError:
            for start, duration, amount in reversed(applied):
                if amount:
                    self.add(start, duration, amount)
            raise

    # ------------------------------------------------------------------
    # derived transformations (shared)
    # ------------------------------------------------------------------
    def is_nondecreasing(self) -> bool:
        """True when capacity never decreases over time.

        This is the availability-side phrasing of the paper's
        *non-increasing reservations* restriction (Section 4.1):
        ``U`` non-increasing  ⇔  ``m(t)`` non-decreasing.
        """
        caps = self.as_lists()[1]
        return all(a <= b for a, b in zip(caps, caps[1:]))

    def truncated_after(self, horizon: Time) -> "ProfileBackend":
        """Profile equal to this one before ``horizon`` and constant after.

        The constant is the capacity at ``horizon``.  This is the ``I'``
        transformation in the proof of Proposition 1.
        """
        if horizon < 0:
            raise InvalidInstanceError("horizon must be >= 0")
        all_times, all_caps = self.as_lists()
        cap_at_h = self.capacity_at(horizon)
        times = []
        caps = []
        for t, c in zip(all_times, all_caps):
            if t >= horizon:
                break
            times.append(t)
            caps.append(c)
        if not times:
            return type(self)([0], [cap_at_h], _validate=False)
        if caps[-1] != cap_at_h:
            times.append(horizon)
            caps.append(cap_at_h)
        return type(self)(times, caps, _validate=False)

    # ------------------------------------------------------------------
    # dunder (shared: backends compare by the function they represent)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProfileBackend):
            return NotImplemented
        return self.as_lists() == other.as_lists()

    def __hash__(self) -> int:
        times, caps = self.as_lists()
        return hash((tuple(times), tuple(caps)))

    def __repr__(self) -> str:
        times, caps = self.as_lists()
        parts = ", ".join(f"[{t}:{c}]" for t, c in zip(times, caps))
        return f"{type(self).__name__}({parts})"


def iter_segments(times: Sequence[Time], caps: Sequence[int],
                  horizon: Optional[Time] = None) -> Iterator[Segment]:
    """Shared ``segments()`` semantics over canonical lists."""
    n = len(times)
    for i in range(n):
        start = times[i]
        end = times[i + 1] if i + 1 < n else (
            horizon if horizon is not None else math.inf
        )
        if horizon is not None:
            if start >= horizon:
                return
            end = min(end, horizon)
        yield (start, end, caps[i])
