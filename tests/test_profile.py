"""Tests for the availability profile — including property tests against a
naive reference implementation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Reservation, ResourceProfile
from repro.errors import CapacityError, InvalidInstanceError

from conftest import NaiveCapacity


class TestConstruction:
    def test_constant(self):
        p = ResourceProfile.constant(4)
        assert p.capacity_at(0) == 4
        assert p.capacity_at(10**9) == 4
        assert p.breakpoints == (0,)

    def test_must_start_at_zero(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile([1, 2], [1, 2])

    def test_strictly_increasing_times(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile([0, 2, 2], [1, 2, 3])

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile([0], [-1])

    def test_non_integer_capacity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile([0], [1.5])

    def test_merges_equal_segments(self):
        p = ResourceProfile([0, 1, 2], [3, 3, 4])
        assert p.breakpoints == (0, 2)

    def test_from_reservations(self):
        res = [Reservation(id=1, start=2, p=2, q=2)]
        p = ResourceProfile.from_reservations(4, res)
        assert p.capacity_at(0) == 4
        assert p.capacity_at(2) == 2
        assert p.capacity_at(3.5) == 2
        assert p.capacity_at(4) == 4

    def test_from_reservations_infeasible(self):
        res = [
            Reservation(id=1, start=0, p=5, q=3),
            Reservation(id=2, start=2, p=2, q=2),
        ]
        with pytest.raises(CapacityError):
            ResourceProfile.from_reservations(4, res)

    def test_from_segments(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        assert p.capacity_at(3) == 1

    def test_copy_independent(self):
        p = ResourceProfile.constant(4)
        q = p.copy()
        q.reserve(0, 1, 2)
        assert p.capacity_at(0) == 4
        assert q.capacity_at(0) == 2


class TestQueries:
    def test_min_capacity(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        assert p.min_capacity(0, 2) == 4
        assert p.min_capacity(0, 3) == 1
        assert p.min_capacity(5, 100) == 4

    def test_min_capacity_empty_window_rejected(self):
        p = ResourceProfile.constant(4)
        with pytest.raises(InvalidInstanceError):
            p.min_capacity(3, 3)

    def test_area(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        assert p.area(0, 2) == 8
        assert p.area(0, 5) == 8 + 3
        assert p.area(1, 6) == 4 + 3 + 4
        assert p.area(3, 3) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile.constant(1).capacity_at(-1)

    def test_final_capacity(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 3)])
        assert p.final_capacity() == 3

    def test_segments_with_horizon(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1)])
        segs = list(p.segments(horizon=3))
        assert segs == [(0, 2, 4), (2, 3, 1)]

    def test_fits(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 2), (4, 4)])
        assert p.fits(2, 0, 3)       # min over [0,3) is 2
        assert not p.fits(3, 0, 3)
        assert p.fits(4, 4, 100)


class TestEarliestFit:
    def test_immediate(self):
        p = ResourceProfile.constant(4)
        assert p.earliest_fit(4, 10) == 0

    def test_waits_for_reservation_end(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        # q=2 for 4 units: cannot straddle the dip, so waits until 5
        assert p.earliest_fit(2, 4) == 5

    def test_fits_exactly_before_dip(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        assert p.earliest_fit(2, 2) == 0

    def test_respects_after(self):
        p = ResourceProfile.constant(4)
        assert p.earliest_fit(1, 1, after=7) == 7

    def test_after_inside_low_segment(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1), (5, 4)])
        assert p.earliest_fit(2, 1, after=3) == 5

    def test_none_when_final_capacity_too_small(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 1)])
        assert p.earliest_fit(2, 1, after=2) is None

    def test_zero_width_always_fits(self):
        p = ResourceProfile.from_segments([(0, 0), (5, 1)])
        assert p.earliest_fit(0, 3) == 0

    def test_rejects_bad_duration(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile.constant(1).earliest_fit(1, 0)


class TestMutation:
    def test_reserve_and_add_roundtrip(self):
        p = ResourceProfile.constant(4)
        q = p.copy()
        q.reserve(2, 3, 2)
        q.add(2, 3, 2)
        assert q == p

    def test_reserve_overflow_rejected_and_state_unchanged(self):
        p = ResourceProfile.constant(2)
        p.reserve(0, 5, 1)
        snapshot = p.copy()
        with pytest.raises(CapacityError):
            p.reserve(3, 4, 2)
        assert p == snapshot

    def test_reserve_zero_amount_noop(self):
        p = ResourceProfile.constant(2)
        p.reserve(0, 1, 0)
        assert p == ResourceProfile.constant(2)

    def test_reserve_negative_amount_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile.constant(2).reserve(0, 1, -1)

    def test_reserve_before_zero_rejected(self):
        with pytest.raises(InvalidInstanceError):
            ResourceProfile.constant(2).reserve(-1, 1, 1)

    def test_nested_reservations(self):
        p = ResourceProfile.constant(10)
        p.reserve(0, 10, 3)
        p.reserve(2, 4, 3)
        p.reserve(3, 1, 4)
        assert p.capacity_at(0) == 7
        assert p.capacity_at(2) == 4
        assert p.capacity_at(3) == 0
        assert p.capacity_at(4) == 4
        assert p.capacity_at(6) == 7
        assert p.capacity_at(10) == 10


class TestDerived:
    def test_first_time_area_reaches(self):
        p = ResourceProfile.from_segments([(0, 4), (2, 2), (4, 4)])
        # area: 8 by t=2, 12 by t=4, then 4/unit
        assert p.first_time_area_reaches(8) == 2
        assert p.first_time_area_reaches(12) == 4
        assert p.first_time_area_reaches(20) == 6
        assert p.first_time_area_reaches(0) == 0

    def test_first_time_area_with_start(self):
        p = ResourceProfile.constant(2)
        assert p.first_time_area_reaches(4, start=3) == 5

    def test_is_nondecreasing(self):
        assert ResourceProfile.from_segments([(0, 1), (2, 3)]).is_nondecreasing()
        assert not ResourceProfile.from_segments(
            [(0, 3), (2, 1)]
        ).is_nondecreasing()

    def test_truncated_after(self):
        p = ResourceProfile.from_segments([(0, 1), (2, 3), (5, 6)])
        t = p.truncated_after(3)
        assert t.capacity_at(1) == 1
        assert t.capacity_at(2.5) == 3
        assert t.capacity_at(100) == 3

    def test_truncated_at_zero(self):
        p = ResourceProfile.from_segments([(0, 1), (2, 3)])
        t = p.truncated_after(0)
        assert t == ResourceProfile.constant(1)

    def test_equality_and_hash(self):
        a = ResourceProfile.from_segments([(0, 2), (1, 3)])
        b = ResourceProfile.from_segments([(0, 2), (1, 3)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != ResourceProfile.constant(2)


# ---------------------------------------------------------------------------
# property tests against the naive reference
# ---------------------------------------------------------------------------

reservation_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),   # start
        st.integers(min_value=1, max_value=10),   # duration
        st.integers(min_value=1, max_value=3),    # amount
    ),
    max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(min_value=3, max_value=12), holds=reservation_lists)
def test_profile_matches_naive_capacity(m, holds):
    """reserve/capacity_at/min_capacity agree with the quadratic reference."""
    profile = ResourceProfile.constant(m)
    naive = NaiveCapacity(m)
    for start, dur, amount in holds:
        if profile.min_capacity(start, start + dur) >= amount:
            profile.reserve(start, dur, amount)
            naive.reserve(start, dur, amount)
    for t in range(0, 35):
        assert profile.capacity_at(t) == naive.capacity_at(t), f"t={t}"
    for a in range(0, 30, 3):
        for b in (a + 1, a + 5):
            assert profile.min_capacity(a, b) == naive.min_capacity(a, b)


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=10),
    holds=reservation_lists,
    q=st.integers(min_value=1, max_value=2),
    duration=st.integers(min_value=1, max_value=8),
    after=st.integers(min_value=0, max_value=15),
)
def test_earliest_fit_matches_naive(m, holds, q, duration, after):
    profile = ResourceProfile.constant(m)
    naive = NaiveCapacity(m)
    for start, dur, amount in holds:
        if profile.min_capacity(start, start + dur) >= amount:
            profile.reserve(start, dur, amount)
            naive.reserve(start, dur, amount)
    got = profile.earliest_fit(q, duration, after=after)
    want = naive.earliest_fit(q, duration, after=after)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=10),
    holds=reservation_lists,
    q=st.integers(min_value=1, max_value=3),
    duration=st.integers(min_value=1, max_value=8),
)
def test_earliest_fit_is_feasible_and_minimal(m, holds, q, duration):
    """The returned start fits, and no earlier integer-or-boundary start does."""
    profile = ResourceProfile.constant(m)
    for start, dur, amount in holds:
        if profile.min_capacity(start, start + dur) >= amount:
            profile.reserve(start, dur, amount)
    s = profile.earliest_fit(q, duration)
    if s is None:
        assert profile.final_capacity() < q
        return
    assert profile.min_capacity(s, s + duration) >= q
    # no breakpoint strictly before s admits the block
    for t in profile.breakpoints:
        if t < s:
            assert profile.min_capacity(t, t + duration) < q


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=1, max_value=8), holds=reservation_lists)
def test_area_additivity(m, holds):
    """area(0, b) == area(0, a) + area(a, b)."""
    profile = ResourceProfile.constant(m)
    for start, dur, amount in holds:
        if profile.min_capacity(start, start + dur) >= amount:
            profile.reserve(start, dur, amount)
    for a, b in [(0, 5), (3, 11), (7, 30)]:
        assert profile.area(0, b) == profile.area(0, a) + profile.area(a, b)


def test_fraction_times_supported():
    p = ResourceProfile.constant(3)
    p.reserve(Fraction(1, 3), Fraction(1, 6), 2)
    assert p.capacity_at(Fraction(1, 3)) == 1
    assert p.capacity_at(Fraction(1, 2)) == 3
    # a 3-wide block longer than 1/3 cannot end before the dip starts
    assert p.earliest_fit(3, Fraction(1, 2)) == Fraction(1, 2)
