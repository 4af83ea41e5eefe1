"""Unit tests for jobs and reservations (repro.core.job)."""

import pytest
from fractions import Fraction

from repro.core import Job, Reservation, make_jobs, make_reservations
from repro.errors import InvalidInstanceError


class TestJobValidation:
    def test_basic_construction(self):
        job = Job(id=1, p=3, q=2)
        assert job.p == 3
        assert job.q == 2
        assert job.release == 0

    def test_area(self):
        assert Job(id=1, p=3, q=2).area == 6

    def test_fractional_time(self):
        job = Job(id=1, p=Fraction(1, 6), q=25)
        assert job.area == Fraction(25, 6)

    def test_zero_processing_time_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=0, q=1)

    def test_negative_processing_time_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=-2, q=1)

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=1, q=0)

    def test_non_integer_width_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=1, q=1.5)

    def test_bool_width_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=1, q=True)

    def test_negative_release_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=1, q=1, release=-1)

    def test_non_numeric_time_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p="fast", q=1)

    def test_label_defaults_to_id(self):
        assert Job(id=7, p=1, q=1).label == "7"
        assert Job(id=7, p=1, q=1, name="demo").label == "demo"

    def test_with_release(self):
        job = Job(id=1, p=2, q=1)
        shifted = job.with_release(5)
        assert shifted.release == 5
        assert job.release == 0  # original untouched (frozen)

    def test_scaled(self):
        job = Job(id=1, p=Fraction(1, 6), q=3, release=Fraction(1, 2))
        scaled = job.scaled(6)
        assert scaled.p == 1
        assert scaled.release == 3
        assert scaled.q == 3

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(InvalidInstanceError):
            Job(id=1, p=1, q=1).scaled(0)

    def test_frozen(self):
        job = Job(id=1, p=1, q=1)
        with pytest.raises(AttributeError):
            job.p = 2


class TestReservationValidation:
    def test_basic(self):
        res = Reservation(id="R", start=2, p=3, q=4)
        assert res.end == 5
        assert res.area == 12

    def test_overlaps(self):
        res = Reservation(id="R", start=2, p=3, q=1)
        assert not res.overlaps(1)
        assert res.overlaps(2)
        assert res.overlaps(4)
        assert not res.overlaps(5)  # half-open interval

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Reservation(id="R", start=0, p=0, q=1)

    def test_negative_start_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Reservation(id="R", start=-1, p=1, q=1)

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Reservation(id="R", start=0, p=1, q=0)

    @pytest.mark.parametrize("q", [True, False, 1.5, 2.0, Fraction(2), "2"])
    def test_non_integer_width_rejected(self, q):
        with pytest.raises(
            InvalidInstanceError,
            match=r"reservation 'R': processor count must be an integer",
        ):
            Reservation(id="R", start=0, p=1, q=q)

    def test_integral_width_types_accepted(self):
        from enum import IntEnum

        class Width(IntEnum):
            TWO = 2

        assert Reservation(id="R", start=0, p=1, q=Width.TWO).q == 2
        np = pytest.importorskip("numpy")
        assert Reservation(id="R", start=0, p=1, q=np.int64(3)).q == 3

    @pytest.mark.parametrize("field", ["start", "p"])
    def test_non_numeric_time_rejected(self, field):
        kwargs = {"start": 0, "p": 1, field: "soon"}
        what = "start time" if field == "start" else "duration"
        with pytest.raises(
            InvalidInstanceError,
            match=f"reservation 'R': {what} must be a real number",
        ):
            Reservation(id="R", q=1, **kwargs)

    def test_scaled(self):
        res = Reservation(id="R", start=1, p=2, q=3).scaled(6)
        assert res.start == 6
        assert res.p == 12
        assert res.end == 18

    def test_label(self):
        assert Reservation(id=3, start=0, p=1, q=1).label == "R3"


class TestFactories:
    def test_make_jobs_two_fields(self):
        jobs = make_jobs([(3, 2), (1, 1)])
        assert [(j.p, j.q, j.release) for j in jobs] == [(3, 2, 0), (1, 1, 0)]
        assert [j.id for j in jobs] == [0, 1]

    def test_make_jobs_three_fields(self):
        jobs = make_jobs([(3, 2, 5)])
        assert jobs[0].release == 5

    def test_make_jobs_start_id(self):
        jobs = make_jobs([(1, 1)], start_id=10)
        assert jobs[0].id == 10

    def test_make_jobs_bad_arity(self):
        with pytest.raises(InvalidInstanceError):
            make_jobs([(1,)])

    def test_make_reservations(self):
        res = make_reservations([(2, 3, 4)])
        assert res[0].start == 2 and res[0].p == 3 and res[0].q == 4

    def test_make_reservations_bad_arity(self):
        with pytest.raises(InvalidInstanceError):
            make_reservations([(1, 2)])
