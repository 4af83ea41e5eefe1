"""Tests for workload generators and SWF trace I/O."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReservationInstance
from repro.errors import InvalidInstanceError, TraceFormatError
from repro.workloads import (
    SAMPLE_SWF,
    FeitelsonModel,
    alpha_constrained_instance,
    feitelson_instance,
    loguniform_instance,
    nonincreasing_staircase,
    periodic_maintenance,
    random_alpha_reservations,
    read_swf,
    reservation_load,
    small_exact_instance,
    uniform_instance,
    with_poisson_releases,
    write_swf,
)


class TestSyntheticGenerators:
    def test_uniform_shape(self):
        inst = uniform_instance(25, 16, seed=1)
        assert inst.n == 25
        assert all(1 <= j.q <= 16 for j in inst.jobs)
        assert all(1 <= j.p <= 100 for j in inst.jobs)

    def test_uniform_deterministic(self):
        a = uniform_instance(10, 8, seed=42)
        b = uniform_instance(10, 8, seed=42)
        assert [(j.p, j.q) for j in a.jobs] == [(j.p, j.q) for j in b.jobs]

    def test_uniform_seed_matters(self):
        a = uniform_instance(10, 8, seed=1)
        b = uniform_instance(10, 8, seed=2)
        assert [(j.p, j.q) for j in a.jobs] != [(j.p, j.q) for j in b.jobs]

    def test_uniform_validation(self):
        with pytest.raises(InvalidInstanceError):
            uniform_instance(5, 4, q_range=(0, 2))
        with pytest.raises(InvalidInstanceError):
            uniform_instance(5, 4, q_range=(3, 8))
        with pytest.raises(InvalidInstanceError):
            uniform_instance(5, 4, p_range=(0, 2))

    def test_loguniform_tail(self):
        inst = loguniform_instance(200, 32, p_max=1000, seed=3)
        ps = sorted(j.p for j in inst.jobs)
        # heavy tail: the max should far exceed the median
        assert ps[-1] > 5 * ps[len(ps) // 2]

    def test_alpha_constrained_respects_cap(self):
        for alpha in (0.25, 0.5, 0.75):
            inst = alpha_constrained_instance(50, 16, alpha, seed=4)
            assert all(j.q <= alpha * 16 for j in inst.jobs)

    def test_alpha_too_small(self):
        with pytest.raises(InvalidInstanceError):
            alpha_constrained_instance(5, 4, 0.1)

    def test_poisson_releases_increasing(self):
        base = uniform_instance(20, 8, seed=5)
        timed = with_poisson_releases(base, rate=0.5, seed=6)
        rels = [j.release for j in timed.jobs]
        assert all(a < b for a, b in zip(rels, rels[1:]))
        assert all(r > 0 for r in rels)

    def test_small_exact_guard(self):
        with pytest.raises(InvalidInstanceError):
            small_exact_instance(9, 4)
        inst = small_exact_instance(5, 4, seed=7)
        assert inst.n == 5


class TestFeitelsonModel:
    def test_widths_within_machine(self):
        inst = feitelson_instance(300, 64, seed=1)
        assert all(1 <= j.q <= 64 for j in inst.jobs)

    def test_serial_fraction_roughly_respected(self):
        model = FeitelsonModel(64, serial_probability=0.3)
        inst = model.instance(500, seed=2)
        serial = sum(1 for j in inst.jobs if j.q == 1)
        assert 0.15 < serial / 500 < 0.55  # includes pow2-snap to 1

    def test_pow2_bias(self):
        inst = feitelson_instance(500, 64, seed=3)
        pow2 = sum(
            1 for j in inst.jobs if j.q & (j.q - 1) == 0
        )
        assert pow2 / 500 > 0.6

    def test_wide_jobs_run_longer_on_average(self):
        model = FeitelsonModel(64, correlation=1.0)
        inst = model.instance(800, seed=4)
        wide = [j.p for j in inst.jobs if j.q >= 32]
        narrow = [j.p for j in inst.jobs if j.q == 1]
        assert wide and narrow
        assert sum(wide) / len(wide) > sum(narrow) / len(narrow)

    def test_arrivals(self):
        inst = feitelson_instance(50, 16, seed=5, arrival_rate=1.0)
        rels = [j.release for j in inst.jobs]
        assert all(a < b for a, b in zip(rels, rels[1:]))

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            FeitelsonModel(0)
        with pytest.raises(InvalidInstanceError):
            FeitelsonModel(4, pow2_probability=2.0)
        with pytest.raises(InvalidInstanceError):
            FeitelsonModel(4, short_mean=0)


class TestReservationGenerators:
    def test_periodic(self):
        res = periodic_maintenance(16, 4, period=100, duration=10, count=5)
        assert len(res) == 5
        starts = [r.start for r in res]
        assert starts == [0, 100, 200, 300, 400]
        ReservationInstance(m=16, jobs=(), reservations=res)  # feasible

    def test_periodic_overlap_rejected(self):
        with pytest.raises(InvalidInstanceError):
            periodic_maintenance(16, 4, period=5, duration=10, count=3)

    def test_random_alpha_respects_budget(self):
        for alpha in (0.25, 0.5, 0.75):
            res = random_alpha_reservations(
                16, alpha, horizon=100, count=20, seed=8
            )
            inst = ReservationInstance(m=16, jobs=(), reservations=res)
            assert inst.max_unavailability <= (1 - alpha) * 16

    def test_random_alpha_budgetless(self):
        assert random_alpha_reservations(4, 1, horizon=10, count=5) == ()

    def test_staircase_is_nonincreasing(self):
        for seed in range(6):
            res = nonincreasing_staircase(16, 4, seed=seed)
            inst = ReservationInstance(m=16, jobs=(), reservations=res)
            assert inst.has_nonincreasing_reservations()
            assert inst.max_unavailability <= 0.75 * 16

    def test_staircase_empty(self):
        assert nonincreasing_staircase(16, 0) == ()

    def test_reservation_load(self):
        res = periodic_maintenance(10, 5, period=10, duration=10, count=1)
        assert reservation_load(res, 10, 10) == 0.5
        assert reservation_load(res, 10, 20) == 0.25
        with pytest.raises(InvalidInstanceError):
            reservation_load(res, 10, 0)


class TestSWF:
    def test_sample_parses(self):
        report = read_swf(SAMPLE_SWF)
        assert report.instance.m == 32
        assert report.instance.n == 8
        assert not report.skipped
        assert any("MaxProcs" in h for h in report.header)

    def test_release_normalised_to_zero(self):
        report = read_swf(SAMPLE_SWF)
        assert min(j.release for j in report.instance.jobs) == 0

    def test_offline_flattening(self):
        report = read_swf(SAMPLE_SWF, use_release=False)
        assert all(j.release == 0 for j in report.instance.jobs)

    def test_max_jobs(self):
        report = read_swf(SAMPLE_SWF, max_jobs=3)
        assert report.instance.n == 3

    def test_roundtrip(self):
        original = read_swf(SAMPLE_SWF).instance
        text = write_swf(original)
        again = read_swf(text).instance
        assert again.n == original.n
        assert again.m == original.m
        a = sorted((j.p, j.q, j.release) for j in original.jobs)
        b = sorted((j.p, j.q, j.release) for j in again.jobs)
        assert a == b

    def test_fallback_to_requested_fields(self):
        text = "; MaxProcs: 8\n1 0 0 -1 -1 -1 -1 4 25 -1 1 1 1 1 1 -1 -1 -1\n"
        report = read_swf(text)
        job = report.instance.jobs[0]
        assert job.p == 25 and job.q == 4

    def test_unusable_rows_skipped(self):
        text = (
            "; MaxProcs: 8\n"
            "1 0 0 -1 -1 -1 -1 -1 -1 -1 1 1 1 1 1 -1 -1 -1\n"
            "2 0 0 10 2 -1 -1 2 12 -1 1 1 1 1 1 -1 -1 -1\n"
        )
        report = read_swf(text)
        assert report.instance.n == 1
        assert report.skipped

    def test_width_clipped_to_machine(self):
        text = "1 0 0 10 64 -1 -1 64 12 -1 1 1 1 1 1 -1 -1 -1\n"
        report = read_swf(text, m=8)
        assert report.instance.jobs[0].q == 8
        assert report.skipped

    def test_empty_raises(self):
        with pytest.raises(TraceFormatError):
            read_swf("; just a comment\n")

    def test_malformed_number_skipped(self):
        text = (
            "x y z w v\n"
            "2 0 0 10 2 -1 -1 2 12 -1 1 1 1 1 1 -1 -1 -1\n"
        )
        report = read_swf(text)
        assert report.instance.n == 1

    def test_file_object_input(self):
        report = read_swf(io.StringIO(SAMPLE_SWF))
        assert report.instance.n == 8

    def test_write_to_target(self):
        inst = read_swf(SAMPLE_SWF).instance
        buf = io.StringIO()
        text = write_swf(inst, buf)
        assert buf.getvalue() == text


def _fmt_lines(jobs, m, note=""):
    """SWF text of ``jobs`` with every field through ``swf._fmt``: the
    reference for ``write_swf_jobs``'s one-step int-timed line."""
    from repro.workloads.swf import SWF_FIELDS, _fmt

    out = ["; Generated by repro (IPDPS'07 reservations reproduction)\n",
           f"; MaxProcs: {m}\n"]
    if note:
        out.append(f"; Note: {note}\n")
    for k, job in enumerate(jobs, start=1):
        fields = [-1] * SWF_FIELDS
        fields[0], fields[1], fields[2] = k, job.release, 0
        fields[3], fields[4] = job.p, job.q
        fields[7], fields[8] = job.q, job.p
        out.append(" ".join(_fmt(v) for v in fields) + "\n")
    return "".join(out)


class TestWriteSwfJobsLines:
    """``write_swf_jobs`` formats an int-timed job's line in one step;
    every other job goes field by field.  The text stays byte-identical
    to the field-by-field formatting of every job."""

    @pytest.mark.parametrize("profile", ["steady", "bursty", "heavy"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_synth_traces_match_field_formatting(self, profile, seed):
        from repro.workloads import synth_swf_jobs, write_swf_jobs

        jobs = list(synth_swf_jobs(profile, 300, m=64, seed=seed))
        assert all(type(j.p) is int and type(j.release) is int for j in jobs)
        buf = io.StringIO()
        assert write_swf_jobs(jobs, 64, buf, note="n") == len(jobs)
        assert buf.getvalue() == _fmt_lines(jobs, 64, note="n")
        base = jobs[0].release
        again = read_swf(buf.getvalue(), m=64).instance.jobs
        assert [(j.p, j.q, j.release) for j in again] == [
            (j.p, j.q, j.release - base) for j in jobs
        ]

    def test_float_fraction_and_mixed_jobs(self):
        from fractions import Fraction

        from repro.core import Job
        from repro.workloads import write_swf_jobs

        jobs = [
            Job(1, 10, 2, 0),
            Job(2, 2.5, 3, 1.0),            # float times
            Job(3, 7.0, 1, 4),              # integral float run time
            Job(4, 4, 2, 2.5),              # int run time, float release
            Job(5, Fraction(3, 2), 1, 6),   # exact times
            Job(6, 3, 4, Fraction(13, 2)),
            Job(7, 5, 8, 9),
        ]
        buf = io.StringIO()
        write_swf_jobs(jobs, 8, buf)
        text = buf.getvalue()
        assert text == _fmt_lines(jobs, 8)
        assert "3/2" in text and "2.5" in text
        # SWF has no fraction syntax: only the int and float rows come back
        report = read_swf(text, m=8)
        assert [(j.id, j.p, j.release) for j in report.instance.jobs] == [
            (1, 10, 0), (2, 2.5, 1), (3, 7, 4), (4, 4, 2.5), (7, 5, 9),
        ]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    m=st.sampled_from([2, 8, 32]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_generators_always_valid_instances(n, m, seed):
    """Every generator yields instances that pass model validation and can
    be scheduled."""
    from repro.algorithms import list_schedule

    for inst in (
        uniform_instance(n, m, seed=seed),
        loguniform_instance(n, m, seed=seed),
        feitelson_instance(n, m, seed=seed),
    ):
        s = list_schedule(inst)
        s.verify()
