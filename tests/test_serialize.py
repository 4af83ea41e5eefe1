"""Tests for JSON serialisation of instances and schedules."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import list_schedule
from repro.core import (
    Job,
    ReservationInstance,
    RigidInstance,
    dumps_instance,
    dumps_schedule,
    load_instance,
    load_schedule,
    loads_instance,
    loads_schedule,
    save_instance,
    save_schedule,
)
from repro.errors import TraceFormatError
from repro.theory import proposition2_instance

from conftest import random_resa


class TestInstanceRoundtrip:
    def test_basic(self, tiny_resa):
        text = dumps_instance(tiny_resa)
        again = loads_instance(text)
        assert again.m == tiny_resa.m
        assert again.n == tiny_resa.n
        assert again.n_reservations == 1
        assert [(j.id, j.p, j.q) for j in again.jobs] == [
            (j.id, j.p, j.q) for j in tiny_resa.jobs
        ]

    def test_rigid_instance_accepted(self, tiny_rigid):
        again = loads_instance(dumps_instance(tiny_rigid))
        assert again.n_reservations == 0
        assert again.n == tiny_rigid.n

    def test_fraction_times_roundtrip_exactly(self):
        inst = ReservationInstance(
            m=2,
            jobs=(Job(id=0, p=Fraction(1, 3), q=1),),
            reservations=(),
        )
        again = loads_instance(dumps_instance(inst))
        assert again.jobs[0].p == Fraction(1, 3)
        assert isinstance(again.jobs[0].p, Fraction)

    def test_adversarial_instance_roundtrips(self):
        inst = proposition2_instance(5).instance
        again = loads_instance(dumps_instance(inst))
        assert again.m == inst.m
        assert {j.id for j in again.jobs} == {j.id for j in inst.jobs}
        assert again.reservations[0].q == inst.reservations[0].q

    def test_file_roundtrip(self, tmp_path, tiny_resa):
        path = save_instance(tiny_resa, str(tmp_path / "inst.json"))
        again = load_instance(path)
        assert again.n == tiny_resa.n

    def test_releases_preserved(self):
        inst = RigidInstance.from_specs(2, [(1, 1, 7)])
        again = loads_instance(dumps_instance(inst))
        assert again.jobs[0].release == 7

    def test_name_preserved(self, tiny_resa):
        again = loads_instance(dumps_instance(tiny_resa))
        assert again.name == tiny_resa.name


class TestInstanceValidationOnLoad:
    def test_bad_json(self):
        with pytest.raises(TraceFormatError):
            loads_instance("{not json")

    def test_wrong_format_marker(self):
        with pytest.raises(TraceFormatError):
            loads_instance(json.dumps({"format": "other/9", "m": 1, "jobs": []}))

    def test_missing_fields(self):
        with pytest.raises(TraceFormatError):
            loads_instance(
                json.dumps({"format": "repro-instance/1", "jobs": [{}]})
            )

    def test_model_violations_still_caught(self):
        doc = {
            "format": "repro-instance/1",
            "m": 2,
            "jobs": [{"id": 0, "p": 1, "q": 5, "release": 0}],
            "reservations": [],
        }
        with pytest.raises(Exception):
            loads_instance(json.dumps(doc))

    def test_malformed_fraction(self):
        doc = {
            "format": "repro-instance/1",
            "m": 2,
            "jobs": [{"id": 0, "p": {"num": 1}, "q": 1}],
            "reservations": [],
        }
        with pytest.raises(TraceFormatError):
            loads_instance(json.dumps(doc))

    def test_not_an_object(self):
        with pytest.raises(TraceFormatError):
            loads_instance("[1, 2, 3]")


class TestScheduleRoundtrip:
    def test_basic(self, tiny_resa):
        schedule = list_schedule(tiny_resa)
        again = loads_schedule(dumps_schedule(schedule))
        assert again.starts == schedule.starts
        assert again.makespan == schedule.makespan
        assert again.algorithm == schedule.algorithm
        again.verify()

    def test_file_roundtrip(self, tmp_path, tiny_resa):
        schedule = list_schedule(tiny_resa)
        path = save_schedule(schedule, str(tmp_path / "sched.json"))
        again = load_schedule(path)
        assert again.starts == schedule.starts

    def test_tampered_makespan_rejected(self, tiny_resa):
        schedule = list_schedule(tiny_resa)
        doc = json.loads(dumps_schedule(schedule))
        doc["makespan"] = 999
        with pytest.raises(TraceFormatError):
            loads_schedule(json.dumps(doc))

    def test_wrong_format(self):
        with pytest.raises(TraceFormatError):
            loads_schedule(json.dumps({"format": "nope"}))

    def test_self_contained(self, tiny_resa):
        """A schedule document embeds its instance completely."""
        schedule = list_schedule(tiny_resa)
        doc = json.loads(dumps_schedule(schedule))
        assert doc["instance"]["m"] == tiny_resa.m
        assert len(doc["instance"]["jobs"]) == tiny_resa.n


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_roundtrip_property(seed):
    """Any schedulable instance and its LSRC schedule survive the trip."""
    inst = random_resa(seed)
    text = dumps_instance(inst)
    again = loads_instance(text)
    assert again.m == inst.m
    assert sorted(str(j.id) for j in again.jobs) == sorted(
        str(j.id) for j in inst.jobs
    )
    schedule = list_schedule(again)
    round2 = loads_schedule(dumps_schedule(schedule))
    round2.verify()
    assert round2.makespan == schedule.makespan


# ---------------------------------------------------------------------------
# the finite-only rule: no NaN, no infinity, no overflowing number
# ---------------------------------------------------------------------------

_NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]
_TIME_FIELDS = [("job", "p"), ("job", "release"),
                ("reservation", "start"), ("reservation", "p")]


def _instance_text(owner, field, literal):
    """A one-job, one-reservation instance document whose ``field`` of
    its ``owner`` is the raw JSON ``literal``."""
    job = {"id": "j", "p": 2, "q": 1, "release": 0}
    res = {"id": "r", "start": 4, "p": 3, "q": 1}
    (job if owner == "job" else res)[field] = "@"
    text = json.dumps({"format": "repro-instance/1", "m": 2,
                       "jobs": [job], "reservations": [res]})
    return text.replace('"@"', literal)


class TestNonFiniteNumbersRefused:
    @pytest.mark.parametrize("literal", _NON_FINITE)
    @pytest.mark.parametrize("owner, field", _TIME_FIELDS)
    def test_instance_time_fields(self, owner, field, literal):
        text = _instance_text(owner, field, literal)
        name = "j" if owner == "job" else "r"
        with pytest.raises(TraceFormatError, match=(
            f"{owner} '{name}' field '{field}' must be finite"
        )):
            loads_instance(text)

    @pytest.mark.parametrize("literal", _NON_FINITE)
    def test_instance_widths_and_machine_count(self, literal):
        for field in ("q", "m"):
            data = json.loads(_instance_text("job", "p", "2"))
            if field == "q":
                data["jobs"][0]["q"] = "@"
            else:
                data["m"] = "@"
            text = json.dumps(data).replace('"@"', literal)
            with pytest.raises(TraceFormatError,
                               match=f"field '{field}' must be finite"):
                loads_instance(text)

    @pytest.mark.parametrize("literal", _NON_FINITE)
    def test_schedule_start_and_makespan(self, literal, tiny_resa):
        data = json.loads(dumps_schedule(list_schedule(tiny_resa)))
        for key in ("start", "makespan"):
            doc = json.loads(json.dumps(data))
            if key == "start":
                doc["starts"][0]["start"] = "@"
            else:
                doc["makespan"] = "@"
            text = json.dumps(doc).replace('"@"', literal)
            with pytest.raises(TraceFormatError, match="must be finite"):
                loads_schedule(text)

    @pytest.mark.parametrize("literal", _NON_FINITE)
    def test_spec_parameter(self, literal):
        from repro.core.serialize import loads_spec

        text = json.dumps({
            "format": "repro-spec/1", "algorithms": ["lsrc"],
            "workloads": [{"name": "uniform", "params": {"n": "@"}}],
        }).replace('"@"', literal)
        with pytest.raises(TraceFormatError,
                           match="parameter 'n' must be finite"):
            loads_spec(text)

    @pytest.mark.parametrize("literal", _NON_FINITE)
    def test_spec_seeds_and_repeats(self, literal):
        from repro.core.serialize import loads_spec

        for field, value in (("seeds", ["@"]), ("repeats", "@")):
            text = json.dumps({
                "format": "repro-spec/1", "algorithms": ["lsrc"],
                "workloads": ["uniform"], field: value,
            }).replace('"@"', literal)
            with pytest.raises(TraceFormatError,
                               match=f"field '{field}' must be finite"):
                loads_spec(text)

    def test_cli_prints_an_error_line(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "nan.json"
        path.write_text(_instance_text("job", "p", "NaN"))
        assert main(["schedule", str(path), "-a", "lsrc"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "job 'j' field 'p' must be finite, got nan" in err
        assert "Traceback" not in err
