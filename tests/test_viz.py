"""Tests for Gantt / SVG rendering."""


import pytest

from repro.algorithms import list_schedule
from repro.core import ResourceProfile, RigidInstance, Schedule
from repro.errors import InvalidInstanceError
from repro.theory import proposition2_instance
from repro.viz import (
    render_gantt,
    render_profile,
    render_utilization,
    save_svg,
    schedule_to_svg,
)


class TestGantt:
    def test_contains_all_jobs_and_reservation(self, tiny_resa):
        s = list_schedule(tiny_resa)
        text = render_gantt(s)
        assert "Cmax" in text
        assert "/" in text          # reservation hatch
        assert "legend:" in text
        # one row per processor
        assert text.count("|") >= tiny_resa.m * 2

    def test_empty(self):
        inst = RigidInstance(m=2, jobs=())
        assert "empty" in render_gantt(Schedule(inst, {}))

    def test_blocks_painted_proportionally(self):
        inst = RigidInstance.from_specs(1, [(5, 1), (5, 1)])
        s = list_schedule(inst)
        text = render_gantt(s, width=40, legend=False)
        row = next(l for l in text.splitlines() if l.startswith("P"))
        # two jobs back to back fill the whole row
        body = row.split("|")[1]
        assert body.count("a") + body.count("b") == 40

    def test_large_machine_aggregated(self):
        fam = proposition2_instance(6)  # m = 180
        s = fam.optimal_schedule()
        text = render_gantt(s, max_rows=20)
        assert "aggregated" in text
        assert len(text.splitlines()) < 40

    def test_utilization_silhouette(self, tiny_resa):
        s = list_schedule(tiny_resa)
        text = render_utilization(s)
        assert "r(t)" in text
        assert "#" in text

    def test_horizon_limits_axis(self, tiny_resa):
        s = list_schedule(tiny_resa)
        text = render_gantt(s, horizon=100, legend=False)
        assert "100" in text


class TestSVG:
    def test_structure(self, tiny_resa):
        s = list_schedule(tiny_resa)
        svg = schedule_to_svg(s)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<rect") >= tiny_resa.n + 1  # jobs + frame
        assert "hatch" in svg  # reservation pattern
        assert "<title>" in svg

    def test_every_job_has_tooltips(self, tiny_rigid):
        s = list_schedule(tiny_rigid)
        svg = schedule_to_svg(s)
        for job in tiny_rigid.jobs:
            assert f"{job.label}:" in svg

    def test_escaping(self):
        inst = RigidInstance(
            m=1,
            jobs=(
                __import__("repro").core.Job(
                    id=0, p=1, q=1, name="<nasty&job>"
                ),
            ),
        )
        svg = schedule_to_svg(list_schedule(inst))
        assert "<nasty" not in svg
        assert "&lt;nasty&amp;job&gt;" in svg

    def test_save(self, tmp_path, tiny_resa):
        s = list_schedule(tiny_resa)
        path = save_svg(s, str(tmp_path / "out.svg"))
        content = open(path).read()
        assert content.startswith("<svg")

    def test_figure3_renders(self):
        """The Figure 3 pair renders without errors at m = 180."""
        fam = proposition2_instance(6)
        for sched in (fam.optimal_schedule(),):
            svg = schedule_to_svg(sched)
            assert svg.count("<rect") > 180


class TestProfileRenderer:
    def test_renders_staircase(self):
        profile = ResourceProfile.from_segments([(0, 2), (5, 5), (9, 8)])
        text = render_profile(profile, width=40)
        assert "#" in text
        assert "availability" in text

    def test_custom_title_and_horizon(self):
        profile = ResourceProfile.constant(4)
        text = render_profile(profile, width=30, horizon=10, title="flat")
        assert text.startswith("flat")

    def test_bad_horizon(self):
        with pytest.raises(InvalidInstanceError):
            render_profile(ResourceProfile.constant(1), horizon=0)
