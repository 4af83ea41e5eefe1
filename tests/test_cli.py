"""Tests for the command-line interface (direct main() calls)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core import load_instance, load_schedule
from repro.workloads import SAMPLE_SWF


@pytest.fixture
def instance_file(tmp_path):
    path = str(tmp_path / "inst.json")
    code = main(
        ["generate", "-n", "6", "-m", "8", "--alpha", "1/2",
         "--seed", "3", "-o", path]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_instance(self, instance_file):
        inst = load_instance(instance_file)
        assert inst.m == 8
        assert inst.n == 6
        inst.validate_alpha(0.5)

    def test_stdout_mode(self, capsys):
        assert main(["generate", "-n", "3", "-m", "4"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["m"] == 4

    def test_feitelson_model(self, tmp_path):
        path = str(tmp_path / "f.json")
        assert main(
            ["generate", "--model", "feitelson", "-n", "5", "-m", "16",
             "-o", path]
        ) == 0
        assert load_instance(path).n == 5


class TestSchedule:
    def test_schedule_roundtrip(self, instance_file, tmp_path, capsys):
        out_path = str(tmp_path / "sched.json")
        code = main(
            ["schedule", instance_file, "-a", "lsrc-lpt", "-o", out_path]
        )
        assert code == 0
        schedule = load_schedule(out_path)
        schedule.verify()
        assert "Cmax" in capsys.readouterr().out

    def test_unknown_algorithm(self, instance_file, capsys):
        code = main(["schedule", instance_file, "-a", "psychic"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["schedule", "/nonexistent.json"]) == 1


class TestOptimal:
    def test_optimal(self, instance_file, capsys):
        assert main(["optimal", instance_file]) == 0
        out = capsys.readouterr().out
        assert "proven=True" in out


class TestBounds:
    def test_bounds_table(self, capsys):
        assert main(["bounds", "1/2", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "13/4" in out  # B1 at alpha = 1/2
        assert "upper" in out


class TestFigures:
    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    def test_each_figure_renders(self, number, capsys):
        assert main(["figure", str(number), "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_unknown_figure(self, capsys):
        assert main(["figure", "9"]) == 2

    def test_empirical_rejected_outside_figure_4(self, capsys):
        assert main(["figure", "2", "--empirical"]) == 2
        assert "figure 4 only" in capsys.readouterr().err


class TestGanttAndSimulate:
    def test_gantt(self, instance_file, tmp_path, capsys):
        sched_path = str(tmp_path / "s.json")
        main(["schedule", instance_file, "-o", sched_path])
        capsys.readouterr()
        svg_path = str(tmp_path / "s.svg")
        assert main(["gantt", sched_path, "--svg", svg_path]) == 0
        out = capsys.readouterr().out
        assert "Gantt" in out
        assert open(svg_path).read().startswith("<svg")

    @pytest.mark.parametrize("policy", ["fcfs", "easy", "conservative", "greedy"])
    def test_simulate(self, instance_file, policy, capsys):
        assert main(["simulate", instance_file, "-p", policy]) == 0
        assert "Cmax" in capsys.readouterr().out

    def test_simulate_unknown_policy_is_loud(self, instance_file, capsys):
        # no argparse choices: the policy registry owns the name check, so
        # runtime-registered policies stay addressable
        assert main(["simulate", instance_file, "-p", "psychic"]) == 1
        assert "known policies" in capsys.readouterr().err


class TestSWFAndInfo:
    def test_swf_conversion(self, tmp_path, capsys):
        trace = tmp_path / "t.swf"
        trace.write_text(SAMPLE_SWF)
        out_path = str(tmp_path / "converted.json")
        assert main(["swf", str(trace), "-o", out_path]) == 0
        inst = load_instance(out_path)
        assert inst.n == 8

    def test_info(self, instance_file, capsys):
        assert main(["info", instance_file]) == 0
        out = capsys.readouterr().out
        assert "alpha window" in out
        assert "lower bound" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lsrc" in out and "fcfs" in out


class TestRunAndList:
    @pytest.fixture
    def spec_file(self, tmp_path):
        from repro.run import ExperimentSpec, WorkloadSpec, save_spec

        spec = ExperimentSpec(
            name="cli-smoke",
            algorithms=("lsrc", "online:easy"),
            workloads=(
                WorkloadSpec("alpha-uniform", params={"n": 5, "m": 8},
                             grid={"alpha": [0.5]}),
            ),
            seeds=(0, 1),
            metrics=("makespan", "ratio_lb"),
        )
        path = str(tmp_path / "spec.json")
        save_spec(spec, path)
        return path

    def test_run_and_resume(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        assert main(["run", spec_file, "-o", store, "-q"]) == 0
        out = capsys.readouterr().out
        assert "4 rows (4 computed, 0 resumed)" in out
        assert "cli-smoke" in out
        # second invocation resumes every point
        assert main(["run", spec_file, "-o", store, "-q"]) == 0
        assert "(0 computed, 4 resumed)" in capsys.readouterr().out
        assert len(open(store).read().splitlines()) == 4

    def test_run_fresh_recomputes(self, spec_file, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        main(["run", spec_file, "-o", store, "-q"])
        capsys.readouterr()
        assert main(["run", spec_file, "-o", store, "-q", "--fresh"]) == 0
        assert "(4 computed, 0 resumed)" in capsys.readouterr().out

    def test_run_default_store_next_to_spec(self, spec_file, capsys):
        assert main(["run", spec_file, "-q"]) == 0
        assert spec_file.replace(".json", ".results.jsonl") in \
            capsys.readouterr().out

    def test_run_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"format\": \"nope\"}")
        assert main(["run", str(bad)]) == 1
        assert "unsupported spec format" in capsys.readouterr().err

    def test_run_refuses_profile_backends_factor(self, tmp_path, capsys):
        spec = tmp_path / "old.json"
        spec.write_text(json.dumps({
            "format": "repro-spec/1", "algorithms": ["lsrc"],
            "workloads": ["uniform"], "profile_backends": ["list", "array"],
        }))
        assert main(["run", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'profile_backends' is gone" in err

    @pytest.mark.parametrize("kind,expected", [
        ("algorithms", "lsrc"),
        ("workloads", "alpha-uniform"),
        ("policies", "conservative"),
        ("metrics", "ratio_lb"),
    ])
    def test_list_kinds(self, kind, expected, capsys):
        assert main(["list", "--kind", kind]) == 0
        assert expected in capsys.readouterr().out.split()

    def test_list_all_sections(self, capsys):
        assert main(["list", "--kind", "all"]) == 0
        out = capsys.readouterr().out
        for section in ("algorithms:", "workloads:", "policies:",
                        "metrics:"):
            assert section in out
        assert "backends:" not in out


class TestReplayJournalValidation:
    """Journal-dependent replay flags are usage errors without --journal."""

    def test_resume_requires_journal(self, capsys):
        assert main(["replay", "synth:steady:10", "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_snapshot_interval_requires_journal(self, capsys):
        code = main(
            ["replay", "synth:steady:10", "-m", "8", "--snapshot-interval", "5"]
        )
        assert code == 2
        assert "--snapshot-interval requires --journal" in \
            capsys.readouterr().err


class TestServeValidation:
    """`repro serve` usage errors exit 2 before touching the journal."""

    def test_fresh_serve_requires_machines(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "j")]) == 2
        assert "requires -m/--machines" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["-m", "8"],
        ["-p", "fcfs"],
        ["--window", "10"],
        ["--snapshot-interval", "5"],
        ["-m", "8", "--window", "10"],
    ], ids=lambda f: f[0])
    def test_resume_rejects_config_flags(self, tmp_path, flags, capsys):
        assert main(["serve", str(tmp_path / "j"), "--resume", *flags]) == 2
        err = capsys.readouterr().err
        assert "--resume takes its configuration from the journal" in err
        assert flags[0].lstrip("-").split()[0] in err.replace("/", " ")


class TestLeanImports:
    """Each subcommand imports only what it uses, so ``import repro.cli``
    (the cost every ``repro`` process pays, ``repro serve`` included)
    stays free of scipy and of the analysis, algorithm and experiment
    layers.  Fresh interpreters: this process has imported them all."""

    SRC_ROOT = Path(repro.__file__).resolve().parents[1]

    def _python(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(self.SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def _loaded(self, module, candidates):
        probe = (
            f"import json, sys, {module}; "
            f"print(json.dumps([m for m in {candidates!r} "
            f"if m in sys.modules]))"
        )
        return json.loads(self._python("-c", probe))

    def test_cli_import_skips_heavy_layers(self):
        heavy = ["scipy", "repro.analysis", "repro.algorithms", "repro.run"]
        assert self._loaded("repro.cli", heavy) == []

    def test_algorithms_import_skips_simulation(self):
        # offline EASY imports the scheduler core lazily: an offline run
        # (and its timed set-up) loads no simulation module
        assert self._loaded("repro.algorithms", ["repro.simulation"]) == []

    def test_serve_daemon_import_skips_scipy(self):
        assert self._loaded("repro.serve.daemon",
                            ["scipy", "repro.analysis"]) == []

    def test_entry_points_import_without_numpy(self):
        # the array kernel is stdlib-only: no process pays numpy's
        # import time and memory for it
        modules = ("repro, repro.cli, repro.simulation.replay, "
                   "repro.serve.daemon, repro.algorithms")
        assert self._loaded(modules, ["numpy"]) == []

    def test_version_and_algorithm_list_still_work(self):
        assert self._python("-m", "repro", "--version").strip() == (
            repro.__version__
        )
        names = self._python("-m", "repro", "list", "--kind",
                             "algorithms").split()
        assert "lsrc" in names


class TestBenchResultPath:
    """``repro bench --quick`` never writes the tracked ``BENCH_*.json``
    baselines: a quick run's entry goes to ``--out`` or the temp
    directory, and a full run's to the checked-in trajectory."""

    @pytest.fixture
    def suite(self, monkeypatch):
        import importlib.util

        from repro.cli import _find_bench_suite

        spec = importlib.util.spec_from_file_location(
            "repro_bench_suite", _find_bench_suite()
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves string annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    def test_path_choice(self, suite, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        for tracked in (suite.CORE_THROUGHPUT_JSON,
                        suite.REPLAY_THROUGHPUT_JSON,
                        suite.PROFILE_BENCH_JSON):
            assert suite.result_path(tracked, True, None) == (
                tmp_path / "tmp" / tracked.name
            )
            assert suite.result_path(tracked, False, None) == tracked
            for quick in (True, False):
                assert suite.result_path(tracked, quick, tmp_path) == (
                    tmp_path / tracked.name
                )

    def test_quick_entry_leaves_the_baseline_alone(
        self, suite, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        # a stand-in for the checked-in file, so a failure dirties nothing
        tracked = tmp_path / "checkout" / "BENCH_core_throughput.json"
        entry = {"quick": True, "scenarios": {}}
        suite._append_history(entry, True, None, tracked)
        assert not tracked.exists()
        written = json.loads((tmp_path / "tmp" / tracked.name).read_text())
        assert written["history"] == [entry]

    def test_quick_profile_backends_run_leaves_the_baseline_alone(
        self, suite, tmp_path
    ):
        """Run directly (not through ``repro bench``), the profile
        harness resolves its default report path as the suite does: a
        quick run writes the temp directory."""
        baseline = suite.PROFILE_BENCH_JSON.read_bytes()
        env = dict(os.environ, TMPDIR=str(tmp_path))
        subprocess.run(
            [sys.executable, str(suite.BENCH_DIR / "bench_profile_backends.py"),
             "--quick", "--jobs", "30", "--reservations", "4"],
            env=env, check=True, capture_output=True,
        )
        assert suite.PROFILE_BENCH_JSON.read_bytes() == baseline
        report = json.loads(
            (tmp_path / suite.PROFILE_BENCH_JSON.name).read_text()
        )
        assert report["config"]["quick"] is True
