"""Tests for the experiment layer: registries, specs, runner, store."""

import json
import warnings
from fractions import Fraction

import pytest

from repro.core import (
    METRICS,
    Registry,
    RegistryCollisionWarning,
    evaluate_metrics,
    summarize,
)
from repro.core.serialize import load_spec, save_spec
from repro.errors import (
    InvalidInstanceError,
    SchedulingError,
    TraceFormatError,
)
from repro.run import (
    ExperimentSpec,
    JsonlStore,
    Runner,
    WorkloadSpec,
    dumps_spec,
    expand_points,
    loads_spec,
    mean_metric_series,
    paper_grid_spec,
    run_experiment,
    summary_rows,
)
from repro.simulation import POLICIES, available_policies, get_policy
from repro.workloads import available_workloads, make_workload, register_workload


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        algorithms=("lsrc", "online:fcfs"),
        workloads=(
            WorkloadSpec(
                "alpha-uniform",
                params={"n": 6, "m": 8},
                grid={"alpha": [Fraction(1, 4), Fraction(1, 2)]},
            ),
        ),
        seeds=(0, 1),
        metrics=("makespan", "ratio_lb"),
        profile_backends=("list",),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestGenericRegistry:
    def test_register_get_and_mapping_protocol(self):
        reg = Registry("gadget")
        reg.register("a", 1, overwrite=True)
        reg.register("b", 2, overwrite=True)
        assert reg.get("a") == 1 and reg["b"] == 2
        assert "a" in reg and "zz" not in reg
        assert list(reg) == ["a", "b"] and len(reg) == 2
        assert reg.items() == [("a", 1), ("b", 2)]

    def test_decorator_registration(self):
        reg = Registry("fn")

        @reg.register("f")
        def f():
            return 42

        assert reg.get("f") is f

    def test_unknown_name_lists_known(self):
        reg = Registry("gadget", error=SchedulingError)
        reg.register("known", 1, overwrite=True)
        with pytest.raises(SchedulingError, match="known gadgets: known"):
            reg.get("mystery")

    def test_implicit_collision_warns_but_overwrites(self):
        reg = Registry("gadget")
        reg.register("x", 1)
        with pytest.warns(RegistryCollisionWarning):
            reg.register("x", 2)
        assert reg.get("x") == 2

    def test_explicit_overwrite_is_silent(self):
        reg = Registry("gadget")
        reg.register("x", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reg.register("x", 2, overwrite=True)
        assert reg.get("x") == 2

    def test_overwrite_false_raises(self):
        reg = Registry("gadget", error=SchedulingError)
        reg.register("x", 1)
        with pytest.raises(SchedulingError, match="already registered"):
            reg.register("x", 2, overwrite=False)

    def test_reregistering_same_object_is_silent(self):
        reg = Registry("gadget")
        obj = object()
        reg.register("x", obj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reg.register("x", obj)  # idempotent module reload


class TestWorkloadRegistry:
    def test_builtins_present(self):
        names = available_workloads()
        for expected in ("uniform", "alpha-uniform", "feitelson", "staircase"):
            assert expected in names

    def test_make_workload_deterministic_in_seed(self):
        a = make_workload("alpha-uniform", n=6, m=8, alpha=0.5, seed=3)
        b = make_workload("alpha-uniform", n=6, m=8, alpha=0.5, seed=3)
        c = make_workload("alpha-uniform", n=6, m=8, alpha=0.5, seed=4)
        assert a.jobs == b.jobs and a.reservations == b.reservations
        assert a.jobs != c.jobs or a.reservations != c.reservations

    def test_unknown_workload(self):
        with pytest.raises(InvalidInstanceError, match="unknown workload"):
            make_workload("psychic")

    def test_bad_params_are_loud(self):
        with pytest.raises(InvalidInstanceError, match="rejected parameters"):
            make_workload("uniform", nonsense=True)

    def test_third_party_registration(self):
        register_workload(
            "test-constant",
            lambda seed=0, **_: make_workload("uniform", n=2, m=2, seed=seed),
            overwrite=True,
        )
        assert make_workload("test-constant", seed=1).n == 2


class TestPolicyRegistry:
    def test_policies_registered(self):
        assert available_policies() == ["conservative", "easy", "fcfs", "greedy"]

    def test_mapping_compatibility(self):
        # POLICIES replaced a plain dict; the old idioms must keep working
        assert "greedy" in POLICIES
        assert sorted(POLICIES) == available_policies()
        assert POLICIES["fcfs"] is get_policy("fcfs")

    def test_unknown_policy_message(self):
        with pytest.raises(SchedulingError, match="known policies"):
            get_policy("psychic")


class TestMetricRegistry:
    def test_every_summary_field_is_addressable(self, tiny_rigid=None):
        from repro.algorithms import list_schedule

        inst = make_workload("uniform", n=5, m=4, seed=0)
        schedule = list_schedule(inst)
        metrics = summarize(schedule).as_dict()
        values = evaluate_metrics(schedule, metrics.keys())
        assert values == metrics

    def test_ratio_lb(self):
        from repro.algorithms import list_schedule

        inst = make_workload("uniform", n=5, m=4, seed=0)
        schedule = list_schedule(inst)
        ratio = evaluate_metrics(schedule, ["ratio_lb"])["ratio_lb"]
        assert ratio >= 1.0 - 1e-9

    def test_unknown_metric(self):
        with pytest.raises(InvalidInstanceError, match="unknown metric"):
            METRICS.get("vibes")

    def test_override_of_builtin_is_honoured(self):
        from repro.algorithms import list_schedule
        from repro.core import register_metric
        from repro.core.metrics import _BUILTIN_EXTRACTORS

        inst = make_workload("uniform", n=4, m=4, seed=0)
        schedule = list_schedule(inst)
        original = METRICS.get("makespan")
        try:
            register_metric("makespan", lambda s: -1.0, overwrite=True)
            assert evaluate_metrics(schedule, ["makespan"]) == {"makespan": -1.0}
        finally:
            register_metric("makespan", original, overwrite=True)
        assert original is _BUILTIN_EXTRACTORS["makespan"]
        assert evaluate_metrics(schedule, ["makespan"])["makespan"] == \
            schedule.makespan


class TestExperimentSpec:
    def test_json_round_trip_exact(self):
        spec = tiny_spec()
        restored = loads_spec(dumps_spec(spec))
        assert restored == spec
        # Fractions must survive exactly, not as floats
        assert restored.workloads[0].grid["alpha"][0] == Fraction(1, 4)
        assert isinstance(restored.workloads[0].grid["alpha"][0], Fraction)

    def test_file_round_trip_via_core_serialize(self, tmp_path):
        path = str(tmp_path / "spec.json")
        spec = tiny_spec()
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_repeats_shorthand(self):
        spec = loads_spec(json.dumps({
            "format": "repro-spec/1",
            "name": "r",
            "algorithms": ["lsrc"],
            "workloads": ["uniform"],
            "repeats": 3,
        }))
        assert spec.seeds == (0, 1, 2)
        # bare string workloads are also accepted
        assert spec.workloads[0] == WorkloadSpec("uniform")

    def test_unknown_fields_rejected(self):
        # a typo ("seed" for "seeds") must not silently shrink the grid
        with pytest.raises(TraceFormatError, match="unknown spec field"):
            loads_spec(json.dumps({
                "format": "repro-spec/1", "algorithms": ["lsrc"],
                "workloads": ["uniform"], "seed": [0, 1, 2],
            }))
        with pytest.raises(TraceFormatError, match="unknown workload field"):
            loads_spec(json.dumps({
                "format": "repro-spec/1", "algorithms": ["lsrc"],
                "workloads": [{"name": "uniform", "parms": {"n": 3}}],
            }))

    def test_bad_documents(self):
        with pytest.raises(TraceFormatError, match="unsupported spec format"):
            loads_spec(json.dumps({"format": "nope"}))
        with pytest.raises(TraceFormatError, match="not both"):
            loads_spec(json.dumps({
                "format": "repro-spec/1", "algorithms": ["lsrc"],
                "workloads": ["uniform"], "seeds": [0], "repeats": 2,
            }))
        with pytest.raises(InvalidInstanceError, match="at least one"):
            ExperimentSpec(name="x", algorithms=(), workloads=("uniform",))

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(SchedulingError, match="unknown scheduler"):
            tiny_spec(algorithms=("psychic",)).validate()
        with pytest.raises(SchedulingError, match="unknown policy"):
            tiny_spec(algorithms=("online:psychic",)).validate()
        with pytest.raises(InvalidInstanceError, match="unknown workload"):
            tiny_spec(workloads=(WorkloadSpec("psychic"),)).validate()
        with pytest.raises(InvalidInstanceError, match="unknown metric"):
            tiny_spec(metrics=("vibes",)).validate()
        with pytest.raises(InvalidInstanceError, match="unknown profile backend"):
            tiny_spec(profile_backends=("abacus",)).validate()

    def test_param_grid_overlap_rejected(self):
        with pytest.raises(InvalidInstanceError, match="both params and grid"):
            WorkloadSpec("uniform", params={"n": 3}, grid={"n": [1, 2]})

    def test_duplicate_factor_values_rejected(self):
        # typo'd duplicates would silently shrink (or double) the grid
        with pytest.raises(InvalidInstanceError, match="repeats a value"):
            tiny_spec(seeds=(0, 0))
        with pytest.raises(InvalidInstanceError, match="repeats a value"):
            tiny_spec(algorithms=("lsrc", "lsrc"))
        with pytest.raises(InvalidInstanceError, match="repeats a value"):
            WorkloadSpec("uniform", grid={"alpha": [0.5, 0.5]})

    def test_n_points(self):
        assert tiny_spec().n_points == 2 * 2 * 2  # algos x alphas x seeds


class TestPointExpansion:
    def test_deterministic_order_and_keys(self):
        spec = tiny_spec()
        a = list(expand_points(spec))
        b = list(expand_points(spec))
        assert [p.key for p in a] == [p.key for p in b]
        assert len({p.key for p in a}) == len(a) == spec.n_points
        assert [p.index for p in a] == list(range(len(a)))

    def test_key_ignores_param_declaration_order(self):
        from repro.run.runner import ExperimentPoint

        p1 = ExperimentPoint(0, "uniform", {"n": 3, "m": 4}, "lsrc",
                             "list", 0, ("makespan",))
        p2 = ExperimentPoint(7, "uniform", {"m": 4, "n": 3}, "lsrc",
                             "list", 0, ("makespan",))
        assert p1.key == p2.key
        assert p1.derived_seed == p2.derived_seed

    def test_derived_seed_differs_across_points(self):
        spec = tiny_spec()
        seeds = {(p.workload, tuple(sorted(p.params.items())), p.seed):
                 p.derived_seed for p in expand_points(spec)}
        assert len(set(seeds.values())) == len(seeds)


class TestRunner:
    def test_serial_and_parallel_rows_identical(self, tmp_path):
        spec = tiny_spec()
        serial = str(tmp_path / "serial.jsonl")
        parallel = str(tmp_path / "parallel.jsonl")
        r1 = Runner(jobs=1, store=serial).run(spec)
        r2 = Runner(jobs=2, store=parallel).run(spec)
        assert r1.rows == r2.rows
        # byte-identical files, not just equal dicts
        assert open(serial).read() == open(parallel).read()
        assert r1.computed == r2.computed == spec.n_points

    def test_resume_skips_completed_points(self, tmp_path):
        spec = tiny_spec()
        store = str(tmp_path / "rows.jsonl")
        first = Runner(jobs=1, store=store).run(spec)
        assert (first.computed, first.skipped) == (spec.n_points, 0)
        second = Runner(jobs=1, store=store).run(spec)
        assert (second.computed, second.skipped) == (0, spec.n_points)
        assert second.rows == first.rows

    def test_partial_resume_recomputes_only_missing(self, tmp_path):
        spec = tiny_spec()
        store = str(tmp_path / "rows.jsonl")
        full = Runner(jobs=1, store=store).run(spec)
        lines = open(store).read().splitlines()
        with open(store, "w") as fh:
            fh.write("\n".join(lines[:3]) + "\n")
        resumed = Runner(jobs=1, store=store).run(spec)
        assert resumed.computed == spec.n_points - 3
        assert resumed.skipped == 3
        assert resumed.rows == full.rows

    def test_grown_spec_resumes_old_points(self, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        small = tiny_spec(seeds=(0,))
        Runner(jobs=1, store=store).run(small)
        grown = tiny_spec(seeds=(0, 1, 2))
        result = Runner(jobs=1, store=store).run(grown)
        assert result.skipped == small.n_points
        assert result.computed == grown.n_points - small.n_points

    def test_runs_without_store(self):
        result = run_experiment(tiny_spec(seeds=(0,)))
        assert len(result.rows) == 4
        assert result.store_path is None

    def test_online_and_offline_agree_on_offline_instances(self):
        # the online greedy policy reproduces offline LSRC on release-0
        # instances — through the experiment layer this time
        spec = tiny_spec(algorithms=("lsrc", "online:greedy"), seeds=(0,))
        result = run_experiment(spec)
        lsrc = result.filtered(algorithm="lsrc")
        online = result.filtered(algorithm="online:greedy")
        assert [r["makespan"] for r in lsrc] == [r["makespan"] for r in online]

    def test_filtered_reaches_into_params_and_decodes(self):
        result = run_experiment(tiny_spec(seeds=(0,)))
        quarter = result.filtered(alpha=Fraction(1, 4))
        assert len(quarter) == 2  # two algorithms at alpha=1/4
        # Fractions equal their float value, so floats match too
        assert result.filtered(alpha=0.25) == quarter

    def test_added_metric_triggers_recompute(self, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        small = tiny_spec(metrics=("makespan",))
        Runner(jobs=1, store=store).run(small)
        grown = tiny_spec(metrics=("makespan", "ratio_lb"))
        result = Runner(jobs=1, store=store).run(grown)
        # stored rows lack ratio_lb, so nothing counts as resumed
        assert (result.computed, result.skipped) == (grown.n_points, 0)
        assert all("ratio_lb" in row for row in result.rows)
        # and a further re-run of the grown spec resumes everything
        again = Runner(jobs=1, store=store).run(grown)
        assert (again.computed, again.skipped) == (0, grown.n_points)

    def test_resume_false_truncates_store(self, tmp_path):
        spec = tiny_spec()
        store = str(tmp_path / "rows.jsonl")
        Runner(jobs=1, store=store).run(spec)
        result = Runner(jobs=1, store=store).run(spec, resume=False)
        assert (result.computed, result.skipped) == (spec.n_points, 0)
        # no duplicate rows accumulate in the file
        assert len(open(store).read().splitlines()) == spec.n_points

    def test_progress_callback(self):
        calls = []
        spec = tiny_spec(algorithms=("lsrc",), seeds=(0,))
        Runner(progress=lambda done, total, row: calls.append((done, total))).run(spec)
        assert calls == [(1, 2), (2, 2)]

    def test_jobs_validation(self):
        with pytest.raises(InvalidInstanceError):
            Runner(jobs=0)


class TestJsonlStore:
    def test_torn_final_line_is_truncated(self, tmp_path):
        store = JsonlStore(str(tmp_path / "rows.jsonl"))
        store.append({"key": "aa", "v": 1})
        with open(store.path) as fh:
            intact = fh.read()
        with open(store.path, "a") as fh:
            fh.write('{"key": "bb", "v":')  # torn write
        with pytest.warns(UserWarning, match="torn"):
            rows = store.load()
        assert [r["key"] for r in rows] == ["aa"]
        # the partial line is physically gone: the next append starts a
        # fresh line instead of concatenating onto the wreckage
        with open(store.path) as fh:
            assert fh.read() == intact
        store.append({"key": "bb", "v": 2})
        assert store.keys() == {"aa", "bb"}

    def test_missing_file(self, tmp_path):
        store = JsonlStore(str(tmp_path / "absent.jsonl"))
        assert store.load() == [] and store.keys() == set()


class TestPresets:
    def test_paper_grid_spec_validates(self):
        paper_grid_spec().validate()

    def test_summary_and_series(self):
        spec = paper_grid_spec(alphas=[0.5], algorithms=["lsrc"],
                               seeds=range(2), n=8, m=16)
        result = run_experiment(spec)
        table = summary_rows(result)
        assert table[0]["algorithm"] == "lsrc" and table[0]["n"] == 2
        series = mean_metric_series(result, "ratio_lb", algorithm="lsrc")
        assert len(series) == 1 and series[0][0] == 0.5
        assert series[0][1] >= 1.0 - 1e-9
