#!/usr/bin/env python3
"""Profile-backend benchmark: list vs array on large traces.

Measures the three profile workloads that dominate scheduler cost and
asserts *identical* scheduling results across backends while timing them:

* ``scheduling`` — an ``earliest_fit`` + ``reserve`` placement loop
  (conservative backfilling's engine) over an SWF-style trace of rigid
  jobs with release times, on a machine carrying periodic-maintenance
  reservations, executed through the :mod:`repro.run` experiment layer
  (the trace is a registered workload, the differential check a
  registered metric), pinned to ``timebase="exact"`` (the trace is
  integer-timed, so this only skips the no-op normalisation).
* ``mutation churn`` — interleaved ``reserve``/``add`` pairs (EASY
  backfilling's shadow probing pattern) on an already-fragmented profile.
* ``windowed queries`` — ``area`` / ``min_capacity`` /
  ``first_time_area_reaches`` over windows deep inside a profile with
  tens of thousands of breakpoints (quantifies the bisect-to-window fix).
  The array backend answers them with stdlib scans: its former numpy
  reductions read the same here (0.78–0.80 s with numpy, 0.74–0.81 s
  without, full scale) and no replay issued a window wide enough to
  take them, so they were deleted.

Historical note: an augmented-treap backend once won the first two
scenarios ~9-17x against the list backend's O(n)-per-mutation rebuild.
Once the list backend learned O(window) local mutation
(``_shift_window``) the flat arrays won every scenario but wide
windowed queries, which no scheduler issues, and the treap was deleted.
The checked-in ``BENCH_profile_backends.json`` still records its
numbers; the scenarios here are tracked for the trajectory, not gated.

Run directly (writes ``BENCH_profile_backends.json`` at the repo root)::

    python benchmarks/bench_profile_backends.py            # full: 10k jobs
    python benchmarks/bench_profile_backends.py --quick    # CI smoke

The differential guarantee — every job starts at the same time under both
backends — is asserted on every run, so a timing never silently buys a
different schedule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.instance import ReservationInstance  # noqa: E402
from repro.core.job import Job  # noqa: E402
from repro.core.metrics import register_metric  # noqa: E402
from repro.core.profiles import (  # noqa: E402
    ArrayProfile,
    ListProfile,
    resolve_backend,
)
from repro.run import ExperimentSpec, Runner, WorkloadSpec  # noqa: E402
from repro.workloads.registry import register_workload  # noqa: E402
from repro.workloads.reservations import periodic_maintenance  # noqa: E402

BACKENDS = {"list": ListProfile, "array": ArrayProfile}


# ---------------------------------------------------------------------------
# workload generation (SWF-flavoured: heavy-tailed sizes, Poisson arrivals)
# ---------------------------------------------------------------------------

def make_trace(n_jobs: int, n_reservations: int, m: int, seed: int):
    """Jobs with spread-out releases plus a maintenance calendar."""
    rng = random.Random(seed)
    jobs = []
    t = 0
    for i in range(n_jobs):
        t += rng.randint(0, 6)  # arrival gaps keep ~hundreds of jobs in flight
        p = rng.choice([1, 2, 3, 5, 8, 13, 21, 34, 55])
        q = min(m, rng.choice([1, 1, 2, 2, 4, 8, 16, 32, 64]))
        jobs.append(Job(id=i, p=p, q=q, release=t))
    horizon = t + 200
    period = max(2, horizon // max(1, n_reservations))
    reservations = periodic_maintenance(
        m=m,
        q=max(1, m // 8),
        period=period,
        duration=max(1, period // 3),
        count=n_reservations,
        first_start=1,
    )
    return ReservationInstance(
        m=m, jobs=tuple(jobs), reservations=reservations, name=f"swf{seed}"
    )


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _starts_checksum(schedule) -> int:
    """Order-independent digest of every (job, start) pair — the
    differential guarantee as a registered metric extractor."""
    blob = repr(sorted(schedule.starts.items(), key=lambda kv: str(kv[0])))
    return int(hashlib.sha256(blob.encode()).hexdigest()[:12], 16)


def bench_scheduling(instance, repeats: int):
    """Conservative-backfilling pass over the whole trace, executed per
    backend through the experiment layer (:mod:`repro.run`): the trace
    and the differential check are registered as a workload / a metric,
    and one single-point spec per backend drives the grid Runner."""
    register_workload(
        "bench-swf-trace", lambda seed=0, **_: instance, overwrite=True
    )
    register_metric("bench-starts-checksum", _starts_checksum, overwrite=True)
    result = {}
    rows = {}
    for name in BACKENDS:
        spec = ExperimentSpec(
            name=f"bench-profile-{name}",
            algorithms=("backfill-cons",),
            workloads=(WorkloadSpec("bench-swf-trace"),),
            seeds=(0,),
            metrics=("makespan", "bench-starts-checksum"),
            profile_backends=(name,),
            timebases=("exact",),
        )
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            run = Runner(jobs=1).run(spec)
            best = min(best, time.perf_counter() - t0)
        result[name] = best
        rows[name] = run.rows[0]
    reference = next(iter(BACKENDS))
    for name in BACKENDS:
        assert (
            rows[name]["makespan"] == rows[reference]["makespan"]
            and rows[name]["bench-starts-checksum"]
            == rows[reference]["bench-starts-checksum"]
        ), "backends disagree on the schedule — differential check failed"
    return result


def _fragmented_lists(n_breakpoints: int):
    """A big sawtooth profile: every mutation touches a crowded region."""
    times = list(range(n_breakpoints))
    caps = [8 + (i * 7919) % 23 for i in range(n_breakpoints)]
    return times, caps


def bench_mutation_churn(n_breakpoints: int, ops: int, seed: int, repeats: int):
    """reserve/add probe pairs (EASY's shadow pattern) on a fragmented
    profile."""
    rng = random.Random(seed)
    times, caps = _fragmented_lists(n_breakpoints)
    probes = []
    for _ in range(ops):
        start = rng.randint(0, n_breakpoints - 50)
        dur = rng.randint(1, 40)
        amount = rng.randint(1, 8)
        probes.append((start, dur, amount))
    result = {}
    for name in BACKENDS:
        profile = resolve_backend(name)(times, caps)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for start, dur, amount in probes:
                if profile.min_capacity(start, start + dur) >= amount:
                    profile.reserve(start, dur, amount)
                    profile.add(start, dur, amount)
            best = min(best, time.perf_counter() - t0)
        result[name] = best
    return result


def bench_windowed_queries(n_breakpoints: int, queries: int, seed: int, repeats: int):
    """Wide-window area/min_capacity/first_time_area_reaches: both
    backends walk every segment in the window (though not the segments
    *before* it — that is the bisect-to-window fix, asserted separately
    in the tests)."""
    rng = random.Random(seed)
    times, caps = _fragmented_lists(n_breakpoints)
    span = n_breakpoints // 3
    work = 18 * span  # crosses ~ span segments of mean capacity ~19
    windows = []
    for _ in range(queries):
        a = rng.randint(0, n_breakpoints - span - 2)
        windows.append((a, a + span))
    result = {}
    answers = {}
    for name in BACKENDS:
        profile = resolve_backend(name)(times, caps)
        best = math.inf
        got = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            acc = 0
            for a, b in windows:
                acc += profile.area(a, b)
                acc += profile.min_capacity(a, b)
                t = profile.first_time_area_reaches(work, start=a)
                acc += int(t)
            got = acc
            best = min(best, time.perf_counter() - t0)
        result[name] = best
        answers[name] = got
    reference = answers["list"]
    for name, got in answers.items():
        assert got == reference, f"windowed query results diverged ({name})"
    return result


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def speedup_array(timings):
    """list/array: how far the array kernel beats the reference."""
    return timings["list"] / timings["array"] if timings["array"] > 0 else math.inf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=None,
                        help="trace size (default 10000, quick 800)")
    parser.add_argument("--reservations", type=int, default=None,
                        help="reservation count (default 1000, quick 80)")
    parser.add_argument("--machines", type=int, default=256)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="take the best of this many timed runs")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="report path (default: the tracked "
                             "BENCH_profile_backends.json for a full run, "
                             "the temp directory for --quick)")
    args = parser.parse_args(argv)
    if args.out is None:
        from suite import PROFILE_BACKENDS_JSON, result_path

        args.out = result_path(PROFILE_BACKENDS_JSON, args.quick, None)

    n_jobs = args.jobs if args.jobs is not None else (800 if args.quick else 10_000)
    n_res = args.reservations if args.reservations is not None else (
        80 if args.quick else 1_000
    )
    n_bp = 2_000 if args.quick else 20_000
    churn_ops = 100 if args.quick else 600
    n_queries = 50 if args.quick else 150

    print(f"building trace: {n_jobs} jobs, {n_res} reservations, "
          f"m={args.machines}, seed={args.seed}")
    t0 = time.perf_counter()
    instance = make_trace(n_jobs, n_res, args.machines, args.seed)
    build_s = time.perf_counter() - t0
    print(f"  built in {build_s:.2f}s "
          f"({len(instance.availability_profile().breakpoints)} breakpoints)")

    report = {
        "config": {
            "jobs": n_jobs,
            "reservations": n_res,
            "machines": args.machines,
            "seed": args.seed,
            "quick": args.quick,
            "profile_breakpoints": n_bp,
        },
        "scenarios": {},
    }

    print("scenario 1/3: earliest_fit-heavy scheduling pass ...")
    sched = bench_scheduling(instance, args.repeats)
    report["scenarios"]["scheduling"] = {
        **{k: round(v, 4) for k, v in sched.items()},
        "speedup_array": round(speedup_array(sched), 2),
        "identical_schedules": True,
    }
    print(f"  list {sched['list']:.3f}s  array {sched['array']:.3f}s  "
          f"(schedules identical)")

    print("scenario 2/3: reserve/add mutation churn ...")
    churn = bench_mutation_churn(n_bp, churn_ops, args.seed, args.repeats)
    report["scenarios"]["mutation_churn"] = {
        **{k: round(v, 4) for k, v in churn.items()},
        "ops": churn_ops,
        "breakpoints": n_bp,
        "speedup_array": round(speedup_array(churn), 2),
    }
    print(f"  list {churn['list']:.3f}s  array {churn['array']:.3f}s")

    print("scenario 3/3: windowed queries on a big profile ...")
    win = bench_windowed_queries(n_bp, n_queries, args.seed, args.repeats)
    report["scenarios"]["windowed_queries"] = {
        **{k: round(v, 4) for k, v in win.items()},
        "breakpoints": n_bp,
        "queries": n_queries,
        "speedup_array": round(speedup_array(win), 2),
    }
    print(f"  list {win['list']:.3f}s  array {win['array']:.3f}s")

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
