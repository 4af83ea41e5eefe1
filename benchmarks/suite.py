#!/usr/bin/env python3
"""The registered benchmark suite: every benchmark behind one front door.

The repo grew 17 ad-hoc ``bench_*.py`` entry points — 15 pytest-benchmark
figure/engineering suites plus the standalone profile-backend harness.
This module consolidates them behind a single registry so one command
runs any of them, quick or full, and the JSON-producing harnesses feed a
*perf trajectory* that is tracked PR-over-PR:

* ``python benchmarks/suite.py --list`` — what exists;
* ``python benchmarks/suite.py core-throughput --quick`` — one bench
  (also reachable as ``repro bench core-throughput --quick``);
* ``python benchmarks/suite.py all`` — everything, pytest suites
  included;
* ``python benchmarks/suite.py --check`` — run the JSON harnesses and
  fail when any scenario's speedup ratio regresses more than
  ``REGRESSION_TOLERANCE`` against the scale-matched baseline checked
  into the repo (machine-independent: ratios, not wall-clock, are
  compared).

``core-throughput`` is the headline harness of the integer-timebase fast
path: it schedules the 10k-job maintenance trace with the exact
reference LSRC sweep and with the incremental integer sweep
(:mod:`repro.core.timebase`), asserts the schedules are *identical*, and
appends an entry to ``BENCH_core_throughput.json`` — the acceptance gate
is >= 5x end-to-end LSRC speedup over the frozen tree-backend number
:data:`FROZEN_TREE_SCHEDULING_S`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

#: A scenario "regresses" when its measured speedup ratio falls below
#: baseline / tolerance (1.5x headroom absorbs machine noise).
REGRESSION_TOLERANCE = 1.5

#: Baseline ratios are clamped to this before the floor is computed: the
#: gate's job is catching a fast path that *lost its advantage* (ratio
#: collapsing toward 1x), and very large ratios (50-150x) wobble with
#: hardware constants and sub-10ms denominators — min(baseline, cap) /
#: tolerance keeps the check meaningful without being flaky.  Quick runs
#: are constant-dominated (sub-10ms int-path timings), so their cap is
#: lower still: the floor degrades to "the fast path is still clearly
#: faster", which is the only claim a quick run can support.
RATIO_CHECK_CAP = 10.0
QUICK_RATIO_CHECK_CAP = 4.0

CORE_THROUGHPUT_JSON = REPO_ROOT / "BENCH_core_throughput.json"
PROFILE_BENCH_JSON = REPO_ROOT / "BENCH_profile_backends.json"
REPLAY_THROUGHPUT_JSON = REPO_ROOT / "BENCH_replay_throughput.json"

#: Bounded-memory gates of the replay harness: the 1M-job run may not
#: exceed these multiples/offsets of the 100k-job run's peaks (the
#: trace prefixes agree, so a truly bounded engine stays flat).
MEMORY_SEGMENT_FACTOR = 4
MEMORY_QUEUE_FACTOR = 10
MEMORY_SLACK = 256
MEMORY_RSS_LIMIT_MB = 100

#: The PR-4 serial replay wall-clock baseline the tentpole gate compares
#: against: ``jobs_per_sec_100k`` of ``replay_1m_easy`` in the full
#: (non-quick) PR-4 entry of ``BENCH_replay_throughput.json`` — the
#: ListProfile + per-job-heap + generic-policy engine on
#: ``synth:steady:100k``, measured on the perf-tracking machine.
PR4_SERIAL_JOBS_PER_SEC_100K = 32_112

#: The core-throughput acceptance gate's baseline: the ``scheduling``
#: seconds of the since-deleted tree backend in the full-scale entry of
#: ``BENCH_profile_backends.json`` (conservative backfilling over the
#: 10k-job maintenance trace).  Frozen here, like
#: :data:`PR4_SERIAL_JOBS_PER_SEC_100K`, so the >= 5x LSRC gate stays
#: enforced now that the harness measures only list vs array.
FROZEN_TREE_SCHEDULING_S = 0.6637

#: The tentpole acceptance gate: ArrayProfile + calendar queue + fused
#: decision passes must replay ``synth:steady:100k`` serially at >= this
#: multiple of :data:`PR4_SERIAL_JOBS_PER_SEC_100K`.
REPLAY_SPEEDUP_GATE = 2.5

#: Escape hatch for the serial-throughput gate (debugging on heavily
#: loaded machines only) — the gate itself is an interleaved in-run
#: ratio, so it is machine-independent and normally enforced everywhere.
SKIP_WALLCLOCK_GATE_ENV = "REPRO_BENCH_SKIP_WALLCLOCK_GATE"

#: Profile backend the 1M bounded-memory replay legs run on (the CI
#: bench-smoke matrix sweeps it; the gate scenario always measures the
#: array kernel against the PR-4 configuration regardless).
REPLAY_BACKEND_ENV = "REPRO_REPLAY_BACKEND"


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark.

    ``runner(quick, repeats, out_dir)`` returns a JSON-safe report (or
    ``None`` for pass/fail-only suites).  ``baseline`` names the
    checked-in JSON whose scale-matched entry ``--check`` compares
    speedup ratios against.
    """

    name: str
    description: str
    runner: Callable[[bool, int, Optional[pathlib.Path]], Optional[Dict]]
    baseline: Optional[pathlib.Path] = None
    tags: tuple = field(default_factory=tuple)


SUITE: Dict[str, Benchmark] = {}


def register_bench(bench: Benchmark) -> Benchmark:
    SUITE[bench.name] = bench
    return bench


def available_benchmarks() -> List[str]:
    return sorted(SUITE)


# ---------------------------------------------------------------------------
# core-throughput harness (the integer-timebase headline numbers)
# ---------------------------------------------------------------------------

def _best_of(repeats: int, fn):
    """(best seconds, last result) over ``repeats`` timed calls."""
    best = None
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _speedup_scenario(label, exact_fn, fast_fn, repeats, extra=None):
    """Time exact vs fast engines and *assert identical schedules*."""
    exact_s, exact_schedule = _best_of(repeats, exact_fn)
    fast_s, fast_schedule = _best_of(repeats, fast_fn)
    identical = exact_schedule.starts == fast_schedule.starts
    assert identical, (
        f"{label}: integer-timebase schedule diverged from the exact path "
        "— differential guarantee violated"
    )
    scenario = {
        "exact_s": round(exact_s, 4),
        "int_s": round(fast_s, 4),
        "speedup": round(exact_s / fast_s, 2) if fast_s > 0 else float("inf"),
        "identical_schedules": True,
    }
    if extra:
        scenario.update(extra)
    return scenario


def bench_core_throughput(
    quick: bool, repeats: int, out_dir: Optional[pathlib.Path]
) -> Dict:
    """The exact LSRC sweep vs the incremental integer sweep, end to
    end, both on the profile kernel."""
    from bench_profile_backends import make_trace

    from repro.algorithms import ListScheduler

    n_jobs = 800 if quick else 10_000
    n_res = 80 if quick else 1_000
    m, seed = 256, 7
    print(f"building trace: {n_jobs} jobs, {n_res} reservations, m={m}")
    instance = make_trace(n_jobs, n_res, m, seed)

    scenarios: Dict[str, Dict] = {}

    print("scenario 1/2: LSRC, exact sweep vs integer sweep ...")
    scenarios["lsrc_scheduling"] = _speedup_scenario(
        "lsrc_scheduling",
        lambda: ListScheduler(timebase="exact").schedule(instance),
        lambda: ListScheduler(timebase="auto").schedule(instance),
        repeats,
    )
    # The acceptance gate: the int path vs the frozen tree-backend
    # scheduling number (same trace), full scale only.
    if not quick:
        baseline_tree = FROZEN_TREE_SCHEDULING_S
        scenarios["lsrc_scheduling"]["baseline_tree_s"] = baseline_tree
        scenarios["lsrc_scheduling"]["speedup_vs_baseline_tree"] = round(
            baseline_tree / scenarios["lsrc_scheduling"]["int_s"], 2
        )

    # Fraction-timed twin of the trace: this is where the timebase earns
    # its name — the exact path pays a gcd per arithmetic op, the fast
    # path normalises once (scale lcm(3)=3) and runs on machine ints.
    frac_jobs = 200 if quick else 2_000
    frac_res = 30 if quick else 200
    print(f"scenario 2/2: Fraction-timed trace ({frac_jobs} jobs), "
          "exact vs integer ...")
    frac_instance = make_trace(frac_jobs, frac_res, m, seed).scaled(
        Fraction(1, 3)
    )
    scenarios["lsrc_fraction_times"] = _speedup_scenario(
        "lsrc_fraction_times",
        lambda: ListScheduler(timebase="exact").schedule(frac_instance),
        lambda: ListScheduler(timebase="auto").schedule(frac_instance),
        repeats,
        extra={"time_scale_lcm": 3},
    )

    for name, scenario in scenarios.items():
        line = (f"  {name}: exact {scenario['exact_s']:.3f}s  "
                f"int {scenario['int_s']:.3f}s  "
                f"speedup {scenario['speedup']:.1f}x (schedules identical)")
        if "speedup_vs_baseline_tree" in scenario:
            line += (f"  [{scenario['speedup_vs_baseline_tree']:.1f}x vs "
                     "frozen tree baseline]")
        print(line)

    entry = {
        "quick": quick,
        "config": {
            "jobs": n_jobs,
            "reservations": n_res,
            "fraction_jobs": frac_jobs,
            "machines": m,
            "seed": seed,
            "repeats": repeats,
        },
        "scenarios": scenarios,
    }
    _append_history(entry, quick, out_dir)

    gate = scenarios["lsrc_scheduling"].get("speedup_vs_baseline_tree")
    if gate is not None and gate < 5:
        print(
            f"WARNING: LSRC int-path speedup {gate}x is below the 5x "
            "acceptance target vs the frozen tree baseline",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return entry


def _rss_mb() -> int:
    """Peak resident set size of this process in MB (high-water mark)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KB on Linux
        peak //= 1024
    return peak // 1024


def _pr4_synth_steady_jobs(n: int, m: int, seed: int):
    """PR-4's ``synth_swf_jobs("steady", ...)``, verbatim.

    The tentpole gate's baseline leg must pay PR-4's *pipeline* cost —
    this PR replaced the ``randint`` draw path and the validating Job
    constructor with bit-identical-but-faster equivalents, so measuring
    the baseline through today's generator would flatter it.  This is
    the steady-profile branch of the PR-4 generator exactly as shipped
    (same rng stream, same Job values, original per-job cost).
    """
    import random as _random

    from repro.core.job import Job

    rng = _random.Random(f"synth-swf:steady:{m}:{seed}")
    width_exp_max = max(1, m.bit_length() - 3)
    load_pct = 70
    t = 0
    for i in range(1, n + 1):
        q = 2 ** rng.randint(0, width_exp_max)
        p = rng.randint(60, 3600)
        area = p * q
        mean_gap = (area * 100) // (load_pct * m)
        t += rng.randint(0, max(2, 2 * mean_gap))
        yield Job(id=i, p=p, q=q, release=t)


def _run_serial_gate(
    repeats: int, small_n: int, m: int, seed: int,
    profile: str, scenarios: Dict,
) -> None:
    """The tentpole serial-throughput gate (see bench_replay_throughput);
    the scale is identical in quick and full runs, so both enforce it.

    Two arms, either clearing :data:`REPLAY_SPEEDUP_GATE` passes — both
    measure "x times the PR-4 serial baseline" under a different noise
    assumption, and the host exhibits both noise modes:

    * the interleaved in-run ratio vs the verbatim PR-4 pipeline —
      robust when the machine is uniformly slow (both legs degrade);
    * absolute jobs/sec vs the checked-in PR-4 wall-clock number —
      robust when transient host pressure hits the (memory-bound) fast
      leg harder than the (interpreter-bound) baseline leg; this arm is
      machine-calibrated, hence the skip env for foreign hardware.
    """
    from repro.simulation import ReplayEngine
    from repro.workloads.swf import synth_swf_jobs

    gate_repeats = max(repeats, 6)
    new_s = pr4_s = math.inf
    new_result = pr4_result = None
    for _ in range(gate_repeats):
        t0 = time.perf_counter()
        new_result = ReplayEngine(m, policy="easy").run(
            synth_swf_jobs(profile, small_n, m=m, seed=seed)
        )
        new_s = min(new_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        pr4_result = ReplayEngine(
            m, policy="easy", profile_backend="list",
            completion_queue="heap", fused_policies=False,
        ).run(_pr4_synth_steady_jobs(small_n, m, seed))
        pr4_s = min(pr4_s, time.perf_counter() - t0)
    assert new_result.totals["makespan"] == pr4_result.totals["makespan"], (
        "fused array engine and PR-4 pipeline disagree on the schedule "
        "— differential guarantee violated"
    )
    new_jps = small_n / new_s
    pr4_jps = small_n / pr4_s
    ratio = new_jps / pr4_jps
    vs_checked_in = new_jps / PR4_SERIAL_JOBS_PER_SEC_100K
    wallclock_gate = os.environ.get(SKIP_WALLCLOCK_GATE_ENV) is None
    scenarios["serial_throughput_100k"] = {
        "jobs": small_n,
        "jobs_per_sec": round(new_jps),
        "pr4_pipeline_jobs_per_sec": round(pr4_jps),
        "pr4_checked_in_jobs_per_sec": PR4_SERIAL_JOBS_PER_SEC_100K,
        "speedup": round(ratio, 2),
        "speedup_vs_checked_in": round(vs_checked_in, 2),
        "gate": REPLAY_SPEEDUP_GATE,
        "gate_applied": wallclock_gate,
        "identical_schedules": True,
    }
    print(
        f"  new engine {new_jps:,.0f} jobs/s vs PR-4 pipeline "
        f"{pr4_jps:,.0f} jobs/s — {ratio:.2f}x in-run, "
        f"{vs_checked_in:.2f}x the checked-in PR-4 number "
        f"(gate {REPLAY_SPEEDUP_GATE}x, either arm"
        + ("" if wallclock_gate else "; gate SKIPPED by env") + ")"
    )
    if wallclock_gate and max(ratio, vs_checked_in) < REPLAY_SPEEDUP_GATE:
        print(
            f"FAIL: serial replay is {ratio:.2f}x the in-run PR-4 "
            f"pipeline and {vs_checked_in:.2f}x the checked-in PR-4 "
            f"baseline — neither arm reaches {REPLAY_SPEEDUP_GATE}x; "
            f"set {SKIP_WALLCLOCK_GATE_ENV}=1 only on machines slower "
            "than the perf-tracking box",
            file=sys.stderr,
        )
        raise SystemExit(1)


def _run_journal_overhead(
    repeats: int, small_n: int, m: int, seed: int,
    profile: str, scenarios: Dict,
) -> None:
    """Measure the durable journal's cost (record-only, never a gate).

    Interleaves the journal-free replay against the journaled one on the
    same trace, best-of-N, and records the overhead percentage in the
    trajectory — durability costs what it costs, and the number should
    be visible, not gated.  What *is* asserted here is the contract that
    makes the journal safe to ship: journaled and plain runs emit
    identical window rows and identical deterministic totals (the
    journal wraps the engine, it never reaches into it), so with no
    ``--journal`` flag the overhead is exactly zero.
    """
    import shutil

    from repro.durability import replay_journaled
    from repro.simulation import replay
    from repro.workloads.swf import synth_swf_jobs

    source = f"synth:{profile}:{small_n}"
    interval = max(small_n // 10, 1)
    best_plain = best_journaled = None
    plain = journaled = None
    for _ in range(max(repeats, 3)):
        t0 = time.perf_counter()
        plain = replay(
            synth_swf_jobs(profile, small_n, m=m, seed=seed), m,
            policy="easy",
        )
        best_plain = (time.perf_counter() - t0 if best_plain is None
                      else min(best_plain, time.perf_counter() - t0))
        tmp = tempfile.mkdtemp(prefix="bench-journal-")
        try:
            t0 = time.perf_counter()
            journaled = replay_journaled(
                source, os.path.join(tmp, "journal"), policy="easy",
                m=m, seed=seed, snapshot_interval=interval,
            )
            elapsed = time.perf_counter() - t0
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        best_journaled = (elapsed if best_journaled is None
                          else min(best_journaled, elapsed))
    assert plain is not None and journaled is not None
    volatile = {"elapsed_seconds"}
    assert journaled.windows == plain.windows, (
        "journaled replay's window rows diverged from the plain engine"
    )
    assert (
        {k: v for k, v in journaled.totals.items() if k not in volatile}
        == {k: v for k, v in plain.totals.items() if k not in volatile}
    ), "journaled replay's totals diverged from the plain engine"
    overhead_pct = round((best_journaled / best_plain - 1.0) * 100, 1)
    scenarios[f"journal_overhead_{small_n // 1000}k"] = {
        "jobs": small_n,
        "snapshot_interval": interval,
        "jobs_per_sec_plain": round(small_n / best_plain),
        "jobs_per_sec_journaled": round(small_n / best_journaled),
        "overhead_pct": overhead_pct,
        "identical_rows": True,
        "gated": False,
    }
    print(
        f"  journal overhead: {overhead_pct:+.1f}% "
        f"({round(small_n / best_journaled):,} jobs/s journaled vs "
        f"{round(small_n / best_plain):,} plain; record-only)"
    )


def _run_uncertainty_overhead(
    repeats: int, small_n: int, m: int, seed: int,
    profile: str, scenarios: Dict,
) -> None:
    """Exact-model overhead gate + stochastic throughput (record-only).

    The exact uncertainty model is the degenerate certain world, so the
    engine normalizes it away up front — a replay under ``exact`` must
    emit rows byte-identical to a run with no model at all, and must
    cost nothing.  Both halves of that contract are held here: the
    identity is asserted outright, and the interleaved best-of-N
    plain/exact wall-clock ratio lands in the trajectory as the
    scenario's ``speedup`` so :func:`check_regressions` applies the
    standard no-regression floor to it (baseline ~1.0x).  A lognormal
    leg with the default 2% failure rate runs once alongside to keep
    the stochastic path's throughput visible night over night; the
    randomness costs what it costs, so that number is never gated.
    """
    from repro.simulation import replay
    from repro.workloads.swf import synth_swf_jobs

    def jobs():
        return synth_swf_jobs(profile, small_n, m=m, seed=seed)

    best_plain = best_exact = None
    plain = exact = None
    for _ in range(max(repeats, 3)):
        t0 = time.perf_counter()
        plain = replay(jobs(), m, policy="easy")
        elapsed = time.perf_counter() - t0
        best_plain = (elapsed if best_plain is None
                      else min(best_plain, elapsed))
        t0 = time.perf_counter()
        exact = replay(jobs(), m, policy="easy", uncertainty="exact")
        elapsed = time.perf_counter() - t0
        best_exact = (elapsed if best_exact is None
                      else min(best_exact, elapsed))
    assert plain is not None and exact is not None
    volatile = {"elapsed_seconds"}
    assert exact.windows == plain.windows, (
        "exact-model replay's window rows diverged from the plain engine"
    )
    assert (
        {k: v for k, v in exact.totals.items() if k not in volatile}
        == {k: v for k, v in plain.totals.items() if k not in volatile}
    ), "exact-model replay's totals diverged from the plain engine"
    t0 = time.perf_counter()
    stochastic = replay(
        jobs(), m, policy="easy",
        uncertainty=f"lognormal:sigma=0.5:seed={seed}",
    )
    stochastic_s = time.perf_counter() - t0
    assert stochastic.totals["requeues"] > 0, (
        "stochastic leg never exercised the failure/requeue path"
    )
    assert "p_slowdown_le" in stochastic.totals, (
        "stochastic leg is missing the distributional-guarantee metrics"
    )
    ratio = round(best_plain / best_exact, 3)
    scenarios[f"uncertainty_overhead_{small_n // 1000}k"] = {
        "jobs": small_n,
        "jobs_per_sec_plain": round(small_n / best_plain),
        "jobs_per_sec_exact": round(small_n / best_exact),
        "jobs_per_sec_lognormal": round(small_n / stochastic_s),
        "lognormal_requeues": stochastic.totals["requeues"],
        "lognormal_kills": stochastic.totals["kills"],
        "speedup": ratio,
        "identical_rows": True,
        "gated": True,
    }
    print(
        f"  uncertainty overhead: exact at {ratio:.2f}x plain "
        f"({round(small_n / best_exact):,} jobs/s; identical rows), "
        f"lognormal at {round(small_n / stochastic_s):,} jobs/s "
        f"({stochastic.totals['requeues']} requeues, record-only)"
    )


def bench_replay_throughput(
    quick: bool, repeats: int, out_dir: Optional[pathlib.Path]
) -> Dict:
    """Million-job streaming replay: throughput, identity and memory gates.

    Scenario families, all on the deterministic ``steady`` synthetic
    trace (whose 100k-job trace is an exact prefix of the 1M-job trace,
    so cross-scale comparisons are apples to apples):

    * ``serial_throughput_100k`` — **the PR-5 tentpole gate**: serial
      replay of ``synth:steady:100k`` on the ArrayProfile +
      calendar-queue + fused engine vs the faithful PR-4 pipeline
      (ListProfile + per-job heap + generic policy passes fed by PR-4's
      verbatim generator), interleaved best-of-N so the ratio is
      machine-independent.  Fails below :data:`REPLAY_SPEEDUP_GATE`×;
      the checked-in PR-4 wall-clock number
      (:data:`PR4_SERIAL_JOBS_PER_SEC_100K`) is recorded alongside for
      the trajectory.
    * ``replay_1m_<policy>`` — replay 100k then 1M jobs and **assert**
      the peak profile segments, peak queue length and RSS high-water
      stay flat across the 10x scale jump (the bounded-memory gate);
      backend selectable via :data:`REPLAY_BACKEND_ENV` for the CI
      matrix.
    * ``journal_overhead_100k`` — record-only: the durable journal's
      cost vs the journal-free engine on the same trace, plus the
      assertion that both emit identical rows (see
      :func:`_run_journal_overhead`); never gated.
    * ``uncertainty_overhead_100k`` — the exact uncertainty model must
      be free: identical rows to the plain engine asserted outright,
      and the plain/exact wall-clock ratio gated through the standard
      no-regression floor; the stochastic lognormal leg's throughput
      rides along record-only (see :func:`_run_uncertainty_overhead`).
    * ``ingest_100k_gz`` — parse-only pass of a gzipped 100k-job SWF
      file through the chunked streaming reader.
    * ``identity_100k`` — the byte-identity matrix: for every built-in
      policy, ``OnlineSimulation`` is the reference and the streamed
      replay must reproduce its start times and int-exact metrics on
      both profile backends × plain/gzip ingestion; additionally the
      multi-policy sharded runner's merged rows must equal the serial
      runner's byte for byte.  Quick runs shrink the matrix to one
      policy × gzip.  (Checkpoint-chained replay is held to the serial
      rows by ``journal_overhead_100k``, whose journaled leg runs the
      trace as a chain of ``run_slice`` calls.)  The conservative
      policy's in-memory reference is roughly quadratic in trace
      length, so its ``OnlineSimulation`` leg runs on a 20k prefix (see
      the inline note).

    The 1M-job legs run once regardless of ``--repeats``; the gate
    scenario is best-of-``max(repeats, 6)`` interleaved pairs (wall-clock
    gates deserve a noise floor).  Results append to
    ``BENCH_replay_throughput.json``.
    """
    import gzip

    from repro.core.metrics import summarize
    from repro.simulation import (
        OnlineSimulation,
        replay,
        replay_policies,
        replay_swf,
    )
    from repro.workloads.swf import (
        iter_swf,
        read_swf,
        save_swf_trace,
        synth_swf_jobs,
    )

    m, seed, profile = 256, 0, "steady"
    small_n, big_n = 100_000, 1_000_000
    policies = ("easy",) if quick else ("easy", "greedy")
    backend = os.environ.get(REPLAY_BACKEND_ENV, "auto")
    # A non-auto backend override is the CI matrix pinning the 1M
    # bounded-memory legs to one backend; the gate, ingestion and
    # identity scenarios are backend-independent and would only repeat
    # the auto leg's work, so they run on the auto leg alone.
    full_harness = backend == "auto"
    scenarios: Dict[str, Dict] = {}

    # -- the tentpole gate: serial 100k throughput, new engine vs PR-4 --
    # Both legs replay the *same* job stream end to end (generation
    # included, exactly as PR-4 measured): the new leg is the shipped
    # pipeline, the baseline leg is the PR-4 pipeline — ListProfile +
    # per-job heap + generic policy passes fed by PR-4's verbatim
    # generator.  The legs are interleaved best-of-N so host-level
    # throttling (which moves both clocks together) hits both equally,
    # making the gate ratio machine-independent.
    if not full_harness:
        print(f"backend={backend} leg: bounded-memory scenarios only "
              "(gate/ingest/identity run on the auto leg)")
    if full_harness:
        print(f"serial replay gate: synth:{profile}:{small_n} on m={m} ...")
        _run_serial_gate(repeats, small_n, m, seed, profile, scenarios)
        print(f"journal overhead: synth:{profile}:{small_n} on m={m} ...")
        _run_journal_overhead(repeats, small_n, m, seed, profile, scenarios)
        print(f"uncertainty overhead: synth:{profile}:{small_n} on m={m} ...")
        _run_uncertainty_overhead(repeats, small_n, m, seed, profile, scenarios)

    # -- bounded-memory legs at 1M jobs ---------------------------------
    for policy in policies:
        print(f"replay {small_n} then {big_n} jobs ({profile}, {policy}, "
              f"backend={backend}) ...")
        small = replay(
            synth_swf_jobs(profile, small_n, m=m, seed=seed), m,
            policy=policy, profile_backend=backend,
        )
        rss_small = _rss_mb()
        big = replay(
            synth_swf_jobs(profile, big_n, m=m, seed=seed), m,
            policy=policy, profile_backend=backend,
        )
        rss_big = _rss_mb()
        st, bt = small.totals, big.totals
        seg_limit = (
            MEMORY_SEGMENT_FACTOR * st["peak_profile_segments"] + MEMORY_SLACK
        )
        queue_limit = (
            MEMORY_QUEUE_FACTOR * st["peak_queue_length"] + MEMORY_SLACK
        )
        rss_growth = rss_big - rss_small
        assert bt["peak_profile_segments"] <= seg_limit, (
            f"profile grew with trace length: {bt['peak_profile_segments']} "
            f"segments at 1M vs {st['peak_profile_segments']} at 100k "
            "— bounded-memory guarantee violated"
        )
        assert bt["peak_queue_length"] <= queue_limit, (
            f"queue grew with trace length: {bt['peak_queue_length']} at 1M "
            f"vs {st['peak_queue_length']} at 100k"
        )
        # ru_maxrss is a process-lifetime high-water mark, so the RSS
        # delta is only meaningful before any 1M-job leg has raised it —
        # i.e. for the first policy; later policies rely on the
        # structural (per-run) segment/queue gates above
        rss_gate = policy == policies[0]
        if rss_gate:
            assert rss_growth <= MEMORY_RSS_LIMIT_MB, (
                f"peak RSS grew {rss_growth}MB between the 100k and 1M "
                f"runs (limit {MEMORY_RSS_LIMIT_MB}MB) — "
                "trace-length-dependent memory detected"
            )
        scenarios[f"replay_1m_{policy}"] = {
            "jobs": big_n,
            "backend": backend,
            "jobs_per_sec": round(big_n / bt["elapsed_seconds"]),
            "jobs_per_sec_100k": round(small_n / st["elapsed_seconds"]),
            "peak_profile_segments": bt["peak_profile_segments"],
            "peak_profile_segments_100k": st["peak_profile_segments"],
            "peak_queue_length": bt["peak_queue_length"],
            "peak_rss_mb": rss_big,
            "rss_growth_mb": rss_growth,
            "rss_gate_applied": rss_gate,
            "utilization": round(bt["utilization"], 4),
            "ratio_lb": round(bt["ratio_lb"], 4),
            "bounded_memory": True,
        }
        print(
            f"  {policy}: {scenarios[f'replay_1m_{policy}']['jobs_per_sec']:,}"
            f" jobs/s at 1M, peak segments {bt['peak_profile_segments']}, "
            f"RSS growth {rss_growth}MB"
            + (" (bounded)" if rss_gate else " (structural gates only)")
        )

    # -- ingestion + the identity matrix (backend-independent: the
    # auto leg owns them; see full_harness above) ------------------
    if full_harness:
        id_policies = ("easy",) if quick else (
            "fcfs", "greedy", "easy", "conservative"
        )
        id_backends = ("auto", "list")
        id_compressions = (True,) if quick else (False, True)
        with tempfile.TemporaryDirectory() as tmp:
            gz_path = pathlib.Path(tmp) / "steady_100k.swf.gz"
            save_swf_trace(
                gz_path, synth_swf_jobs(profile, small_n, m=m, seed=seed), m,
                note=f"{small_n} jobs (steady scenario pack)",
            )
            plain_path = pathlib.Path(tmp) / "steady_100k.swf"
            with gzip.open(gz_path, "rt") as src, open(plain_path, "w") as dst:
                dst.write(src.read())
            print(f"parse-only pass of {gz_path.name} ...")
            best_parse, parsed = _best_of(
                repeats, lambda: sum(1 for _ in iter_swf(gz_path))
            )
            scenarios["ingest_100k_gz"] = {
                "jobs": parsed,
                "jobs_per_sec": round(parsed / best_parse),
                "gz_bytes": gz_path.stat().st_size,
            }
            print(f"  parsed {parsed} jobs at "
                  f"{scenarios['ingest_100k_gz']['jobs_per_sec']:,} jobs/s")

            print(
                f"identity matrix: {len(id_policies)} policies x "
                f"{len(id_backends)} backends x "
                f"{len(id_compressions)} compression(s) vs OnlineSimulation "
                "+ serial-vs-sharded rows ..."
            )
            with gzip.open(gz_path, "rt") as fh:
                instance = read_swf(fh).instance
            checked = 0
            in_memory_s = {}
            reference_jobs = {}
            for policy in id_policies:
                # The conservative policy replans the whole queue on a
                # *copy* of the profile at every event, so its cost scales
                # with profile size: the in-memory reference (unpruned,
                # roughly quadratic on the list backend: 0.7 s at 5k,
                # 8.1 s at 20k, 34 s at 40k jobs on a 2-vCPU Xeon VM)
                # runs on a 20k prefix of the same trace (synthetic
                # traces are prefix-stable).  Its replay legs stay cheap:
                # the replay loop prunes every backend's profile after
                # each event with completions, which bounds the copy.
                ref_n = 20_000 if policy == "conservative" else small_n
                reference_jobs[policy] = ref_n
                if ref_n == small_n:
                    ref_instance = instance
                else:
                    with gzip.open(gz_path, "rt") as fh:
                        ref_instance = read_swf(fh, max_jobs=ref_n).instance
                t0 = time.perf_counter()
                reference = OnlineSimulation(ref_instance, policy=policy).run()
                in_memory_s[policy] = round(time.perf_counter() - t0, 2)
                summary = summarize(reference.schedule)
                for id_backend in id_backends:
                    for compressed in id_compressions:
                        path = gz_path if compressed else plain_path
                        label = (f"{policy}/{id_backend}/"
                                 f"{'gz' if compressed else 'plain'}")
                        streamed = replay_swf(
                            path, policy=policy, profile_backend=id_backend,
                            max_jobs=ref_n if ref_n != small_n else None,
                            record_starts=True,
                        )
                        assert streamed.starts == reference.schedule.starts, (
                            f"{label}: streamed replay start times diverged "
                            "from the in-memory engine"
                        )
                        for name, value in (
                            ("makespan", summary.makespan),
                            ("total_work", summary.total_work),
                            ("utilization", summary.utilization),
                            ("mean_wait", summary.mean_wait),
                            ("max_wait", summary.max_wait),
                        ):
                            assert streamed.totals[name] == value, (
                                f"{label}: streamed {name} "
                                f"{streamed.totals[name]!r} != in-memory "
                                f"{value!r}"
                            )
                        checked += 1
                print(f"  {policy}: identical across "
                      f"{len(id_backends) * len(id_compressions)} replay "
                      f"configs at n={ref_n} (in-memory reference "
                      f"{in_memory_s[policy]}s)")

            # serial vs sharded multi-policy rows must match byte for byte
            serial = replay_policies(
                str(gz_path), id_policies, m=m, jobs=1, window=25_000
            )
            sharded = replay_policies(
                str(gz_path), id_policies, m=m, jobs=len(id_policies),
                window=25_000,
            )
            assert serial.rows == sharded.rows, (
                "sharded multi-policy rows diverged from the serial runner"
            )

            scenarios["identity_100k"] = {
                "jobs": small_n,
                "policies": list(id_policies),
                "backends": list(id_backends),
                "compressions": len(id_compressions),
                "reference_jobs": reference_jobs,
                "replay_configs_checked": checked,
                "identical_schedules": True,
                "identical_metrics": True,
                "serial_equals_sharded": True,
                "in_memory_s": in_memory_s,
            }
            print(
                f"  {checked} replay configs byte-identical to "
                "OnlineSimulation; sharded == serial rows"
            )

    entry = {
        "quick": quick,
        "config": {
            "profile": profile,
            "machines": m,
            "seed": seed,
            "small_jobs": small_n,
            "big_jobs": big_n,
            "policies": list(policies),
            "backend": backend,
            "repeats": repeats,
            "engine": "array+calendar+fused",
        },
        "scenarios": scenarios,
    }
    _append_history(entry, quick, out_dir, REPLAY_THROUGHPUT_JSON)
    return entry


def result_path(
    trajectory: pathlib.Path, quick: bool, out_dir: Optional[pathlib.Path]
) -> pathlib.Path:
    """Where one run of a harness writes its ``BENCH_*.json``.

    ``--out`` wins (CI passes it so checkout state stays pristine).
    Otherwise a full run writes the checked-in ``trajectory``, and a
    quick run the same file name in the temp directory: quick numbers
    are constant-dominated, so they never touch the tracked baselines,
    and ``--check`` still reads the checked-in quick entries.
    """
    if out_dir is not None:
        return pathlib.Path(out_dir) / trajectory.name
    if quick:
        return pathlib.Path(tempfile.gettempdir()) / trajectory.name
    return trajectory


def _append_history(
    entry: Dict, quick: bool, out_dir: Optional[pathlib.Path],
    trajectory: pathlib.Path = CORE_THROUGHPUT_JSON,
) -> None:
    """Append one run to a perf-trajectory file (see
    :func:`result_path`).  Entries carry their ``quick`` flag, and the
    regression check only ever compares scale-matched entries.
    """
    path = result_path(trajectory, quick, out_dir)
    report = {"history": []}
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError:
            pass
    report.setdefault("history", []).append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"appended run to {path}")


# ---------------------------------------------------------------------------
# wrappers for the pre-existing harness + pytest suites
# ---------------------------------------------------------------------------

def _run_profile_backends(
    quick: bool, repeats: int, out_dir: Optional[pathlib.Path]
) -> Dict:
    import bench_profile_backends

    argv = ["--repeats", str(repeats)]
    if quick:
        argv.append("--quick")
    out = result_path(PROFILE_BENCH_JSON, quick, out_dir)
    argv += ["--out", str(out)]
    rc = bench_profile_backends.main(argv)
    if rc != 0:
        raise SystemExit(rc)
    return json.loads(pathlib.Path(out).read_text())


def _make_pytest_runner(path: pathlib.Path):
    def run(quick: bool, repeats: int, out_dir: Optional[pathlib.Path]):
        cmd = [sys.executable, "-m", "pytest", str(path), "-q"]
        if quick:
            cmd.append("--benchmark-disable")  # assertions only, no timing
        print("$", " ".join(cmd))
        proc = subprocess.run(cmd, cwd=str(REPO_ROOT))
        if proc.returncode != 0:
            raise SystemExit(proc.returncode)
        return {"passed": True, "pytest": path.name}

    return run


register_bench(Benchmark(
    name="core-throughput",
    description="exact LSRC sweep vs the incremental integer sweep "
                "(int + Fraction-timed traces); "
                "appends to BENCH_core_throughput.json",
    runner=bench_core_throughput,
    baseline=CORE_THROUGHPUT_JSON,
    tags=("json",),
))

register_bench(Benchmark(
    name="replay-throughput",
    description="streaming 1M-job trace replay: jobs/sec, bounded-memory "
                "assertions, streamed-vs-in-memory identity at 100k; "
                "appends to BENCH_replay_throughput.json",
    runner=bench_replay_throughput,
    baseline=REPLAY_THROUGHPUT_JSON,
    tags=("json",),
))

register_bench(Benchmark(
    name="profile-backends",
    description="ListProfile vs ArrayProfile on large traces; writes "
                "BENCH_profile_backends.json",
    runner=_run_profile_backends,
    baseline=PROFILE_BENCH_JSON,
    tags=("json",),
))

for _path in sorted(BENCH_DIR.glob("bench_*.py")):
    if _path.name == "bench_profile_backends.py":
        continue  # registered above as a first-class harness
    _name = _path.stem.replace("bench_", "").replace("_", "-")
    register_bench(Benchmark(
        name=_name,
        description=f"pytest-benchmark suite {_path.name}",
        runner=_make_pytest_runner(_path),
        tags=("pytest",),
    ))


# ---------------------------------------------------------------------------
# profiling + trend merging
# ---------------------------------------------------------------------------

def _profiled_run(
    bench: Benchmark, quick: bool, repeats: int,
    out_dir: Optional[pathlib.Path],
) -> Optional[Dict]:
    """Run one benchmark under cProfile and print the top-20 cumulative
    functions (``repro bench <name> --profile``) — so future perf PRs
    start from data, not guesses."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = bench.runner(quick, repeats, out_dir)
    finally:
        profiler.disable()
        print(f"--- cProfile: top 20 cumulative functions ({bench.name}) ---")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)
    return report


def merge_trend(
    target: pathlib.Path, out_dir: Optional[pathlib.Path] = None
) -> int:
    """Merge every ``BENCH_*.json`` trajectory into one trend document.

    Files freshly produced into ``out_dir`` take precedence over the
    checked-in copies (CI runs with ``--out``, so the artifact reflects
    tonight's numbers while the checkout stays pristine).  The nightly
    workflow uploads the result as its trend artifact.
    """
    trend: Dict[str, Dict] = {}
    for trajectory in (CORE_THROUGHPUT_JSON, PROFILE_BENCH_JSON,
                       REPLAY_THROUGHPUT_JSON):
        path = trajectory
        if out_dir is not None and (pathlib.Path(out_dir) / trajectory.name).exists():
            path = pathlib.Path(out_dir) / trajectory.name
        if not path.exists():
            print(f"  {trajectory.name}: missing, skipped")
            continue
        try:
            trend[trajectory.name] = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"  {trajectory.name}: unreadable ({exc}), skipped",
                  file=sys.stderr)
            return 1
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trend, indent=2) + "\n")
    print(f"merged {len(trend)} trajectories into {target}")
    return 0


# ---------------------------------------------------------------------------
# regression check
# ---------------------------------------------------------------------------

def _scenario_ratios(scenarios: Dict) -> Dict[str, float]:
    """The machine-independent speedup ratio per scenario."""
    out = {}
    for name, scenario in scenarios.items():
        if isinstance(scenario, dict) and "speedup" in scenario:
            out[name] = float(scenario["speedup"])
    return out


def _baseline_scenarios(bench: Benchmark, quick: bool) -> Optional[Dict]:
    """The checked-in, scale-matched scenario block for ``bench``."""
    if bench.baseline is None or not bench.baseline.exists():
        return None
    data = json.loads(bench.baseline.read_text())
    if "history" in data:  # trajectory file: latest scale-matched entry
        matched = [e for e in data["history"] if e.get("quick") == quick]
        return matched[-1]["scenarios"] if matched else None
    if data.get("config", {}).get("quick") != quick:
        return None
    return data.get("scenarios")


def check_regressions(
    bench: Benchmark, report: Dict, baseline: Optional[Dict],
    quick: bool = False,
) -> List[str]:
    """Speedup ratios that fell below baseline / tolerance.

    ``baseline`` must be captured *before* the bench ran (a run without
    ``--out`` appends itself to the trajectory file — reading the file
    afterwards would compare the run against itself).
    """
    if baseline is None:
        print(f"  {bench.name}: no scale-matched checked-in baseline; "
              "regression check skipped")
        return []
    cap = QUICK_RATIO_CHECK_CAP if quick else RATIO_CHECK_CAP
    measured = _scenario_ratios(report.get("scenarios", {}))
    expected = _scenario_ratios(baseline)
    problems = []
    for name in sorted(set(expected) - set(measured)):
        print(f"  {bench.name}/{name}: in the baseline but not measured "
              "by this run (not checked)")
    for name in sorted(set(measured) & set(expected)):
        floor = min(expected[name], cap) / REGRESSION_TOLERANCE
        status = "ok" if measured[name] >= floor else "REGRESSED"
        print(f"  {bench.name}/{name}: speedup {measured[name]:.2f}x "
              f"(baseline {expected[name]:.2f}x, floor {floor:.2f}x) "
              f"{status}")
        if measured[name] < floor:
            problems.append(
                f"{bench.name}/{name}: {measured[name]:.2f}x < "
                f"{floor:.2f}x (baseline {expected[name]:.2f}x capped at "
                f"{cap} / {REGRESSION_TOLERANCE})"
            )
    return problems


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument(
        "names", nargs="*", metavar="name",
        help="benchmarks to run; 'all' runs everything, default runs the "
             "JSON harnesses (core-throughput + profile-backends)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / assertions-only for CI smoke")
    parser.add_argument("--check", action="store_true",
                        help="compare speedup ratios against the checked-in "
                             f"baselines (fail on >{REGRESSION_TOLERANCE}x "
                             "regression)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="best-of-N timing for the JSON harnesses")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory for result JSONs (default: the "
                             "repo root for full runs, the temp directory "
                             "for quick runs)")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each benchmark in cProfile and print "
                             "the top-20 cumulative functions — perf PRs "
                             "should start from this data")
    parser.add_argument("--merge-trend", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="merge every BENCH_*.json trajectory into one "
                             "trend document at PATH and exit (CI uploads "
                             "it as the nightly artifact)")
    parser.add_argument("--list", action="store_true",
                        help="list registered benchmarks and exit")
    args = parser.parse_args(argv)

    if args.merge_trend is not None:
        return merge_trend(args.merge_trend, args.out)

    if args.list:
        width = max(len(n) for n in SUITE)
        for name in available_benchmarks():
            bench = SUITE[name]
            kind = "json" if "json" in bench.tags else "pytest"
            print(f"{name:<{width}}  [{kind}]  {bench.description}")
        return 0

    if not args.names:
        names = [n for n in available_benchmarks() if "json" in SUITE[n].tags]
    elif args.names == ["all"]:
        names = available_benchmarks()
    else:
        # accept snake_case spellings of the dashed registry names
        names = [
            n if n in SUITE else n.replace("_", "-") for n in args.names
        ]
        unknown = [n for n in names if n not in SUITE]
        if unknown:
            print(f"unknown benchmark(s) {unknown}; try --list",
                  file=sys.stderr)
            return 2

    problems: List[str] = []
    for name in names:
        bench = SUITE[name]
        print(f"=== {name} ===")
        # snapshot the baseline BEFORE the run: a run without --out
        # appends itself to the trajectory file it is checked against
        baseline = (_baseline_scenarios(bench, args.quick)
                    if args.check else None)
        if args.profile:
            report = _profiled_run(bench, args.quick, args.repeats, args.out)
        else:
            report = bench.runner(args.quick, args.repeats, args.out)
        if args.check and report is not None:
            problems.extend(
                check_regressions(bench, report, baseline, args.quick)
            )

    if problems:
        print("\nperformance regressions detected:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
