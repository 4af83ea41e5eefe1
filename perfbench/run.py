#!/usr/bin/env python3
"""The repository's benchmark: replay, offline LSRC and serve, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as is;
``--trace 1`` runs a fixed number of ops untraced, then twice with the
tracing shims installed, and prints the per-layer metrics.  Context
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Times are in
host-normalised units (``hostnorm.py``).  ``README.md`` describes the
workloads, the metrics and the spreads measured when the bounds were set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostnorm  # noqa: E402

WORKLOADS = ("replay-steady", "replay-lognormal", "offline-lsrc", "serve-http")

#: Fresh processes whose set-up time is measured in one run; the metric
#: is their median.
SETUP_REPEATS = 3

#: Fewest ops of an end-to-end run, which goes on past ``--seconds``
#: until it has them: the nearest-rank p99 of 1000 samples has 10
#: samples beyond it.
MIN_OPS = 1000

#: Ops per session of a traced run: fixed, so counts repeat exactly.
TRACE_OPS = {
    "replay-steady": 200,
    "replay-lognormal": 100,
    "offline-lsrc": 200,
    "serve-http": 3000,
}

#: Per-layer metrics: (name, unit, source, key).  ``time`` keys name a
#: shim's self time (normalised ms summed over the traced session),
#: ``calls`` a shim's call count, ``count`` any other exact count.
PER_LAYER = [
    ("ingest.jobs", "count", "count", "ingest.jobs"),
    ("ingest.self_ms", "ms", "time", "ingest"),
    ("engine.self_ms", "ms", "time", "engine"),
    ("store.rows", "count", "count", "store.rows"),
    ("store.append_ms", "ms", "time", "store"),
]
for _verb in ("submit", "advance_to", "drain"):
    PER_LAYER += [
        (f"core.{_verb}.calls", "count", "calls", f"core.{_verb}"),
        (f"core.{_verb}.self_ms", "ms", "time", f"core.{_verb}"),
    ]
PER_LAYER += [
    ("policy.easy.calls", "count", "calls", "policy.easy"),
    ("policy.easy.self_ms", "ms", "time", "policy.easy"),
]
for _op in ("fits", "earliest_fit", "reserve", "add", "prune_before"):
    PER_LAYER += [
        (f"profile.{_op}.calls", "count", "calls", f"profile.{_op}"),
        (f"profile.{_op}.self_ms", "ms", "time", f"profile.{_op}"),
    ]
PER_LAYER += [
    ("profile.fits.hit_ratio", "ratio", "hit_ratio", "profile.fits"),
    ("uncertainty.draw.calls", "count", "calls", "uncertainty.draw"),
    ("uncertainty.draw.self_ms", "ms", "time", "uncertainty.draw"),
    ("requeues", "count", "count", "requeues"),
    ("kills", "count", "count", "kills"),
    ("timebase.normalize_ms", "ms", "time", "timebase.normalize"),
    ("lsrc.schedule_ms", "ms", "time", "lsrc.schedule"),
    ("cons.schedule_ms", "ms", "time", "cons.schedule"),
]
for _op in ("fits", "earliest_fit", "reserve"):
    PER_LAYER += [
        (f"sweep.{_op}.calls", "count", "calls", f"sweep.{_op}"),
        (f"sweep.{_op}.self_ms", "ms", "time", f"sweep.{_op}"),
    ]
PER_LAYER += [
    ("api.parse_ms", "ms", "time", "api.parse"),
    ("service.handle.self_ms", "ms", "time", "service.handle"),
    ("front_end_ms", "ms", "time", "front_end"),
    ("journal.append.calls", "count", "calls", "journal.append"),
    ("journal.append.bytes", "bytes", "count", "journal.append.bytes"),
    ("journal.append.self_ms", "ms", "time", "journal.append"),
    ("journal.snapshot.calls", "count", "calls", "journal.snapshot"),
    ("journal.snapshot.self_ms", "ms", "time", "journal.snapshot"),
    ("other_ms", "ms", "other", None),
    ("op_wall_ms", "ms", "wall", None),
    ("tracing_overhead", "ratio", "overhead", None),
]

#: Largest negative residual tolerated per traced op (clock granularity).
RESIDUAL_TOLERANCE_S = 1e-6


def make_workload(name: str, seed: int, workdir: str):
    import serve_workload
    import workloads

    if name == "replay-steady":
        return workloads.ReplayWorkload(seed, workdir)
    if name == "replay-lognormal":
        return workloads.ReplayWorkload(seed, workdir,
                                        uncertainty="lognormal:sigma=0.5")
    if name == "offline-lsrc":
        return workloads.OfflineWorkload(seed, workdir)
    return serve_workload.ServeWorkload(seed, workdir)


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def in_process_setup_probe(workload: str, seed: int) -> float:
    """Raw seconds from spawning a fresh interpreter to the end of its
    set-up (imports and inputs), as reported by its ``ready`` line."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure_setup(wl, workload: str, seed: int):
    """Normalised set-up seconds of ``SETUP_REPEATS`` fresh processes,
    with their raw seconds and factors (``SPAWN`` reference)."""
    reference = hostnorm.SPAWN
    norm, raw, factors = [], [], []
    k_before = reference.measure()
    for _ in range(SETUP_REPEATS):
        if hasattr(wl, "setup_probe"):
            elapsed = wl.setup_probe()
        else:
            elapsed = in_process_setup_probe(workload, seed)
        k_after = reference.measure()
        f = reference.factor(k_before, k_after)
        k_before = k_after
        norm.append(elapsed / f)
        raw.append(elapsed)
        factors.append(f)
    return norm, raw, factors


def reference_context(samples) -> dict:
    k = samples.reference_s
    f = samples.factors
    return {
        "reference": samples.reference.name,
        "reference_raw_ms": {"median": statistics.median(k) * 1e3,
                             "min": min(k) * 1e3, "max": max(k) * 1e3},
        "reference_nominal_ms": samples.reference.nominal_s * 1e3,
        "factor_f": {"median": statistics.median(f), "min": min(f),
                     "max": max(f)},
        "spans": len(samples.spans),
    }


def end_to_end(wl, args):
    setup_norm, setup_raw, setup_f = measure_setup(wl, args.workload, args.seed)
    wl.setup()
    samples, _, _ = wl.session(seconds=args.seconds, min_count=MIN_OPS)
    rss = wl.peak_rss_mb()
    problems = wl.check() + failed_ops(samples)
    n = samples.attempted
    metrics = {
        "jobs_per_s": (samples.rate(1), "jobs/s"),
        "ops_per_s": (samples.rate(0), "ops/s"),
        "op_p50_ms": (hostnorm.percentile(samples.op_s, 50) * 1e3, "ms"),
        "op_p99_ms": (hostnorm.percentile(samples.op_s, 99) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_norm), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    context = {
        "op_samples": n,
        "samples_beyond_p99": n - int(-(-n * 99 // 100)),
        "setup_samples": SETUP_REPEATS,
        "op_error_ratio": samples.failed / n,
        "raw": {
            "op_p50_ms": hostnorm.percentile(samples.raw_op_s, 50) * 1e3,
            "op_p99_ms": hostnorm.percentile(samples.raw_op_s, 99) * 1e3,
            "setup_s": setup_raw,
            "setup_factor_f": setup_f,
        },
        **reference_context(samples),
    }
    return metrics, context, problems, n, samples.failed


def failed_ops(*sessions) -> list:
    """No op of these workloads is built to fail (every reserve fits,
    every cancel names a staged job), so a failed op is a fault of the
    program, not a rate to report."""
    failed = sum(samples.failed for samples in sessions)
    return [f"{failed} ops failed"] if failed else []


def counted(calls: dict, counts: dict) -> dict:
    """Every exact count a traced session produced."""
    out = {f"calls:{k}": v for k, v in calls.items()}
    out.update({f"count:{k}": v for k, v in counts.items()})
    return out


def traced(wl, args):
    wl.setup()
    n = TRACE_OPS[args.workload]
    base, _, _ = wl.session(count=n)
    first, calls, counts = wl.session(count=n, trace=True)
    second, calls_2, counts_2 = wl.session(count=n, trace=True)
    problems = wl.check() + failed_ops(base, first, second)
    if counted(calls, counts) != counted(calls_2, counts_2):
        a, b = counted(calls, counts), counted(calls_2, counts_2)
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        problems.append(f"counts differ between two traced sessions: {diff}")
    if min(first.other_s) < -RESIDUAL_TOLERANCE_S:
        problems.append("layer self times exceed an op's wall time")
    if min(first.layer_s.values()) < -RESIDUAL_TOLERANCE_S * n:
        problems.append("a layer has negative self time")
    wall = sum(first.op_s)
    metrics = {}
    for name, unit, source, key in PER_LAYER:
        if source == "time":
            value = first.layer_s.get(key, 0.0) * 1e3
        elif source == "calls":
            value = calls.get(key, 0)
        elif source == "count":
            value = counts.get(key, 0)
        elif source == "hit_ratio":
            attempts = calls.get(key, 0)
            value = counts.get(key + ".true", 0) / attempts if attempts else 0.0
        elif source == "other":
            value = sum(first.other_s) * 1e3
        elif source == "wall":
            value = wall * 1e3
        else:
            value = wall / sum(base.op_s) - 1
        metrics[name] = (value, unit)
    context = {
        "traced_ops_per_session": n,
        "untraced_wall_ms": sum(base.op_s) * 1e3,
        "second_session_wall_ms": sum(second.op_s) * 1e3,
        "layer_sum_check": "layer self times + other_ms == op_wall_ms",
        **reference_context(first),
    }
    failed = base.failed + first.failed + second.failed
    attempted = base.attempted + first.attempted + second.attempted
    return metrics, context, problems, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # run the ``finally`` blocks, which stop every process this one started
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # One CPU for this process and every process it starts: a span and
    # the reference runs around it then see the same CPU, and serve's
    # client and daemon (one of them busy at a time) skip cross-CPU
    # wake-ups.  Unpinned, single runs read up to 1.8x slower than the
    # reference predicted.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = os.path.join(os.getcwd(), ".perfbench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    wl = None
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        run = traced if args.trace else end_to_end
        metrics, context, problems, attempted, failed = run(wl, args)
        context = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": host_fingerprint(),
            "cpus": sorted(os.sched_getaffinity(0)),
            **wl.context(), **context,
        }
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
