"""The in-process workloads: trace replay and offline LSRC.

Each workload object builds its inputs from the seed in ``setup``, runs
one op per ``op()`` call (timing only the program's work), checks the
program's outputs in ``check`` (never inside a timed span), and knows
which tracing shims cover its layers.  Why each workload exists is in
``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time

import hostnorm
import tracing

#: Machine size of every workload (the paper's reservation experiments
#: and the replay benchmarks use 256 processors).
M = 256

#: Jobs in each replay trace.  Small enough that one lognormal replay
#: stays well under a span, so a run holds over a thousand ops and its
#: p99 has at least ten samples beyond it.
REPLAY_JOBS = 200

#: Traces in a replay pool; ops cycle through them.  The cost of one
#: short trace depends on its queueing history (seed to seed, the median
#: replay time of one short trace moves by ~7%), so a run measures a
#: pool of independent traces and its median moves far less.
POOL = 16

#: Jobs per metrics window: every replay op streams several window rows
#: and one totals row to the store.
REPLAY_WINDOW = 100

#: Jobs and maintenance reservations of the offline instance.
OFFLINE_JOBS = 300
OFFLINE_RESERVATIONS = 30

#: Totals keys that hold wall-clock values (never part of a digest).
VOLATILE_KEYS = ("elapsed_seconds",)

#: Totals gauges that depend on the profile backend's pruning cadence,
#: so they are left out when rows are compared with the reference replay,
#: which runs on another backend.
BACKEND_GAUGES = ("peak_profile_segments",)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a live process, in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class InProcessWorkload:
    """Ops that run in the benchmark's own process."""

    tracer = None
    ops = 0  # ops run in the current session

    def session(self, *, seconds=None, count=None, min_count=0, trace=False):
        """Run ops for ``seconds`` (and at least ``min_count`` ops) or for
        ``count`` ops; returns the samples and, when traced, the calls and
        counts the shims recorded.  Every session starts from the same op,
        so fixed-count sessions repeat."""
        self.ops = 0
        if trace:
            if self.tracer is None:
                self.tracer = tracing.Tracer()
                self.install_tracing(self.tracer)
            self.tracer.calls.clear()
            self.tracer.counts.clear()
        samples = hostnorm.run_spans(self.op, seconds=seconds, count=count,
                                     min_count=min_count)
        if not trace:
            return samples, None, None
        return samples, dict(self.tracer.calls), dict(self.tracer.counts)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def context(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def rows_digest(rows, skip=()) -> str:
    """SHA-256 of window and totals rows, minus their wall-clock fields
    and the keys in ``skip``."""
    drop = set(VOLATILE_KEYS) | set(skip)
    h = hashlib.sha256()
    for row in rows:
        clean = {k: v for k, v in row.items() if k not in drop}
        h.update(json.dumps(clean, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def result_rows(result):
    """The rows a replay streams to its store, as plain JSON values."""
    rows = list(result.windows) + [{"key": "totals", **result.totals}]
    return json.loads(json.dumps(rows, sort_keys=True))


class ReplayWorkload(InProcessWorkload):
    """A pool of synthetic steady traces, written as SWF, each streamed
    through ``iter_swf`` into ``ReplayEngine`` (EASY, m=256) with rows
    going to a ``JsonlStore``; ``uncertainty`` selects the runtime
    model."""

    def __init__(self, seed: int, workdir: str, uncertainty=None):
        self.trace_seeds = [seed * POOL + k for k in range(POOL)]
        # each trace draws its runtimes from its own model seed: with one
        # seed, job i of every trace would draw the same fate
        self.models = [
            None if uncertainty is None else f"{uncertainty}:seed={s}"
            for s in self.trace_seeds
        ]
        self.stochastic = uncertainty is not None
        self.trace_paths = [os.path.join(workdir, f"trace-{k}.swf")
                            for k in range(POOL)]
        self.store_path = os.path.join(workdir, "rows.jsonl")
        self.first = {}   # pool index -> result of its first replay
        self.last = None  # (pool index, result) of the last op

    def setup(self) -> None:
        # set-up covers importing everything an op uses (``setup_s``)
        from repro.run.store import JsonlStore  # noqa: F401
        from repro.simulation.replay import ReplayEngine  # noqa: F401
        from repro.workloads.swf import save_swf_trace, synth_swf_jobs

        for trace_seed, path in zip(self.trace_seeds, self.trace_paths):
            save_swf_trace(
                path, synth_swf_jobs("steady", REPLAY_JOBS, m=M, seed=trace_seed),
                M,
            )

    def _engine(self, k: int, store, **kwargs):
        from repro.simulation.replay import ReplayEngine

        return ReplayEngine(
            M, "easy", window=REPLAY_WINDOW, store=store,
            uncertainty=self.models[k], **kwargs,
        )

    def op(self):
        from repro.run.store import JsonlStore
        from repro.workloads.swf import iter_swf

        k = self.ops % POOL
        self.ops += 1
        if os.path.exists(self.store_path):
            os.remove(self.store_path)
        tracer = self.tracer
        if tracer is not None:
            tracer.take()
        t0 = time.perf_counter()
        result = self._engine(k, JsonlStore(self.store_path)).run(
            iter_swf(self.trace_paths[k], m=M)
        )
        elapsed = time.perf_counter() - t0
        layers = None
        if tracer is not None:
            layers = tracer.take()
            tracer.counts["requeues"] += result.totals.get("requeues", 0)
            tracer.counts["kills"] += result.totals.get("kills", 0)
        self.first.setdefault(k, result)
        self.last = (k, result)
        return elapsed, result.n_jobs, True, layers

    def install_tracing(self, tracer) -> None:
        tracing.install_replay(tracer, policy_shim=self.stochastic)

    def context(self) -> dict:
        """Which replay loop ran: the generic ``SchedulerCore`` loop for
        stochastic runs, else the batched loop when numpy is present and
        the scalar fused loop when it is not."""
        from repro.core.profiles.array_backend import numpy_module

        if self.stochastic:
            loop = "generic"
        else:
            loop = "batched" if numpy_module() is not None else "fused"
        return {"replay_loop": loop, "jobs_per_op": REPLAY_JOBS,
                "traces_in_pool": POOL}

    def check(self):
        """Every replayed trace's first rows must equal a reference replay
        of the same trace -- in-memory jobs (no SWF round trip) through
        the generic loop on the exact ``list`` profile, with the per-job
        completion heap when runtimes are exact -- and the last op's
        stored rows must equal the rows of its trace's first replay."""
        from repro.core.job import Job
        from repro.run.store import JsonlStore
        from repro.workloads.swf import synth_swf_jobs

        options = {"profile_backend": "list", "fused_policies": False}
        if not self.stochastic:
            options["completion_queue"] = "heap"
        problems = []
        for k, result in sorted(self.first.items()):
            jobs = list(synth_swf_jobs("steady", REPLAY_JOBS, m=M,
                                       seed=self.trace_seeds[k]))
            base = jobs[0].release  # iter_swf rebases to the first release
            jobs = [Job(id=j.id, p=j.p, q=j.q, release=j.release - base)
                    for j in jobs]
            reference = self._engine(k, None, **options).run(jobs)
            want = rows_digest(result_rows(reference), skip=BACKEND_GAUGES)
            got = rows_digest(result_rows(result), skip=BACKEND_GAUGES)
            if got != want:
                problems.append(f"trace {k}: rows digest {got} != "
                                f"reference replay {want}")
            if result.n_jobs != REPLAY_JOBS:
                problems.append(f"trace {k}: replayed {result.n_jobs} of "
                                f"{REPLAY_JOBS} jobs")
        k, _ = self.last
        stored = rows_digest(JsonlStore(self.store_path).load())
        if stored != rows_digest(result_rows(self.first[k])):
            problems.append(f"trace {k}: the last op stored other rows than "
                            "its first replay")
        return problems


def make_offline_instance(n_jobs: int, n_reservations: int, m: int, seed: int):
    """The periodic-maintenance instance of the core-throughput bench
    (``make_trace`` in ``benchmarks/bench_profile_backends.py``), copied
    here so the benchmark's inputs cannot change with that file."""
    from repro.core.instance import ReservationInstance
    from repro.core.job import Job
    from repro.workloads.reservations import periodic_maintenance

    rng = random.Random(seed)
    jobs = []
    t = 0
    for i in range(n_jobs):
        t += rng.randint(0, 6)
        p = rng.choice([1, 2, 3, 5, 8, 13, 21, 34, 55])
        q = min(m, rng.choice([1, 1, 2, 2, 4, 8, 16, 32, 64]))
        jobs.append(Job(id=i, p=p, q=q, release=t))
    horizon = t + 200
    period = max(2, horizon // max(1, n_reservations))
    reservations = periodic_maintenance(
        m=m, q=max(1, m // 8), period=period, duration=max(1, period // 3),
        count=n_reservations, first_start=1,
    )
    return ReservationInstance(
        m=m, jobs=tuple(jobs), reservations=reservations, name=f"swf{seed}"
    )


class OfflineWorkload(InProcessWorkload):
    """One op is the paper's LSRC and then conservative backfilling on
    the int timebase, each through ``on_int_timebase``."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.instance = None
        self.first = None
        self.last = None

    def setup(self) -> None:
        # set-up covers importing everything an op uses (``setup_s``)
        from repro.algorithms import ConservativeBackfillScheduler  # noqa: F401
        from repro.core.timebase import on_int_timebase  # noqa: F401

        self.instance = make_offline_instance(
            OFFLINE_JOBS, OFFLINE_RESERVATIONS, M, self.seed
        )

    def op(self):
        from repro.algorithms import ConservativeBackfillScheduler, ListScheduler
        from repro.core.timebase import on_int_timebase

        tracer = self.tracer
        if tracer is not None:
            tracer.take()
        t0 = time.perf_counter()
        lsrc = on_int_timebase(ListScheduler(), self.instance)
        cons = on_int_timebase(ConservativeBackfillScheduler(), self.instance)
        elapsed = time.perf_counter() - t0
        layers = tracer.take() if tracer is not None else None
        if self.first is None:
            self.first = (lsrc, cons)
        self.last = (lsrc, cons)
        placed = len(lsrc.starts) + len(cons.starts)
        return elapsed, placed, True, layers

    def install_tracing(self, tracer) -> None:
        tracing.install_offline(tracer)

    def check(self):
        """``Schedule.verify()`` on the first op's LSRC schedule and the
        last op's conservative schedule (O(jobs x event points), so it
        stays out of the timing); every op must give the same starts."""
        from repro.errors import InfeasibleScheduleError

        problems = []
        for label, schedule in (("lsrc", self.first[0]), ("cons", self.last[1])):
            try:
                schedule.verify()
            except InfeasibleScheduleError as exc:
                problems.append(f"{label} schedule fails verify(): {exc}")
        for label, a, b in (
            ("lsrc", self.first[0], self.last[0]),
            ("cons", self.first[1], self.last[1]),
        ):
            if a.starts != b.starts:
                problems.append(f"{label} starts differ between ops")
            if len(a.starts) != OFFLINE_JOBS:
                problems.append(f"{label} placed {len(a.starts)} jobs")
        return problems
