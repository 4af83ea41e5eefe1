"""Differential tests for checkpoint chaining and the event loop's
shortcuts.

The invariants here are the engine's contract: a trace replayed as a
chain of ``run_slice`` calls, each resumed from its predecessor's
checkpoint, produces byte-identical rows (modulo volatile wall-clock
fields) to one serial run; and the inlined passes' shortcuts (the
completion step carrying on over an empty queue, the lone arrival's
one probe) produce exactly the reference protocol pass's rows and a
schedule ``Schedule.verify()`` accepts.
"""

import json
from fractions import Fraction

import pytest
from conftest import replay_chained, sparse_rows
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.instance import ReservationInstance
from repro.core.job import Job
from repro.core.profiles import ArrayProfile
from repro.core.schedule import Schedule
from repro.durability.journaled import _chunk_stream
from repro.errors import SchedulingError
from repro.run.store import JsonlStore
from repro.simulation.replay import (
    REPLAY_METRIC_FIELDS,
    VOLATILE_TOTAL_FIELDS,
    ReplayEngine,
)
from repro.workloads.swf import synth_swf_jobs

#: wall-clock fields that legitimately differ between identical runs
VOLATILE = VOLATILE_TOTAL_FIELDS


def _trim(result):
    totals = {k: v for k, v in result.totals.items() if k not in VOLATILE}
    return totals, result.windows, result.starts


def _jobs_from_rows(rows, m, time_type=int):
    """(gap, runtime, procs) tuples -> released Job list; ``time_type``
    converts the release times (runtimes stay ints)."""
    jobs = []
    t = 0
    for i, (gap, p, q) in enumerate(rows):
        t += gap
        jobs.append(Job.trusted(i, p, min(q, m), time_type(t)))
    return jobs


def _stored_rows(path):
    """The JSONL rows a store holds, volatile fields dropped."""
    rows = []
    for row in JsonlStore(str(path)).load():
        rows.append({k: v for k, v in row.items() if k not in VOLATILE})
    return [json.dumps(row, sort_keys=True) for row in rows]


_trace_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),    # submit gap (0 => ties)
        st.integers(min_value=1, max_value=40),   # runtime
        st.integers(min_value=1, max_value=16),   # processors
    ),
    min_size=1,
    max_size=60,
)

_policies = st.sampled_from(["fcfs", "greedy", "easy"])


# ---------------------------------------------------------------------------
# the shortcuts == the reference protocol pass
# ---------------------------------------------------------------------------

class TestFusedShortcuts:
    @given(trace_seed=st.integers(min_value=0, max_value=2**16 - 1),
           n_bursts=st.integers(min_value=3, max_value=8),
           policy=_policies, window=st.sampled_from([0, 4]),
           config=st.sampled_from([("auto", int), ("list", int),
                                   ("auto", Fraction), ("list", Fraction)]))
    @settings(max_examples=80, deadline=None)
    def test_sparse_traces_fused_equals_generic(
        self, trace_seed, n_bursts, policy, window, config
    ):
        """Idle gaps and lone arrivals drive the completion step over an
        empty queue and the lone arrival's probe; the fused rows must
        equal the reference pass's (Fraction releases included: their
        slowdown sums stay exact), and the recorded starts must be a
        feasible schedule of the certain-world instance."""
        m = 16
        backend, time_type = config
        jobs = _jobs_from_rows(sparse_rows(trace_seed, n_bursts), m,
                               time_type)
        kwargs = dict(policy=policy, window=window, profile_backend=backend,
                      record_starts=True)
        fused = ReplayEngine(m, **kwargs).run(jobs)
        generic = ReplayEngine(m, fused_policies=False, **kwargs).run(jobs)
        assert _trim(fused) == _trim(generic)
        instance = ReservationInstance(m=m, jobs=jobs)
        Schedule(instance, fused.starts).verify()

    def test_shortcuts_cut_profile_calls(self, monkeypatch):
        """Jobs that each arrive on an idle machine start through one
        probe apiece, and each idle gap compacts the profile once."""
        calls = {"try_reserve": 0, "prune_before": 0}
        for name in calls:
            original = getattr(ArrayProfile, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ArrayProfile, name, counted)
        # three jobs overlap at t=0..5, the rest arrive after idle gaps
        jobs = [Job.trusted(i, 5, 2, t)
                for i, t in enumerate([0, 1, 2, 50, 100, 150, 200])]
        result = ReplayEngine(8, policy="easy", window=0).run(jobs)
        assert result.totals["n_jobs"] == 7
        assert calls["try_reserve"] == 7
        # one prune per drained idle gap, plus the trailing drain
        assert calls["prune_before"] == 5

    def test_drain_streams_finished_windows(self):
        """A window whose last job completes while the completion step
        carries on over an empty queue is emitted then, not at the end
        of the run."""
        jobs = [Job.trusted(i, 5, 2, t) for i, t in enumerate([0, 1, 50])]
        result = ReplayEngine(8, window=2).run_slice(jobs, drain=False)
        assert [row["window"] for row in result.windows] == [0]
        assert result.windows[0]["t_end"] == 6


# ---------------------------------------------------------------------------
# slice boundaries
# ---------------------------------------------------------------------------

class TestEpochBoundaries:
    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=3),
                      min_size=0, max_size=80),
        interval=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=120, deadline=None)
    def test_cuts_are_quiescent_and_increasing(self, gaps, interval):
        jobs = []
        t = 0
        for i, gap in enumerate(gaps):
            t += gap
            jobs.append(Job.trusted(i, 1, 1, t))
        chunks = list(_chunk_stream(jobs, interval))
        assert [job for chunk, _ in chunks for job in chunk] == jobs
        assert [final for _, final in chunks] == \
            [False] * (len(chunks) - 1) + [True]
        for (chunk, _), (successor, _) in zip(chunks, chunks[1:]):
            assert len(chunk) >= interval
            # a cut never splits a run of equal release times
            assert chunk[-1].release != successor[0].release

    def test_trivial_cases(self):
        assert list(_chunk_stream([], 4)) == [([], True)]
        jobs = [Job.trusted(i, 1, 1, i) for i in range(3)]
        assert list(_chunk_stream(jobs, 5)) == [(jobs, True)]
        # one long tie cannot be cut at all
        tie = [Job.trusted(i, 1, 1, 5) for i in range(20)]
        assert list(_chunk_stream(tie, 4)) == [(tie, True)]


# ---------------------------------------------------------------------------
# a chain of checkpointed slices == one serial replay
# ---------------------------------------------------------------------------

class TestEpochShardedReplay:
    @given(
        rows=_trace_rows,
        policy=_policies,
        model=st.sampled_from([None, "lognormal:sigma=0.5", "early-exit"]),
        interval=st.sampled_from([1, 3, 11]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_equals_serial(self, rows, policy, model, interval,
                                   tmp_path_factory):
        """A chain of ``run_slice`` calls equals one serial run byte for
        byte — totals, window rows, recorded starts and the JSONL store
        — for every fused policy, certain or stochastic."""
        m = 16
        jobs = _jobs_from_rows(rows, m)
        kwargs = dict(policy=policy, window=7, record_starts=True,
                      uncertainty=model)
        tmp = tmp_path_factory.mktemp("chain")
        serial = ReplayEngine(m, store=str(tmp / "serial.jsonl"),
                              **kwargs).run(jobs)
        chained = replay_chained(jobs, interval, m,
                           store=JsonlStore(str(tmp / "chain.jsonl")),
                           **kwargs)
        assert _trim(chained) == _trim(serial)
        assert _stored_rows(tmp / "chain.jsonl") == \
            _stored_rows(tmp / "serial.jsonl")

    @pytest.mark.parametrize("first_fast", [True, False])
    def test_chain_across_fast_and_reference_passes(self, first_fast):
        """A checkpoint cut by the inlined passes resumes under the
        reference protocol pass (and vice versa) with the serial run's
        totals and rows — ``events`` included: the checkpoint carries
        the live count of every arrival, start and completion."""
        jobs = list(synth_swf_jobs("steady", 400, m=64, seed=3))
        serial = ReplayEngine(64, window=50, record_starts=True).run(jobs)
        first = ReplayEngine(64, window=50, record_starts=True,
                             fused_policies=first_fast)
        head = first.run_slice(jobs[:200], drain=False)
        assert head.checkpoint.counters["events"] > 2 * 200
        second = ReplayEngine(64, window=50, record_starts=True,
                              fused_policies=not first_fast)
        tail = second.run_slice(jobs[200:], resume=head.checkpoint)
        assert tail.totals["events"] == serial.totals["events"] == 3 * 400
        tail.windows = head.windows + tail.windows
        tail.starts = {**head.starts, **tail.starts}
        assert _trim(tail) == _trim(serial)

    @pytest.mark.parametrize("backend", ["auto", "list"])
    def test_checkpoint_with_since_prune_counter_resumes(self, backend):
        """Version-2 checkpoints written before the one prune rule carry
        a ``since_prune`` counter; a resume ignores it and continues to
        the serial run's totals, rows and starts."""
        jobs = list(synth_swf_jobs("bursty", 400, m=64, seed=3))
        kwargs = dict(window=50, record_starts=True, profile_backend=backend)
        serial = ReplayEngine(64, **kwargs).run(jobs)
        head = ReplayEngine(64, **kwargs).run_slice(jobs[:200], drain=False)
        ckpt = head.checkpoint
        assert "since_prune" not in ckpt.counters
        ckpt.counters = {**ckpt.counters, "since_prune": 117}
        tail = ReplayEngine(64, **kwargs).run_slice(jobs[200:], resume=ckpt)
        tail.windows = head.windows + tail.windows
        tail.starts = {**head.starts, **tail.starts}
        assert _trim(tail) == _trim(serial)

    def test_non_integral_stream_crosses_epochs(self):
        """A non-integral job in the first slice leaves the kernel in
        place: the chained run equals the serial one on either backend,
        with nothing but the paper's metrics in its totals."""
        jobs = [Job(i, 4, 2, i) for i in range(8)]
        jobs[1] = Job(1, 4, 2, 0.5)
        jobs[5] = Job(5, Fraction(7, 3), 2, 5)
        serial = ReplayEngine(8, record_starts=True).run(jobs)
        for backend in ("auto", "list"):
            chained = replay_chained(jobs, 3, 8, record_starts=True,
                                     profile_backend=backend)
            assert _trim(chained) == _trim(serial)
        assert set(serial.totals) <= REPLAY_METRIC_FIELDS

    def test_rejects_bad_arguments(self):
        jobs = [Job.trusted(i, 3, 2, i) for i in range(4)]
        heap = ReplayEngine(8, completion_queue="heap")
        with pytest.raises(SchedulingError, match="calendar"):
            heap.run_slice(jobs, drain=False)
        ckpt = ReplayEngine(8).run_slice(jobs[:2], drain=False).checkpoint
        with pytest.raises(SchedulingError, match="calendar"):
            heap.run_slice(jobs[2:], resume=ckpt)

    def test_checkpoint_config_mismatch_is_loud(self):
        jobs = [Job.trusted(i, 3, 2, i) for i in range(6)]
        first = ReplayEngine(8).run_slice(jobs[:3], drain=False)
        other = ReplayEngine(8, policy="fcfs")
        with pytest.raises(SchedulingError):
            other.run_slice(jobs[3:], resume=first.checkpoint)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestReplayCli:
    def test_single_policy_jobs_runs_serially(self, capsys, tmp_path):
        """``--jobs`` does not shard a single policy: the rows are the
        serial run's."""
        paths = {}
        for jobs in ("1", "2"):
            paths[jobs] = tmp_path / f"j{jobs}.jsonl"
            assert main([
                "replay", "synth:steady:800", "-p", "easy", "-j", jobs,
                "--window", "400", "-o", str(paths[jobs]),
            ]) == 0
        assert "replayed 800 jobs" in capsys.readouterr().out
        assert _stored_rows(paths["2"]) == _stored_rows(paths["1"])

    def test_no_demotion_no_warning(self, capsys, tmp_path):
        """A trace with decimal runtimes replays on the kernel with a
        clean stderr and writes the rows of an in-Python replay on the
        ``list`` reference profile."""
        from repro.simulation.replay import open_replay_source

        trace = tmp_path / "decimal.swf"
        trace.write_text("; MaxProcs: 8\n" + "".join(
            f"{i} {3 * i} -1 {2.5 + i % 4 * 1.25} {1 + i % 8}\n"
            for i in range(1, 40)
        ))
        kernel = tmp_path / "kernel.jsonl"
        assert main([
            "replay", str(trace), "-p", "easy", "--window", "10",
            "-o", str(kernel),
        ]) == 0
        assert capsys.readouterr().err == ""
        reference = tmp_path / "list.jsonl"
        arrivals, m, stream = open_replay_source(str(trace))
        ReplayEngine(m, "easy", profile_backend="list", window=10,
                     store=str(reference)).run(arrivals, stream=stream)
        assert _stored_rows(kernel) == _stored_rows(reference)
