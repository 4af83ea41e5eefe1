"""Streaming trace replay: ingestion, pruning, rolling-horizon engine.

The load-bearing guarantee is *differential*: chunked ``iter_swf``
ingestion driving the bounded-memory replay engine must produce
byte-identical schedules — and identical int-exact metrics — to the
whole-file ``read_swf`` + ``OnlineSimulation`` path, across policies,
profile backends and plain/gzip trace files.  A hypothesis property test
pins that down on random traces; the unit tests cover the streaming
reader's edge behaviour, ``prune_before`` soundness on both backends,
the synthetic scenario pack, window metrics, the spec ``traces`` factor
and the ``repro replay`` CLI.
"""

import gzip
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.job import Job
from repro.core.metrics import summarize
from repro.core.profiles import ArrayProfile, ListProfile
from repro.errors import SchedulingError, TraceFormatError
from repro.run import ExperimentSpec, Runner, TraceSpec, dumps_spec, loads_spec
from repro.simulation import (
    OnlineSimulation,
    ReplayEngine,
    replay,
    replay_policies,
    replay_swf,
)
from repro.durability import replay_journaled
from repro.simulation.replay import parse_synth_source
from repro.workloads import (
    SYNTH_PROFILES,
    iter_swf,
    make_workload,
    read_swf,
    save_swf_trace,
    synth_swf_instance,
    synth_swf_jobs,
    write_swf_jobs,
)
from repro.workloads.swf import _parse_swf_number


# ---------------------------------------------------------------------------
# SWF number parsing (non-finite rejection)
# ---------------------------------------------------------------------------

class TestParseSWFNumber:
    def test_accepts_ints_and_decimals(self):
        assert _parse_swf_number("42") == 42
        assert _parse_swf_number("-1") == -1
        assert _parse_swf_number("2.5") == 2.5
        assert _parse_swf_number("120.0") == 120

    @pytest.mark.parametrize(
        "token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"]
    )
    def test_rejects_non_finite(self, token):
        with pytest.raises(TraceFormatError, match="non-finite"):
            _parse_swf_number(token)

    def test_rejects_garbage(self):
        with pytest.raises(TraceFormatError, match="malformed"):
            _parse_swf_number("12x")

    @pytest.mark.parametrize(
        "token, value, kind",
        [
            ("42", 42, int),
            ("-1", -1, int),
            ("2.5", 2.5, float),
            ("120.0", 120, int),
            ("1e3", 1000, int),
            ("1_000", 1000, int),
            ("+5", 5, int),
            (" 7 ", 7, int),
            # 2**53 + 1: exact, not rounded through a float to 2**53
            ("9007199254740993", 2**53 + 1, int),
        ],
    )
    def test_token_matrix_values(self, token, value, kind):
        parsed = _parse_swf_number(token)
        assert parsed == value and type(parsed) is kind

    @pytest.mark.parametrize(
        "token, message",
        [
            ("nan", "non-finite SWF number 'nan'"),
            ("inf", "non-finite SWF number 'inf'"),
            ("-inf", "non-finite SWF number '-inf'"),
            ("12x", "malformed SWF number '12x'"),
            ("0x10", "malformed SWF number '0x10'"),
        ],
    )
    def test_token_matrix_rejections(self, token, message):
        with pytest.raises(TraceFormatError) as info:
            _parse_swf_number(token)
        assert str(info.value) == message

    def test_job_numbers_above_2_53_do_not_collide(self):
        big = 2**53
        text = _swf_text([(big, 0, 10, 1), (big + 1, 5, 10, 1)], maxprocs=4)
        ids = [j.id for j in read_swf(text).instance.jobs]
        assert ids == [big, big + 1]
        assert [j.id for j in iter_swf(io.StringIO(text))] == ids

    def test_non_finite_line_is_skipped_and_reported(self):
        text = (
            "; MaxProcs: 8\n"
            "1 0 0 nan 4 -1 -1 4 -1 -1 1 1 1 1 1 -1 -1 -1\n"
            "2 5 0 60 2 -1 -1 2 -1 -1 1 1 1 1 1 -1 -1 -1\n"
        )
        report = read_swf(text)
        assert [j.id for j in report.instance.jobs] == [2]
        assert any("non-finite" in reason for _, reason in report.skipped)
        stream = iter_swf(io.StringIO(text))
        assert [j.id for j in stream] == [2]
        assert stream.n_skipped == 1


# ---------------------------------------------------------------------------
# streaming reader
# ---------------------------------------------------------------------------

def _swf_text(rows, maxprocs=None):
    lines = []
    if maxprocs is not None:
        lines.append(f"; MaxProcs: {maxprocs}")
    for job_no, submit, run, procs in rows:
        fields = [-1] * 18
        fields[0], fields[1], fields[2] = job_no, submit, 0
        fields[3], fields[4] = run, procs
        lines.append(" ".join(str(v) for v in fields))
    return "\n".join(lines) + "\n"


class TestIterSWF:
    def test_matches_read_swf_on_sample(self):
        from repro.workloads import SAMPLE_SWF

        whole = read_swf(SAMPLE_SWF).instance.jobs
        streamed = tuple(iter_swf(io.StringIO(SAMPLE_SWF)))
        assert streamed == whole

    def test_needs_machine_size(self):
        text = _swf_text([(1, 0, 10, 2)])
        with pytest.raises(TraceFormatError, match="machine size"):
            list(iter_swf(io.StringIO(text)))
        # explicit m= substitutes for the missing header
        jobs = list(iter_swf(io.StringIO(text), m=4))
        assert jobs[0].q == 2

    @pytest.mark.parametrize("header", ["-1", "0", "abc"])
    def test_non_positive_or_garbage_maxprocs_reads_as_missing(self, header):
        # SWF writes -1 for a missing value: no header, not a machine
        # every job is clipped to
        text = _swf_text([(1, 0, 10, 2), (2, 5, 10, 3)], maxprocs=header)
        unknown = (
            "machine size unknown: streaming needs m= or a "
            "'; MaxProcs:' header before the first data line"
        )
        with pytest.raises(TraceFormatError) as info:
            list(iter_swf(io.StringIO(text)))
        assert str(info.value) == unknown
        with pytest.raises(TraceFormatError) as info:
            replay_swf(io.StringIO(text))
        assert str(info.value) == unknown
        stream = iter_swf(io.StringIO(text), m=4)
        assert [j.q for j in stream] == [2, 3]
        assert (stream.n_skipped, stream.n_clipped) == (0, 0)
        totals = replay_swf(io.StringIO(text), m=4).totals
        assert (totals["skipped_lines"], totals["clipped_jobs"]) == (0, 0)
        widest = read_swf(text)  # falls back to the widest job
        assert widest.instance.m == 3 and widest.skipped == []
        assert read_swf(text, m=4).instance.m == 4

    def test_out_of_order_submits_are_skipped(self):
        text = _swf_text(
            [(1, 10, 5, 1), (2, 4, 5, 1), (3, 12, 5, 1)], maxprocs=4
        )
        stream = iter_swf(io.StringIO(text))
        assert [j.id for j in stream] == [1, 3]
        assert stream.n_skipped == 1
        assert "backwards" in stream.skipped[0][1]

    def test_duplicate_ids_renamed_like_read_swf(self):
        rows = [(1, 0, 5, 1), (1, 1, 5, 1), (1, 2, 5, 1), (7, 3, 5, 1)]
        text = _swf_text(rows, maxprocs=4)
        assert (
            [j.id for j in iter_swf(io.StringIO(text))]
            == [j.id for j in read_swf(text).instance.jobs]
            == [1, "1+", "1++", 7]
        )

    def test_repeated_job_number_renaming_is_linear(self):
        """3,000 repeats of one job number: each reader names the k-th
        repeat from a count, so this takes milliseconds where probing
        the ids already taken took seconds."""
        n = 3000
        text = _swf_text([(-1, i, 5, 1) for i in range(n)], maxprocs=4)
        expected = [-1] + ["-1" + "+" * k for k in range(1, n)]
        assert [j.id for j in read_swf(text).instance.jobs] == expected
        assert [j.id for j in iter_swf(io.StringIO(text))] == expected

    def test_wide_jobs_clipped_and_reported(self):
        text = _swf_text([(1, 0, 5, 9)], maxprocs=4)
        stream = iter_swf(io.StringIO(text))
        assert [j.q for j in stream] == [4]
        # clipped jobs are replayed, so they are not counted as skipped
        assert stream.n_skipped == 0
        assert stream.n_clipped == 1
        assert "clipped" in stream.clipped[0][1]

    def test_max_jobs_truncates(self):
        text = _swf_text([(i, i, 5, 1) for i in range(1, 9)], maxprocs=4)
        assert len(list(iter_swf(io.StringIO(text), max_jobs=3))) == 3

    def test_release_rebased_to_first_submit(self):
        text = _swf_text([(1, 100, 5, 1), (2, 130, 5, 1)], maxprocs=4)
        jobs = list(iter_swf(io.StringIO(text)))
        assert [j.release for j in jobs] == [0, 30]

    def test_single_pass(self):
        text = _swf_text([(1, 0, 5, 1)], maxprocs=4)
        stream = iter_swf(io.StringIO(text))
        list(stream)
        with pytest.raises(TraceFormatError, match="single-pass"):
            list(stream)

    def test_empty_trace_raises(self):
        with pytest.raises(TraceFormatError, match="no usable jobs"):
            list(iter_swf(io.StringIO("; MaxProcs: 4\n")))

    def test_skip_report_is_capped_but_counted(self):
        rows = [(i, i, -1, 1) for i in range(1, 8)]  # all unusable
        rows.append((9, 9, 5, 1))
        text = _swf_text(rows, maxprocs=4)
        stream = iter_swf(io.StringIO(text), max_skip_reports=3)
        list(stream)
        assert len(stream.skipped) == 3
        assert stream.n_skipped == 7

    def test_gzip_path_roundtrip(self, tmp_path):
        path = tmp_path / "t.swf.gz"
        save_swf_trace(path, synth_swf_jobs("steady", 40, m=16, seed=1), 16)
        jobs = list(iter_swf(path))
        assert len(jobs) == 40
        with gzip.open(path, "rt") as fh:
            assert read_swf(fh).instance.jobs == tuple(jobs)


# ---------------------------------------------------------------------------
# synthetic scenario pack
# ---------------------------------------------------------------------------

class TestSynthPack:
    def test_unknown_profile_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown synthetic"):
            list(synth_swf_jobs("nope", 5))

    @pytest.mark.parametrize("profile", SYNTH_PROFILES)
    def test_deterministic_and_prefix_stable(self, profile):
        a = list(synth_swf_jobs(profile, 200, m=64, seed=9))
        b = list(synth_swf_jobs(profile, 200, m=64, seed=9))
        prefix = list(synth_swf_jobs(profile, 50, m=64, seed=9))
        assert a == b
        assert a[:50] == prefix
        assert a != list(synth_swf_jobs(profile, 200, m=64, seed=10))

    @pytest.mark.parametrize("profile", SYNTH_PROFILES)
    def test_valid_integer_trace(self, profile):
        jobs = list(synth_swf_jobs(profile, 300, m=64, seed=0))
        assert all(isinstance(j.p, int) and isinstance(j.release, int)
                   for j in jobs)
        assert all(1 <= j.q <= 64 for j in jobs)
        releases = [j.release for j in jobs]
        assert releases == sorted(releases)

    def test_registered_in_workload_registry(self):
        inst = make_workload("swf-bursty", n=30, m=32, seed=4)
        assert inst.n == 30
        assert inst.m == 32

    def test_instance_matches_stream(self):
        inst = synth_swf_instance("heavy", n=25, m=32, seed=2)
        assert inst.jobs == tuple(synth_swf_jobs("heavy", 25, m=32, seed=2))


# ---------------------------------------------------------------------------
# prune_before soundness (differential vs the unpruned reference)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [ListProfile, ArrayProfile])
class TestPruneBefore:
    def test_post_frontier_queries_unchanged(self, cls):
        rng = random.Random(17)
        times = sorted(rng.sample(range(1, 400), 30))
        caps = [rng.randint(0, 16) for _ in range(31)]
        profile = cls([0] + times, caps)
        reference = profile.copy()
        frontier = 150
        profile.prune_before(frontier)
        assert profile.breakpoints[0] == 0
        assert len(profile.breakpoints) <= len(reference.breakpoints)
        for t in range(frontier, 420, 7):
            assert profile.capacity_at(t) == reference.capacity_at(t)
        for a in range(frontier, 400, 31):
            b = a + rng.randint(1, 60)
            assert profile.min_capacity(a, b) == reference.min_capacity(a, b)
            assert profile.max_capacity_between(a, b) == \
                reference.max_capacity_between(a, b)
            assert profile.area(a, b) == reference.area(a, b)
        for q in (1, 5, 17):
            assert profile.earliest_fit(q, 9, after=frontier) == \
                reference.earliest_fit(q, 9, after=frontier)
        assert profile.final_capacity() == reference.final_capacity()

    def test_post_frontier_mutations_unchanged(self, cls):
        rng = random.Random(23)
        profile = cls([0, 40, 90, 130], [12, 6, 9, 12])
        reference = profile.copy()
        profile.prune_before(95)
        for _ in range(25):
            start = rng.randint(95, 200)
            duration = rng.randint(1, 30)
            amount = rng.randint(0, 4)
            if rng.random() < 0.5 and profile.min_capacity(
                start, start + duration
            ) >= amount:
                profile.reserve(start, duration, amount)
                reference.reserve(start, duration, amount)
            else:
                profile.add(start, duration, amount)
                reference.add(start, duration, amount)
            probe = rng.randint(95, 230)
            assert profile.capacity_at(probe) == reference.capacity_at(probe)

    def test_prune_to_tail_leaves_constant(self, cls):
        profile = cls([0, 10, 20], [4, 2, 8])
        profile.prune_before(1000)
        assert profile.as_lists() == ([0], [8])

    def test_prune_at_zero_is_noop(self, cls):
        profile = cls([0, 10], [4, 2])
        profile.prune_before(0)
        assert profile.as_lists() == ([0, 10], [4, 2])

    def test_prune_at_exact_breakpoint(self, cls):
        profile = cls([0, 10, 20, 30], [4, 2, 8, 4])
        reference = profile.copy()
        profile.prune_before(20)
        assert profile.as_lists() == ([0, 30], [8, 4])
        assert profile.capacity_at(25) == reference.capacity_at(25)

    def test_idempotent(self, cls):
        profile = cls([0, 10, 20], [4, 2, 8])
        profile.prune_before(15)
        once = profile.as_lists()
        profile.prune_before(15)
        assert profile.as_lists() == once

    def test_prune_on_constant_profile_is_noop(self, cls):
        profile = cls.constant(6)
        profile.prune_before(12345)
        assert profile.as_lists() == ([0], [6])

    def test_prune_past_frontier_then_reserve(self, cls):
        # pruning far past every breakpoint leaves the (re-anchored)
        # tail segment; the profile must stay fully usable
        profile = cls([0, 5, 9], [4, 1, 3])
        profile.prune_before(50)
        assert profile.as_lists() == ([0], [3])
        profile.reserve(60, 5, 3)
        assert profile.capacity_at(62) == 0
        assert profile.earliest_fit(3, 2, after=55) == 55

    def test_repeated_prunes_at_same_t_after_mutation(self, cls):
        profile = cls([0, 10, 20], [4, 2, 8])
        profile.prune_before(12)
        profile.reserve(15, 10, 2)
        snapshot = profile.as_lists()
        profile.prune_before(12)   # same frontier again: no change
        assert profile.as_lists() == snapshot


@settings(max_examples=40, deadline=None)
@given(
    cls=st.sampled_from([ListProfile, ArrayProfile]),
    seed=st.integers(min_value=0, max_value=10_000),
    frontier=st.integers(min_value=0, max_value=220),
)
def test_prune_preserves_post_frontier_segments(cls, seed, frontier):
    """Property: after ``prune_before(t)`` the profile equals the
    unpruned reference restricted to ``[t, inf)`` — segment for segment
    (the pre-frontier part collapses into the re-anchored first
    segment, whose capacity must match the reference *at* ``t``)."""
    rng = random.Random(seed)
    times = sorted(rng.sample(range(1, 200), rng.randint(0, 12)))
    caps = [rng.randint(0, 9) for _ in range(len(times) + 1)]
    profile = cls([0] + times, caps)
    reference = profile.copy()
    profile.prune_before(frontier)
    ref_t, ref_c = reference.as_lists()
    got_t, got_c = profile.as_lists()
    # reference restricted to [frontier, inf): the segment containing
    # the frontier, re-anchored to 0, then everything after it
    i = 0
    for k, t in enumerate(ref_t):
        if t <= frontier:
            i = k
    want_t = [0] + ref_t[i + 1:]
    want_c = ref_c[i:]
    assert got_t == want_t
    assert got_c == want_c
    # prune is idempotent at the same frontier
    profile.prune_before(frontier)
    assert profile.as_lists() == (got_t, got_c)


# ---------------------------------------------------------------------------
# the rolling-horizon engine
# ---------------------------------------------------------------------------

class TestReplayEngine:
    def test_totals_match_summarize(self):
        inst = synth_swf_instance("steady", n=250, m=32, seed=6)
        reference = OnlineSimulation(inst, policy="easy").run()
        result = replay(
            synth_swf_jobs("steady", 250, m=32, seed=6), 32, policy="easy",
            window=50, record_starts=True,
        )
        assert result.starts == reference.schedule.starts
        summary = summarize(reference.schedule)
        totals = result.totals
        assert totals["makespan"] == summary.makespan
        assert totals["total_work"] == summary.total_work
        assert totals["utilization"] == summary.utilization
        assert totals["mean_wait"] == summary.mean_wait
        assert totals["max_wait"] == summary.max_wait
        assert totals["mean_slowdown"] == pytest.approx(summary.mean_slowdown)
        assert totals["n_jobs"] == 250

    def test_window_rows_partition_the_trace(self):
        result = replay(
            synth_swf_jobs("bursty", 230, m=32, seed=1), 32, window=100
        )
        assert [w["window"] for w in result.windows] == [0, 1, 2]
        assert [w["jobs"] for w in result.windows] == [100, 100, 30]
        for row in result.windows:
            assert row["ratio_lb"] >= 1.0 or math.isclose(row["ratio_lb"], 1.0)
            assert 0 < row["utilization"] <= 1.0
            assert row["mean_bounded_slowdown"] >= 1.0

    def test_window_zero_disables_rows(self):
        result = replay(
            synth_swf_jobs("steady", 60, m=16, seed=0), 16, window=0
        )
        assert result.windows == []
        assert result.totals["n_jobs"] == 60

    def test_rows_stream_to_jsonl_store(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        replay(
            synth_swf_jobs("steady", 120, m=16, seed=3), 16,
            window=50, store=str(path),
        )
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["key"] for r in rows] == [
            "window-00000000", "window-00000001", "window-00000002", "totals",
        ]
        assert rows[-1]["n_jobs"] == 120

    def test_short_run_peak_segments_is_real(self):
        """Short runs must still report the live-window peak, not the
        post-drain size: the gauge samples the O(1) segment_count
        before every compaction."""
        result = replay(
            synth_swf_jobs("steady", 400, m=16, seed=0), 16, window=0
        )
        assert result.totals["peak_profile_segments"] > 1

    def test_memory_stays_bounded(self):
        """The list backend is compacted on every completion, like the
        array kernel, so its peak is the kernel's live window."""
        jobs = list(synth_swf_jobs("steady", 4000, m=64, seed=0))
        listed = replay(jobs, 64, profile_backend="list")
        kernel = replay(jobs, 64, profile_backend="auto")
        peak = listed.totals["peak_profile_segments"]
        # without pruning the profile would hold ~2 breakpoints per job
        assert 1 < peak <= kernel.totals["peak_profile_segments"] < 200
        assert listed.starts is None

    def test_impossible_job_raises(self):
        from repro.core.job import Job

        with pytest.raises(SchedulingError, match="processors"):
            replay([Job(id=1, p=5, q=99, release=0)], 8)

    def test_replay_swf_resolves_m_from_header(self, tmp_path):
        path = tmp_path / "t.swf"
        save_swf_trace(path, synth_swf_jobs("steady", 30, m=16, seed=0), 16)
        result = replay_swf(path, policy="greedy")
        assert result.m == 16
        assert result.totals["n_jobs"] == 30
        assert result.totals["skipped_lines"] == 0


# ---------------------------------------------------------------------------
# the property test: chunked streaming == whole-file, byte for byte
# ---------------------------------------------------------------------------

_job_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),     # submit gap
        st.integers(min_value=1, max_value=40),    # runtime
        st.integers(min_value=1, max_value=8),     # processors
    ),
    min_size=1,
    max_size=24,
)


@given(
    rows=_job_rows,
    policy=st.sampled_from(["fcfs", "greedy", "easy", "conservative"]),
    backend=st.sampled_from(["list", "auto"]),
    compress=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_streamed_replay_is_byte_identical_to_in_memory(
    tmp_path_factory, rows, policy, backend, compress
):
    """The tentpole guarantee: chunked gzip/plain ``iter_swf`` ingestion
    through the pruning replay engine reproduces ``read_swf`` +
    ``OnlineSimulation`` exactly — schedules byte for byte, metrics
    int-exact — for every policy on the reference profile and on the
    kernel (``"auto"``, whose fused decision passes this differential
    therefore also covers)."""
    m = 8
    submit = 0
    swf_rows = []
    for i, (gap, runtime, procs) in enumerate(rows, start=1):
        submit += gap
        swf_rows.append((i, submit, runtime, procs))
    text = _swf_text(swf_rows, maxprocs=m)

    tmp = tmp_path_factory.mktemp("trace")
    path = tmp / ("t.swf.gz" if compress else "t.swf")
    if compress:
        with gzip.open(path, "wt") as fh:
            fh.write(text)
    else:
        path.write_text(text)

    instance = read_swf(text).instance
    reference = OnlineSimulation(instance, policy=policy).run()
    streamed = replay_swf(
        path, policy=policy, profile_backend=backend,
        window=5, record_starts=True,
    )
    assert streamed.starts == reference.schedule.starts
    summary = summarize(reference.schedule)
    assert streamed.totals["makespan"] == summary.makespan
    assert streamed.totals["total_work"] == summary.total_work
    assert streamed.totals["utilization"] == summary.utilization
    assert streamed.totals["mean_wait"] == summary.mean_wait
    assert streamed.totals["max_wait"] == summary.max_wait


def test_replay_past_int64_matches_list():
    """Releases and ends at and past 2**63 replay on the array kernel
    (``auto``) to the list reference's starts, window rows
    and totals, the peak-segment gauge included; only the wall clock
    differs."""
    rng = random.Random(5)
    jobs, t = [], 2**63 - 40
    for i in range(60):
        t += rng.randint(0, 4)
        jobs.append(Job(id=i, p=rng.randint(1, 30), q=rng.randint(1, 8),
                        release=t))
    runs = {}
    for backend in ("list", "auto"):
        result = ReplayEngine(
            8, "easy", profile_backend=backend, window=7, record_starts=True
        ).run(jobs)
        totals = dict(result.totals)
        del totals["elapsed_seconds"]
        runs[backend] = (result.starts, result.windows, totals)
    assert max(runs["list"][0].values()) > 2**63
    assert runs["auto"] == runs["list"]


# ---------------------------------------------------------------------------
# the traces factor of the experiment layer
# ---------------------------------------------------------------------------

class TestTracesFactor:
    def _spec(self, **overrides):
        base = dict(
            name="trace-grid",
            algorithms=("online:easy",),
            traces=(TraceSpec("synth:steady",
                              params={"n": 120, "m": 16, "window": 50}),),
            metrics=("makespan", "ratio_lb", "utilization"),
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_round_trips_through_json(self):
        spec = self._spec()
        assert loads_spec(dumps_spec(spec)) == spec

    def test_runs_and_resumes(self, tmp_path):
        store = str(tmp_path / "rows.jsonl")
        spec = self._spec(seeds=(0, 1))
        first = Runner(store=store).run(spec)
        assert first.computed == 2
        again = Runner(store=store).run(spec)
        assert again.computed == 0
        assert again.skipped == 2
        assert first.rows == again.rows
        for row in first.rows:
            assert row["workload"] == "trace"
            assert row["params"]["source"] == "synth:steady"
            assert row["ratio_lb"] >= 1.0

    def test_serial_equals_parallel(self):
        spec = self._spec(algorithms=("online:easy", "online:greedy"))
        serial = Runner(jobs=1).run(spec)
        parallel = Runner(jobs=2).run(spec)
        assert serial.rows == parallel.rows

    def test_file_trace_source(self, tmp_path):
        path = str(tmp_path / "t.swf")
        save_swf_trace(path, synth_swf_jobs("steady", 60, m=16, seed=0), 16)
        spec = self._spec(traces=(TraceSpec(path, params={"window": 0}),))
        result = Runner().run(spec)
        assert result.rows[0]["makespan"] > 0

    def test_offline_algorithm_rejected(self):
        with pytest.raises(Exception, match="online policies only"):
            self._spec(algorithms=("lsrc",)).validate()

    def test_unknown_metric_rejected(self):
        with pytest.raises(Exception, match="not produced by trace replay"):
            self._spec(metrics=("makespan", "idle_area")).validate()

    def test_missing_file_rejected(self):
        with pytest.raises(Exception, match="does not exist"):
            self._spec(traces=(TraceSpec("/no/such.swf"),)).validate()

    def test_unknown_trace_param_rejected(self):
        with pytest.raises(Exception, match="unknown parameter"):
            TraceSpec("synth:steady", params={"jobs": 5})

    def test_spec_needs_workloads_or_traces(self):
        with pytest.raises(Exception, match="workload or trace"):
            ExperimentSpec(name="empty", algorithms=("lsrc",))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestSourceCounters:
    """One rule on every replay path: an SWF source's totals, returned
    and stored, carry ``skipped_lines`` and ``clipped_jobs``; synthetic
    sources carry neither (their rows stay as they were)."""

    COUNTERS = ("skipped_lines", "clipped_jobs")

    @staticmethod
    def _stored(path, key):
        rows = [json.loads(line) for line in open(path)]
        totals = next(r for r in rows if r["key"] == key)
        return {
            k: v for k, v in totals.items()
            if k not in ("key", "policy", "elapsed_seconds")
        }

    def _three_paths(self, tmp_path, source, *extra):
        """Stored easy totals of a multi-policy, a single-policy and a
        journaled ``repro replay`` of ``source``."""
        out = {name: str(tmp_path / f"{name}.jsonl")
               for name in ("multi", "single", "journaled")}
        base = ["replay", source, "--window", "20", *extra]
        assert main([*base, "-p", "easy,fcfs", "-o", out["multi"]]) == 0
        assert main([*base, "-p", "easy", "-o", out["single"]]) == 0
        assert main([*base, "-p", "easy", "-o", out["journaled"],
                     "--journal", str(tmp_path / "journal")]) == 0
        return (self._stored(out["multi"], "easy/totals"),
                self._stored(out["single"], "totals"),
                self._stored(out["journaled"], "totals"))

    def test_swf_totals_carry_counters_on_every_path(self, tmp_path):
        rows = [(i, 2 * i, 3 + i % 5, 1 + i % 4) for i in range(1, 80)]
        rows.insert(40, (500, 7, 4, 1))   # submit goes backwards: skipped
        rows.append((501, 200, 5, 64))    # wider than MaxProcs: clipped
        trace = tmp_path / "t.swf"
        trace.write_text(_swf_text(rows, maxprocs=8))
        expected = {"skipped_lines": 1, "clipped_jobs": 1}
        multi, single, journaled = self._three_paths(tmp_path, str(trace))
        assert multi == single == journaled
        assert {k: single[k] for k in self.COUNTERS} == expected
        result = replay_journaled(
            str(trace), str(tmp_path / "api-journal"), policy="easy",
            window=20,
        )
        assert {k: result.totals[k] for k in self.COUNTERS} == expected
        resumed = replay_journaled(
            str(trace), str(tmp_path / "api-journal"), policy="easy",
            window=20, resume=True,
        )
        assert {k: resumed.totals[k] for k in self.COUNTERS} == expected

    def test_synth_totals_carry_none(self, tmp_path):
        multi, single, journaled = self._three_paths(
            tmp_path, "synth:steady:300", "-m", "16"
        )
        assert multi == single == journaled
        assert not set(self.COUNTERS) & set(single)


class TestReplayCLI:
    def test_multi_policy_sharded_equals_serial(self, capsys, tmp_path):
        serial_out = str(tmp_path / "serial.jsonl")
        sharded_out = str(tmp_path / "sharded.jsonl")
        assert main([
            "replay", "synth:steady:1500", "-m", "32",
            "-p", "easy,greedy", "--window", "500", "-o", serial_out,
        ]) == 0
        assert "2 policies replayed (serial)" in capsys.readouterr().out
        assert main([
            "replay", "synth:steady:1500", "-m", "32",
            "-p", "easy,greedy", "--jobs", "2", "--window", "500",
            "-o", sharded_out,
        ]) == 0
        assert "2 worker processes" in capsys.readouterr().out
        assert (open(serial_out, "rb").read()
                == open(sharded_out, "rb").read())

    def test_synth_source(self, capsys, tmp_path):
        out = str(tmp_path / "rows.jsonl")
        code = main([
            "replay", "synth:steady:400", "-m", "32", "-p", "greedy",
            "--window", "100", "-o", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "replayed 400 jobs" in printed
        assert "bounded memory" in printed
        rows = [json.loads(line)
                for line in open(out).read().splitlines()]
        assert rows[-1]["n_jobs"] == 400

    def test_trace_file_source(self, capsys, tmp_path):
        path = str(tmp_path / "t.swf")
        with open(path, "w") as fh:
            write_swf_jobs(synth_swf_jobs("bursty", 80, m=16, seed=1), 16, fh)
        assert main(["replay", path, "-p", "easy", "--window", "0"]) == 0
        assert "replayed 80 jobs" in capsys.readouterr().out

    def test_unknown_synth_profile_errors(self, capsys):
        assert main(["replay", "synth:warp"]) == 2
        assert "unknown synthetic profile" in capsys.readouterr().err

    def test_missing_file_errors(self, capsys):
        assert main(["replay", "/no/such/trace.swf"]) == 1


# ---------------------------------------------------------------------------
# engine configurations: inlined vs reference passes, calendar vs heap,
# auto demotion
# ---------------------------------------------------------------------------

class TestEngineConfigurations:
    @pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy"])
    def test_fused_equals_generic_rows(self, policy):
        """The inlined decision passes must reproduce the registered
        policy functions row for row (windows included)."""
        jobs = list(synth_swf_jobs("bursty", 3000, m=64, seed=5))
        fused = ReplayEngine(64, policy=policy, window=500,
                             record_starts=True).run(jobs)
        generic = ReplayEngine(64, policy=policy, window=500,
                               fused_policies=False,
                               record_starts=True).run(jobs)
        assert fused.starts == generic.starts
        assert fused.windows == generic.windows
        strip = lambda t: {k: v for k, v in t.items()  # noqa: E731
                           if k != "elapsed_seconds"}
        assert strip(fused.totals) == strip(generic.totals)

    @pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy",
                                        "conservative"])
    @pytest.mark.parametrize("profile", SYNTH_PROFILES)
    def test_list_equals_array_rows(self, profile, policy):
        """The kernel and the reference are compacted by one rule, so
        they agree on
        starts, window rows and every total, ``peak_profile_segments``
        included."""
        jobs = list(synth_swf_jobs(profile, 1500, m=64, seed=7))
        runs = []
        for backend in ("list", "auto"):
            result = ReplayEngine(64, policy=policy, window=400,
                                  profile_backend=backend,
                                  record_starts=True).run(jobs)
            totals = dict(result.totals)
            del totals["elapsed_seconds"]
            runs.append((result.starts, result.windows, totals))
        assert runs[0] == runs[1]
        assert runs[0][2]["peak_profile_segments"] > 1

    def test_calendar_equals_heap_queue(self):
        jobs = list(synth_swf_jobs("steady", 2000, m=32, seed=2))
        calendar = ReplayEngine(32, policy="easy", fused_policies=False,
                                record_starts=True).run(jobs)
        heap = ReplayEngine(32, policy="easy", fused_policies=False,
                            completion_queue="heap",
                            record_starts=True).run(jobs)
        assert calendar.starts == heap.starts
        assert calendar.windows == heap.windows

    def test_unknown_completion_queue_rejected(self):
        with pytest.raises(SchedulingError, match="completion_queue"):
            ReplayEngine(8, completion_queue="ring")

    def test_conservative_routes_to_generic_loop(self):
        # no inlined pass: runs through the policy protocol
        jobs = list(synth_swf_jobs("steady", 300, m=16, seed=0))
        result = ReplayEngine(16, policy="conservative").run(jobs)
        assert result.totals["n_jobs"] == 300

    @pytest.mark.parametrize("policy,uncertainty,fused", [
        ("easy", None, True),
        ("easy", None, False),
        ("greedy", "lognormal:sigma=0.5", True),
        ("fcfs", "early-exit", False),
        ("conservative", None, True),
        ("conservative", "lognormal:sigma=0.5", True),
    ])
    def test_unsorted_stream_rejected(self, policy, uncertainty, fused):
        """Every pass, the protocol path and the uncertainty layer
        refuse a release before the clock instead of moving it back."""
        from repro.core.job import Job

        jobs = [Job(id=1, p=5, q=2, release=0), Job(id=2, p=3, q=2, release=4),
                Job(id=3, p=2, q=2, release=2)]
        engine = ReplayEngine(8, policy=policy, uncertainty=uncertainty,
                              fused_policies=fused)
        with pytest.raises(SchedulingError, match="out of order"):
            engine.run(jobs)
        # a resumed slice may not start before the checkpoint's clock
        ck = engine.run_slice(jobs[:2], drain=False).checkpoint
        with pytest.raises(SchedulingError, match="out of order"):
            engine.run_slice(jobs[2:], resume=ck)

    @pytest.mark.parametrize("time_type", [float, Fraction])
    def test_auto_array_list_agree_on_float_times(self, time_type):
        """On a non-integral trace ``"auto"`` is the array kernel: it
        and the ``"list"`` reference give equal
        starts, window rows and totals, in value and in type, and the
        starts are the in-memory engine's."""
        from repro.core.instance import RigidInstance

        rng = random.Random(29)
        jobs, release = [], 0
        for i in range(400):
            release += time_type(rng.randrange(0, 9)) / 4
            p = time_type(rng.randrange(1, 80)) / 8
            if i % 3 == 0:  # integral times mixed in
                release = math.ceil(release)
            if i % 5 == 0:
                p = rng.randrange(1, 10)
            jobs.append(Job(id=i, p=p, q=rng.randint(1, 8), release=release))

        def typed(values):
            return [(type(v), v) for v in values]

        runs = {
            backend: replay(jobs, 8, policy="easy", window=64,
                            profile_backend=backend, record_starts=True)
            for backend in ("auto", "list")
        }
        ref = runs["list"]
        for result in runs.values():
            assert typed(result.starts.values()) == typed(ref.starts.values())
            assert result.windows == ref.windows
            for row, ref_row in zip(result.windows, ref.windows):
                assert typed(row.values()) == typed(ref_row.values())
            totals = dict(result.totals, elapsed_seconds=0)
            ref_totals = dict(ref.totals, elapsed_seconds=0)
            assert typed(totals.values()) == typed(ref_totals.values())
        reference = OnlineSimulation(
            RigidInstance(m=8, jobs=tuple(jobs)), policy="easy"
        ).run()
        assert ref.starts == reference.schedule.starts


# ---------------------------------------------------------------------------
# sharded multi-policy replay
# ---------------------------------------------------------------------------

class TestReplayPolicies:
    def test_serial_equals_sharded_rows_and_store(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        sharded_path = tmp_path / "sharded.jsonl"
        serial = replay_policies(
            "synth:steady", ["easy", "greedy", "fcfs"], m=32, n=2000,
            jobs=1, store=str(serial_path), window=500,
        )
        sharded = replay_policies(
            "synth:steady", ["easy", "greedy", "fcfs"], m=32, n=2000,
            jobs=3, store=str(sharded_path), window=500,
        )
        assert serial.rows == sharded.rows
        assert serial_path.read_bytes() == sharded_path.read_bytes()
        assert list(serial.results) == ["easy", "greedy", "fcfs"]
        # merged rows carry the policy and strip wall-clock fields
        for row in serial.rows:
            assert "elapsed_seconds" not in row
            assert row["policy"] in ("easy", "greedy", "fcfs")
        totals_keys = [r["key"] for r in serial.rows if r["key"].endswith("/totals")]
        assert totals_keys == ["easy/totals", "greedy/totals", "fcfs/totals"]

    def test_results_match_single_policy_runs(self):
        multi = replay_policies("synth:bursty", ["easy", "greedy"], m=32,
                                n=800, window=0)
        for policy in ("easy", "greedy"):
            single = replay(
                synth_swf_jobs("bursty", 800, m=32, seed=0), 32,
                policy=policy, window=0,
            )
            strip = lambda t: {k: v for k, v in t.items()  # noqa: E731
                               if k != "elapsed_seconds"}
            assert strip(multi.results[policy].totals) == strip(single.totals)

    def test_file_source(self, tmp_path):
        path = str(tmp_path / "t.swf")
        save_swf_trace(path, synth_swf_jobs("steady", 120, m=16, seed=0), 16)
        multi = replay_policies(path, ["fcfs", "easy"], jobs=2, window=0)
        assert multi.m == 16
        assert multi.results["fcfs"].totals["n_jobs"] == 120

    def test_duplicate_and_unknown_policies_rejected(self):
        with pytest.raises(SchedulingError, match="duplicate"):
            replay_policies("synth:steady", ["easy", "easy"], n=10)
        with pytest.raises(SchedulingError, match="unknown"):
            replay_policies("synth:steady", ["warp-drive"], n=10)
        with pytest.raises(SchedulingError, match="at least one"):
            replay_policies("synth:steady", [], n=10)

    def test_parse_synth_source(self):
        assert parse_synth_source("synth:steady:500") == ("steady", 500)
        assert parse_synth_source("synth:heavy") == ("heavy", None)
        with pytest.raises(TraceFormatError, match="unknown synthetic"):
            parse_synth_source("synth:warp")
        with pytest.raises(TraceFormatError, match="not an integer"):
            parse_synth_source("synth:steady:many")
