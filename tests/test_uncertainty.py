"""Runtime-uncertainty layer: models, engine mechanics, determinism.

The contracts under test are the PR's acceptance bar:

* the ``exact`` model is *byte-identical* to no model at all, across
  policies x profiles (kernel, reference) x inlined/reference passes —
  window rows, totals and recorded starts;
* every stochastic model is seed-deterministic: same seed => identical
  output, different seed => different draws, and a serial replay equals
  a chain of checkpointed slices (checkpoints round-trip the
  uncertainty state);
* the inlined fcfs/greedy/easy passes equal the registered functions
  run through the policy protocol under every uncertainty mechanism, in
  replay, sliced replay and serve-style core sessions;
* the event mechanics hold individually: failure/requeue with bounded
  retries, walltime kills, grace extensions, early-exit capacity
  credit, reservation no-shows, and the ``unstaged`` cancel gauge.
"""

import hashlib
import json
import math
import pickle
import random
import struct
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest
from conftest import replay_chained
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.instance import ReservationInstance
from repro.core.job import Job
from repro.core.metrics import p_slowdown_le, quantile
from repro.devtools import failpoints
from repro.devtools.failpoints import CATALOG_BY_NAME, FailpointError
from repro.core.schedule import Schedule
from repro.errors import InvalidInstanceError, ReproError, SchedulingError
from repro.simulation.online_sim import POLICIES, simulate
from repro.simulation.replay import UNCERTAINTY_METRIC_FIELDS, ReplayEngine
from repro.simulation.scheduler_core import SchedulerCore
from repro.workloads.uncertainty import (
    DRAW_STREAM_VERSION,
    UNCERTAINTY_MODELS,
    DrawStream,
    UncertaintyModel,
    available_uncertainty_models,
    parse_uncertainty,
    resolve_uncertainty,
)

#: wall-clock fields that legitimately differ between identical runs
VOLATILE = {"elapsed_seconds"}


def _trim(result):
    totals = {k: v for k, v in result.totals.items() if k not in VOLATILE}
    return totals, result.windows, result.starts


def _jobs_from_rows(rows, m):
    jobs = []
    t = 0
    for i, (gap, p, q) in enumerate(rows):
        t += gap
        jobs.append(Job.trusted(i, p, min(q, m), t))
    return jobs


_trace_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),    # submit gap
        st.integers(min_value=1, max_value=40),   # runtime estimate
        st.integers(min_value=1, max_value=16),   # processors
    ),
    min_size=1,
    max_size=50,
)

_policies = st.sampled_from(["fcfs", "greedy", "easy"])

#: The engine's two profiles: the kernel (``"auto"``; the id names its
#: class, ``ArrayProfile``) and the ``"list"`` reference.
ENGINE_PROFILES = [pytest.param("auto", id="array"), "list"]

_models = st.sampled_from([
    "lognormal:sigma=0.5",
    "lognormal:sigma=1:overrun=grace",
    "overestimate:factor=4",
    "underestimate:factor=2:overrun=grace:grace=0.5",
    "early-exit:failure_rate=0.2",
])


@pytest.fixture(autouse=True)
def _reset_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


# ---------------------------------------------------------------------------
# model + spec grammar
# ---------------------------------------------------------------------------

class TestModelSpec:
    def test_builtin_models_registered(self):
        assert available_uncertainty_models() == [
            "early-exit", "exact", "lognormal", "overestimate",
            "underestimate",
        ]

    def test_defaults(self):
        m = parse_uncertainty("lognormal")
        assert m.sigma == 0.5
        assert m.failure_rate == 0.02    # stochastic models fail by default
        assert m.max_retries == 3 and m.backoff == 60
        assert parse_uncertainty("exact").failure_rate == 0.0

    def test_canonical_spec_round_trips(self):
        for spec in ("exact", "lognormal:sigma=0.9:overrun=grace:seed=7",
                     "underestimate:factor=3:failure_rate=0.5",
                     "early-exit:no_show_rate=0.1"):
            model = parse_uncertainty(spec)
            assert parse_uncertainty(model.spec) == model

    def test_default_seed_fills_only_when_absent(self):
        assert parse_uncertainty("lognormal", default_seed=9).seed == 9
        assert parse_uncertainty("lognormal:seed=3", default_seed=9).seed == 3

    def test_unknown_model_and_params_are_loud(self):
        with pytest.raises(InvalidInstanceError, match="unknown"):
            parse_uncertainty("weibull")
        with pytest.raises(InvalidInstanceError, match="unknown parameter"):
            parse_uncertainty("lognormal:factor=2")   # factor is not lognormal's
        with pytest.raises(InvalidInstanceError, match="malformed"):
            parse_uncertainty("lognormal:sigma")
        with pytest.raises(InvalidInstanceError, match="not a.*number"):
            parse_uncertainty("lognormal:sigma=big")

    def test_validation_is_loud(self):
        with pytest.raises(InvalidInstanceError, match="factor"):
            UncertaintyModel(model="overestimate", factor=0.5)
        with pytest.raises(InvalidInstanceError, match="failure_rate"):
            UncertaintyModel(failure_rate=1.5)
        with pytest.raises(InvalidInstanceError, match="overrun"):
            UncertaintyModel(overrun="forgive")
        with pytest.raises(InvalidInstanceError, match="backoff"):
            UncertaintyModel(backoff=0)

    def test_is_exact(self):
        assert parse_uncertainty("exact").is_exact
        assert not parse_uncertainty("exact:failure_rate=0.1").is_exact
        assert not parse_uncertainty("exact:no_show_rate=0.1").is_exact
        assert not parse_uncertainty("lognormal").is_exact

    def test_resolve(self):
        assert resolve_uncertainty(None) is None
        model = parse_uncertainty("lognormal")
        assert resolve_uncertainty(model) is model
        assert resolve_uncertainty("lognormal") == model
        with pytest.raises(InvalidInstanceError, match="uncertainty must be"):
            resolve_uncertainty(42)

    def test_third_party_model_joins_registry(self):
        name = "test-always-half"
        UNCERTAINTY_MODELS.register(
            name,  # repro: noqa RPL501 -- test-scoped throwaway name
            lambda **kw: UncertaintyModel(model="early-exit", **kw),
            overwrite=True,
        )
        assert parse_uncertainty(f"{name}:seed=1").model == "early-exit"

    def test_draw_is_deterministic_and_gridded(self):
        model = parse_uncertainty("lognormal:sigma=1:failure_rate=0.5:seed=4")
        for attempt in range(3):
            a1 = model.draw("job-1", 100, attempt)
            a2 = model.draw("job-1", 100, attempt)
            assert a1 == a2
            actual, fail_at = a1
            assert isinstance(actual, int) and actual >= 1
            if fail_at is not None:
                assert 1 <= fail_at <= min(actual, 100)
        assert model.draw("job-1", 100, 0) != model.draw("job-2", 100, 0)

    def test_attempt_past_retry_budget_never_fails(self):
        model = parse_uncertainty("lognormal:failure_rate=1:max_retries=2")
        for job in range(50):
            assert model.draw(job, 30, attempt=2)[1] is None
            assert model.draw(job, 30, attempt=1)[1] is not None

    def test_no_show_draw(self):
        assert not parse_uncertainty("lognormal").is_no_show(0)
        sure = parse_uncertainty("exact:no_show_rate=1")
        assert sure.is_no_show(0) and sure.is_no_show(5)

    #: pinned ``draw(job id, p, attempt)`` results for ``p = 100`` (the
    #: integer grid) and ``p = 12.5`` under
    #: ``<model>:failure_rate=0.5:seed=<seed>``, keyed by model
    DRAW_GOLDEN = {
        "exact": [
            ((0, 0, 0), (100, None), (12.5, None)),
            ((1, 1, 0), (100, 65), (12.5, 8.095778211053215)),
            ((7, "job-3", 1), (100, None), (12.5, None)),
            ((42, 12345, 2), (100, None), (12.5, None)),
        ],
        "overestimate:factor=4": [
            ((0, 0, 0), (67, None), (8.389330175587611, None)),
            ((1, 1, 0), (32, None), (4.079751591941655, None)),
            ((7, "job-3", 1), (66, None), (8.36000393245953, None)),
            ((42, 12345, 2), (98, 37), (12.3495029816446, 4.642500919231305)),
        ],
        "underestimate:factor=2": [
            ((0, 0, 0), (156, None), (19.51910690078348, None)),
            ((1, 1, 0), (110, None), (13.773002122588874, None)),
            ((7, "job-3", 1), (155, None), (19.480005243279376, None)),
            ((42, 12345, 2), (198, 38), (24.799337308859467, 4.699076681599636)),
        ],
        "lognormal:sigma=1": [
            ((0, 0, 0), (39, 9), (4.986341848562927, 1.0542077564890135)),
            ((1, 1, 0), (75, None), (9.467107138825877, None)),
            ((7, "job-3", 1), (154, 89), (19.369491530403103, 11.126042779665802)),
            ((42, 12345, 2), (25, 15), (3.1352309033718972, 1.91093900292321)),
        ],
        "early-exit": [
            ((0, 0, 0), (56, None), (7.019106900783481, None)),
            ((1, 1, 0), (10, None), (1.2730021225888732, None)),
            ((7, "job-3", 1), (55, None), (6.980005243279375, None)),
            ((42, 12345, 2), (98, 37), (12.299337308859467, 4.623642331775195)),
        ],
    }

    def test_draw_stream_golden(self):
        """Every stochastic row rests on these values: a change to the
        stream must show up here (and bump DRAW_STREAM_VERSION)."""
        assert DRAW_STREAM_VERSION == 2
        for spec, rows in self.DRAW_GOLDEN.items():
            for (seed, job_id, attempt), on_grid, off_grid in rows:
                model = parse_uncertainty(
                    f"{spec}:failure_rate=0.5:seed={seed}"
                )
                assert model.draw(job_id, 100, attempt) == on_grid
                assert model.draw(job_id, 12.5, attempt) == pytest.approx(
                    off_grid, rel=1e-12
                )
        model = parse_uncertainty("exact:no_show_rate=0.5:seed=3")
        assert [model.is_no_show(i) for i in range(8)] == [
            False, True, True, False, True, True, False, False,
        ]

    def test_draw_stream_spans_blocks(self):
        """Uniforms five and six come from the second block,
        ``SHA-256(basis + ":1")``."""
        stream = DrawStream("3:job:9:0")
        drawn = [stream.random() for _ in range(6)]
        assert drawn == [
            0.43222330267146747, 0.19661832227235998, 0.08583044801116013,
            0.7802090123346626, 0.6969081083499556, 0.5527918690546662,
        ]
        words = struct.unpack(">4Q", hashlib.sha256(b"3:job:9:0:1").digest())
        assert drawn[4:] == [(w >> 11) / 2**53 for w in words[:2]]
        assert DrawStream("3:job:9:0").gauss() == pytest.approx(
            0.3502128428231193, rel=1e-12
        )

    def test_metric_helpers(self):
        assert quantile([3, 1, 2], 0.5) == 2
        assert quantile([3, 1, 2], 0.99) == 3
        assert quantile([], 0.5) == 0
        assert isinstance(quantile([3, 1, 2], 0.5), int)
        with pytest.raises(InvalidInstanceError):
            quantile([1], 1.5)
        assert p_slowdown_le([1, 5, 50]) == pytest.approx(2 / 3)
        assert p_slowdown_le([]) == 1.0


# ---------------------------------------------------------------------------
# the stream's distributions
# ---------------------------------------------------------------------------

#: draws per distribution check; every tolerance below is at least four
#: standard errors, and the seeds are fixed, so the checks are
#: deterministic and only a broken stream fails them
N_DRAWS = 20_000


def _mean_std(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


class TestDrawDistributions:
    def test_uniforms_lie_in_unit_interval_and_fill_it(self):
        long_stream = DrawStream("7:uniform")
        values = [long_stream.random() for _ in range(N_DRAWS)]
        values += [DrawStream(f"7:u:{i}").random() for i in range(N_DRAWS)]
        assert all(0.0 <= v < 1.0 for v in values)
        mean, std = _mean_std(values)
        se = math.sqrt(1 / 12 / len(values))
        assert abs(mean - 0.5) < 4 * se
        assert abs(std - math.sqrt(1 / 12)) < 0.005
        bins = [0] * 10
        for v in values:
            bins[int(v * 10)] += 1
        expected = len(values) / 10
        assert all(abs(b - expected) < 4 * math.sqrt(expected) for b in bins)

    def test_gauss_is_standard_normal(self):
        stream = DrawStream("7:gauss")
        values = [stream.gauss() for _ in range(N_DRAWS)]
        mean, std = _mean_std(values)
        assert abs(mean) < 4 / math.sqrt(N_DRAWS)
        assert abs(std - 1.0) < 4 / math.sqrt(2 * N_DRAWS)
        inside = sum(1 for v in values if abs(v) < 1.0) / N_DRAWS
        assert abs(inside - 0.6827) < 0.015

    def test_lognormal_log_ratio_moments(self):
        sigma = 0.5
        model = parse_uncertainty(
            f"lognormal:sigma={sigma}:failure_rate=0:seed=11"
        )
        p = 1000.0
        logs = [math.log(model.draw(j, p)[0] / p) for j in range(N_DRAWS)]
        mean, std = _mean_std(logs)
        assert abs(mean) < 4 * sigma / math.sqrt(N_DRAWS)
        assert abs(std - sigma) < 4 * sigma / math.sqrt(2 * N_DRAWS)

    @pytest.mark.parametrize("p", [100, 100.0])
    def test_failure_frequency_and_instant(self, p):
        rate = 0.1
        model = parse_uncertainty(
            f"lognormal:sigma=0.5:failure_rate={rate}:seed=11"
        )
        fractions = []
        for j in range(N_DRAWS):
            actual, fail_at = model.draw(j, p)
            if fail_at is None:
                continue
            horizon = min(actual, p)
            assert isinstance(fail_at, type(p))
            if isinstance(p, int):
                assert 1 <= fail_at <= horizon
            else:
                assert 0 < fail_at <= horizon
            fractions.append(fail_at / horizon)
        freq = len(fractions) / N_DRAWS
        assert abs(freq - rate) < 4 * math.sqrt(rate * (1 - rate) / N_DRAWS)
        # the failure instant is spread over the window, not bunched
        mean, _ = _mean_std(fractions)
        assert 0.4 < mean < 0.6

    def test_no_show_frequency(self):
        rate = 0.3
        model = parse_uncertainty(f"exact:no_show_rate={rate}:seed=11")
        freq = sum(model.is_no_show(i) for i in range(N_DRAWS)) / N_DRAWS
        assert abs(freq - rate) < 4 * math.sqrt(rate * (1 - rate) / N_DRAWS)


# ---------------------------------------------------------------------------
# third-party models: the _actual override contract
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BimodalModel(UncertaintyModel):
    """A third-party model: half the jobs exit at a fifth of their
    estimate, every job carries lognormal noise.  It takes three
    uniforms, so a failing attempt's instant comes from the stream's
    second block."""

    def _actual(self, rng, p):
        scale = 0.2 if rng.random() < 0.5 else 1.0
        return self._grid(p * scale * math.exp(0.3 * rng.gauss()), p)


class TestThirdPartyModel:
    def test_actual_override_replays_deterministically(self):
        m = 16
        jobs = _jobs_from_rows(
            [(i % 3, 5 + (i * 7) % 23, 1 + (i * 5) % 16) for i in range(120)],
            m,
        )
        model = _BimodalModel(model="bimodal", failure_rate=0.2, seed=3)
        assert not model.is_exact
        kwargs = dict(policy="easy", window=10, record_starts=True,
                      uncertainty=model)
        runs = [ReplayEngine(m, **kwargs).run(jobs) for _ in range(2)]
        assert _trim(runs[0]) == _trim(runs[1])
        assert _trim(replay_chained(jobs, 30, m, **kwargs)) == _trim(runs[0])
        totals = runs[0].totals
        assert totals["early_exits"] > 0 and totals["requeues"] > 0
        certain = ReplayEngine(m, policy="easy", window=10,
                               record_starts=True).run(jobs)
        assert _trim(certain) != _trim(runs[0])


# ---------------------------------------------------------------------------
# the exact model is byte-identical to no model at all
# ---------------------------------------------------------------------------

class TestExactIdentity:
    @pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy"])
    @pytest.mark.parametrize("backend", ENGINE_PROFILES)
    @pytest.mark.parametrize("fused", [False, True])
    def test_identity_matrix(self, policy, backend, fused):
        """policies x backends x inlined/reference passes: ``exact``
        changes no byte."""
        m = 16
        jobs = _jobs_from_rows(
            [(i % 3, 5 + (i * 7) % 23, 1 + (i * 5) % 16) for i in range(80)],
            m,
        )
        kwargs = dict(policy=policy, window=7, profile_backend=backend,
                      fused_policies=fused, record_starts=True)
        plain = ReplayEngine(m, **kwargs).run(jobs)
        exact = ReplayEngine(m, uncertainty="exact", **kwargs).run(jobs)
        assert _trim(exact) == _trim(plain)
        assert not (UNCERTAINTY_METRIC_FIELDS & exact.totals.keys())
        # an independent oracle: the recorded starts are a feasible
        # schedule of the certain-world instance
        Schedule(ReservationInstance(m=m, jobs=jobs), plain.starts).verify()

    @given(rows=_trace_rows, policy=_policies,
           window=st.sampled_from([0, 7]))
    @settings(max_examples=40, deadline=None)
    def test_exact_identity_differential(self, rows, policy, window):
        m = 16
        jobs = _jobs_from_rows(rows, m)
        plain = ReplayEngine(m, policy=policy, window=window,
                             record_starts=True).run(jobs)
        exact = ReplayEngine(m, policy=policy, window=window,
                             record_starts=True,
                             uncertainty="exact").run(jobs)
        assert _trim(exact) == _trim(plain)

    def test_exact_checkpoint_carries_no_uncertainty(self):
        jobs = _jobs_from_rows([(1, 5, 4)] * 10, 8)
        result = ReplayEngine(8, uncertainty="exact").run_slice(
            jobs, drain=False
        )
        assert result.checkpoint.uncertainty is None

    def test_heap_queue_rejects_models(self):
        with pytest.raises(SchedulingError, match="calendar"):
            ReplayEngine(8, completion_queue="heap",
                         uncertainty="lognormal")
        ReplayEngine(8, completion_queue="heap", uncertainty="exact")


# ---------------------------------------------------------------------------
# the inlined passes == the reference protocol pass, under uncertainty
# ---------------------------------------------------------------------------

#: one model per uncertainty mechanism the passes meet: failures and
#: requeues, early-exit tail credits, reservation no-shows, grace
#: extensions
_IDENTITY_MODELS = [
    "lognormal:sigma=0.5:failure_rate=0.1:seed=3",
    "early-exit:seed=2",
    "exact:no_show_rate=0.5:seed=4",
    "underestimate:factor=1.4:overrun=grace:grace=0.5:seed=5",
]


def _core_session(m, policy, backend, model, fast, jobs, reserve_every=10,
                  halfway=False):
    """A serve-style session on a bare core — reservations and cancels
    between ``advance_to`` calls — returning its canonical state at a
    midpoint and at the end, its rows and its starts.  With
    ``halfway``, the clock also stops halfway to each release, cutting
    runs of completions at a limit."""
    decide = POLICIES.get(policy)
    core = SchedulerCore(
        m, policy, profile_backend=backend, window=7, record_starts=True,
        uncertainty=model, decide=decide if fast else partial(decide),
    )
    states = []
    for i, job in enumerate(jobs):
        if halfway:
            core.advance_to((core.horizon + job.release) // 2)
        if i % reserve_every == reserve_every // 2:
            try:
                core.reserve(job.release + 4, 12, 1 + i % 3)
            except SchedulingError:
                pass  # does not fit: refused alike by both passes
        core.submit(job)
        core.advance_to(job.release)
        if i % 9 == 4:
            try:
                core.cancel(job.id)
            except SchedulingError:
                pass  # already running
        if i == len(jobs) // 2:
            states.append(json.dumps(core.describe_state(), sort_keys=True))
    core.drain()
    states.append(json.dumps(core.describe_state(), sort_keys=True))
    return states, core.emitted, core.starts


class TestFastPassIdentity:
    @pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy"])
    @pytest.mark.parametrize("backend", ENGINE_PROFILES)
    @pytest.mark.parametrize("model", _IDENTITY_MODELS)
    def test_fast_equals_reference(self, policy, backend, model):
        """Under every uncertainty mechanism, the inlined passes and the
        registered functions run through the policy protocol
        (``fused_policies=False``) produce the same rows, totals,
        recorded starts and checkpoints, byte for byte — in replay, in
        a sliced replay and in a serve-style core session."""
        m = 16
        jobs = _jobs_from_rows(
            [(i % 3, 5 + (i * 7) % 23, 1 + (i * 5) % 16) for i in range(80)],
            m,
        )
        runs = {}
        for fast in (True, False):
            kwargs = dict(policy=policy, window=7, profile_backend=backend,
                          record_starts=True, uncertainty=model,
                          fused_policies=fast)
            full = ReplayEngine(m, **kwargs).run(jobs)
            head = ReplayEngine(m, **kwargs).run_slice(jobs[:40], drain=False)
            runs[fast] = (
                _trim(full), head.windows, head.starts,
                pickle.dumps(head.checkpoint),
                _core_session(m, policy, backend, model, fast, jobs),
            )
        assert runs[True] == runs[False]


def _sparse_rows(seed, n_bursts):
    """A sparse trace: ``n_bursts`` bursts of arrivals apart by gaps
    longer than any runtime estimate, so the queue keeps emptying and
    the fast loop's two scalar shortcuts run — the lone-arrival start
    (one-job bursts) and the empty-queue drain, with failures, tail
    credits and grace extensions inside it and requeue and no-show
    wakes that must stop it.  Estimates cluster on a few values, so the
    jobs of a burst often share an end and exit early at different
    times.  The dense traces above almost never empty the queue.

    The trace is expanded from two small integers, so a failing
    example shrinks over those (a few dozen whole replays) instead of
    over a list of jobs."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_bursts):
        gap = rng.choice([30, 70, 130])  # gap before the burst
        for k in range(rng.randint(1, 4)):
            rows.append((
                gap if k == 0 else rng.choice([0, 0, 1, 2]),  # gap in it
                rng.choice([2, 5, 10, 10, 10, 20, 25]),       # estimate
                rng.randint(1, 10),                           # processors
            ))
    return rows


def _core_replays(m, policy, backend, model, fast, jobs, cut):
    """Replay ``jobs`` on bare cores, as :class:`ReplayEngine` does:
    once in full, then as a chain of slices of ``cut`` arrivals resumed
    through pickled checkpoints.  Returns the rows, starts and canonical
    state (counters and ``peak_segments`` included) of the full replay
    and of every slice, and every checkpoint's bytes."""
    decide = POLICIES.get(policy)

    def core(resume=None):
        return SchedulerCore(
            m, policy, profile_backend=backend, window=5,
            record_starts=True, uncertainty=model, resume=resume,
            decide=decide if fast else partial(decide),
        )

    def state(c):
        return c.emitted, c.starts, json.dumps(c.describe_state(),
                                               sort_keys=True)

    full = core()
    full.feed(jobs)
    full.drain()
    out = [state(full)]
    ckpt = None
    for i in range(0, len(jobs), cut):
        part = core(ckpt)
        part.feed(jobs[i:i + cut])
        if i + cut >= len(jobs):
            part.drain()
            out.append(state(part))
        else:
            blob = pickle.dumps(part.checkpoint())
            out.append((part.emitted, part.starts, blob))
            ckpt = pickle.loads(blob)
    return out


class TestSparseFastPassIdentity:
    @pytest.mark.parametrize("model", _IDENTITY_MODELS)
    @given(trace_seed=st.integers(min_value=0, max_value=2**16 - 1),
           n_bursts=st.integers(min_value=3, max_value=8),
           policy=_policies, backend=st.sampled_from(["auto", "list"]),
           cut=st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_sparse_fast_equals_reference(self, model, trace_seed, n_bursts,
                                          policy, backend, cut):
        """On traces whose queue keeps emptying, the inlined passes with
        their scalar shortcuts equal the protocol path (``decide`` a
        ``partial`` of the registered function) byte for byte: rows,
        starts and canonical state (``peak_segments`` included) of a
        full replay and of every slice of a checkpointed chain, every
        checkpoint, and the states of a serve-style session whose clock
        also stops between arrivals."""
        m = 16
        jobs = _jobs_from_rows(_sparse_rows(trace_seed, n_bursts), m)
        runs = {
            fast: (
                _core_replays(m, policy, backend, model, fast, jobs, cut),
                _core_session(m, policy, backend, model, fast, jobs,
                              reserve_every=3, halfway=True),
            )
            for fast in (True, False)
        }
        assert runs[True] == runs[False]


# ---------------------------------------------------------------------------
# seeded determinism + serial == chained slices
# ---------------------------------------------------------------------------

class TestSeededDeterminism:
    def test_same_seed_identical_different_seed_not(self):
        m = 32
        jobs = _jobs_from_rows(
            [(i % 2, 10 + (i * 11) % 31, 1 + (i * 3) % 20) for i in range(200)],
            m,
        )
        spec = "lognormal:sigma=0.8:overrun=grace:seed=5"
        runs = [
            ReplayEngine(m, policy="easy", window=25, record_starts=True,
                         uncertainty=spec).run(jobs)
            for _ in range(2)
        ]
        assert _trim(runs[0]) == _trim(runs[1])
        other = ReplayEngine(
            m, policy="easy", window=25, record_starts=True,
            uncertainty="lognormal:sigma=0.8:overrun=grace:seed=6",
        ).run(jobs)
        assert _trim(other) != _trim(runs[0])

    @given(rows=_trace_rows, policy=_policies, model=_models,
           interval=st.sampled_from([2, 9, 25]))
    @settings(max_examples=25, deadline=None)
    def test_sharded_equals_serial(self, rows, policy, model, interval):
        """The checkpoint round-trips the full uncertainty state: a
        chain of checkpointed stochastic slices is byte-identical to
        one serial run."""
        m = 16
        jobs = _jobs_from_rows(rows, m)
        kwargs = dict(policy=policy, window=7, record_starts=True,
                      uncertainty=model)
        serial = ReplayEngine(m, **kwargs).run(jobs)
        chained = replay_chained(jobs, interval, m, **kwargs)
        assert _trim(chained) == _trim(serial)

    def test_resume_under_different_model_is_loud(self):
        jobs = _jobs_from_rows([(1, 10, 4)] * 30, 8)
        ckpt = ReplayEngine(
            8, uncertainty="lognormal:seed=1"
        ).run_slice(jobs, drain=False).checkpoint
        with pytest.raises(SchedulingError, match="uncertainty model"):
            SchedulerCore(8, "easy", resume=ckpt,
                          uncertainty="lognormal:seed=2")
        with pytest.raises(SchedulingError, match="uncertainty model"):
            SchedulerCore(8, "easy", resume=ckpt)


# ---------------------------------------------------------------------------
# event mechanics, one at a time
# ---------------------------------------------------------------------------

class TestMechanics:
    def test_failure_requeues_with_backoff_then_completes(self):
        model = parse_uncertainty(
            "exact:failure_rate=1:max_retries=2:backoff=10"
        )
        core = SchedulerCore(4, "easy", uncertainty=model)
        core.submit(Job.trusted("j", 20, 4, 0))
        core.advance_to(10_000)
        st_ = core.status()
        assert st_["completed"] == 1
        assert st_["requeues"] == 2    # every attempt fails until the budget
        assert st_["kills"] == 0
        # failure instants and backoffs push completion past 3 runs' worth
        fail1 = model.draw("j", 20, 0)[1]
        fail2 = model.draw("j", 20, 1)[1]
        expected = (fail1 + 10) + (fail2 + 10) + 20
        assert core.profile.earliest_fit(4, 1, after=0) is not None
        assert st_["clock"] == expected

    def test_overrun_kill_at_estimate(self):
        core = SchedulerCore(
            4, "easy",
            uncertainty="underestimate:factor=3:failure_rate=0:seed=2",
        )
        core.submit(Job.trusted("j", 50, 4, 0))
        core.advance_to(10_000)
        st_ = core.status()
        assert st_["completed"] == 1 and st_["kills"] == 1
        assert st_["clock"] == 50    # killed exactly at the estimate

    def test_overrun_grace_extends_when_capacity_allows(self):
        model = parse_uncertainty(
            "underestimate:factor=1.4:failure_rate=0:overrun=grace"
            ":grace=0.5:seed=4"
        )
        actual, _ = model.draw("j", 100, 0)
        assert actual > 100    # the point of the scenario
        core = SchedulerCore(4, "easy", uncertainty=model)
        core.submit(Job.trusted("j", 100, 4, 0))
        core.advance_to(10_000)
        st_ = core.status()
        cap = 100 + model.grace_budget(100)
        assert st_["clock"] == min(actual, cap)
        assert st_["kills"] == (1 if actual > cap else 0)

    def test_early_exit_frees_capacity_for_queued_job(self):
        model = parse_uncertainty("early-exit:failure_rate=0:seed=3")
        actual, _ = model.draw("a", 100, 0)
        assert actual < 100
        core = SchedulerCore(1, "easy", uncertainty=model, record_starts=True)
        core.submit(Job.trusted("a", 100, 1, 0))
        core.submit(Job.trusted("b", 100, 1, 0))
        core.advance_to(10_000)
        assert core.status()["early_exits"] >= 1
        # b starts at a's *actual* completion, not its estimate
        assert core.starts["b"] == actual

    def test_reservation_no_show_releases_hole(self):
        core = SchedulerCore(
            4, "easy", uncertainty="exact:no_show_rate=1",
            record_starts=True,
        )
        core.reserve(10, 50, 4)
        core.submit(Job.trusted("j", 20, 4, 0))
        core.advance_to(10_000)
        st_ = core.status()
        assert st_["no_shows"] == 1
        # the hole opened at its start instant: the job begins right
        # there instead of waiting out the 50-unit reservation
        assert core.starts["j"] == 10
        assert core.last_completion == 30

    def test_no_show_state_survives_checkpoint(self):
        spec = "exact:no_show_rate=1"
        core = SchedulerCore(4, "easy", uncertainty=spec)
        core.reserve(500, 50, 4)   # future: no-show still pending
        core.submit(Job.trusted("j", 20, 4, 0))
        core.advance_to(100)
        ckpt = core.checkpoint()
        assert ckpt.uncertainty is not None
        assert ckpt.uncertainty["no_shows_at"]
        resumed = SchedulerCore(4, "easy", resume=ckpt, uncertainty=spec)
        core.advance_to(10_000)
        resumed.advance_to(10_000)
        assert resumed.status() == core.status()
        assert resumed.status()["no_shows"] == 1

    def test_unstaged_cancel_gauge(self):
        core = SchedulerCore(4, "easy")
        core.submit(Job.trusted("future", 10, 2, 1_000))
        assert core.cancel("future") == "staged"
        st_ = core.status()
        assert st_["unstaged"] == 1 and st_["cancelled"] == 0
        assert core.describe_state()["unstaged"] == 1
        assert core.extra_state()["unstaged"] == 1
        fresh = SchedulerCore(4, "easy")
        fresh.restore_extra_state(core.extra_state())
        assert fresh.unstaged == 1

    def test_requeue_failpoint_fires(self):
        failpoints.arm("uncertainty.requeue", "error")
        core = SchedulerCore(
            4, "easy", uncertainty="exact:failure_rate=1:max_retries=1",
        )
        core.submit(Job.trusted("j", 20, 4, 0))
        with pytest.raises(FailpointError):
            core.advance_to(10_000)

    def test_overrun_kill_failpoint_fires(self):
        failpoints.arm("uncertainty.overrun_kill", "error")
        core = SchedulerCore(
            4, "easy",
            uncertainty="underestimate:factor=3:failure_rate=0:seed=2",
        )
        core.submit(Job.trusted("j", 50, 4, 0))
        with pytest.raises(FailpointError):
            core.advance_to(10_000)

    def test_failpoints_catalogued(self):
        assert "uncertainty.requeue" in CATALOG_BY_NAME
        assert "uncertainty.overrun_kill" in CATALOG_BY_NAME


# ---------------------------------------------------------------------------
# windowed distributional metrics
# ---------------------------------------------------------------------------

class TestWindowRows:
    DIST_KEYS = {
        "p_slowdown_le", "wait_p50", "wait_p95", "wait_p99",
        "bsld_p50", "bsld_p95", "bsld_p99", "requeues", "kills",
        "no_shows",
    }

    def test_stochastic_rows_carry_distributional_columns(self):
        m = 16
        jobs = _jobs_from_rows(
            [(1, 10 + i % 20, 1 + i % 12) for i in range(120)], m
        )
        result = ReplayEngine(
            m, policy="easy", window=30, uncertainty="lognormal:sigma=0.7",
        ).run(jobs)
        assert result.windows
        for row in result.windows:
            assert self.DIST_KEYS <= row.keys()
            assert 0.0 <= row["p_slowdown_le"] <= 1.0
            assert row["wait_p50"] <= row["wait_p95"] <= row["wait_p99"]
        totals = result.totals
        assert totals["uncertainty"].startswith("lognormal:")
        assert totals["kills"] + totals["early_exits"] > 0

    def test_certain_rows_do_not(self):
        jobs = _jobs_from_rows([(1, 10, 4)] * 40, 8)
        result = ReplayEngine(8, policy="easy", window=10).run(jobs)
        for row in result.windows:
            assert not (self.DIST_KEYS & row.keys())


# ---------------------------------------------------------------------------
# online simulator: estimate-error models under kill semantics
# ---------------------------------------------------------------------------

class TestOnlineUncertainty:
    def _instance(self):
        from repro.workloads.synthetic import (
            uniform_instance, with_poisson_releases,
        )

        return with_poisson_releases(
            uniform_instance(n=120, m=16, seed=3), rate=0.4, seed=4
        )

    def test_exact_is_identity(self):
        inst = self._instance()
        base = simulate(inst, policy="easy")
        exact = simulate(inst, policy="easy", uncertainty="exact")
        assert exact.schedule.starts == base.schedule.starts
        # jobs are NOT actualized: the degenerate model is a no-op
        assert tuple(j.p for j in exact.schedule.instance.jobs) == \
            tuple(j.p for j in inst.jobs)

    def test_error_model_is_deterministic_and_actualized(self):
        inst = self._instance()
        spec = "overestimate:factor=3:failure_rate=0:seed=7"
        one = simulate(inst, policy="easy", uncertainty=spec)
        two = simulate(inst, policy="easy", uncertainty=spec)
        assert one.schedule.starts == two.schedule.starts
        est = {j.id: j.p for j in inst.jobs}
        assert all(j.p <= est[j.id] for j in one.schedule.instance.jobs)
        assert any(j.p < est[j.id] for j in one.schedule.instance.jobs)

    def test_unsupported_features_are_loud(self):
        inst = self._instance()
        for spec in ("lognormal:sigma=0.5",             # default failures
                     "exact:no_show_rate=0.5",
                     "overestimate:failure_rate=0:overrun=grace"):
            with pytest.raises(SchedulingError, match="replay engine"):
                simulate(inst, uncertainty=spec)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def test_replay_uncertainty_flag(self, capsys):
        assert main([
            "replay", "synth:steady:400", "--window", "100",
            "--uncertainty", "lognormal:sigma=0.5",
        ]) == 0
        assert "replayed 400 jobs" in capsys.readouterr().out

    def test_bad_spec_is_reported(self, capsys):
        assert main([
            "replay", "synth:steady:100",
            "--uncertainty", "weibull:k=2",
        ]) == 2
        assert "unknown uncertainty model" in capsys.readouterr().err

    def test_list_uncertainty_models(self, capsys):
        assert main(["list", "--kind", "uncertainty-models"]) == 0
        out = capsys.readouterr().out
        assert "lognormal" in out and "early-exit" in out


# ---------------------------------------------------------------------------
# experiment layer: the uncertainties factor
# ---------------------------------------------------------------------------

class TestExperimentFactor:
    def _spec(self, **overrides):
        from repro.run import ExperimentSpec

        data = {
            "format": "repro-spec/1",
            "name": "u",
            "algorithms": ["online:easy"],
            "traces": [
                {"source": "synth:steady", "params": {"n": 300, "m": 32}}
            ],
            "metrics": ["makespan"],
            "seeds": [0],
        }
        data.update(overrides)
        return ExperimentSpec.from_dict(data)

    def test_uncertainties_multiply_points(self):
        spec = self._spec(uncertainties=["exact", "lognormal:sigma=0.5"])
        assert spec.n_points == 2

    def test_rows_carry_the_factor_and_metrics(self):
        from repro.run import run_experiment

        spec = self._spec(
            uncertainties=["lognormal:sigma=0.5"],
            metrics=["makespan", "p_slowdown_le", "requeues", "kills"],
            seeds=[0, 1],
        )
        rows = run_experiment(spec, jobs=1).rows
        assert len(rows) == 2
        for row in rows:
            assert row["uncertainty"] == "lognormal:sigma=0.5"
            assert 0.0 <= row["p_slowdown_le"] <= 1.0
            assert row["kills"] >= 0 and row["requeues"] >= 0
        # per-point derived seeds: the two seeds draw differently
        assert rows[0]["kills"] != rows[1]["kills"]

    def test_exact_point_with_uncertainty_metric_is_loud(self):
        from repro.run import run_experiment

        spec = self._spec(metrics=["p_slowdown_le"])
        with pytest.raises(InvalidInstanceError, match="uncertainty"):
            run_experiment(spec, jobs=1)

    def test_bad_uncertainty_fails_validation(self):
        with pytest.raises(InvalidInstanceError, match="unknown"):
            self._spec(uncertainties=["weibull"]).validate()

    def test_store_keys_carry_the_stream_for_stochastic_factors(self):
        from repro.run.runner import expand_points

        spec = self._spec(
            uncertainties=["exact", "exact:seed=3", "lognormal:sigma=0.5"]
        )
        factors = [point.factors for point in expand_points(spec)]
        assert ["draw_stream" in f for f in factors] == [False, False, True]
        assert factors[2]["draw_stream"] == DRAW_STREAM_VERSION

    def test_pre_stream_store_rows_are_recomputed(self, tmp_path):
        """A row keyed before the stream was versioned stands in for no
        stochastic point; the exact point's key is unchanged."""
        from repro.run import run_experiment
        from repro.run.runner import expand_points
        from repro.run.spec import canonical_json

        spec = self._spec(uncertainties=["exact", "lognormal:sigma=0.5"])
        store = tmp_path / "rows.jsonl"
        first = run_experiment(spec, store=str(store))
        assert first.computed == 2
        again = run_experiment(spec, store=str(store))
        assert again.computed == 0 and again.rows == first.rows

        def pre_stream_key(point):
            factors = dict(point.factors)
            factors.pop("draw_stream", None)
            digest = hashlib.sha256(canonical_json(factors).encode())
            return digest.hexdigest()[:16]

        old_keys = {p.key: pre_stream_key(p) for p in expand_points(spec)}
        rows = [json.loads(line) for line in store.read_text().splitlines()]
        store.write_text("".join(
            json.dumps(dict(row, key=old_keys[row["key"]])) + "\n"
            for row in rows
        ))
        third = run_experiment(spec, store=str(store))
        assert third.computed == 1 and third.skipped == 1
        assert third.rows == first.rows

    def test_uncertainties_require_traces(self):
        from repro.run import ExperimentSpec

        with pytest.raises(InvalidInstanceError, match="trace"):
            ExperimentSpec.from_dict({
                "format": "repro-spec/1",
                "name": "u",
                "algorithms": ["online:easy"],
                "workloads": [{"name": "uniform",
                               "params": {"n": 10, "m": 4}}],
                "metrics": ["makespan"],
                "seeds": [0],
                "uncertainties": ["lognormal"],
            })


# ---------------------------------------------------------------------------
# journal fingerprint
# ---------------------------------------------------------------------------

def _as_pre_stream_journal(journal_dir):
    """Rewrite a journal's header record as it was written before the
    draw stream was versioned: the same config without ``draw_stream``."""
    seg0 = Path(journal_dir) / "seg-00000000.wal"
    data = seg0.read_bytes()
    length, _ = struct.unpack_from("<II", data)
    header = json.loads(data[8:8 + length])
    del header["config"]["draw_stream"]
    payload = json.dumps(header, sort_keys=True).encode()
    seg0.write_bytes(
        struct.pack("<II", len(payload), zlib.crc32(payload))
        + payload + data[8 + length:]
    )


def _journal_config(journal_dir):
    """The config recorded in a journal's header (a read-only scan)."""
    from repro.durability import scan_journal

    return scan_journal(str(journal_dir)).records[0].record["config"]


class TestJournalFingerprint:
    def test_resume_under_different_model_is_loud(self, tmp_path):
        from repro.durability import replay_journaled
        from repro.errors import JournalError

        journal = str(tmp_path / "jrnl")
        replay_journaled(
            "synth:steady:200", journal, policy="easy", n=200,
            window=50, uncertainty="lognormal:sigma=0.5",
        )
        with pytest.raises(JournalError, match="uncertainty"):
            replay_journaled(
                "synth:steady:200", journal, policy="easy", n=200,
                window=50, resume=True, uncertainty="lognormal:sigma=0.9",
            )

    def test_exact_fingerprints_as_certain_world(self, tmp_path):
        from repro.durability import replay_journaled

        journal = str(tmp_path / "jrnl")
        replay_journaled("synth:steady:200", journal, policy="easy",
                         n=200, window=50)
        result = replay_journaled(
            "synth:steady:200", journal, policy="easy", n=200,
            window=50, resume=True, uncertainty="exact",
        )
        assert result.totals["n_jobs"] == 200
        exact = str(tmp_path / "exact")
        replay_journaled("synth:steady:200", exact, policy="easy",
                         n=200, window=50, uncertainty="exact")
        assert _journal_config(exact) == _journal_config(journal)
        assert "draw_stream" not in _journal_config(exact)

    def _interrupted(self, journal, store):
        """A stochastic journaled replay killed before its third slice
        (two snapshots are committed)."""
        failpoints.arm("replay.slice.start", "error", after=2)
        with pytest.raises(FailpointError):
            self._replay(journal, store)
        failpoints.reset()

    @staticmethod
    def _replay(journal, store, **kwargs):
        from repro.durability import replay_journaled

        return replay_journaled(
            "synth:steady:1200", str(journal), policy="easy", m=64,
            window=100, snapshot_interval=300, store=str(store),
            uncertainty="lognormal:sigma=0.5:failure_rate=0.1:seed=1",
            **kwargs,
        )

    def test_stochastic_journal_resumes_byte_identically(self, tmp_path):
        self._replay(tmp_path / "ref", tmp_path / "ref.jsonl")
        assert _journal_config(tmp_path / "ref")["draw_stream"] == (
            DRAW_STREAM_VERSION
        )
        self._interrupted(tmp_path / "j", tmp_path / "rows.jsonl")
        self._replay(tmp_path / "j", tmp_path / "rows.jsonl", resume=True)
        assert (tmp_path / "rows.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()

    def test_pre_stream_journal_refuses_to_resume(self, tmp_path):
        from repro.errors import JournalError

        self._interrupted(tmp_path / "j", tmp_path / "rows.jsonl")
        _as_pre_stream_journal(tmp_path / "j")
        with pytest.raises(JournalError, match="draw_stream"):
            self._replay(tmp_path / "j", tmp_path / "rows.jsonl",
                         resume=True)


class TestServeJournalStream:
    MODEL = "lognormal:sigma=0.5:failure_rate=0.3:seed=5"

    @staticmethod
    def _ops():
        from repro.serve.api import make_advance, make_submit

        ops = []
        for i in range(16):
            ops.append(make_submit(f"j{i}", 4 + (i * 5) % 11, 1 + i % 4, i))
            ops.append(make_advance(i))
        return ops

    def _journaled_session(self, directory, uncertainty):
        from repro.serve import SchedulerService

        service = SchedulerService.create(
            str(directory), m=8, window=4, snapshot_interval=5,
            uncertainty=uncertainty,
        )
        for body in self._ops():
            assert service.handle(body)["ok"]
        service.close()

    def test_stochastic_serve_journal_resumes_byte_identically(
            self, tmp_path):
        from repro.serve import SchedulerService

        reference = SchedulerService(
            SchedulerCore(8, "easy", window=4, uncertainty=self.MODEL)
        )
        for body in self._ops():
            assert reference.handle(body)["ok"]
        assert reference.core.requeues > 0
        self._journaled_session(tmp_path / "j", self.MODEL)
        assert _journal_config(tmp_path / "j")["draw_stream"] == (
            DRAW_STREAM_VERSION
        )
        recovered, _ = SchedulerService.resume(str(tmp_path / "j"))
        assert json.dumps(recovered.core.describe_state(), sort_keys=True) \
            == json.dumps(reference.core.describe_state(), sort_keys=True)
        recovered.close()

    def test_pre_stream_serve_journal_refuses_to_resume(self, tmp_path):
        from repro.errors import ServeError
        from repro.serve import SchedulerService

        self._journaled_session(tmp_path / "j", self.MODEL)
        _as_pre_stream_journal(tmp_path / "j")
        with pytest.raises(ServeError, match="draw stream"):
            SchedulerService.resume(str(tmp_path / "j"))

    def test_exact_serve_journal_header_is_unchanged(self, tmp_path):
        self._journaled_session(tmp_path / "exact", "exact")
        self._journaled_session(tmp_path / "certain", None)
        assert _journal_config(tmp_path / "exact") == _journal_config(
            tmp_path / "certain"
        )
        assert "draw_stream" not in _journal_config(tmp_path / "exact")
