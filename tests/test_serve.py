"""The ``repro serve`` daemon: wire format, service semantics, crash safety.

Three layers, tested separately and then together:

* :mod:`repro.serve.api` — every ``make_*`` builder must round-trip
  through :func:`parse_request` (the builders and the validator are two
  halves of one ``repro-serve/1`` contract), and the response envelopes
  must reconstruct on the client side.
* :class:`SchedulerService` — the transport-free op layer: op
  application, the journal's apply → journal → ack ordering, snapshot +
  op-replay recovery byte-identity, and the serve/replay journal
  mode wall.
* The HTTP daemon — an end-to-end subprocess session, then the kill
  matrix: SIGKILL the daemon at every serve-path failpoint mid-stream,
  restart with ``--resume``, have the client retry its unacked op, and
  assert the recovered ``/v1/state`` body is byte-identical to an
  uninterrupted session's.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.instance import ReservationInstance
from repro.core.job import Job, Reservation
from repro.core.schedule import Schedule
from repro.devtools import failpoints
from repro.durability import Journal
from repro.errors import (
    InvalidInstanceError,
    SchedulingError,
    ServeError,
    ServeProtocolError,
)
from repro.serve import SchedulerService, ServeDaemon
from repro.serve.api import (
    MUTATING_OPS,
    OPS as ALL_OPS,
    SERVE_FORMAT,
    error_envelope,
    error_kind,
    job_from_payload,
    make_advance,
    make_cancel,
    make_drain,
    make_query,
    make_reserve,
    make_submit,
    ok_envelope,
    parse_request,
    raise_for_envelope,
)
from repro.simulation import POLICIES, SchedulerCore
from repro.simulation.replay import CHECKPOINT_VERSION

SRC_ROOT = Path(repro.__file__).resolve().parents[1]

M = 16
WINDOW = 4
SNAP = 4  # snapshot every 4 accepted ops: several snapshots mid-stream


def session_ops():
    """One deterministic client session: submits, a queued cancel, a
    staged cancel, advances, drain — 16 mutating ops, every one valid
    against a fresh ``m=16`` core."""
    return [
        make_submit("a0", 10, 16, 0),   # hogs the whole machine until 10
        make_submit("a1", 3, 2, 0),     # queued behind a0
        make_submit("a2", 4, 8, 0),
        make_advance(2),
        make_cancel("a1"),              # cancelled while queued
        make_submit("a3", 5, 4, 2),
        make_cancel("a3"),              # cancelled while still staged
        make_submit("a4", 6, 4, 4),
        make_advance(6),
        make_submit("a5", 2, 2, 8),
        make_submit("a6", 7, 12, 9),
        make_advance(12),
        make_submit("a7", 3, 3, 14),
        make_advance(20),
        make_advance(40),
        make_drain(),
    ]


@pytest.fixture(autouse=True)
def _reset_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


# ---------------------------------------------------------------------------
# repro-serve/1 wire format (satellite: versioned client API)
# ---------------------------------------------------------------------------


class TestApiRoundTrip:
    def test_submit_round_trips_to_job(self):
        body = make_submit("j1", 5, 2, 10, name="batch")
        op, parsed = parse_request(body)
        assert op == "submit"
        job = job_from_payload(parsed["job"])
        assert job == Job(id="j1", p=5, q=2, release=10, name="batch")

    def test_every_builder_parses(self):
        for body in (
            make_submit("j", 1, 1, 0),
            make_cancel("j"),
            make_advance(7),
            make_reserve(5, 3, 2),
            make_drain(),
            make_query("status"),
            make_query("windows"),
            make_query("state"),
            make_query("shutdown"),
        ):
            op, _ = parse_request(body)
            assert op in ALL_OPS

    def test_fields_the_op_does_not_read_are_dropped(self):
        for body in (
            make_submit("j", 1, 1, 0),
            make_cancel("j"),
            make_advance(7),
            make_reserve(5, 3, 2),
            make_drain(),
            make_query("status"),
        ):
            assert parse_request(dict(body, extra=[[1]])) == (body["op"], body)

    def test_integral_floats_normalise_to_int(self):
        # a sloppy JSON client sending 10.0 gets the rows of one sending 10
        op, parsed = parse_request(
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": 5.0, "q": 2.0, "release": 10.0}}
        )
        job = job_from_payload(parsed["job"])
        assert (job.p, job.q, job.release) == (5, 2, 10)
        assert all(
            type(v) is int for v in (job.p, job.q, job.release)
        )

    def test_non_integral_float_survives(self):
        _, parsed = parse_request(make_advance(2.5))
        assert parsed["to"] == 2.5

    def test_query_builder_rejects_mutating_ops(self):
        with pytest.raises(ServeProtocolError):
            make_query("submit")
        with pytest.raises(ServeProtocolError):
            make_query("nonsense")

    @pytest.mark.parametrize(
        "body",
        [
            "not an object",
            {},
            {"format": "repro-serve/2", "op": "status"},
            {"format": SERVE_FORMAT, "op": "frobnicate"},
            {"format": SERVE_FORMAT, "op": "submit"},
            {"format": SERVE_FORMAT, "op": "submit", "job": "j1"},
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": 1, "q": 1, "release": 0, "prio": 9}},
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": 1, "q": 1}},
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": "fast", "q": 1, "release": 0}},
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": True, "q": 1, "release": 0}},
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": 1, "q": 1, "release": 0, "name": 3}},
            {"format": SERVE_FORMAT, "op": "cancel"},
            {"format": SERVE_FORMAT, "op": "advance"},
            {"format": SERVE_FORMAT, "op": "reserve", "start": 0, "p": 1},
            # job ids must be JSON strings or integers (hashable scalars)
            pytest.param({"format": SERVE_FORMAT, "op": "submit",
                          "job": {"id": [1, 2], "p": 1, "q": 1, "release": 0}},
                         id="submit-list-id"),
            pytest.param({"format": SERVE_FORMAT, "op": "submit",
                          "job": {"id": True, "p": 1, "q": 1, "release": 0}},
                         id="submit-bool-id"),
            pytest.param({"format": SERVE_FORMAT, "op": "cancel",
                          "job": {"a": 1}}, id="cancel-object-id"),
            pytest.param({"format": SERVE_FORMAT, "op": "cancel",
                          "job": None}, id="cancel-null-id"),
            pytest.param({"format": SERVE_FORMAT, "op": "cancel",
                          "job": 1.5}, id="cancel-fractional-id"),
        ],
        ids=lambda b: b if isinstance(b, str) else (b.get("op") or "untagged"),
    )
    def test_malformed_requests_reject(self, body):
        with pytest.raises(ServeProtocolError):
            parse_request(body)

    @pytest.mark.parametrize(
        "body",
        [
            {"format": SERVE_FORMAT, "op": "submit",
             "job": {"id": "j", "p": float("inf"), "q": 1, "release": 0}},
            {"format": SERVE_FORMAT, "op": "advance", "to": float("nan")},
            {"format": SERVE_FORMAT, "op": "reserve",
             "start": float("-inf"), "p": 1, "q": 1},
        ],
        ids=lambda b: b["op"],
    )
    def test_non_finite_numbers_reject(self, body):
        with pytest.raises(ServeProtocolError):
            parse_request(body)

    def test_ops_catalog_is_consistent(self):
        assert set(MUTATING_OPS) < set(ALL_OPS)
        assert len(ALL_OPS) == len(set(ALL_OPS))


class TestEnvelopes:
    def test_ok_round_trip(self):
        assert raise_for_envelope(ok_envelope({"x": 1})) == {"x": 1}
        assert raise_for_envelope(ok_envelope()) == {}

    def test_error_kinds(self):
        assert error_kind(ServeProtocolError("x")) == "protocol"
        assert error_kind(SchedulingError("x")) == "scheduling"
        assert error_kind(ValueError("x")) == "internal"

    def test_error_envelope_reconstructs(self):
        env = error_envelope(SchedulingError("job 'j' is already live"))
        assert env["ok"] is False
        assert env["error"]["type"] == "SchedulingError"
        with pytest.raises(ServeError, match="already live"):
            raise_for_envelope(env)

    def test_protocol_errors_reconstruct_as_protocol(self):
        env = error_envelope(ServeProtocolError("bad request"))
        with pytest.raises(ServeProtocolError, match="bad request"):
            raise_for_envelope(env)

    def test_untagged_response_rejects(self):
        with pytest.raises(ServeProtocolError):
            raise_for_envelope({"ok": True, "result": {}})


# ---------------------------------------------------------------------------
# SchedulerCore verbs (the redesigned engine-core surface)
# ---------------------------------------------------------------------------


def _typed(value):
    """``value`` with each leaf paired with its type name, so states
    that differ only in a time's type compare unequal."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return type(value).__name__, value


def _typed_state(core):
    return _typed(core.describe_state())


def _on(backend):
    """Core keyword arguments: ``profile_backend=backend``, or none at
    all for ``"default"``."""
    return {} if backend == "default" else {"profile_backend": backend}


#: Cores on the kernel: named ``"auto"``, and by default (the id names
#: the profile the default builds, ``ArrayProfile``).
_KERNEL_CORES = ["auto", pytest.param("default", id="array")]


class TestCoreVerbs:
    def test_submit_after_drain_rejects(self):
        core = SchedulerCore(4)
        core.drain()
        with pytest.raises(SchedulingError, match="after drain"):
            core.submit(Job(id="j", p=1, q=1, release=0))

    def test_out_of_order_release_rejects(self):
        core = SchedulerCore(4)
        core.advance_to(10)
        with pytest.raises(SchedulingError, match="out of order"):
            core.submit(Job(id="j", p=1, q=1, release=5))

    def test_duplicate_live_id_rejects(self):
        core = SchedulerCore(4)
        core.submit(Job(id="j", p=5, q=1, release=0))
        with pytest.raises(SchedulingError, match="already live"):
            core.submit(Job(id="j", p=5, q=1, release=0))

    def test_cancel_staged_then_id_is_reusable(self):
        core = SchedulerCore(4)
        core.submit(Job(id="j", p=5, q=1, release=3))
        assert core.cancel("j") == "staged"
        core.submit(Job(id="j", p=5, q=1, release=3))  # free again

    def test_cancel_queued(self):
        core = SchedulerCore(4)
        core.submit(Job(id="hog", p=10, q=4, release=0))
        core.submit(Job(id="j", p=2, q=1, release=0))
        core.advance_to(1)
        assert core.cancel("j") == "queued"
        assert core.status()["cancelled"] == 1

    def test_cancel_running_rejects(self):
        core = SchedulerCore(4)
        core.submit(Job(id="j", p=10, q=4, release=0))
        core.advance_to(1)
        with pytest.raises(SchedulingError, match="running"):
            core.cancel("j")

    def test_cancel_unknown_rejects(self):
        with pytest.raises(SchedulingError, match="not a live job"):
            SchedulerCore(4).cancel("ghost")

    def test_advance_backwards_rejects(self):
        core = SchedulerCore(4)
        core.advance_to(10)
        core.advance_to(10)  # same time is idempotent
        with pytest.raises(SchedulingError, match="already at"):
            core.advance_to(9)

    def test_reserve_blocks_capacity(self):
        core = SchedulerCore(4)
        core.reserve(0, 10, 4)  # the whole machine, [0, 10)
        core.submit(Job(id="j", p=2, q=1, release=0))
        core.advance_to(0)
        assert core.status()["running"] == 0  # pushed past the hole
        core.drain()
        assert core.last_completion == 12

    def test_reserve_validation(self):
        core = SchedulerCore(4)
        core.advance_to(5)
        with pytest.raises(SchedulingError, match="processors"):
            core.reserve(10, 5, 9)
        with pytest.raises(SchedulingError, match="positive"):
            core.reserve(10, 0, 2)
        with pytest.raises(SchedulingError, match="in the past"):
            core.reserve(2, 5, 2)

    def test_reserve_overfull_rejects(self):
        core = SchedulerCore(4)
        core.reserve(0, 10, 4)
        with pytest.raises(SchedulingError, match="does not fit"):
            core.reserve(5, 1, 1)

    @staticmethod
    def _fractional_hole_starts(backend):
        core = SchedulerCore(
            4, "easy", window=0, record_starts=True, **_on(backend)
        )
        core.reserve(Fraction(1, 2), 1, 1)
        for i, (p, q, release) in enumerate(
            [(2, 3, 0), (1, 1, 0), (3, 4, 1), (1, 2, 2), (2, 1, 2)]
        ):
            core.submit(Job(id=i, p=p, q=q, release=release))
        core.drain()
        return core

    @pytest.mark.parametrize("backend", _KERNEL_CORES)
    def test_fractional_reserve_backends_agree(self, backend):
        # a non-integral hole lands in the kernel (named `auto`, or by
        # default) and the `list` reference in one state, time types
        # included
        exact = self._fractional_hole_starts("list")
        core = self._fractional_hole_starts(backend)
        assert type(core.profile).__name__ == "ArrayProfile"
        assert core.starts == exact.starts
        assert _typed_state(core) == _typed_state(exact)

    @staticmethod
    def _huge_fractional_submit(backend):
        core = SchedulerCore(4, window=0, record_starts=True, **_on(backend))
        core.submit(Job(0, 4096.5, 1, float(2**63)))
        core.drain()
        return core

    @pytest.mark.parametrize("backend", _KERNEL_CORES)
    def test_fractional_submit_backends_agree(self, backend):
        # a float time far out on the line runs on the kernel, named
        # `auto` or by default, exactly as on "list"
        exact = self._huge_fractional_submit("list")
        assert exact.starts == {0: float(2**63)}
        core = self._huge_fractional_submit(backend)
        assert type(core.profile).__name__ == "ArrayProfile"
        assert _typed_state(core) == _typed_state(exact)

    @staticmethod
    def _lone_fractional_starts(policy, fast):
        """Every job starts on arrival at a ``Fraction`` time: each is
        a lone arrival on an empty queue, and the machine is idle."""
        func = POLICIES.get(policy)
        core = SchedulerCore(4, policy, window=2, record_starts=True,
                             decide=func if fast else partial(func))
        for i in range(5):
            core.submit(Job(id=i, p=1 + i % 2, q=1 + i % 4,
                            release=Fraction(7 * i, 2)))
        core.drain()
        return core

    @pytest.mark.parametrize("policy", ["fcfs", "greedy", "easy"])
    def test_lone_starts_match_reference_types(self, policy):
        # a start without a wait sums the reference pass's typed wait
        # (Fraction(0) here), not an int 0
        fast = self._lone_fractional_starts(policy, True)
        reference = self._lone_fractional_starts(policy, False)
        assert fast.starts == {i: Fraction(7 * i, 2) for i in range(5)}
        assert fast.starts == reference.starts
        assert _typed_state(fast) == _typed_state(reference)

    def test_cancelled_fractional_submit_admits_large_ints(self):
        core = SchedulerCore(4, window=0, record_starts=True)
        core.submit(Job(id="f", p=Fraction(1, 2), q=1, release=0))
        assert core.cancel("f") == "staged"
        core.submit(Job(id="big", p=10, q=4, release=2**63))
        core.drain()
        assert core.starts == {"big": 2**63}
        assert "demoted" not in core.describe_state()

    def test_refused_fractional_submit_does_not_demote(self):
        core = SchedulerCore(4)
        core.submit(Job(id="a", p=1, q=1, release=10))
        with pytest.raises(SchedulingError, match="out of order"):
            core.submit(Job(id="b", p=1.5, q=1, release=5))
        # the float-resolution bound holds on every backend
        with pytest.raises(InvalidInstanceError, match="float resolution"):
            core.submit(Job(id="c", p=0.5, q=1, release=2.0**60))
        assert type(core.profile).__name__ == "ArrayProfile"
        assert [j.id for j in core._staged] == ["a"]
        accepted = SchedulerCore(4)
        accepted.submit(Job(id="a", p=1, q=1, release=10))
        assert core.describe_state() == accepted.describe_state()

    def test_refused_fractional_reserve_does_not_demote(self):
        core = SchedulerCore(4)
        core.reserve(0, 10, 4)
        before = core.describe_state()
        with pytest.raises(SchedulingError, match="does not fit"):
            core.reserve(Fraction(1, 2), 1, 1)
        assert type(core.profile).__name__ == "ArrayProfile"
        assert core.describe_state() == before

    @staticmethod
    def _blocked_head_session(fast):
        """An EASY head blocked across ``reserve`` and ``cancel`` calls.

        ``a`` holds the whole machine over [0, 10); head ``h`` (4 wide)
        is blocked and ``b`` waits behind it, so the pass memoises h's
        earliest fit, 10.  Reserving [10, 30) x 2 moves that fit to 30,
        which lets ``b`` backfill at 10.  Cancelling ``h`` and
        resubmitting a 1-wide job under the same id (next to ``c``) must
        probe it afresh at 11."""
        easy = POLICIES.get("easy")
        core = SchedulerCore(4, "easy", window=0, record_starts=True,
                             decide=easy if fast else partial(easy))
        core.submit(Job(id="a", p=10, q=4, release=0))
        core.submit(Job(id="h", p=5, q=4, release=1))
        core.submit(Job(id="b", p=3, q=1, release=1))
        core.advance_to(1)
        core.reserve(10, 20, 2)
        core.advance_to(10)
        assert core.cancel("h") == "queued"
        core.submit(Job(id="h", p=1, q=1, release=11))
        core.submit(Job(id="c", p=1, q=1, release=11))
        core.drain()
        return core

    def test_reserve_and_cancel_invalidate_blocked_head_memo(self):
        fast = self._blocked_head_session(True)
        reference = self._blocked_head_session(False)
        assert fast.starts == {"a": 0, "b": 10, "h": 11, "c": 12}
        assert json.dumps(fast.describe_state(), sort_keys=True) == \
            json.dumps(reference.describe_state(), sort_keys=True)
        assert fast.starts == reference.starts
        # an independent oracle: the starts, with the hole as a
        # reservation, are a feasible schedule
        instance = ReservationInstance(
            m=4,
            jobs=(Job(id="a", p=10, q=4, release=0),
                  Job(id="b", p=3, q=1, release=1),
                  Job(id="h", p=1, q=1, release=11),
                  Job(id="c", p=1, q=1, release=11)),
            reservations=(Reservation(id="r", start=10, p=20, q=2),),
        )
        Schedule(instance, fast.starts).verify()

    @staticmethod
    def _reused_head_session(fast):
        """A memoised EASY head starts, finishes, and its id returns as
        a blocked head with a backfill candidate behind it.

        At 0, ``X`` waits behind the full-width ``a`` with ``b`` behind
        it, so the pass memoises X's earliest fit, 10; X starts there.
        The second ``X`` (5 wide) queues at 20 behind ``c`` while ``e``
        holds 2 processors, so its earliest fit is 30 — and ``d`` would
        delay it if backfilled against the first X's memo."""
        easy = POLICIES.get("easy")
        core = SchedulerCore(8, "easy", window=0, record_starts=True,
                             decide=easy if fast else partial(easy))
        core.submit(Job(id="a", p=10, q=8, release=0))
        core.submit(Job(id="X", p=5, q=1, release=0))
        core.submit(Job(id="b", p=5, q=8, release=0))
        core.advance_to(0)
        assert core.cancel("b") == "queued"
        core.advance_to(10)
        with pytest.raises(SchedulingError, match="already live"):
            core.submit(Job(id="X", p=5, q=5, release=20))  # still running
        core.submit(Job(id="e", p=100, q=2, release=16))
        core.advance_to(16)
        core.submit(Job(id="c", p=10, q=4, release=20))
        core.submit(Job(id="X", p=5, q=5, release=20))
        core.submit(Job(id="d", p=30, q=2, release=20))
        core.advance_to(20)
        core.drain()
        return core

    def test_reused_id_of_started_head_misses_the_memo(self):
        fast = self._reused_head_session(True)
        reference = self._reused_head_session(False)
        assert fast.starts == {"a": 0, "X": 30, "e": 16, "c": 20, "d": 35}
        assert fast.starts == reference.starts
        assert json.dumps(fast.describe_state(), sort_keys=True) == \
            json.dumps(reference.describe_state(), sort_keys=True)
        # the first X ran over [10, 15): a reservation for the oracle
        instance = ReservationInstance(
            m=8,
            jobs=(Job(id="a", p=10, q=8, release=0),
                  Job(id="e", p=100, q=2, release=16),
                  Job(id="c", p=10, q=4, release=20),
                  Job(id="X", p=5, q=5, release=20),
                  Job(id="d", p=30, q=2, release=20)),
            reservations=(Reservation(id="X0", start=10, p=5, q=1),),
        )
        Schedule(instance, fast.starts).verify()

    @pytest.mark.parametrize("uncertainty", [None, "lognormal:sigma=0.5:failure_rate=0.3:seed=5"])
    def test_running_index_follows_the_loop(self, uncertainty):
        """Once a submit has indexed the running jobs, starts, completions
        and failure requeues keep the index equal to the calendar."""
        core = SchedulerCore(4, "easy", window=0, uncertainty=uncertainty)
        core.submit(Job(id="j0", p=4, q=2, release=0))
        for t in range(1, 40):
            core.submit(Job(id=f"j{t}", p=1 + t % 5, q=1 + t % 3, release=t))
            core.advance_to(t)
            in_flight = {j.id for b in core.buckets.values() for j in b}
            assert core._running_ids == in_flight
        core.drain()
        assert core._running_ids == set()

    def test_describe_state_is_deterministic_and_json_safe(self):
        def run():
            core = SchedulerCore(M, window=WINDOW)
            service = SchedulerService(core)
            for body in session_ops():
                env = service.handle(body)
                assert env["ok"], env
            return json.dumps(core.describe_state(), sort_keys=True)

        assert run() == run()


# ---------------------------------------------------------------------------
# SchedulerService: op layer + event-sourced recovery
# ---------------------------------------------------------------------------


class TestSchedulerService:
    def test_errors_are_envelopes_not_exceptions(self):
        service = SchedulerService(SchedulerCore(4))
        env = service.handle({"format": SERVE_FORMAT, "op": "cancel",
                              "job": "ghost"})
        assert env["ok"] is False
        assert env["error"]["kind"] == "scheduling"
        env = service.handle(["not", "a", "request"])
        assert env["error"]["kind"] == "protocol"

    def test_rejected_ops_are_not_journaled(self, tmp_path):
        service = SchedulerService.create(str(tmp_path / "j"), m=4)
        assert service.handle(make_submit("j", 5, 1, 0))["ok"]
        assert not service.handle(make_submit("j", 5, 1, 0))["ok"]
        assert service.seq == 1
        service.close()

    def test_deep_unknown_field_is_not_journaled(self, tmp_path):
        """A field the op does not read never reaches the journal, so no
        client can make the append fail after the op was applied."""
        junk = []
        for _ in range(5000):
            junk = [junk]
        service = SchedulerService.create(str(tmp_path / "j"), m=4)
        assert service.handle(dict(make_advance(7), junk=junk))["ok"]
        service.close()
        resumed, _ = SchedulerService.resume(str(tmp_path / "j"))
        assert resumed.seq == 1 and resumed.core.status()["horizon"] == 7
        resumed.close()

    def test_snapshot_interval_validation(self):
        with pytest.raises(ServeError, match=">= 1"):
            SchedulerService(SchedulerCore(4), snapshot_interval=0)

    def test_journal_free_service_works(self):
        service = SchedulerService(SchedulerCore(4))
        assert service.handle(make_submit("j", 5, 1, 0))["ok"]
        assert service.seq == 0  # nothing journaled, nothing counted

    def test_status_and_state_queries(self, tmp_path):
        service = SchedulerService.create(
            str(tmp_path / "j"), m=M, window=WINDOW, snapshot_interval=SNAP
        )
        for body in session_ops():
            assert service.handle(body)["ok"]
        status = service.handle(make_query("status"))["result"]
        assert status["ops"] == len(session_ops())
        assert status["eof"] is True
        assert status["cancelled"] == 1  # the queued cancel, not the staged
        state = service.handle(make_query("state"))["result"]
        assert state["m"] == M and state["counters"]["arrived"] == 7
        rows = service.handle(make_query("windows"))["result"]["rows"]
        assert rows  # the drained session emitted its window rows
        service.close()

    @pytest.mark.parametrize("cut", [3, 7, 8, 12])
    def test_resume_mid_session_is_byte_identical(self, tmp_path, cut):
        """Kill the service (close without final snapshot) after ``cut``
        ops; recovery must reconstruct the exact mid-session state."""
        ops = session_ops()
        reference = SchedulerService(SchedulerCore(M, window=WINDOW))
        for body in ops[:cut]:
            assert reference.handle(body)["ok"]
        expected = json.dumps(
            reference.core.describe_state(), sort_keys=True
        )

        service = SchedulerService.create(
            str(tmp_path / "j"), m=M, window=WINDOW, snapshot_interval=SNAP
        )
        for body in ops[:cut]:
            assert service.handle(body)["ok"]
        service.close()

        recovered, recovery = SchedulerService.resume(str(tmp_path / "j"))
        assert recovered.seq == cut
        assert len(recovery.after) == cut % SNAP
        assert all(record["t"] == "op" for record in recovery.after)
        assert json.dumps(
            recovered.core.describe_state(), sort_keys=True
        ) == expected
        recovered.close()

    @pytest.mark.parametrize(
        "bad",
        [
            make_submit("wide", 3, 9, 1),      # wider than m=8
            make_submit("tiny", 5e-78, 1, 1),  # 1 + p == 1 in floats
        ],
        ids=["over-wide", "float-absorbed"],
    )
    def test_unplaceable_submit_is_refused_and_resume_holds(
        self, tmp_path, bad
    ):
        """A job the event loop cannot place is refused at submit, not
        acked and journaled to break the next advance and every later
        resume."""
        directory = str(tmp_path / "j")
        service = SchedulerService.create(directory, m=8)
        assert service.handle(make_submit("a", 4, 2, 0))["ok"]
        refused = service.handle(bad)
        assert not refused["ok"]
        assert refused["error"]["kind"] in ("scheduling", "model")
        assert service.seq == 1
        assert service.handle(make_advance(5))["ok"]
        assert service.handle(make_submit("b", 2, 8, 6))["ok"]
        assert service.handle(make_advance(20))["ok"]
        live = json.dumps(service.core.describe_state(), sort_keys=True)
        service.close()
        recovered, _ = SchedulerService.resume(directory)
        assert json.dumps(
            recovered.core.describe_state(), sort_keys=True
        ) == live
        recovered.close()

    def test_times_past_int64_match_list(self, tmp_path):
        """Jobs and holes at and past 2**63 (a short job queued behind
        one that ends there, a release and a hole beyond it) are accepted
        on the default array kernel, which ends in the same state as the
        list backend and resumes to it byte for byte."""
        ops = [
            make_submit("long", 2**63 - 10, 4, 0),
            make_submit("short", 20, 4, 0),
            make_reserve(2**64, 2**63, 2),
            make_advance(2**63 - 10),
            make_submit("late", 7, 3, 2**64 + 1),
            make_submit("later", 5, 2, 2**70),
            make_advance(2**64 + 3),
        ]
        service = SchedulerService.create(str(tmp_path / "j"), m=4, window=2)
        reference = SchedulerService(
            SchedulerCore(4, window=2, profile_backend="list")
        )
        for body in ops:
            assert service.handle(body)["ok"], body
            assert reference.handle(body)["ok"], body
        assert type(service.core.profile).__name__ == "ArrayProfile"
        assert service.core.describe_state() == reference.core.describe_state()
        live = _state(service)
        service.close()
        recovered, _ = SchedulerService.resume(str(tmp_path / "j"))
        assert _state(recovered) == live
        recovered.close()

    def test_mixed_int_and_string_ids_describe(self):
        service = SchedulerService(SchedulerCore(4, window=2))
        for body in (make_submit("a", 5, 4, 0), make_submit(7, 5, 4, 0),
                     make_advance(1)):
            assert service.handle(body)["ok"]
        state = service.handle(make_query("state"))
        assert state["ok"]
        assert list(state["result"]["window_of"]) == ["7", "a"]

    def test_resume_checks_checkpoint_version(self, tmp_path):
        service = SchedulerService.create(str(tmp_path / "new"), m=4)
        service.close()
        resumed, recovery = SchedulerService.resume(str(tmp_path / "new"))
        resumed.close()
        assert recovery.config["checkpoint"] == CHECKPOINT_VERSION
        config = {"mode": "serve", "format": SERVE_FORMAT, "m": 4,
                  "policy": "easy", "window": 0}
        # written before the key existed: version 2, refused like any
        # other version
        Journal.create(str(tmp_path / "old"), config).close()
        with pytest.raises(ServeError, match="checkpoint version 2"):
            SchedulerService.resume(str(tmp_path / "old"))
        for version in (2, CHECKPOINT_VERSION + 1):
            other = dict(config, checkpoint=version)
            Journal.create(str(tmp_path / f"v{version}"), other).close()
            with pytest.raises(ServeError, match="checkpoint version"):
                SchedulerService.resume(str(tmp_path / f"v{version}"))

    def test_resume_rejects_batch_replay_journal(self, tmp_path):
        journal = Journal.create(str(tmp_path / "j"), {"mode": "replay"})
        journal.close()
        with pytest.raises(ServeError, match="not written by repro serve"):
            SchedulerService.resume(str(tmp_path / "j"))

    def test_shutdown_op_sets_stop_flag(self):
        service = SchedulerService(SchedulerCore(4))
        assert not service.stop_requested
        assert service.handle(make_query("shutdown"))["ok"]
        assert service.stop_requested


# ---------------------------------------------------------------------------
# fuzzed op streams: envelopes, no half-applied rejections, resume
# ---------------------------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
)
#: Arbitrary JSON: what a hostile or buggy client can put in any field.
_ANY_JSON = st.one_of(
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), _JSON_SCALARS, max_size=3),
)
#: Integers at and past 2**63, which the array kernel holds like any
#: other int (the HTTP front end gets them from JSON unbounded).
_BIG_INTS = st.one_of(st.integers(2**63 - 64, 2**63), st.just(2**70))
#: Op mix: mostly submits and advances, so streams get to schedule.
_OPS = (["submit"] * 8 + ["advance"] * 4 + ["cancel", "reserve"] * 2
        + ["drain", "status", "state", "windows", "nope"])


@st.composite
def _fuzz_op(draw):
    """One request: a sensible value in most fields, so streams get far
    enough to schedule, and arbitrary JSON, integers past 2**63, missing
    keys or a non-request in the rest."""
    def pick(sensible):
        roll = draw(st.integers(0, 15))
        if roll == 0:
            return draw(_ANY_JSON)
        if roll == 1:
            return draw(_BIG_INTS)
        if roll == 2:
            return draw(st.floats(0, 40))
        return draw(sensible)

    times = st.integers(0, 40)
    widths = st.integers(1, 9)
    ids = st.sampled_from(["a", "b", "c", "d", 1, 2, 3])
    op = draw(st.sampled_from(_OPS))
    body = {"format": SERVE_FORMAT, "op": op}
    if op == "submit":
        body["job"] = {"id": pick(ids), "p": pick(st.integers(1, 12)),
                       "q": pick(widths), "release": pick(times)}
    elif op == "cancel":
        body["job"] = pick(ids)
    elif op == "advance":
        body["to"] = pick(times)
    elif op == "reserve":
        body.update(start=pick(times), p=pick(times), q=pick(widths))
    damage = draw(st.integers(0, 19))
    if damage == 0:  # a missing key
        payload = body["job"] if op == "submit" else body
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif damage == 1 and op == "submit":  # a job that is not an object
        body["job"] = draw(_ANY_JSON)
    elif damage == 2:  # not a request at all
        return draw(_ANY_JSON)
    return body


def _state(service) -> str:
    return json.dumps(service.core.describe_state(), sort_keys=True)


# derandomized: the same 60 streams every run, so tier-1 stays
# repeatable; vary the seed by hand to search further
@settings(max_examples=60, deadline=None, derandomize=True)
@given(ops=st.lists(_fuzz_op(), max_size=30), window=st.sampled_from([0, 2]))
def test_fuzzed_op_streams_keep_the_journal_resumable(ops, window):
    """Whatever a client sends: ``handle`` answers with an envelope, a
    refused mutating op is neither journaled nor applied in part, and
    resuming the journal reproduces the live state byte for byte."""
    import tempfile

    with tempfile.TemporaryDirectory() as base:
        directory = os.path.join(base, "j")
        service = SchedulerService.create(
            directory, m=8, window=window, snapshot_interval=4
        )
        for body in ops:
            before = (service.seq, _state(service))
            envelope = service.handle(body)
            assert envelope["format"] == SERVE_FORMAT
            assert isinstance(envelope["ok"], bool)
            if not envelope["ok"]:
                assert envelope["error"]["kind"] != "internal", envelope
                assert (service.seq, _state(service)) == before, envelope
        live = _state(service)
        service.close()
        recovered, _ = SchedulerService.resume(directory)
        assert _state(recovered) == live
        recovered.close()


# ---------------------------------------------------------------------------
# HTTP daemon: end-to-end session, then the kill matrix
# ---------------------------------------------------------------------------


class _DaemonDied(Exception):
    """The daemon's socket dropped mid-request (it was SIGKILLed)."""


def _http(method, port, path, body=None, timeout=30):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        # 4xx/5xx responses still carry a repro-serve/1 envelope
        return json.loads(exc.read())
    except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
        raise _DaemonDied(str(exc)) from exc


def _post_op(port, body):
    return _http("POST", port, "/v1/op", body)


def _spawn_serve(args, failpoint_spec=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(failpoints.ENV_VAR, None)
    if failpoint_spec is not None:
        env[failpoints.ENV_VAR] = failpoint_spec
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _wait_for_port(port_file: Path, proc, timeout=30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if port_file.is_file():
            text = port_file.read_text().strip()
            if text:
                return int(text)
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited before binding: rc={proc.returncode}\n"
                f"{proc.stderr.read()}"
            )
        time.sleep(0.02)
    raise AssertionError("daemon never published its port file")


@pytest.fixture(scope="module")
def reference_state(tmp_path_factory) -> bytes:
    """The uninterrupted session's ``/v1/state`` body, byte for byte
    (computed through the transport-free service: the HTTP layer
    serialises the identical envelope with ``sort_keys=True``)."""
    base = tmp_path_factory.mktemp("serve-reference")
    service = SchedulerService.create(
        str(base / "journal"), m=M, window=WINDOW, snapshot_interval=SNAP
    )
    for body in session_ops():
        env = service.handle(body)
        assert env["ok"], env
    envelope = service.handle(make_query("state"))
    service.close()
    assert envelope["ok"]
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def _fresh_args(journal, port_file):
    return [
        str(journal), "-m", str(M), "--window", str(WINDOW),
        "--snapshot-interval", str(SNAP), "--port-file", str(port_file),
    ]


def test_daemon_session_end_to_end(tmp_path, reference_state):
    proc = _spawn_serve(_fresh_args(tmp_path / "journal", tmp_path / "port"))
    try:
        port = _wait_for_port(tmp_path / "port", proc)
        for body in session_ops():
            env = _post_op(port, body)
            assert env["ok"], env
        # a scheduling rejection is an answer, not a connection teardown
        env = _post_op(port, make_submit("a8", 1, 1, 999))
        assert not env["ok"] and "after drain" in env["error"]["message"]
        assert env["error"]["kind"] == "scheduling"
        status = _http("GET", port, "/v1/status")["result"]
        assert status["ops"] == len(session_ops()) and status["eof"]
        raw = _state_bytes(port)
        assert raw == reference_state
        assert _http("POST", port, "/v1/shutdown")["result"]["stopping"]
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


def _state_bytes(port) -> bytes:
    request = urllib.request.Request(f"http://127.0.0.1:{port}/v1/state")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def test_daemon_fractional_reserve_matches_list(tmp_path):
    """A non-integral hole and job on the default (``auto``) backend
    are acked, and the daemon's ``/v1/state`` serialises to the ``list``
    reference's bytes (bar the journaled-op count)."""
    ops = [make_reserve(0.5, 1, 1), make_submit("f", 2.5, 3, 0.25),
           make_advance(1.75)]
    reference = SchedulerService(
        SchedulerCore(M, window=WINDOW, profile_backend="list")
    )
    for body in ops:
        assert reference.handle(body)["ok"], body
    want = reference.handle(make_query("state"))["result"]
    proc = _spawn_serve(_fresh_args(tmp_path / "journal", tmp_path / "port"))
    try:
        port = _wait_for_port(tmp_path / "port", proc)
        for body in ops:
            env = _post_op(port, body)
            assert env["ok"], env
        state = json.loads(_state_bytes(port))["result"]
        assert state.pop("ops") == len(ops) and want.pop("ops") == 0
        assert json.dumps(state, sort_keys=True) == json.dumps(
            want, sort_keys=True
        )
        assert state["profile_times"] == [0, 0.25, 0.5, 1.5, 2.75]
        _http("POST", port, "/v1/shutdown")
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


def test_daemon_reserve_over_http(tmp_path):
    proc = _spawn_serve(_fresh_args(tmp_path / "journal", tmp_path / "port"))
    try:
        port = _wait_for_port(tmp_path / "port", proc)
        env = _post_op(port, make_reserve(5, 10, M))
        assert env["ok"], env
        env = _post_op(port, make_reserve(7, 1, 1))  # inside the hole
        assert not env["ok"] and env["error"]["kind"] == "scheduling"
        state = _http("GET", port, "/v1/state")["result"]
        assert M - state["profile_caps"][1] == M  # the hole is committed
        _http("POST", port, "/v1/shutdown")
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


# Every serve-path failpoint, placed mid-stream.  ``after=`` indexes are
# hits of that site: op sites hit once per mutating request, journal
# sites once per record/snapshot, so each spec kills a *different*
# request of the same 16-op session.
KILL_SPECS = (
    "serve.op.apply:after=9",
    "serve.op.ack:after=9",
    "journal.record.append:after=6",
    "journal.record.torn:after=6",
    "journal.snapshot.write:after=1",
    "journal.snapshot.rename:after=1",
    "journal.snapshot.marker:after=1",
)


def _retry_unacked(port, body):
    """What a correct serve client does after a connection drop: check
    whether the in-flight op landed, and re-send it if not.  Submits and
    cancels are self-detecting (a duplicate is rejected by id); advance
    and drain are checked against the recovered status gauges so an
    already-applied op is not double-journaled."""
    op = body["op"]
    if op in ("advance", "drain"):
        status = _http("GET", port, "/v1/status")["result"]
        applied = (
            status["eof"] if op == "drain"
            else status["horizon"] is not None
            and status["horizon"] >= body["to"]
        )
        if applied:
            return
    envelope = _post_op(port, body)
    if not envelope["ok"]:
        message = envelope["error"]["message"]
        assert envelope["error"]["kind"] == "scheduling"
        assert "already live" in message or "not a live job" in message


@pytest.mark.parametrize("spec", KILL_SPECS, ids=lambda s: s.split(":")[0])
def test_kill_resume_state_is_byte_identical(tmp_path, spec, reference_state):
    journal = tmp_path / "journal"
    proc = _spawn_serve(_fresh_args(journal, tmp_path / "port"), spec)
    crashed_at = None
    try:
        port = _wait_for_port(tmp_path / "port", proc)
        for index, body in enumerate(session_ops()):
            try:
                env = _post_op(port, body)
                assert env["ok"], env
            except _DaemonDied:
                crashed_at = index
                break
        assert crashed_at is not None, f"failpoint {spec!r} never fired"
        assert proc.wait(timeout=30) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)

    proc = _spawn_serve(
        [str(journal), "--resume", "--port-file", str(tmp_path / "port2")]
    )
    try:
        port = _wait_for_port(tmp_path / "port2", proc)
        ops = session_ops()
        _retry_unacked(port, ops[crashed_at])
        for body in ops[crashed_at + 1:]:
            env = _post_op(port, body)
            assert env["ok"], env
        assert _state_bytes(port) == reference_state
        _http("POST", port, "/v1/shutdown")
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


def test_resume_refuses_while_config_flags_given(tmp_path, capsys):
    from repro.cli import main

    assert main(["serve", str(tmp_path / "j"), "--resume", "-m", "8"]) == 2
    err = capsys.readouterr().err
    assert "--resume takes its configuration from the journal" in err


def test_resume_refuses_checkpoint_version_2_journal(tmp_path):
    """``repro serve --resume`` refuses a journal of version-2 snapshots
    (they carry fields this build no longer reads) with an ``error:``
    line and a non-zero exit, before it serves anything."""
    config = {"mode": "serve", "format": SERVE_FORMAT, "m": M,
              "policy": "easy", "window": WINDOW,
              "snapshot_interval": SNAP, "checkpoint": 2}
    Journal.create(str(tmp_path / "j"), config).close()
    proc = _spawn_serve([str(tmp_path / "j"), "--resume",
                         "--port-file", str(tmp_path / "port")])
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode != 0
    assert err.startswith("error: ") and "checkpoint version 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "port").exists()


# ---------------------------------------------------------------------------
# hostile clients: framing limits, the request deadline, service errors
# ---------------------------------------------------------------------------


@pytest.fixture
def live_daemon(monkeypatch):
    """An in-process daemon on a background thread with a short request
    deadline; yields its port and shuts it down afterwards.

    If the daemon thread dies, it closes the listening socket, so the
    test's next request is refused at once instead of waiting out its
    client timeout, and teardown re-raises the thread's exception."""
    from repro.serve import daemon as daemon_module

    # the shipped daemon bounds every request; tests only shorten it
    assert daemon_module.REQUEST_TIMEOUT == 30.0
    monkeypatch.setattr(daemon_module, "REQUEST_TIMEOUT", 0.5)
    daemon = ServeDaemon(SchedulerService(SchedulerCore(4)))
    died = []

    def serve():
        try:
            daemon.serve_forever()
        except BaseException as exc:  # re-raised by the teardown
            died.append(exc)  # before the close, which clients then see
            daemon.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    port = daemon.address[1]
    yield port
    try:
        _http("POST", port, "/v1/shutdown")
    except _DaemonDied:
        if not died:
            raise
    thread.join(timeout=10)
    if died:
        raise died[0]
    daemon.close()
    assert not thread.is_alive()


def _raw_exchange(port, head: bytes, body: bytes = b"") -> bytes:
    """Send raw request bytes and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _post_head(length) -> bytes:
    return (
        f"POST /v1/op HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode()


def _next_client_is_served(port):
    env = _post_op(port, make_submit("after", 3, 1, 0))
    assert env["ok"], env
    assert _http("GET", port, "/v1/status")["ok"]


def _refused_as_protocol_error(response: bytes) -> str:
    status, _, payload = response.partition(b"\r\n\r\n")
    assert status.startswith(b"HTTP/1.0 400"), status
    envelope = json.loads(payload)
    assert envelope["error"]["kind"] == "protocol"
    return envelope["error"]["message"]


@pytest.mark.parametrize("length", [-5, 1 << 30, "abc"])
def test_bad_content_length_is_refused_unread(live_daemon, length):
    response = _raw_exchange(live_daemon, _post_head(length))
    message = _refused_as_protocol_error(response)
    assert f"Content-Length {str(length)!r}" in message
    _next_client_is_served(live_daemon)


def test_non_utf8_body_is_a_protocol_error(live_daemon, capfd):
    body = b"\xff\x80"
    response = _raw_exchange(live_daemon, _post_head(len(body)), body)
    assert "not JSON" in _refused_as_protocol_error(response)
    _next_client_is_served(live_daemon)
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("body", [
    b'{"format": "repro-serve/1", "op": "advance", "to": NaN}',
    b'{"format": "repro-serve/1", "op": "advance", "to": -Infinity}',
    b'{"format": "repro-serve/1", "op": "submit",'
    b' "job": {"id": "big", "p": 1e400, "q": 1, "release": 0}}',
], ids=["nan-literal", "infinity-literal", "overflowing-float"])
def test_non_finite_numbers_are_refused(live_daemon, body):
    response = _raw_exchange(live_daemon, _post_head(len(body)), body)
    _refused_as_protocol_error(response)
    _next_client_is_served(live_daemon)
    # nothing non-finite reached the core: the status body is strict JSON
    raw = urllib.request.urlopen(
        f"http://127.0.0.1:{live_daemon}/v1/status", timeout=10
    ).read()
    status = json.loads(raw, parse_constant=pytest.fail)["result"]
    # the refused op changed nothing; only the follow-up job is staged
    assert (status["horizon"], status["staged"]) == (0, 1)


def test_stalled_body_is_dropped(live_daemon, capfd):
    with socket.create_connection(("127.0.0.1", live_daemon),
                                  timeout=10) as sock:
        sock.sendall(_post_head(100) + b'{"format": ')
        started = time.monotonic()
        # the daemon gives up on the half-sent body and closes without
        # a response
        assert sock.recv(65536) == b""
        assert time.monotonic() - started < 5.0
    _next_client_is_served(live_daemon)
    # dropped quietly: a timeout is an expected event, not a crash
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.parametrize("unit", ["header-lines", "bytes"])
def test_dribbling_client_is_dropped(live_daemon, unit):
    """A client that keeps sending, but never finishes its request, is
    dropped at the request's deadline, not kept for as long as it
    dribbles."""
    if unit == "header-lines":
        pieces = [b"POST /v1/op HTTP/1.0\r\n"] + [
            b"X-Dribble: %d\r\n" % i for i in range(20)
        ]
    else:
        pieces = [bytes([byte]) for byte in _post_head(2)[:40]]
    with socket.create_connection(("127.0.0.1", live_daemon),
                                  timeout=10) as sock:
        started = time.monotonic()
        dropped = False
        for piece in pieces:
            try:
                sock.sendall(piece)
                sock.settimeout(0.3)
                try:
                    # a dropped client gets no response: the stream ends
                    assert sock.recv(65536) == b""
                    dropped = True
                    break
                except TimeoutError:
                    pass
            except ConnectionError:
                dropped = True
                break
        assert dropped and time.monotonic() - started < 2.0
    _next_client_is_served(live_daemon)


_LONG = b"a" * (1 << 16)
_STATUS_BODY = json.dumps(make_query("status")).encode()


@pytest.mark.parametrize("head", [
    b"GARBAGE\r\n\r\n",
    b"GET /" + _LONG + b" HTTP/1.0\r\n\r\n",
    b"GET /v1/status HTTP/1.0\r\nX-Long: " + _LONG + b"\r\n\r\n",
    b"GET /v1/status HTTP/1.0\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n",
    b"PUT /v1/op HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}",
    b"POST /v1/op HTTP/1.0\r\nContent-Length: 2\r\n"
    b"Content-Length: 3\r\n\r\n{}",
    b"POST /v1/op HTTP/1.0\r\nContent-Length: +%d\r\n\r\n%s"
    % (len(_STATUS_BODY), _STATUS_BODY),
    b"POST /v1/op HTTP/1.0\r\nContent-Length: " + b"9" * 5000
    + b"\r\n\r\n",
    b"POST /v1/op HTTP/1.0\r\nContent-Length: 100000\r\n\r\n"
    + b"[" * 100000,
], ids=["request-line", "long-request-line", "long-header-line",
        "too-many-headers", "unsupported-method", "two-content-lengths",
        "content-length-not-digits", "content-length-too-many-digits",
        "body-nested-too-deeply"])
def test_malformed_request_is_refused(live_daemon, head):
    _refused_as_protocol_error(_raw_exchange(live_daemon, head))
    _next_client_is_served(live_daemon)


def test_service_error_stops_the_daemon(tmp_path, monkeypatch):
    """An exception out of the service is not a client's fault: the
    daemon stops instead of serving on with a core ahead of its
    journal, and the op is never acknowledged."""
    def broken_append(journal, record):
        raise OSError("journal device gone")

    monkeypatch.setattr(Journal, "append", broken_append)
    daemon = ServeDaemon(SchedulerService.create(str(tmp_path / "j"), m=4))
    raised = []

    def serve():
        try:
            daemon.serve_forever()
        except OSError as exc:
            raised.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    port = daemon.address[1]
    body = json.dumps(make_submit("lost", 3, 1, 0)).encode()
    try:
        response = _raw_exchange(port, _post_head(len(body)), body)
        thread.join(timeout=10)
        assert not thread.is_alive(), "the daemon kept serving"
    finally:
        if thread.is_alive():
            _http("POST", port, "/v1/shutdown")
            thread.join(timeout=10)
        daemon.close()
    assert response == b""  # not acknowledged
    assert [str(exc) for exc in raised] == ["journal device gone"]
    monkeypatch.undo()
    resumed, _ = SchedulerService.resume(str(tmp_path / "j"))
    assert resumed.seq == 0 and resumed.core.status()["staged"] == 0
    resumed.close()
