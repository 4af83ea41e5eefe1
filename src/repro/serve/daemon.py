"""The ``repro serve`` daemon: a socket-driven scheduler service.

Two layers, separable for testing:

:class:`SchedulerService`
    The transport-free op-application layer.  It owns one live
    :class:`~repro.simulation.SchedulerCore` and one
    :class:`~repro.durability.Journal`, and enforces the event-sourcing
    invariants of a crash-safe service:

    * **apply → journal → ack.**  A mutating op is applied to the core,
      appended to the journal (flushed), and only then acknowledged —
      so an acked op is always durable, and an op the journal never
      recorded was never acked (the client must retry it).
    * **snapshots bound replay.**  Every ``snapshot_interval`` accepted
      ops the core's full state — its
      :class:`~repro.simulation.replay.ReplayCheckpoint` plus the
      live-service extras — is committed through the journal's atomic
      snapshot/segment-roll protocol, exactly as journaled batch replay
      does.
    * **recovery = snapshot + op replay.**  :meth:`SchedulerService.resume`
      runs :meth:`~repro.durability.journal.Journal.recover`, the
      recovery routine of journaled batch replay too, rehydrates the
      last committed snapshot and re-applies the op records after its
      marker (batch replay drops its rows there and re-derives them;
      an acknowledged op exists only in the journal), yielding a core
      byte-identical to the uninterrupted one.
    * **journaled ⟹ appliable.**  An op is validated in full before it
      is applied and journaled (``SchedulerCore.submit`` refuses a job
      the event loop could not place), so re-applying the journal
      cannot fail and a rejected op changes nothing.

    Determinism holds because time is *logical*: the clock moves only
    on client ``advance`` ops, which are journaled like every other
    mutation — the daemon never consults the wall clock.

:class:`ServeDaemon`
    A thin stdlib :mod:`http.server` front end (no new dependencies):
    one single-threaded HTTP/JSON endpoint accepting ``repro-serve/1``
    bodies (:mod:`repro.serve.api`), serialising all ops through the
    service.  Single-threading is load-bearing: one op stream, one
    deterministic journal order.
"""

from __future__ import annotations

import json
import pickle
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, Optional, Tuple

from ..devtools.failpoints import fire
from ..durability.journal import Journal, JournalRecovery
from ..errors import ReproError, ServeError, ServeProtocolError
from ..simulation.replay import CHECKPOINT_VERSION
from ..simulation.scheduler_core import SchedulerCore
from ..workloads.uncertainty import DRAW_STREAM_VERSION
from .api import (
    MUTATING_OPS,
    SERVE_FORMAT,
    decode_request,
    error_envelope,
    error_kind,
    job_from_payload,
    make_query,
    ok_envelope,
    parse_request,
)

#: Default accepted-op count between state snapshots.
DEFAULT_OP_SNAPSHOT_INTERVAL = 256

#: Journal header tag distinguishing a serve journal from a batch-replay
#: journal (the two recover differently; mixing them must fail loudly).
SERVE_MODE = "serve"

#: Largest accepted ``POST /v1/op`` body.  A request advertising more
#: (or a negative or non-integer ``Content-Length``) is refused with a
#: ``protocol`` error before a byte of its body is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a client may stall mid-request (request line, headers or
#: body) before its connection is dropped.  The daemon is
#: single-threaded, so without this bound one stalled client would
#: block every other client.
REQUEST_TIMEOUT = 30.0


def _ops(recovery: JournalRecovery):
    """The op records a serve journal holds after its last snapshot."""
    return [r for r in recovery.after if r.get("t") == "op"]


class SchedulerService:
    """Transport-free op application over one core + one journal."""

    def __init__(
        self,
        core: SchedulerCore,
        journal: Optional[Journal] = None,
        snapshot_interval: int = DEFAULT_OP_SNAPSHOT_INTERVAL,
        start_seq: int = 0,
    ):
        if snapshot_interval < 1:
            raise ServeError("snapshot_interval must be >= 1")
        self.core = core
        self.journal = journal
        self.snapshot_interval = snapshot_interval
        #: accepted (journaled) mutating ops so far
        self.seq = start_seq
        #: set by the ``shutdown`` op; the transport loop polls it
        self.stop_requested = False

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        *,
        m: int,
        policy: str = "easy",
        window: int = 0,
        snapshot_interval: int = DEFAULT_OP_SNAPSHOT_INTERVAL,
        fsync: bool = False,
        uncertainty=None,
    ) -> "SchedulerService":
        """Start a fresh service journaling into ``directory``."""
        core = SchedulerCore(m, policy, window=window,
                             uncertainty=uncertainty)
        config = {
            "mode": SERVE_MODE,
            "format": SERVE_FORMAT,
            "m": m,
            "policy": policy,
            "window": window,
            "snapshot_interval": snapshot_interval,
            "checkpoint": CHECKPOINT_VERSION,
        }
        if core.uncertainty is not None:
            # the canonical spec, not the raw flag: resume must rebuild
            # the exact same model the journaled ops were applied under,
            # drawing from the same stream
            config["uncertainty"] = core.uncertainty.spec
            config["draw_stream"] = DRAW_STREAM_VERSION
        journal = Journal.create(directory, config, fsync=fsync)
        return cls(core, journal, snapshot_interval)

    @classmethod
    def resume(
        cls, directory: str, *, fsync: bool = False
    ) -> Tuple["SchedulerService", JournalRecovery]:
        """Recover a killed service from its journal.

        Rehydrates the last committed snapshot (or an empty core) and
        re-applies every op record after it, in acceptance order —
        the recovered core is byte-identical to the state at the last
        acked op.
        """
        journal, recovery = Journal.recover(directory, fsync=fsync)
        config = recovery.config
        if config.get("mode") != SERVE_MODE:
            journal.close()
            raise ServeError(
                f"journal {directory!r} was not written by repro serve "
                "(use `repro replay --resume` for batch-replay journals)"
            )
        snapshot_interval = int(
            config.get("snapshot_interval", DEFAULT_OP_SNAPSHOT_INTERVAL)
        )
        m = int(config["m"])
        policy = config["policy"]
        window = int(config["window"])
        # journals written before the key existed hold version-2
        # snapshots
        checkpoint_version = config.get("checkpoint", 2)
        if checkpoint_version != CHECKPOINT_VERSION:
            journal.close()
            raise ServeError(
                f"journal {directory!r} holds checkpoint version "
                f"{checkpoint_version!r}, this build reads version "
                f"{CHECKPOINT_VERSION}; its snapshots cannot be resumed "
                "(start a fresh journal)"
            )
        uncertainty = config.get("uncertainty")
        if (
            uncertainty is not None
            and config.get("draw_stream") != DRAW_STREAM_VERSION
        ):
            journal.close()
            raise ServeError(
                f"journal {directory!r} was written under uncertainty "
                f"draw stream {config.get('draw_stream', 1)!r}, this "
                f"build draws from stream {DRAW_STREAM_VERSION}; its ops "
                "cannot be re-applied byte-identically (start a fresh "
                "journal)"
            )
        if recovery.snapshot is not None:
            checkpoint, extras = pickle.loads(recovery.snapshot)
            core = SchedulerCore(m, policy, window=window, resume=checkpoint,
                                 uncertainty=uncertainty)
            core.restore_extra_state(extras)
            seq = int(recovery.snapshot_meta["ops"])
        else:
            core = SchedulerCore(m, policy, window=window,
                                 uncertainty=uncertainty)
            seq = 0
        service = cls(core, journal, snapshot_interval, start_seq=seq)
        for item in _ops(recovery):
            # journaled ⟹ appliable: these succeeded once and the core
            # is deterministic, so re-application cannot fail
            service._apply(item["op"], item["body"])
            service.seq = int(item["seq"])
        return service, recovery

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- op handling -------------------------------------------------------
    def handle(self, body) -> Dict:
        """Validate, apply, journal and answer one request body;
        returns the response envelope (errors are envelopes too —
        a rejected request is an answer, not a connection teardown)."""
        try:
            op, body = parse_request(body)
            if op in MUTATING_OPS:
                return ok_envelope(self._mutate(op, body))
            return ok_envelope(self._query(op))
        except ReproError as exc:
            return error_envelope(exc)

    def _mutate(self, op: str, body: Dict) -> Dict:
        fire("serve.op.apply")
        result = self._apply(op, body)
        if self.journal is not None:
            self.seq += 1
            self.journal.append(
                {"t": "op", "seq": self.seq, "op": op, "body": body}
            )
            if self.seq % self.snapshot_interval == 0:
                self.snapshot()
        fire("serve.op.ack")
        return result

    def _apply(self, op: str, body: Dict) -> Dict:
        core = self.core
        if op == "submit":
            job = job_from_payload(body["job"])
            core.submit(job)
            return {"submitted": job.id, "release": job.release}
        if op == "cancel":
            where = core.cancel(body["job"])
            return {"cancelled": body["job"], "was": where}
        if op == "advance":
            core.advance_to(body["to"])
            return core.status()
        if op == "reserve":
            core.reserve(body["start"], body["p"], body["q"])
            return {
                "reserved": {
                    "start": body["start"], "p": body["p"], "q": body["q"],
                }
            }
        if op == "drain":
            core.drain()
            return core.status()
        raise ServeProtocolError(f"unknown mutating op {op!r}")

    def _query(self, op: str) -> Dict:
        if op == "status":
            return {"ops": self.seq, **self.core.status()}
        if op == "windows":
            return {"rows": list(self.core.emitted)}
        if op == "state":
            return {"ops": self.seq, **self.core.describe_state()}
        if op == "shutdown":
            self.stop_requested = True
            return {"stopping": True}
        raise ServeProtocolError(f"unknown query op {op!r}")

    def snapshot(self) -> int:
        """Commit the core's full state through the journal (atomic
        snapshot file + marker-first segment roll); returns the
        snapshot index."""
        if self.journal is None:
            raise ServeError("service has no journal to snapshot into")
        data = pickle.dumps(
            (self.core.checkpoint(), self.core.extra_state()),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return self.journal.snapshot(data, meta={"ops": self.seq})


# -- HTTP front end ---------------------------------------------------------

#: GET paths and the query op each one runs.
_GET_OPS = {
    "/v1/status": "status",
    "/v1/windows": "windows",
    "/v1/state": "state",
}

#: HTTP status per error ``kind`` (ok envelopes are always 200).
_STATUS_BY_KIND = {"protocol": 400, "scheduling": 409, "model": 409}


class _ServeHandler(BaseHTTPRequestHandler):
    """One ``repro-serve/1`` request-response exchange."""

    server: "_ServeHTTPServer"
    #: per-connection socket timeout (``socketserver`` applies it in
    #: ``setup``); a stalled request line or header is dropped by
    #: ``http.server`` itself, a stalled body by :meth:`do_POST`
    timeout = REQUEST_TIMEOUT

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon is quiet; state lives in the journal

    def _respond(self, envelope: Dict) -> None:
        if envelope.get("ok"):
            status = 200
        else:
            kind = (envelope.get("error") or {}).get("kind", "internal")
            status = _STATUS_BY_KIND.get(kind, 500)
        payload = json.dumps(envelope, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:
        op = _GET_OPS.get(self.path)
        if op is None:
            self._respond(error_envelope(
                ServeProtocolError(f"unknown path {self.path!r}")
            ))
            return
        self._respond(self.server.service.handle(make_query(op)))

    def do_POST(self) -> None:
        if self.path == "/v1/shutdown":
            self._respond(self.server.service.handle(make_query("shutdown")))
            return
        if self.path != "/v1/op":
            self._respond(error_envelope(
                ServeProtocolError(f"unknown path {self.path!r}")
            ))
            return
        header = self.headers.get("Content-Length", "0")
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # refused unread: the connection closes after the response
            self.close_connection = True
            self._respond(error_envelope(ServeProtocolError(
                f"Content-Length {header!r} is not an integer in "
                f"[0, {MAX_BODY_BYTES}]"
            )))
            return
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            self.close_connection = True  # stalled mid-body: drop it
            return
        try:
            body = decode_request(raw) if raw else None
        except ServeProtocolError as exc:
            self._respond(error_envelope(exc))
            return
        self._respond(self.server.service.handle(body))


class _ServeHTTPServer(HTTPServer):
    """An :class:`HTTPServer` carrying the service it fronts."""

    allow_reuse_address = True

    def __init__(self, address, service: SchedulerService):
        super().__init__(address, _ServeHandler)
        self.service = service


class ServeDaemon:
    """The bound, single-threaded HTTP front end of one service."""

    def __init__(
        self,
        service: SchedulerService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self._httpd = _ServeHTTPServer((host, port), service)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (``port=0`` picks one)."""
        host, port = self._httpd.server_address[:2]
        return host, port

    def serve_forever(self) -> None:
        """Handle requests one at a time until a ``shutdown`` op."""
        while not self.service.stop_requested:
            self._httpd.handle_request()

    def close(self) -> None:
        self._httpd.server_close()
        self.service.close()


def run_serve(
    journal_dir: str,
    *,
    resume: bool = False,
    m: Optional[int] = None,
    policy: str = "easy",
    window: int = 0,
    snapshot_interval: int = DEFAULT_OP_SNAPSHOT_INTERVAL,
    host: str = "127.0.0.1",
    port: int = 0,
    port_file: Optional[str] = None,
    fsync: bool = False,
    stream=None,
    uncertainty=None,
) -> int:
    """The ``repro serve`` entry point: build (or recover) the service,
    bind, announce the address, and serve until shutdown."""
    stream = stream if stream is not None else sys.stderr
    if resume:
        service, recovery = SchedulerService.resume(journal_dir, fsync=fsync)
        if recovery.torn is not None:
            print(f"repro serve: repaired {recovery.torn}", file=stream)
        print(
            f"repro serve: recovered {service.seq} op(s) "
            f"({len(_ops(recovery))} replayed after the last snapshot)",
            file=stream,
        )
    else:
        if m is None:
            raise ServeError("starting a fresh service requires -m/--machines")
        service = SchedulerService.create(
            journal_dir, m=m, policy=policy, window=window,
            snapshot_interval=snapshot_interval, fsync=fsync,
            uncertainty=uncertainty,
        )
    daemon = ServeDaemon(service, host=host, port=port)
    try:
        bound_host, bound_port = daemon.address
        if port_file is not None:
            from ..durability.atomic import atomic_write_text

            atomic_write_text(port_file, f"{bound_port}\n")
        print(
            f"repro serve: listening on http://{bound_host}:{bound_port} "
            f"(journal {journal_dir})",
            file=stream, flush=True,
        )
        daemon.serve_forever()
    finally:
        daemon.close()
    return 0
