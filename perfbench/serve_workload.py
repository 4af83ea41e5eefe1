"""The ``serve-http`` workload: a ``repro serve`` daemon driven over HTTP.

One closed-loop client keeps one request in flight (callers wait for the
ack) and opens one connection per request, as the daemon's HTTP/1.0
front end requires.  The seeded op mix submits a synthetic steady trace
in release order, advances the logical clock to each release time and
reads ``GET /v1/status`` after every advance; among those requests it
reserves future capacity and submits and cancels a staged job.

The daemon runs ``perfbench/serve_launcher.py`` -- ``repro.cli.main``
with, in traced sessions only, the tracing shims installed first.
Round trips are normalised by round trips to ``http_reference.py``, a
bare stdlib HTTP server: the interpreter kernel tracks interpreter speed,
but a serve round trip is mostly connection set-up, wake-ups and HTTP
parsing, which the host slows by a different factor.

The client, the daemon and the reference server share the benchmark's one
CPU (see ``run.py``).  With one request in flight only one of them is
busy at a time, and a shared CPU spares each round trip two cross-CPU
wake-ups, whose delay on a shared VM made the tail of unpinned runs
swing by a factor of two.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import hostnorm
from workloads import M, vm_hwm_mb

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
HTTP_REFERENCE = os.path.join(HERE, "http_reference.py")

#: Round trips to the reference server per measurement (their median).
REFERENCE_REQUESTS = 10

#: Seconds one reference round trip takes on the nominal host.
HTTP_NOMINAL = 0.0005

#: The reference request: the size of a ``submit``.
REFERENCE_BODY = json.dumps({
    "format": "repro-serve/1", "op": "submit",
    "job": {"id": 123456, "p": 1800, "q": 16, "release": 7654321},
}).encode("utf-8")

# The mix beside the trace's own submits and advances.  No recorded
# serve session exists to take it from, so only the reserve rate has a
# source; README.md gives the reason for each rate.  A ``GET /v1/status``
# read follows every ``advance`` (an assumption: a caller that moves the
# clock reads what the move started).

#: One reserve per this many trace jobs submitted: the ratio of the
#: core-throughput bench's instances (``benchmarks/bench_profile_backends.py``:
#: 1000 reservations per 10000 jobs, 80 per 800 in its quick mode).
RESERVE_EVERY_JOBS = 10
#: Chance per release time of submitting a job and cancelling it while
#: it is still staged (an assumption).
CANCEL_CHANCE = 1 / 16

#: Reservations start this far past the current release time: beyond the
#: longest runtime of the trace (3600), so a hole never meets a running
#: job and a reserve never fails for lack of capacity.
RESERVE_LEAD = 4000
RESERVE_Q = 8

#: Ids of the jobs that are submitted only to be cancelled.
CANCEL_ID_BASE = 10 ** 9

#: Seconds a daemon may take to start or stop.
DAEMON_TIMEOUT_S = 60


def request_stream(seed: int):
    """Yield ``(kind, method, path, body bytes or None, trace jobs
    submitted)`` requests, forever."""
    from repro.serve.api import (
        make_advance, make_cancel, make_reserve, make_submit,
    )
    from repro.workloads.swf import synth_swf_jobs

    def post(kind, body, jobs=0):
        return (kind, "POST", "/v1/op", json.dumps(body).encode("utf-8"),
                jobs)

    rng = random.Random(f"serve-mix:{seed}")
    jobs = synth_swf_jobs("steady", 10 ** 9, m=M, seed=seed)
    pending = next(jobs)
    extra = CANCEL_ID_BASE
    submitted = 0
    while True:
        t = pending.release
        while pending.release == t:
            yield post("submit",
                       make_submit(pending.id, pending.p, pending.q, t), 1)
            submitted += 1
            if submitted % RESERVE_EVERY_JOBS == 0:
                yield post("reserve", make_reserve(
                    t + RESERVE_LEAD, rng.randint(60, 600), RESERVE_Q))
            pending = next(jobs)
        if rng.random() < CANCEL_CHANCE:
            extra += 1
            yield post("submit", make_submit(extra, 60, 1, t))
            yield post("cancel", make_cancel(extra))
        yield post("advance", make_advance(t))
        yield "status", "GET", "/v1/status", None, 0


def http_request(port: int, method: str, path: str, body):
    """One request on a fresh connection; returns ``(status, body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=DAEMON_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One HTTP server subprocess; ``argv`` (after the interpreter) must
    take the path of the file the server writes its port to as its last
    argument.  The constructor returns once that file exists."""

    def __init__(self, workdir: str, name: str, argv):
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir)
        port_file = os.path.join(self.dir, "port")
        self.log = open(os.path.join(self.dir, "server.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, *argv, port_file], stdout=self.log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        self.port = None
        try:
            deadline = time.perf_counter() + DAEMON_TIMEOUT_S
            while not os.path.exists(port_file):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"{name} exited: {self.log_text()}")
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"{name} did not start in time")
                time.sleep(0.002)
            with open(port_file) as fh:
                self.port = int(fh.read())
        except BaseException:
            self.kill()
            raise

    def request(self, method, path, body):
        return http_request(self.port, method, path, body)

    def log_text(self) -> str:
        self.log.flush()
        with open(self.log.name, errors="replace") as fh:
            return fh.read()[-2000:]

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.log.close()

    def stop(self, method: str, path: str, body) -> None:
        """Send the shutdown request; kill the server if it does not exit."""
        try:
            if self.proc.poll() is None:
                self.request(method, path, body)
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


class HttpReference:
    """The ``serve-http`` reference: median round trip to the frozen
    stdlib server of ``http_reference.py``."""

    def __init__(self, workdir: str):
        self.server = Server(workdir, "http-reference", [HTTP_REFERENCE])
        self.reference = hostnorm.Reference(
            "stdlib HTTP round trip", self.measure, HTTP_NOMINAL
        )

    def measure(self) -> float:
        times = []
        for _ in range(REFERENCE_REQUESTS):
            t0 = time.perf_counter()
            self.server.request("POST", "/", REFERENCE_BODY)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def close(self) -> None:
        self.server.stop("POST", "/", b'{"op": "shutdown"}')


class ServeWorkload:
    """Sessions against a fresh daemon each; see the module docs."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.sessions = 0
        self.daemon = None
        self.http_reference = None
        self.sent = []          # requests of the last session, in order
        self.final_state = None
        self.rss_mb = None
        self.mix = {}           # kind -> normalised seconds of each request

    def setup(self) -> None:
        """Nothing: the daemon is the program's set-up, and every
        session starts its own."""

    def start_daemon(self, trace_out=None) -> Server:
        """A ``repro serve`` daemon with a fresh journal, answering."""
        self.sessions += 1
        name = f"daemon-{self.sessions}"
        argv = [LAUNCHER]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += ["serve", os.path.join(self.workdir, name, "journal"),
                 "-m", str(M), "--port-file"]
        daemon = Server(self.workdir, name, argv)
        try:
            status, _ = daemon.request("GET", "/v1/status", None)
            if status != 200:
                raise RuntimeError(f"daemon status probe answered {status}")
        except BaseException:
            daemon.kill()
            raise
        self.daemon = daemon
        return daemon

    def stop_daemon(self) -> None:
        if self.daemon is not None:
            self.daemon.stop("POST", "/v1/shutdown", None)
            self.daemon = None

    def setup_probe(self) -> float:
        """Raw seconds from spawning a daemon to its first answer."""
        t0 = time.perf_counter()
        self.start_daemon()
        elapsed = time.perf_counter() - t0
        self.stop_daemon()
        return elapsed

    def session(self, *, seconds=None, count=None, min_count=0, trace=False):
        if self.http_reference is None:
            self.http_reference = HttpReference(self.workdir)
        trace_out = None
        if trace:
            trace_out = os.path.join(self.workdir, f"trace-{self.sessions}.json")
        daemon = self.start_daemon(trace_out)
        stream = request_stream(self.seed)
        self.sent = sent = []

        def op():
            kind, method, path, body, jobs = next(stream)
            sent.append((kind, method, body))
            t0 = time.perf_counter()
            status, raw = daemon.request(method, path, body)
            elapsed = time.perf_counter() - t0
            ok = status == 200 and json.loads(raw).get("ok") is True
            return elapsed, jobs if ok else 0, ok, None

        samples = hostnorm.run_spans(op, seconds=seconds, count=count,
                                     min_count=min_count,
                                     reference=self.http_reference.reference)
        self.mix = {}
        for (kind, _, _), op_s in zip(sent, samples.op_s):
            self.mix.setdefault(kind, []).append(op_s)
        self.rss_mb = vm_hwm_mb(daemon.proc.pid)
        status, raw = daemon.request("GET", "/v1/state", None)
        self.final_state = json.loads(raw) if status == 200 else None
        self.stop_daemon()
        if not trace:
            return samples, None, None
        with open(trace_out) as fh:
            dump = json.load(fh)
        attribute_requests(samples, dump["requests"])
        return samples, dump["calls"], dump["counts"]

    def peak_rss_mb(self) -> float:
        return self.rss_mb

    def context(self) -> dict:
        """The last session's share of each request kind, and each kind's
        normalised median round trip."""
        n = sum(len(times) for times in self.mix.values())
        return {
            "client": "closed loop, 1 in flight, 1 connection/request",
            "mix": {
                kind: {"share": len(times) / n,
                       "p50_ms": statistics.median(times) * 1e3}
                for kind, times in sorted(self.mix.items())
            },
        }

    def close(self) -> None:
        self.stop_daemon()
        if self.http_reference is not None:
            self.http_reference.close()
            self.http_reference = None

    def check(self):
        """The daemon's final ``/v1/state`` must equal the state of an
        in-process ``SchedulerService`` fed the same requests."""
        from repro.serve.api import make_query
        from repro.serve.daemon import SchedulerService

        ref_dir = os.path.join(self.workdir, "reference")
        shutil.rmtree(ref_dir, ignore_errors=True)
        service = SchedulerService.create(ref_dir, m=M)
        try:
            for _, method, body in self.sent:
                service.handle(
                    json.loads(body) if method == "POST"
                    else make_query("status")
                )
            want = service.handle(make_query("state"))
        finally:
            service.close()
        want = json.loads(json.dumps(want, sort_keys=True))
        if self.final_state != want:
            return ["daemon /v1/state differs from the in-process reference"]
        return []


def attribute_requests(samples, requests) -> None:
    """Split each timed request into the daemon's layer self times and
    the front end (round trip minus ``SchedulerService.handle``).

    ``requests`` is the daemon's per-``handle`` log; its first entry is
    the readiness probe, then one entry per timed request.
    """
    timed = requests[1:1 + samples.attempted]
    if len(timed) != samples.attempted:
        raise RuntimeError(
            f"daemon logged {len(timed)} of {samples.attempted} requests"
        )
    for i, layers in enumerate(timed):
        f = samples.op_f[i]
        handle = sum(layers.values())
        for name, raw in layers.items():
            samples.layer_s[name] = samples.layer_s.get(name, 0.0) + raw / f
        front_end = samples.raw_op_s[i] - handle
        samples.layer_s["front_end"] = (
            samples.layer_s.get("front_end", 0.0) + front_end / f
        )
        samples.other_s.append(0.0)
