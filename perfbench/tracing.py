"""Per-layer tracing shims, installed from the benchmark's own files.

A shim wraps one public entry point of a layer.  It times the call,
subtracts the time of the shims that ran inside it (its children) to get
the layer's *self* time, and counts calls.  Nothing here edits the
program: shims are attributes set on the program's classes and modules
after import, and only a traced run (``--trace 1``) installs them, so the
untraced run that gives the end-to-end metrics runs the program as is.

Layer names, and the metrics they feed, are listed in ``README.md``.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

#: Profile operations counted on ``ArrayProfile`` (the replay and serve
#: profile) and on ``IntSweepProfile`` (the offline schedulers' profile).
PROFILE_OPS = ("fits", "earliest_fit", "reserve", "add", "prune_before")
SWEEP_OPS = ("fits", "earliest_fit", "reserve")

#: Core verbs counted on ``SchedulerCore``.
CORE_VERBS = ("submit", "advance_to", "drain")


class Tracer:
    """Self times and counts of the shimmed layers in one process."""

    def __init__(self) -> None:
        self.calls = Counter()
        self.counts = Counter()
        self._self_s = {}
        # one entry per open shimmed call: time its children took
        self._child_s = [0.0]

    def take(self) -> dict:
        """Raw self seconds per layer since the last call, then reset."""
        out, self._self_s = self._self_s, {}
        return out

    def _enter(self) -> None:
        self._child_s.append(0.0)

    def _exit(self, name: str, elapsed: float) -> None:
        children = self._child_s.pop()
        self._child_s[-1] += elapsed
        self._self_s[name] = self._self_s.get(name, 0.0) + elapsed - children

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped as a span named ``name``; ``on_result(result,
        args)`` may add counts."""
        clock = time.perf_counter

        @wraps(fn)
        def shim(*args, **kwargs):
            self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, clock() - t0)
            self.calls[name] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return shim

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        setattr(owner, attr, self.timed(name, getattr(owner, attr), on_result))

    def timed_iteration(self, name: str, iterable):
        """Yield from ``iterable``, timing each ``next`` as a span."""
        clock = time.perf_counter
        it = iter(iterable)
        while True:
            self._enter()
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                self._exit(name, clock() - t0)
                return
            self._exit(name, clock() - t0)
            self.counts[name + ".jobs"] += 1
            yield item


def install_replay(tracer: Tracer, policy_shim: bool) -> None:
    """Shim ingest, the replay engine, the store, the core verbs, the
    profile, the uncertainty model and (optionally) the EASY policy.

    ``policy_shim`` must be false for exact-runtime replay: the engine
    routes the registered ``easy`` function to its fused in-engine twin
    by identity, so re-registering a wrapper would move the run off the
    loop it is meant to measure.
    """
    from repro.run.store import JsonlStore
    from repro.simulation.replay import ReplayEngine
    from repro.workloads.swf import SWFStream
    from repro.workloads.uncertainty import UncertaintyModel

    original_iter = SWFStream.__iter__

    def traced_iter(stream):
        return tracer.timed_iteration("ingest", original_iter(stream))

    SWFStream.__iter__ = traced_iter
    tracer.patch(ReplayEngine, "run", "engine")
    tracer.patch(
        JsonlStore, "append", "store",
        on_result=lambda _r, _a: tracer.counts.update(("store.rows",)),
    )
    tracer.patch(UncertaintyModel, "draw", "uncertainty.draw")
    install_core(tracer, policy_shim)


def install_core(tracer: Tracer, policy_shim: bool) -> None:
    """Shim the ``SchedulerCore`` verbs, ``ArrayProfile`` and the policy."""
    from repro.core.profiles import ArrayProfile
    from repro.simulation.online_sim import POLICIES
    from repro.simulation.scheduler_core import SchedulerCore

    for verb in CORE_VERBS:
        tracer.patch(SchedulerCore, verb, f"core.{verb}")

    def count_fit(result, _args):
        if result:
            tracer.counts["profile.fits.true"] += 1

    for op in PROFILE_OPS:
        tracer.patch(
            ArrayProfile, op, f"profile.{op}",
            on_result=count_fit if op == "fits" else None,
        )
    if policy_shim:
        POLICIES.register(
            "easy", tracer.timed("policy.easy", POLICIES.get("easy")),
            overwrite=True,
        )


def install_offline(tracer: Tracer) -> None:
    """Shim the timebase, both offline schedulers and the int sweep."""
    from repro.algorithms import ConservativeBackfillScheduler, ListScheduler
    from repro.core.timebase import IntSweepProfile, Timebase

    tracer.patch(Timebase, "normalize_instance", "timebase.normalize")
    tracer.patch(ListScheduler, "schedule", "lsrc.schedule")
    tracer.patch(ConservativeBackfillScheduler, "schedule", "cons.schedule")
    for op in SWEEP_OPS:
        tracer.patch(IntSweepProfile, op, f"sweep.{op}")


def install_serve(tracer: Tracer, request_log: list) -> None:
    """Shim request parsing, the service, the journal, the core verbs,
    the profile and the policy inside a ``repro serve`` daemon.

    After each ``SchedulerService.handle`` call the request's layer self
    times are appended to ``request_log``, in request order.
    """
    import repro.serve.daemon as daemon
    from repro.durability.journal import Journal

    tracer.patch(daemon, "parse_request", "api.parse")

    def count_bytes(original):
        # bytes as written: the offset of the open segment before and
        # after the framed record (the journal keeps no byte counter)
        def append(journal, record):
            before = journal._fh.tell()
            original(journal, record)
            tracer.counts["journal.append.bytes"] += journal._fh.tell() - before

        return append

    Journal.append = tracer.timed("journal.append", count_bytes(Journal.append))
    tracer.patch(Journal, "snapshot", "journal.snapshot")
    install_core(tracer, policy_shim=True)

    handle = tracer.timed("service.handle", daemon.SchedulerService.handle)

    def logged_handle(service, body):
        envelope = handle(service, body)
        request_log.append(tracer.take())
        return envelope

    daemon.SchedulerService.handle = logged_handle
