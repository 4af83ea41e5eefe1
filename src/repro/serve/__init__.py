"""``repro serve``: the scheduler-as-a-service layer.

* :mod:`repro.serve.api` — the versioned ``repro-serve/1`` wire format
  (request builders, validation, response envelopes); the only module
  clients import.
* :mod:`repro.serve.daemon` — the daemon itself: a transport-free
  :class:`SchedulerService` (op application + journal event-sourcing +
  snapshots + crash recovery) fronted by a single-threaded stdlib
  HTTP/JSON server (:class:`ServeDaemon`).
"""

from .._lazy import lazy_exports as _lazy_exports

__all__ = [
    "DEFAULT_OP_SNAPSHOT_INTERVAL",
    "SERVE_FORMAT",
    "SchedulerService",
    "ServeDaemon",
    "run_serve",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".api": ("SERVE_FORMAT",),
    ".daemon": (
        "DEFAULT_OP_SNAPSHOT_INTERVAL", "SchedulerService", "ServeDaemon",
        "run_serve",
    ),
})
