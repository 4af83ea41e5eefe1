"""Discrete-event online cluster simulation (built from scratch).

* :mod:`repro.simulation.online_sim` — the online policies (fcfs, easy,
  conservative, greedy/LSRC) and :func:`simulate`, which runs an
  instance through the scheduler core, producing verified schedules
  plus event traces;
* :mod:`repro.simulation.replay` — rolling-horizon replay of arrival
  *streams* (SWF traces, synthetic generators) with bounded memory and
  windowed metrics, for traces too large to materialise;
* :mod:`repro.simulation.scheduler_core` — the one event loop (with
  the built-in policies' inlined passes) behind a ``submit`` / ``feed``
  / ``reserve`` / ``cancel`` / ``advance_to`` / ``drain`` surface.

:class:`SchedulerCore` is the supported embedding API: online
simulation (:func:`simulate`), trace replay (:class:`ReplayEngine`),
journaled replay and the ``repro serve`` daemon all drive it.
Reaching into its private loop (``SchedulerCore._event_loop``) is
flagged by lint rule RPL503.
"""

from .online_sim import (
    POLICIES,
    SimulationResult,
    TraceEvent,
    available_policies,
    get_policy,
    policy_conservative,
    policy_easy,
    policy_fcfs,
    policy_greedy,
    register_policy,
    simulate,
)
from .replay import (
    DEFAULT_WINDOW,
    MultiReplayResult,
    ReplayCheckpoint,
    ReplayEngine,
    ReplayResult,
    replay,
    replay_policies,
    replay_swf,
)
from .scheduler_core import SchedulerCore

__all__ = [
    "SimulationResult",
    "TraceEvent",
    "simulate",
    "POLICIES",
    "register_policy",
    "get_policy",
    "available_policies",
    "policy_fcfs",
    "policy_greedy",
    "policy_easy",
    "policy_conservative",
    "ReplayCheckpoint",
    "ReplayEngine",
    "ReplayResult",
    "SchedulerCore",
    "MultiReplayResult",
    "replay",
    "replay_policies",
    "replay_swf",
    "DEFAULT_WINDOW",
]
