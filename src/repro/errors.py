"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single base class.  The hierarchy distinguishes *model* errors
(instances that are malformed or infeasible) from *algorithmic* errors
(schedulers failing or exceeding their search budget) and *verification*
errors (produced schedules that violate the model constraints).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class InvalidInstanceError(ReproError, ValueError):
    """A job, reservation, or instance violates basic model constraints.

    Examples: non-positive processing time, a job requiring more than ``m``
    processors, a reservation with a negative start time.
    """


class InfeasibleInstanceError(InvalidInstanceError):
    """The reservations of an instance cannot coexist on ``m`` machines.

    The paper only considers *feasible* instances, i.e. those whose
    unavailability function satisfies ``U(t) <= m`` for all ``t``
    (Section 3.1).  This error signals a violation.
    """


class AlphaViolationError(InvalidInstanceError):
    """An instance does not satisfy the alpha-RESASCHEDULING restrictions.

    The restricted problem of Section 4.2 requires ``U(t) <= (1 - alpha) m``
    at every time and ``q_i <= alpha m`` for every job.
    """


class InfeasibleScheduleError(ReproError):
    """A schedule violates the resource constraint or the model rules.

    Raised by :meth:`repro.core.schedule.Schedule.verify` with a list of
    human-readable violation descriptions attached as ``violations``.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        #: Detailed description of each constraint violation found.
        self.violations: list[str] = violations or []


class SchedulingError(ReproError):
    """A scheduler could not produce a schedule for a (feasible) instance."""


class CapacityError(SchedulingError):
    """A profile reservation request exceeds the available capacity."""


class SearchBudgetExceeded(SchedulingError):
    """An exact solver exhausted its node or time budget.

    The partially-explored incumbent, if any, is attached as ``incumbent``.
    """

    def __init__(self, message: str, incumbent=None):
        super().__init__(message)
        #: Best (possibly non-optimal) solution found before the budget ran out.
        self.incumbent = incumbent


class JournalError(ReproError):
    """A replay journal directory cannot be used as requested.

    Examples: creating a journal in a non-empty directory, resuming
    from a directory with no journal, or resuming with an engine
    configuration that does not match the journal's recorded header.
    """


class JournalCorruptError(JournalError):
    """A journal failed validation *before* its recoverable tail.

    A torn tail — an incomplete or CRC-failing final record in the last
    segment — is expected after a crash and is truncated silently; this
    error means damage anywhere else (a mid-file CRC mismatch, a
    non-JSON payload, a snapshot whose bytes no longer match the marker
    record), which re-execution cannot repair.
    """


class TraceFormatError(ReproError, ValueError):
    """A workload trace file (for example SWF) could not be parsed."""


class ServeError(ReproError):
    """A scheduler-service request could not be honoured.

    The daemon maps these onto the structured ``repro-serve/1`` error
    envelope (:func:`repro.serve.api.error_envelope`) instead of
    tearing down the connection: the request was understood but
    rejected.
    """


class ServeProtocolError(ServeError):
    """A serve request is malformed at the protocol level.

    Examples: a body that is not a JSON object, a missing or unknown
    ``format`` tag, a payload field of the wrong type.  Distinct from
    :class:`ServeError` so clients can tell "fix your request" from
    "the scheduler refused the operation".
    """
