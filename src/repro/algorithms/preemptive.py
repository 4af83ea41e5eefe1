"""Optimal preemptive scheduling of sequential jobs under availability
profiles (the related-work model of Section 1.3).

The paper contrasts its non-preemptive rigid model with the literature on
availability constraints, "most of the existing work ... considers models
where preemption is allowed" — citing Schmidt's semi-identical processors
[17] and Liu & Sanlaville's variable profiles [15].  This module builds
that comparator so experiments can measure the *price of non-preemption*
under reservations:

* **Schmidt's condition** — sequential jobs (``q_i = 1``) can be
  preemptively scheduled by deadline ``T`` on a machine with availability
  profile ``m(t)`` iff for every ``k`` the ``k`` largest processing times
  fit in the capacity of the ``k`` "fastest" machines::

      for all k in 1..n:   sum of k largest p_i  <=  ∫₀ᵀ min(m(t), k) dt

  (the ``k = n`` case is the total-area condition).
  :func:`preemptive_makespan` computes the smallest such ``T`` exactly.

* **Construction** — :func:`preemptive_schedule` realises a schedule
  attaining that makespan: profile segments are filled in
  longest-remaining-first order (each job capped at the segment length so
  it never runs on two machines at once), then each segment's allocation
  is laid out with McNaughton's wrap-around rule.  The result is a
  :class:`PreemptiveSchedule` whose :meth:`PreemptiveSchedule.verify`
  re-checks every invariant from scratch.

Only sequential jobs are supported: preemptive *rigid* scheduling is a
different (and much harder) problem, which is precisely the paper's
point in Section 1.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from ..core.instance import ReservationInstance, as_reservation_instance
from ..errors import InvalidInstanceError, SchedulingError


@dataclass(frozen=True)
class PreemptivePiece:
    """One contiguous run of a job on one (virtual) machine."""

    job_id: object
    machine: int
    start: object
    end: object

    @property
    def length(self):
        return self.end - self.start


class PreemptiveSchedule:
    """A preemptive schedule: a list of pieces plus its instance."""

    def __init__(self, instance: ReservationInstance, pieces: List[PreemptivePiece]):
        self.instance = instance
        self.pieces = list(pieces)

    @property
    def makespan(self):
        """Latest piece end (0 when empty)."""
        return max((p.end for p in self.pieces), default=0)

    def work_of(self, job_id):
        """Total processing received by a job."""
        return sum(p.length for p in self.pieces if p.job_id == job_id)

    def preemption_count(self) -> int:
        """Number of preemptions: extra pieces beyond one per job."""
        per_job: Dict[object, int] = {}
        for piece in self.pieces:
            per_job[piece.job_id] = per_job.get(piece.job_id, 0) + 1
        return sum(c - 1 for c in per_job.values())

    def verify(self) -> None:
        """Re-check every invariant; raises :class:`SchedulingError`.

        1. every job receives exactly ``p_i`` units of processing;
        2. no job runs on two machines at once (its pieces are disjoint);
        3. concurrency never exceeds the availability ``m(t)``;
        4. no piece has negative length or starts before 0.
        """
        inst = self.instance
        for piece in self.pieces:
            if piece.length <= 0:
                raise SchedulingError(f"empty or negative piece {piece}")
            if piece.start < 0:
                raise SchedulingError(f"piece before time 0: {piece}")
        for job in inst.jobs:
            got = self.work_of(job.id)
            if got != job.p:
                raise SchedulingError(
                    f"job {job.id!r} received {got} processing, needs {job.p}"
                )
        # per-job self-overlap
        by_job: Dict[object, List[PreemptivePiece]] = {}
        for piece in self.pieces:
            by_job.setdefault(piece.job_id, []).append(piece)
        for job_id, pieces in by_job.items():
            pieces.sort(key=lambda p: p.start)
            for a, b in zip(pieces, pieces[1:]):
                if b.start < a.end:
                    raise SchedulingError(
                        f"job {job_id!r} runs in parallel with itself: "
                        f"{a} overlaps {b}"
                    )
        # concurrency vs availability at every event point
        profile = inst.availability_profile()
        events = sorted(
            {p.start for p in self.pieces}
            | {p.end for p in self.pieces}
            | set(profile.breakpoints)
        )
        for t in events:
            running = sum(1 for p in self.pieces if p.start <= t < p.end)
            if running > profile.capacity_at(t):
                raise SchedulingError(
                    f"at {t}: {running} jobs running but only "
                    f"{profile.capacity_at(t)} machines available"
                )


def _check_sequential(inst: ReservationInstance) -> None:
    wide = [job.id for job in inst.jobs if job.q != 1]
    if wide:
        raise InvalidInstanceError(
            f"preemptive scheduling supports sequential jobs only "
            f"(q = 1); jobs {wide!r} are parallel"
        )
    late = [job.id for job in inst.jobs if job.release != 0]
    if late:
        raise InvalidInstanceError(
            f"preemptive scheduling is offline; jobs {late!r} have releases"
        )


def _capped_area(profile, cap: int, T) -> object:
    """``∫₀ᵀ min(m(t), cap) dt`` exactly."""
    total = 0
    for seg_start, seg_end, c in profile.segments():
        if seg_start >= T:
            break
        hi = min(seg_end, T)
        total += min(c, cap) * (hi - seg_start)
    return total


def _exact_div(deficit, rate: int):
    """``deficit / rate`` staying exact for integer inputs."""
    if isinstance(deficit, int):
        q = Fraction(deficit, rate)
        return int(q) if q.denominator == 1 else q
    return deficit / rate


def _first_time_capped_area_reaches(profile, cap: int, work):
    """Smallest ``T`` with ``∫₀ᵀ min(m(t), cap) >= work`` (None if never)."""
    if work <= 0:
        return 0
    acc = 0
    for seg_start, seg_end, c in profile.segments():
        rate = min(c, cap)
        if seg_end == math.inf:
            if rate == 0:
                return None
            return seg_start + _exact_div(work - acc, rate)
        if rate > 0:
            gain = rate * (seg_end - seg_start)
            if acc + gain >= work:
                return seg_start + _exact_div(work - acc, rate)
            acc += gain
    return None  # pragma: no cover - final segment is infinite


def preemptive_makespan(instance):
    """Smallest ``T`` satisfying Schmidt's condition (exact optimum).

    Each ``k``-condition yields the earliest time the ``k`` largest jobs'
    total work fits in ``min(m(t), k)``; the optimum is the max over
    ``k``.  Exact for integer/Fraction inputs.
    """
    inst = as_reservation_instance(instance)
    _check_sequential(inst)
    if not inst.jobs:
        return 0
    profile = inst.availability_profile()
    ps = sorted((job.p for job in inst.jobs), reverse=True)
    best = 0
    prefix = 0
    for k, p in enumerate(ps, start=1):
        prefix += p
        t = _first_time_capped_area_reaches(profile, k, prefix)
        if t is None:
            raise SchedulingError(
                "availability never accumulates enough capacity; "
                "degenerate profile"
            )
        best = max(best, t)
    return best


def _div(a, b):
    """Exact division when both operands are int/Fraction."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        q = Fraction(a) / Fraction(b)
        return int(q) if q.denominator == 1 else q
    return a / b


def _waterfill(rs: List, c: int, length):
    """Allocations for one segment: continuous-LRPT water levels.

    Gives each job ``a_j = min(length, max(0, r_j - θ))`` where the level
    ``θ >= 0`` is chosen so the total equals the segment's capacity
    ``c * length`` (or every job is served when capacity is plentiful).
    Keeping the *largest remaining* values balanced is what preserves
    Schmidt's condition for the residual instance — a plain
    longest-first greedy can starve the second-longest job and miss the
    optimum.
    """
    budget = c * length
    served_all = [min(r, length) for r in rs]
    if sum(served_all) <= budget:
        return served_all
    # f(θ) = Σ min(length, max(0, r_j − θ)) is continuous, non-increasing,
    # piecewise linear with breakpoints at θ = r_j and θ = r_j − length.
    candidates = sorted(
        {r for r in rs} | {r - length for r in rs if r - length > 0}
    )
    prev, f_prev = 0, sum(served_all)
    for cand in candidates:
        if cand <= 0:
            continue
        f_cand = sum(min(length, max(0, r - cand)) for r in rs)
        if f_cand <= budget:
            if f_cand == budget:
                theta = cand
            else:
                slope = _div(f_cand - f_prev, cand - prev)  # negative
                theta = prev + _div(budget - f_prev, slope)
            return [min(length, max(0, r - theta)) for r in rs]
        prev, f_prev = cand, f_cand
    raise SchedulingError(  # pragma: no cover - f reaches 0 at max r
        "water-filling failed to find a level; please report"
    )


def preemptive_schedule(instance) -> PreemptiveSchedule:
    """Construct an optimal preemptive schedule.

    Segment-filling: walk the availability profile up to the optimal
    ``T``; in each constant segment ``[s, e) × c``, share the ``c``
    machines among the jobs with the largest remaining work by
    water-filling (:func:`_waterfill` — the continuous LRPT rule), with
    every job capped at the segment length so it never needs two machines
    at once; realise each segment's allocation with McNaughton's
    wrap-around rule.

    :meth:`PreemptiveSchedule.verify` and a hypothesis property test
    re-check on every run that the construction attains the Schmidt
    optimum exactly.
    """
    inst = as_reservation_instance(instance)
    _check_sequential(inst)
    if not inst.jobs:
        return PreemptiveSchedule(inst, [])
    T = preemptive_makespan(inst)
    profile = inst.availability_profile()
    remaining: Dict[object, object] = {job.id: job.p for job in inst.jobs}
    pieces: List[PreemptivePiece] = []

    for seg_start, seg_end, c in profile.segments():
        if seg_start >= T or all(r == 0 for r in remaining.values()):
            break
        hi = min(seg_end, T)
        length = hi - seg_start
        if length <= 0 or c == 0:
            continue
        active = sorted(
            (jid for jid, r in remaining.items() if r > 0),
            key=lambda jid: (-remaining[jid], str(jid)),
        )
        amounts = _waterfill([remaining[jid] for jid in active], c, length)
        alloc: List[Tuple[object, object]] = []
        for jid, give in zip(active, amounts):
            if give <= 0:
                continue
            alloc.append((jid, give))
            remaining[jid] -= give
        # McNaughton wrap-around within [seg_start, hi) on c machines
        machine = 0
        cursor = seg_start
        for jid, give in alloc:
            while give > 0:
                room = hi - cursor
                if room <= 0:
                    machine += 1
                    cursor = seg_start
                    room = length
                run = min(give, room)
                pieces.append(
                    PreemptivePiece(
                        job_id=jid,
                        machine=machine,
                        start=cursor,
                        end=cursor + run,
                    )
                )
                cursor += run
                give -= run
    unfinished = [jid for jid, r in remaining.items() if r > 0]
    if unfinished:
        raise SchedulingError(
            f"segment filling left jobs unfinished: {unfinished!r}; "
            "Schmidt bound violated — please report this instance"
        )
    # merge adjacent pieces of the same job on the same machine
    merged: List[PreemptivePiece] = []
    for piece in sorted(pieces, key=lambda p: (p.machine, p.start)):
        if (
            merged
            and merged[-1].machine == piece.machine
            and merged[-1].job_id == piece.job_id
            and merged[-1].end == piece.start
        ):
            merged[-1] = PreemptivePiece(
                job_id=piece.job_id,
                machine=piece.machine,
                start=merged[-1].start,
                end=piece.end,
            )
        else:
            merged.append(piece)
    return PreemptiveSchedule(inst, merged)


def price_of_nonpreemption(instance, scheduler=None):
    """Ratio ``Cmax(non-preemptive scheduler) / Cmax(preemptive optimum)``.

    The comparison the paper's Section 1.3 implies: how much of LSRC's
    makespan is the price of not preempting (versus the price of
    approximation).  Sequential offline jobs only.
    """
    from .list_scheduling import ListScheduler

    inst = as_reservation_instance(instance)
    _check_sequential(inst)
    scheduler = scheduler or ListScheduler()
    nonpreemptive = scheduler.schedule(inst)
    nonpreemptive.verify()
    lower = preemptive_makespan(inst)
    if lower == 0:
        return 1
    return _div(nonpreemptive.makespan, lower)
