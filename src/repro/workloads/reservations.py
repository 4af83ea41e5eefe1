"""Reservation pattern generators.

The paper motivates reservations with two scenarios (Section 1.2):
co-allocation across grid sites and demo sessions at fixed times.  These
generators produce the corresponding calendar shapes:

* :func:`periodic_maintenance` — fixed-width blocks repeating with a
  period (maintenance windows, standing demos);
* :func:`random_alpha_reservations` — random reservations guaranteed to
  respect the α-restriction ``U(t) <= (1 - α) m`` (Section 4.2), built by
  greedy admission against the running profile;
* :func:`nonincreasing_staircase` — reservations all starting at 0 with
  varied lengths, producing exactly the non-increasing ``U`` of
  Section 4.1 (machines "coming back" one group at a time, Figure 2's
  shape).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..core.job import Reservation
from ..core.profiles import ResourceProfile
from ..errors import InvalidInstanceError


def periodic_maintenance(
    m: int,
    q: int,
    period,
    duration,
    count: int,
    first_start=0,
) -> Tuple[Reservation, ...]:
    """``count`` blocks of ``q`` processors, one every ``period``."""
    if q < 1 or q > m:
        raise InvalidInstanceError(f"q must be in [1, {m}], got {q}")
    if duration <= 0 or period <= 0:
        raise InvalidInstanceError("period and duration must be positive")
    if duration > period:
        raise InvalidInstanceError(
            "blocks would overlap: duration exceeds period"
        )
    return tuple(
        Reservation(
            id=f"maint{i}",
            start=first_start + i * period,
            p=duration,
            q=q,
            name=f"maintenance {i}",
        )
        for i in range(count)
    )


def random_alpha_reservations(
    m: int,
    alpha,
    horizon,
    count: int,
    seed: int = 0,
    max_len_fraction: float = 0.25,
) -> Tuple[Reservation, ...]:
    """Random reservations keeping ``U(t) <= (1 - α) m`` at every time.

    Candidates are drawn uniformly (start in ``[0, horizon)``, length up
    to ``max_len_fraction * horizon``, width up to the remaining α
    budget) and admitted greedily: a candidate that would push the
    unavailability over ``(1 - α) m`` anywhere is clipped in width to the
    worst-case remaining budget over its span, or dropped when no width
    remains.  Always terminates with at most ``count`` reservations.
    """
    if not 0 < alpha <= 1:
        raise InvalidInstanceError(f"alpha must lie in (0, 1], got {alpha!r}")
    budget = int((1 - alpha) * m)
    if budget < 1:
        return ()
    rng = random.Random(seed)
    # track unavailability via an availability profile of capacity `budget`
    room = ResourceProfile.constant(budget)
    out: List[Reservation] = []
    for i in range(count):
        start = rng.uniform(0, horizon)
        length = rng.uniform(horizon * 0.01, horizon * max_len_fraction)
        available = room.min_capacity(start, start + length)
        if available < 1:
            continue
        q = rng.randint(1, available)
        room.reserve(start, length, q)
        out.append(
            Reservation(id=f"res{i}", start=start, p=length, q=q)
        )
    return tuple(out)


def nonincreasing_staircase(
    m: int,
    steps: int,
    max_height_fraction: float = 0.75,
    horizon=100,
    seed: int = 0,
) -> Tuple[Reservation, ...]:
    """Reservations all starting at 0 — so ``U`` is non-increasing.

    ``U(t) = sum of q_j over reservations with p_j > t`` can only decrease
    over time when all reservations start together, which is precisely the
    Section 4.1 restriction.  Total initial height stays at most
    ``max_height_fraction * m`` so at least one processor remains free.
    """
    if steps < 1:
        return ()
    if not 0 < max_height_fraction < 1:
        raise InvalidInstanceError("max_height_fraction must lie in (0, 1)")
    rng = random.Random(seed)
    total_height = int(max_height_fraction * m)
    if total_height < steps:
        steps = max(1, total_height)
    if total_height < 1:
        return ()
    # split the height into `steps` positive integers
    cuts = sorted(rng.sample(range(1, total_height), steps - 1)) if steps > 1 else []
    heights = []
    prev = 0
    for c in cuts + [total_height]:
        heights.append(c - prev)
        prev = c
    # strictly increasing durations give a clean staircase
    durations = sorted(rng.uniform(horizon * 0.05, horizon) for _ in heights)
    out = []
    for i, (h, d) in enumerate(zip(heights, durations)):
        out.append(Reservation(id=f"step{i}", start=0, p=d, q=h))
    return tuple(out)


def reservation_load(reservations, m: int, horizon) -> float:
    """Fraction of the machine-time area ``m * horizon`` consumed by
    reservations (clipped to the horizon) — a workload descriptor used in
    experiment reports."""
    if horizon <= 0:
        raise InvalidInstanceError("horizon must be positive")
    area = 0
    for res in reservations:
        lo = min(max(res.start, 0), horizon)
        hi = min(res.end, horizon)
        if hi > lo:
            area += (hi - lo) * res.q
    return area / (m * horizon)
