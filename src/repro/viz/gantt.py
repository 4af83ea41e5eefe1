"""ASCII Gantt charts for schedules.

Renders a schedule the way the paper's Figures 2 and 3 draw them:
processors on the y-axis, time on the x-axis, jobs as labelled blocks and
reservations as hatched blocks.  Uses the concrete processor assignment
from :meth:`repro.core.schedule.Schedule.assign_processors`, so what you
see is a real feasible packing, not just a capacity curve.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.schedule import Schedule
from ..errors import InvalidInstanceError

#: glyph used for reservations
RESERVATION_GLYPH = "/"
#: glyph cycle for jobs
JOB_GLYPHS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def render_gantt(
    schedule: Schedule,
    width: int = 78,
    horizon=None,
    legend: bool = True,
    max_rows: Optional[int] = 64,
) -> str:
    """Render the schedule as an ASCII Gantt chart.

    Parameters
    ----------
    width:
        Number of character columns for the time axis.
    horizon:
        Right edge of the chart; defaults to the larger of the makespan
        and the last reservation end *within* the makespan window (the
        Theorem 1 blocker would otherwise stretch the axis absurdly).
    legend:
        Append a job-glyph legend.
    max_rows:
        Cap on processor rows (large machines are summarised row-wise).
    """
    inst = schedule.instance
    if not inst.jobs and not inst.reservations:
        return "(empty schedule)"
    cmax = schedule.makespan
    if horizon is None:
        res_edge = max(
            (r.end for r in inst.reservations if r.start < cmax or cmax == 0),
            default=0,
        )
        horizon = max(cmax, min(res_edge, 2 * cmax) if cmax else res_edge)
    if horizon <= 0:
        horizon = 1
    assignment = schedule.assign_processors()

    glyph_of: Dict = {}
    for i, job in enumerate(inst.jobs):
        glyph_of[job.id] = JOB_GLYPHS[i % len(JOB_GLYPHS)]

    def col(t) -> int:
        frac = t / horizon
        return min(width, max(0, int(round(frac * width))))

    m = inst.m
    rows = [[" "] * width for _ in range(m)]

    def paint(start, end, procs, glyph) -> None:
        c0, c1 = col(start), col(end)
        if c1 <= c0:
            c1 = min(width, c0 + 1)  # ensure visibility of tiny blocks
        for p in procs:
            for c in range(c0, c1):
                rows[p][c] = glyph

    for res in inst.reservations:
        procs = assignment.get(("res", res.id), ())
        paint(res.start, min(res.end, horizon), procs, RESERVATION_GLYPH)
    for job in inst.jobs:
        procs = assignment.get(("job", job.id), ())
        s = schedule.starts[job.id]
        paint(s, s + job.p, procs, glyph_of[job.id])

    lines: List[str] = []
    title = f"Gantt: m={m}, Cmax={cmax}" + (
        f" [{schedule.algorithm}]" if schedule.algorithm else ""
    )
    lines.append(title)
    display_rows = rows
    if max_rows is not None and m > max_rows:
        step = -(-m // max_rows)  # ceil division: one display row per step
        display_rows = []
        for base in range(0, m, step):
            merged = [" "] * width
            for p in range(base, min(m, base + step)):
                for c in range(width):
                    if rows[p][c] != " " and merged[c] == " ":
                        merged[c] = rows[p][c]
            display_rows.append(merged)
        lines.append(
            f"(processors aggregated {step} per row; {m} total)"
        )
    for idx, row in enumerate(reversed(display_rows)):
        label = (
            f"P{len(display_rows) - 1 - idx:>3} |"
            if len(display_rows) <= 64
            else "     |"
        )
        lines.append(label + "".join(row) + "|")
    axis = "     +" + "-" * width + "+"
    lines.append(axis)
    lines.append(f"     0{' ' * (width - len(str(horizon)))}{horizon}")
    if legend:
        entries = []
        for job in inst.jobs[:24]:
            entries.append(f"{glyph_of[job.id]}={job.label}")
        if len(inst.jobs) > 24:
            entries.append("...")
        if inst.reservations:
            entries.append(f"{RESERVATION_GLYPH}=reservation")
        lines.append("legend: " + "  ".join(entries))
    return "\n".join(lines)


def render_profile(profile, width: int = 78, horizon=None, title: str = "") -> str:
    """ASCII silhouette of a :class:`~repro.core.profiles.ResourceProfile`.

    Useful for inspecting availability calendars (``m(t) = m - U(t)``)
    before scheduling anything — the shapes of Figure 2's staircases and
    Figure 1's gap structure render directly.
    """
    breakpoints = list(profile.breakpoints)
    if horizon is None:
        horizon = (breakpoints[-1] * 1.25) if breakpoints[-1] > 0 else 1
    if horizon <= 0:
        raise InvalidInstanceError("horizon must be positive")
    top = max(profile.max_capacity(), 1)
    samples = [
        profile.capacity_at(horizon * c / width) for c in range(width)
    ]
    lines = [title or f"availability profile (max={top})"]
    levels = min(top, 12)
    for level in range(levels, 0, -1):
        threshold = top * level / levels
        line = "".join("#" if s >= threshold else " " for s in samples)
        lines.append(f"{int(threshold):>4} |" + line)
    lines.append("     +" + "-" * width)
    lines.append(f"     0{' ' * (width - len(str(horizon)))}{horizon}")
    return "\n".join(lines)


def render_utilization(schedule: Schedule, width: int = 78) -> str:
    """One-line-per-level utilization silhouette: ``r(t)`` over time."""
    cmax = schedule.makespan
    if cmax <= 0:
        return "(empty schedule)"
    usage = schedule.usage_profile()
    m = schedule.instance.m
    samples = []
    for c in range(width):
        t = cmax * c / width
        samples.append(usage.capacity_at(t))
    lines = [f"utilization r(t), m={m}, Cmax={cmax}"]
    levels = 10
    for level in range(levels, 0, -1):
        threshold = m * level / levels
        line = "".join("#" if s >= threshold else " " for s in samples)
        prefix = f"{int(threshold):>4} |"
        lines.append(prefix + line)
    lines.append("     +" + "-" * width)
    return "\n".join(lines)
