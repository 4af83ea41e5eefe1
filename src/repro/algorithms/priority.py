"""Priority rules: orderings of the job list fed to list scheduling.

The paper analyses *general* list scheduling — its guarantees hold for any
order of the list — and explicitly leaves "adding a priority based on
sorting the jobs by decreasing durations" as a perspective (Section 5).
This module provides the classical rules so that the ablation benchmark
can quantify how much the order matters in practice:

========  ==========================================================
rule      order
========  ==========================================================
fifo      submission order (instance order, ties by release)
lpt       Longest Processing Time first (decreasing ``p``)
spt       Shortest Processing Time first (increasing ``p``)
laf       Largest Area First (decreasing ``p * q``)
saf       Smallest Area First (increasing ``p * q``)
widest    decreasing processor requirement ``q``
narrowest increasing processor requirement ``q``
random    uniformly random permutation (seeded)
========  ==========================================================

Each rule is a callable ``rule(jobs) -> list[Job]`` returning a *new* list.
Ties are broken deterministically by the job-id string so results are
reproducible across runs and platforms.
"""

from __future__ import annotations

import random as _random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.job import Job
from ..errors import SchedulingError

PriorityRule = Callable[[Sequence[Job]], List[Job]]


def _key_id(job: Job) -> str:
    return str(job.id)


def fifo(jobs: Sequence[Job]) -> List[Job]:
    """Submission order: by release time, then instance order (stable)."""
    return sorted(jobs, key=lambda j: j.release)


def lpt(jobs: Sequence[Job]) -> List[Job]:
    """Longest processing time first — the rule the paper's conclusion
    singles out as a promising refinement."""
    return sorted(jobs, key=lambda j: (-j.p, _key_id(j)))


def spt(jobs: Sequence[Job]) -> List[Job]:
    """Shortest processing time first."""
    return sorted(jobs, key=lambda j: (j.p, _key_id(j)))


def laf(jobs: Sequence[Job]) -> List[Job]:
    """Largest area (``p * q``) first."""
    return sorted(jobs, key=lambda j: (-(j.p * j.q), _key_id(j)))


def saf(jobs: Sequence[Job]) -> List[Job]:
    """Smallest area (``p * q``) first."""
    return sorted(jobs, key=lambda j: (j.p * j.q, _key_id(j)))


def widest(jobs: Sequence[Job]) -> List[Job]:
    """Most processors first; pairs well with backfilling narrow jobs."""
    return sorted(jobs, key=lambda j: (-j.q, _key_id(j)))


def narrowest(jobs: Sequence[Job]) -> List[Job]:
    """Fewest processors first."""
    return sorted(jobs, key=lambda j: (j.q, _key_id(j)))


def random_order(seed: int = 0) -> PriorityRule:
    """A seeded random permutation rule (each call of the returned rule
    reshuffles with the same seed, so it is deterministic per rule object)."""

    def rule(jobs: Sequence[Job]) -> List[Job]:
        rng = _random.Random(seed)
        out = list(jobs)
        rng.shuffle(out)
        return out

    rule.__name__ = f"random(seed={seed})"
    return rule


#: Name -> rule mapping used by the CLI-ish helpers and benchmarks.
RULES: Dict[str, PriorityRule] = {
    "fifo": fifo,
    "lpt": lpt,
    "spt": spt,
    "laf": laf,
    "saf": saf,
    "widest": widest,
    "narrowest": narrowest,
}


def get_rule(name: str) -> PriorityRule:
    """Look up a priority rule by name (``random`` accepts ``random:SEED``)."""
    if name in RULES:
        return RULES[name]
    if name.startswith("random"):
        _, _, seed = name.partition(":")
        return random_order(int(seed) if seed else 0)
    known = ", ".join(sorted(RULES) + ["random[:SEED]"])
    raise SchedulingError(f"unknown priority rule {name!r}; known: {known}")


def resolve_priority(
    priority: Optional[PriorityRule | str], base: str, default: PriorityRule
) -> Tuple[PriorityRule, str]:
    """The list order and the scheduler name for a ``priority=`` argument.

    ``None`` keeps the scheduler's ``default`` order under its plain
    ``base`` name.  A rule name (see :func:`get_rule`) or a callable
    ``jobs -> ordered jobs`` is named ``base[label]``; a callable's label
    is its ``__name__``.
    """
    if priority is None:
        return default, base
    if isinstance(priority, str):
        return get_rule(priority), f"{base}[{priority}]"
    return priority, f"{base}[{getattr(priority, '__name__', 'custom')}]"


def explicit_order(job_ids: Sequence) -> PriorityRule:
    """A rule that orders jobs by an explicit id sequence.

    Used by the theory module to reproduce the *exact* adversarial list
    order of Proposition 2 and the head-of-list placement in the proof of
    Proposition 1.  Jobs absent from ``job_ids`` go last, in id order.
    """
    rank = {jid: i for i, jid in enumerate(job_ids)}

    def rule(jobs: Sequence[Job]) -> List[Job]:
        return sorted(
            jobs, key=lambda j: (rank.get(j.id, len(rank)), _key_id(j))
        )

    rule.__name__ = f"explicit({len(rank)} ids)"
    return rule
