"""Order-based local search on top of list scheduling.

The paper's conclusion asks for "variants of list scheduling that can
improve the upper bound".  A pragmatic engineering answer — standard in
scheduling practice — is local search over the *list order*: LSRC is a
deterministic function of the order, so the order space is a compact
search space whose every point is a feasible schedule with all of LSRC's
guarantees (the result can only improve on the starting rule, and
Theorem 2 / Proposition 3 still apply because the final schedule is
still a list schedule).

:class:`LocalSearchScheduler` runs steepest-descent / first-improvement
over swap and reinsertion neighbourhoods with a bounded evaluation
budget.  Deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.instance import ReservationInstance
from ..core.schedule import Schedule
from ..errors import InvalidInstanceError
from .base import Scheduler, register
from .list_scheduling import ListScheduler
from .priority import explicit_order, get_rule


@dataclass
class SearchStats:
    """Bookkeeping of one local-search run."""

    evaluations: int = 0
    improvements: int = 0
    start_makespan: object = None
    final_makespan: object = None


class LocalSearchScheduler(Scheduler):
    """Improve an LSRC order by swap/reinsert local search.

    Parameters
    ----------
    start_rule:
        Priority rule that seeds the order (default ``"lpt"``, the
        conclusion's suggested rule).
    budget:
        Maximum number of neighbour evaluations (each is a full LSRC run;
        keep instances moderate).
    neighbourhood:
        ``"swap"``, ``"reinsert"`` or ``"both"``.
    seed:
        Seed for the neighbour sampling order.
    """

    def __init__(
        self,
        start_rule: str = "lpt",
        budget: int = 300,
        neighbourhood: str = "both",
        seed: int = 0,
    ):
        if budget < 1:
            raise InvalidInstanceError("budget must be >= 1")
        if neighbourhood not in ("swap", "reinsert", "both"):
            raise InvalidInstanceError(
                f"unknown neighbourhood {neighbourhood!r}"
            )
        self._start_rule = get_rule(start_rule)
        self.budget = budget
        self.neighbourhood = neighbourhood
        self.seed = seed
        self.name = f"lsrc-ls[{start_rule}]"
        #: statistics of the most recent run
        self.last_stats: Optional[SearchStats] = None

    # -- neighbourhood enumeration ---------------------------------------
    def _neighbours(self, order: List, rng: random.Random):
        n = len(order)
        moves = []
        if self.neighbourhood in ("swap", "both"):
            moves.extend(("swap", i, j) for i in range(n) for j in range(i + 1, n))
        if self.neighbourhood in ("reinsert", "both"):
            moves.extend(
                ("reinsert", i, j)
                for i in range(n)
                for j in range(n)
                if i != j
            )
        rng.shuffle(moves)
        for kind, i, j in moves:
            if kind == "swap":
                nxt = list(order)
                nxt[i], nxt[j] = nxt[j], nxt[i]
            else:
                nxt = list(order)
                item = nxt.pop(i)
                nxt.insert(j, item)
            yield nxt

    def _evaluate(self, instance: ReservationInstance, order: List) -> Schedule:
        return ListScheduler(explicit_order(order)).schedule(instance)

    def _run(self, instance: ReservationInstance) -> Schedule:
        rng = random.Random(self.seed)
        stats = SearchStats()
        order = [j.id for j in self._start_rule(instance.jobs)]
        best = self._evaluate(instance, order)
        stats.evaluations = 1
        stats.start_makespan = best.makespan
        improved = True
        while improved and stats.evaluations < self.budget:
            improved = False
            for candidate in self._neighbours(order, rng):
                if stats.evaluations >= self.budget:
                    break
                schedule = self._evaluate(instance, candidate)
                stats.evaluations += 1
                if schedule.makespan < best.makespan:
                    best = schedule
                    order = candidate
                    stats.improvements += 1
                    improved = True
                    break  # first improvement: restart the neighbourhood
        stats.final_makespan = best.makespan
        self.last_stats = stats
        return best


def local_search_schedule(
    instance,
    start_rule: str = "lpt",
    budget: int = 300,
    seed: int = 0,
) -> Schedule:
    """Convenience wrapper: local-search-improved LSRC."""
    return LocalSearchScheduler(
        start_rule=start_rule,
        budget=budget,
        seed=seed,
    ).schedule(instance)


register("lsrc-ls", LocalSearchScheduler)
