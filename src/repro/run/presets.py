"""Built-in experiment specs and small result-shaping helpers.

:func:`paper_grid_spec` is the canonical grid of the paper's empirical
story — algorithm × α × seed over α-RESASCHEDULING workloads, reporting
makespan ratios against the certified lower bound.  ``repro figure 4
--empirical`` overlays its measured curves on the theoretical bounds,
and ``examples/paper_grid.json`` is this spec serialized.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Optional, Sequence, Tuple

from .runner import RunResult
from .spec import ExperimentSpec, WorkloadSpec, decode_value

#: Algorithms of the default paper grid: the paper's LSRC (with its LPT
#: variant), the production backfilling policies, and online LSRC.
PAPER_GRID_ALGORITHMS = (
    "lsrc",
    "lsrc-lpt",
    "backfill-cons",
    "online:greedy",
)

PAPER_GRID_ALPHAS = (0.25, 0.5, 0.75)


def paper_grid_spec(
    alphas: Sequence = PAPER_GRID_ALPHAS,
    algorithms: Sequence[str] = PAPER_GRID_ALGORITHMS,
    n: int = 24,
    m: int = 32,
    seeds: Sequence[int] = range(5),
    metrics: Sequence[str] = ("makespan", "lower_bound", "ratio_lb"),
    name: str = "paper-grid",
) -> ExperimentSpec:
    """The algorithm × α × seed makespan-ratio grid of the paper."""
    return ExperimentSpec(
        name=name,
        algorithms=tuple(algorithms),
        workloads=(
            WorkloadSpec(
                "alpha-uniform",
                params={"n": n, "m": m, "reservations": 6, "horizon": 150.0},
                grid={"alpha": list(alphas)},
            ),
        ),
        seeds=tuple(seeds),
        metrics=tuple(metrics),
    )


def mean_metric_series(
    result: RunResult,
    metric: str,
    x_param: str = "alpha",
    algorithm: Optional[str] = None,
) -> List[Tuple[float, float]]:
    """``(x, mean(metric))`` pairs grouped by a workload parameter.

    Used by the figure overlay: for each distinct ``x_param`` value in
    the rows (optionally restricted to one algorithm), average the
    metric over seeds/workloads.
    """
    groups: Dict[float, List[float]] = {}
    for row in result.rows:
        if algorithm is not None and row.get("algorithm") != algorithm:
            continue
        params = row.get("params", {})
        if x_param not in params:
            continue
        x = float(decode_value(params[x_param]))
        groups.setdefault(x, []).append(float(decode_value(row[metric])))
    return sorted((x, mean(values)) for x, values in groups.items())


def summary_rows(result: RunResult, metric: str = "ratio_lb") -> List[Dict]:
    """Per-algorithm aggregate table rows (mean/max of one metric)."""
    groups: Dict[str, List[float]] = {}
    for row in result.rows:
        if metric in row:
            groups.setdefault(row["algorithm"], []).append(
                float(decode_value(row[metric]))
            )
    return [
        {
            "algorithm": algorithm,
            "n": len(values),
            f"mean_{metric}": round(mean(values), 4),
            f"max_{metric}": round(max(values), 4),
        }
        for algorithm, values in sorted(groups.items())
    ]
