"""Ratio measurement, anomaly search, statistics and reporting.

Experiments are declared with :class:`repro.run.ExperimentSpec` and
executed by :class:`repro.run.Runner`.
"""

from .anomalies import (
    AnomalyWitness,
    capacity_anomaly,
    classic_capacity_anomaly,
    find_anomalies,
    removal_anomaly,
    shortening_anomaly,
)
from .certificates import ClaimResult, PaperReport, verify_paper_claims
from .plotting import ascii_histogram, ascii_plot
from .ratio import (
    RatioReport,
    RatioSample,
    compare_algorithms,
    measure_ratio,
)
from .stats import (
    Summary,
    confidence_interval,
    describe,
    geometric_mean,
    mean,
    quantile,
    std,
)
from .tables import format_markdown, format_table, write_csv

__all__ = [
    "measure_ratio",
    "compare_algorithms",
    "RatioReport",
    "RatioSample",
    "describe",
    "Summary",
    "mean",
    "std",
    "quantile",
    "geometric_mean",
    "confidence_interval",
    "format_table",
    "format_markdown",
    "write_csv",
    "ascii_plot",
    "ascii_histogram",
    "AnomalyWitness",
    "find_anomalies",
    "shortening_anomaly",
    "removal_anomaly",
    "capacity_anomaly",
    "classic_capacity_anomaly",
    "verify_paper_claims",
    "PaperReport",
    "ClaimResult",
]
