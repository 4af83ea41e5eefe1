"""Extension — how guarantees and typical ratios scale with machine count.

Theorem 2's guarantee ``2 − 1/m`` *worsens* (rises towards 2) as the
machine grows.  This benchmark sweeps the machine count and measures
what actually happens to the *typical* case when the workload scales with the machine
(n = 5m jobs, widths up to m):

* the guarantee curve rises with m (exactly ``2 − 1/m``);
* the measured typical-case ratio stays essentially *flat* (≈ 1.1–1.2):
  relative packing difficulty is scale-free for proportionally scaled
  workloads, so the growing gap to the guarantee is entirely the
  worst-case construction's doing;
* every measured ratio stays far inside the envelope.
"""

import time

from repro.analysis import format_table, geometric_mean
from repro.algorithms import ListScheduler
from repro.core import ratio_to_lower_bound
from repro.theory import graham_ratio
from repro.workloads import uniform_instance

MS = [4, 8, 16, 32, 64]
REPEATS = 4


def _ratio(m, seed):
    inst = uniform_instance(
        5 * m, m, p_range=(1, 40), q_range=(1, m), seed=seed
    )
    return float(ratio_to_lower_bound(ListScheduler().schedule(inst)))


def test_typical_ratio_falls_while_guarantee_rises(benchmark, report):
    started = time.perf_counter()
    ratios_by_m = {
        m: [_ratio(m, seed=m * REPEATS + rep) for rep in range(REPEATS)]
        for m in MS
    }
    elapsed = time.perf_counter() - started
    rows = []
    geo = {}
    for m in MS:
        ratios = ratios_by_m[m]
        geo[m] = geometric_mean(ratios)
        rows.append(
            {
                "m": m,
                "geo_ratio": geo[m],
                "max_ratio": max(ratios),
                "2-1/m": float(graham_ratio(m)),
            }
        )
        # --- envelope: measured <= guarantee * (LB <= C* slack is free) ---
        assert max(ratios) <= 2.0, "ratio vs lower bound left the envelope"
    report(
        "m_scaling",
        format_table(rows, title="Ratio vs machine count (n = 5m jobs)")
        + f"\nsweep of {len(MS) * REPEATS} runs in {elapsed:.2f}s\n",
    )
    # --- shape assertions ---
    guarantees = [float(graham_ratio(m)) for m in MS]
    assert guarantees == sorted(guarantees), "guarantee rises with m"
    # typical case is flat: the whole range stays within a narrow band,
    # nowhere near the rising guarantee
    assert max(geo.values()) - min(geo.values()) < 0.15
    assert max(geo.values()) < 1.4

    benchmark(
        lambda: ListScheduler().schedule(
            uniform_instance(80, 16, q_range=(1, 16), seed=0)
        ).makespan
    )
