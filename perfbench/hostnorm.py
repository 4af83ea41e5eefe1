"""Host-speed normalisation: frozen reference kernels and span timing.

The CPU speed of a small shared VM drifts by tens of percent within a
second, so raw wall-clock times of identical work do not repeat.  Every
timed span (at most ~0.1 s) is bracketed by a run of a reference kernel,
and the span is divided by ``f = k_measured / k_nominal``: the speed the
host had while the span ran, relative to a nominal host.  ``k_measured``
is the mean of the kernel runs on either side of the span.

A reference only corrects what it shares with the work it brackets, so
each kind of work has its own:

* ``KERNEL`` -- the interpreter work the scheduler does, in three fixed
  parts: ``heapq`` push/pop and ``dict`` insert/delete churn (the event
  loops), SHA-256-seeded ``random.Random`` draws (the uncertainty
  model's runtime draws) and ``json.dumps`` of small rows (the store and
  the journal).  It runs with the cyclic garbage collector disabled, so
  the size of the program's heap cannot slow it.  It brackets the
  in-process ops (replay, offline).  On a 2-vCPU Xeon VM the churn
  part alone slowed by 1.66x in the host's slow phases where the ops
  slowed by 1.35-1.70x; the draws (1.28x) and the encoding (1.55x)
  bring the mix to about 1.5-1.65x.
* ``SPAWN`` -- starting a fresh interpreter that imports a fixed set of
  stdlib modules.  It brackets the set-up probes, which are process
  starts too; the host slows them by ~1.3x, so ``KERNEL`` would
  over-correct them.
* ``http_reference.py`` -- a bare stdlib HTTP exchange, for serve.

All are stdlib only and must never change: changing one, or its nominal
time, changes the unit of every metric it normalises.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import statistics
import subprocess
import sys
import time

#: Iterations of the three parts of one kernel run (about 2 ms, 1 ms and
#: 1 ms on the nominal host).
KERNEL_CHURN = 3000
KERNEL_DRAWS = 100
KERNEL_ROWS = 150

#: Seconds one kernel run takes on the nominal host; a frozen constant.
K_NOMINAL = 0.0040

#: The stdlib modules the ``SPAWN`` reference imports.
SPAWN_IMPORTS = "import argparse, asyncio, decimal, email.message, http.server, json"

#: Seconds one ``SPAWN`` reference takes on the nominal host.
SPAWN_NOMINAL = 0.120


def reference_kernel() -> float:
    """Run the frozen kernel once; return its wall time in seconds."""
    push = heapq.heappush
    pop = heapq.heappop
    sha256 = hashlib.sha256
    dumps = json.dumps
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap = []
        table = {}
        x = 12345
        for i in range(KERNEL_CHURN):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, x)
            table[x] = i
            if len(heap) > 64:
                table.pop(pop(heap), None)
        total = 0.0
        for i in range(KERNEL_DRAWS):
            digest = sha256(f"7:{i}:0".encode("utf-8")).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            total += rng.lognormvariate(0.0, 0.5)
        for i in range(KERNEL_ROWS):
            dumps({"key": i, "mean": total / (i + 1), "ids": [i, i + 1],
                   "name": "window"}, sort_keys=True)
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed


def spawn_reference() -> float:
    """Start a fresh interpreter importing ``SPAWN_IMPORTS``; return the
    wall time in seconds until it has exited."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_IMPORTS], check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Reference:
    """A frozen piece of work and its time on the nominal host."""

    def __init__(self, name: str, measure, nominal_s: float):
        self.name = name
        self.measure = measure
        self.nominal_s = nominal_s

    def factor(self, k_before: float, k_after: float) -> float:
        """Host speed during a span relative to the nominal host."""
        return (k_before + k_after) / 2 / self.nominal_s


KERNEL = Reference("interpreter kernel", reference_kernel, K_NOMINAL)
SPAWN = Reference("interpreter start + stdlib imports", spawn_reference,
                  SPAWN_NOMINAL)


#: Longest stretch of program work between two kernel runs.
SPAN_SECONDS = 0.1


class Samples:
    """Normalised measurements of one sequence of timed ops.

    ``op_s`` holds each op's normalised seconds; ``spans`` holds one
    ``(ops, work units, normalised seconds)`` triple per span, so a
    throughput is a median over spans rather than a mean that one slow
    op could drag.  ``reference_s`` and ``factors`` are the raw times of
    the reference and the factors ``f`` they gave, kept for the run's
    context.
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.op_s = []
        self.raw_op_s = []
        #: the factor of the span each op ran in
        self.op_f = []
        self.spans = []
        self.reference_s = []
        self.factors = []
        self.failed = 0
        #: layer name -> normalised self seconds (traced runs only)
        self.layer_s = {}
        #: per traced op: wall minus the layer self times, normalised
        self.other_s = []

    @property
    def attempted(self) -> int:
        return len(self.op_s)

    def rate(self, index: int) -> float:
        """Median over spans of (units per span) / (span seconds);
        ``index`` 0 counts ops, 1 counts work units."""
        return statistics.median(
            [s[index] / s[2] for s in self.spans if s[2] > 0]
        )


def percentile(values, q: float):
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_spans(op, seconds=None, count=None, min_count=0,
              reference=KERNEL) -> Samples:
    """Call ``op()`` until ``seconds`` have passed (and at least
    ``min_count`` ops ran) or until ``count`` ops ran.

    ``op`` times its own measured part and returns ``(raw seconds, work
    units, ok, layers)``, where ``layers`` maps layer names to raw self
    seconds (``None`` when untraced).  Ops are grouped into spans of at
    most :data:`SPAN_SECONDS`; the ``reference`` runs between spans only,
    so a span's factor comes from its times on either side of the span.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds and count")
    samples = Samples(reference)
    clock = time.perf_counter
    deadline = None if seconds is None else clock() + seconds
    k_before = reference.measure()
    samples.reference_s.append(k_before)
    done = 0
    while True:
        if deadline is not None and clock() >= deadline and done >= min_count:
            break
        if count is not None and done >= count:
            break
        batch = []
        span_start = clock()
        while clock() - span_start < SPAN_SECONDS:
            if count is not None and done >= count:
                break
            batch.append(op())
            done += 1
        k_after = reference.measure()
        samples.reference_s.append(k_after)
        f = reference.factor(k_before, k_after)
        samples.factors.append(f)
        k_before = k_after
        span_norm = 0.0
        span_work = 0
        for raw, work, ok, layers in batch:
            norm = raw / f
            samples.raw_op_s.append(raw)
            samples.op_s.append(norm)
            samples.op_f.append(f)
            span_norm += norm
            span_work += work
            if not ok:
                samples.failed += 1
            if layers is not None:
                attributed = 0.0
                for name, raw_self in layers.items():
                    samples.layer_s[name] = (
                        samples.layer_s.get(name, 0.0) + raw_self / f
                    )
                    attributed += raw_self
                samples.other_s.append((raw - attributed) / f)
        samples.spans.append((len(batch), span_work, span_norm))
    return samples
