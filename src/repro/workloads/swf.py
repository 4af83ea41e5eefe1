"""Standard Workload Format (SWF) trace I/O.

Production cluster schedulers — the paper's application context — are
evaluated on traces in Feitelson's Standard Workload Format: one line per
job with 18 whitespace-separated fields.  We implement a reader and
writer for the fields the rigid-job model uses:

====  ==========================  =========================
#     SWF field                   used as
====  ==========================  =========================
1     job number                  job id
2     submit time                 release
4     run time                    p   (fallback: requested time, field 9)
5     allocated processors        q   (fallback: requested procs, field 8)
====  ==========================  =========================

Lines starting with ``;`` are header comments; ``-1`` marks missing
values.  Jobs without a usable runtime or processor count are skipped and
reported.  The writer emits well-formed SWF that this reader (and other
SWF tools) can parse back.

Two readers share one line parser, so they cannot drift:

* :func:`read_swf` materialises the whole trace into a
  :class:`~repro.core.instance.RigidInstance` — right for paper-scale
  experiments where the instance fits in memory;
* :func:`iter_swf` returns a :class:`SWFStream` — a single-pass,
  constant-memory iterator of :class:`~repro.core.job.Job` arrivals in
  submit order, reading the file (plain or gzip) in bounded chunks.  It
  is the ingestion side of the rolling-horizon replay engine
  (:mod:`repro.simulation.replay`) and scales to multi-million-job
  archive traces that must never be held in memory at once.

For benchmarks and CI there is also a deterministic synthetic scenario
pack (:func:`synth_swf_jobs`): three named trace profiles at parametric
scale whose prefixes agree across scales, so a 100k-job run is literally
a prefix of the 1M-job run of the same profile and seed.
"""

from __future__ import annotations

import gzip
import io
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from ..core.instance import RigidInstance
from ..core.job import Job
from ..errors import TraceFormatError

#: Number of data fields in an SWF record.
SWF_FIELDS = 18

#: ``readlines`` size hint of the streaming reader: lines are pulled in
#: chunks of roughly this many bytes, so memory stays constant however
#: long the trace is.
STREAM_CHUNK_BYTES = 1 << 20

#: The named profiles of the synthetic trace pack (see :func:`synth_swf_jobs`).
SYNTH_PROFILES = ("steady", "bursty", "heavy")


@dataclass
class SWFReadReport:
    """Outcome of parsing an SWF stream."""

    instance: RigidInstance
    skipped: List[Tuple[int, str]] = field(default_factory=list)
    header: List[str] = field(default_factory=list)


def _parse_swf_number(token: str):
    """SWF numbers may be integers or decimals; ``-1`` means missing.

    Non-finite values (``nan``, ``inf`` — which ``float()`` happily
    accepts) are malformed: a NaN runtime would silently poison every
    comparison downstream, so they are rejected as loudly as unparseable
    tokens.

    Integer tokens parse with ``int`` first, so job numbers and times
    above 2**53 stay exact instead of rounding through a float.
    """
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError as exc:
        raise TraceFormatError(f"malformed SWF number {token!r}") from exc
    if not math.isfinite(value):
        raise TraceFormatError(f"non-finite SWF number {token!r}")
    if value == int(value):
        return int(value)
    return value


def _parse_swf_data_line(tokens: List[str]):
    """Parse one data line into ``(job_no, submit, runtime, procs)``.

    Returns ``(row, None)`` on success and ``(None, reason)`` for a line
    that must be skipped.  Both :func:`read_swf` and :class:`SWFStream`
    go through here, so the readers agree field for field.
    """
    if len(tokens) < 5:
        return None, "fewer than 5 fields"
    try:
        job_no = int(_parse_swf_number(tokens[0]))
        submit = _parse_swf_number(tokens[1])
        runtime = _parse_swf_number(tokens[3])
        procs = _parse_swf_number(tokens[4])
        if runtime in (-1, 0) and len(tokens) > 8:
            runtime = _parse_swf_number(tokens[8])  # requested time
        if procs == -1 and len(tokens) > 7:
            procs = _parse_swf_number(tokens[7])  # requested procs
    except TraceFormatError as exc:
        return None, str(exc)
    if runtime is None or runtime <= 0:
        return None, f"unusable runtime {runtime!r}"
    if procs is None or procs <= 0:
        return None, f"unusable processor count {procs!r}"
    if submit < 0:
        submit = 0
    return (job_no, submit, runtime, int(procs)), None


def _header_maxprocs(text: str) -> Optional[int]:
    """The ``; MaxProcs:`` value of a header line, if this is one.

    SWF writes -1 for a missing value, so a non-positive (or
    unparsable) machine size reads as no header at all."""
    body = text.lstrip("; \t")
    if body.lower().startswith("maxprocs:"):
        try:
            maxprocs = int(body.split(":", 1)[1].strip())
        except ValueError:
            return None
        return maxprocs if maxprocs > 0 else None
    return None


def read_swf(
    source: Union[str, TextIO],
    m: Optional[int] = None,
    max_jobs: Optional[int] = None,
    use_release: bool = True,
) -> SWFReadReport:
    """Parse SWF text (string or file object) into a rigid instance.

    Parameters
    ----------
    m:
        Machine size.  When omitted it is taken from a
        ``; MaxProcs:`` header line, or defaults to the maximum allocated
        processor count seen.
    max_jobs:
        Stop after this many parsed jobs (trace truncation for quick
        experiments).
    use_release:
        Keep submit times as release times; with ``False`` the trace is
        flattened into an offline instance.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    header: List[str] = []
    skipped: List[Tuple[int, str]] = []
    jobs: List[Job] = []
    header_maxprocs: Optional[int] = None
    min_submit: Optional[float] = None
    raw_rows: List[Tuple[int, float, object, int]] = []
    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith(";"):
            header.append(text)
            maxprocs = _header_maxprocs(text)
            if maxprocs is not None:
                header_maxprocs = maxprocs
            continue
        row, reason = _parse_swf_data_line(text.split())
        if row is None:
            skipped.append((lineno, reason))
            continue
        _, submit, _, _ = row
        min_submit = submit if min_submit is None else min(min_submit, submit)
        raw_rows.append(row)
        if max_jobs is not None and len(raw_rows) >= max_jobs:
            break
    if not raw_rows:
        raise TraceFormatError("SWF stream contains no usable jobs")
    machine = m if m is not None else header_maxprocs
    if machine is None:
        machine = max(q for (_, _, _, q) in raw_rows)
    base = min_submit or 0
    seen_ids = set()
    for job_no, submit, runtime, procs in raw_rows:
        jid = job_no
        while jid in seen_ids:  # duplicated job numbers occur in real traces
            jid = f"{jid}+"
        seen_ids.add(jid)
        if procs > machine:
            skipped.append(
                (job_no, f"width {procs} exceeds machine {machine}; clipped")
            )
            procs = machine
        jobs.append(
            Job(
                id=jid,
                p=runtime,
                q=procs,
                release=(submit - base) if use_release else 0,
            )
        )
    instance = RigidInstance(m=machine, jobs=tuple(jobs), name="swf-trace")
    return SWFReadReport(instance=instance, skipped=skipped, header=header)


# ---------------------------------------------------------------------------
# streaming reader
# ---------------------------------------------------------------------------

class _IdIntervals:
    """A set of ints stored as disjoint inclusive intervals.

    Real traces number their jobs (nearly) sequentially, so the seen-id
    set of a million-job trace collapses to a handful of intervals —
    duplicate detection stays exact while memory stays constant, which a
    plain ``set`` cannot offer the streaming reader.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self):
        self._starts: List[int] = []
        self._ends: List[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __contains__(self, value: int) -> bool:
        i = bisect_right(self._starts, value) - 1
        return i >= 0 and value <= self._ends[i]

    def add(self, value: int) -> None:
        starts, ends = self._starts, self._ends
        i = bisect_right(starts, value) - 1
        if i >= 0 and value <= self._ends[i]:
            return
        join_left = i >= 0 and ends[i] == value - 1
        join_right = i + 1 < len(starts) and starts[i + 1] == value + 1
        if join_left and join_right:
            ends[i] = ends[i + 1]
            del starts[i + 1]
            del ends[i + 1]
        elif join_left:
            ends[i] = value
        elif join_right:
            starts[i + 1] = value
        else:
            starts.insert(i + 1, value)
            ends.insert(i + 1, value)


class SWFStream:
    """A single-pass, constant-memory iterator over an SWF trace.

    Yields :class:`~repro.core.job.Job` objects in submit order with
    release times rebased to the first usable job's submit time (the
    same rebasing :func:`read_swf` applies to sorted traces).  The file
    is read in bounded chunks (:data:`STREAM_CHUNK_BYTES`), so peak
    memory is independent of trace length; ``.gz`` paths are
    decompressed on the fly.

    Streaming differs from :func:`read_swf` exactly where whole-file
    knowledge would be required:

    * the machine size must come from ``m=`` or a ``; MaxProcs:`` header
      (it cannot be inferred from data not yet read);
    * lines whose submit time goes backwards are skipped and reported
      (the SWF standard orders traces by submit time; a streaming
      replay cannot re-sort the past);
    * skip reports are capped at ``max_skip_reports`` entries
      (``n_skipped`` always counts all of them).

    Attributes are populated as the stream is consumed: ``header``,
    ``skipped`` / ``n_skipped`` (lines *dropped* from the stream),
    ``clipped`` / ``n_clipped`` (jobs yielded with their width clipped
    to the machine — reported separately because they *are* replayed),
    ``m`` (resolved machine size), ``base`` (the rebasing offset) and
    ``jobs_yielded``.  Report entries are ``(lineno, reason)`` pairs.
    """

    def __init__(
        self,
        source: Union[str, os.PathLike, TextIO],
        m: Optional[int] = None,
        max_jobs: Optional[int] = None,
        max_skip_reports: int = 1000,
    ):
        self._source = source
        self.m = m
        self.max_jobs = max_jobs
        self.max_skip_reports = max_skip_reports
        self.header: List[str] = []
        self.skipped: List[Tuple[int, str]] = []
        self.n_skipped = 0
        self.clipped: List[Tuple[int, str]] = []
        self.n_clipped = 0
        self.base = None
        self.jobs_yielded = 0
        self._consumed = False

    # -- plumbing ---------------------------------------------------------
    def _open(self) -> Tuple[TextIO, bool]:
        """The text stream to read and whether we own (must close) it."""
        source = self._source
        if hasattr(source, "read"):
            return source, False
        path = os.fspath(source)
        if path.endswith(".gz"):
            return gzip.open(path, "rt"), True
        return open(path), True

    def _skip(self, lineno: int, reason: str) -> None:
        self.n_skipped += 1
        if len(self.skipped) < self.max_skip_reports:
            self.skipped.append((lineno, reason))

    def _clip(self, lineno: int, reason: str) -> None:
        self.n_clipped += 1
        if len(self.clipped) < self.max_skip_reports:
            self.clipped.append((lineno, reason))

    # -- iteration --------------------------------------------------------
    def __iter__(self) -> Iterator[Job]:
        if self._consumed:
            raise TraceFormatError(
                "SWF stream is single-pass; create a new one with iter_swf()"
            )
        self._consumed = True
        fh, owned = self._open()
        try:
            yield from self._iter_jobs(fh)
        finally:
            if owned:
                fh.close()
        if self.jobs_yielded == 0:
            raise TraceFormatError("SWF stream contains no usable jobs")

    def _iter_jobs(self, fh: TextIO) -> Iterator[Job]:
        int_ids = _IdIntervals()
        renamed_ids = set()
        last_submit = None
        lineno = 0
        while True:
            lines = fh.readlines(STREAM_CHUNK_BYTES)
            if not lines:
                return
            for line in lines:
                lineno += 1
                text = line.strip()
                if not text:
                    continue
                if text.startswith(";"):
                    self.header.append(text)
                    if self.m is None:
                        self.m = _header_maxprocs(text)
                    continue
                row, reason = _parse_swf_data_line(text.split())
                if row is None:
                    self._skip(lineno, reason)
                    continue
                job_no, submit, runtime, procs = row
                if self.m is None:
                    raise TraceFormatError(
                        "machine size unknown: streaming needs m= or a "
                        "'; MaxProcs:' header before the first data line"
                    )
                if last_submit is not None and submit < last_submit:
                    self._skip(
                        lineno,
                        f"submit time {submit} goes backwards "
                        f"(previous was {last_submit})",
                    )
                    continue
                last_submit = submit
                if self.base is None:
                    self.base = submit
                jid: object = job_no
                if job_no in int_ids:
                    jid = f"{job_no}+"
                    while jid in renamed_ids:
                        jid = f"{jid}+"
                    renamed_ids.add(jid)
                else:
                    int_ids.add(job_no)
                if procs > self.m:
                    self._clip(
                        lineno,
                        f"job {job_no}: width {procs} exceeds machine "
                        f"{self.m}; clipped",
                    )
                    procs = self.m
                self.jobs_yielded += 1
                yield Job(id=jid, p=runtime, q=procs, release=submit - self.base)
                if (
                    self.max_jobs is not None
                    and self.jobs_yielded >= self.max_jobs
                ):
                    return


def iter_swf(
    source: Union[str, os.PathLike, TextIO],
    m: Optional[int] = None,
    max_jobs: Optional[int] = None,
    max_skip_reports: int = 1000,
) -> SWFStream:
    """Open an SWF trace for constant-memory streaming.

    ``source`` is a path (``.gz`` is decompressed on the fly) or an open
    text stream.  Returns a single-pass :class:`SWFStream`; iterate it to
    get :class:`~repro.core.job.Job` arrivals in submit order.

    >>> for job in iter_swf("trace.swf.gz", m=256):   # doctest: +SKIP
    ...     feed(job)
    """
    return SWFStream(
        source, m=m, max_jobs=max_jobs, max_skip_reports=max_skip_reports
    )


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def write_swf(instance: RigidInstance, target: Optional[TextIO] = None) -> str:
    """Serialise an instance to SWF text; returns the text (and writes to
    ``target`` when given).  Missing fields are emitted as ``-1``."""
    out = io.StringIO()
    write_swf_jobs(
        sorted(instance.jobs, key=lambda j: (j.release, str(j.id))),
        instance.m,
        out,
        note=f"{len(instance.jobs)} jobs",
    )
    text = out.getvalue()
    if target is not None:
        target.write(text)
    return text


def write_swf_jobs(
    jobs: Iterable[Job], m: int, target: TextIO, note: str = ""
) -> int:
    """Stream jobs (already in submit order) to ``target`` as SWF lines.

    The incremental twin of :func:`write_swf`: nothing is buffered, so an
    arbitrarily long generator (e.g. :func:`synth_swf_jobs`) writes in
    constant memory.  Returns the number of jobs written.
    """
    target.write("; Generated by repro (IPDPS'07 reservations reproduction)\n")
    target.write(f"; MaxProcs: {m}\n")
    if note:
        target.write(f"; Note: {note}\n")
    count = 0
    for count, job in enumerate(jobs, start=1):
        fields = [-1] * SWF_FIELDS
        fields[0] = count
        fields[1] = job.release
        fields[2] = 0  # wait time
        fields[3] = job.p
        fields[4] = job.q
        fields[7] = job.q  # requested processors
        fields[8] = job.p  # requested time
        target.write(" ".join(_fmt(v) for v in fields) + "\n")
    return count


def save_swf_trace(path: Union[str, os.PathLike], jobs: Iterable[Job],
                   m: int, note: str = "") -> int:
    """Write a job stream to an SWF file (gzipped when the path ends in
    ``.gz``); returns the number of jobs written."""
    path = os.fspath(path)
    if path.endswith(".gz"):
        with gzip.open(path, "wt") as fh:
            return write_swf_jobs(jobs, m, fh, note=note)
    with open(path, "w") as fh:
        return write_swf_jobs(jobs, m, fh, note=note)


def _fmt(value) -> str:
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return str(value)


# ---------------------------------------------------------------------------
# the synthetic trace pack
# ---------------------------------------------------------------------------

def synth_swf_jobs(profile: str, n: int, m: int = 256,
                   seed: int = 0) -> Iterator[Job]:
    """Yield ``n`` jobs of a named deterministic trace profile.

    A constant-memory arrival generator with integer times (so the
    replay engine's arithmetic stays on machine ints) and power-of-two
    widths, in three load shapes:

    ==========  =========================================================
    profile     shape
    ==========  =========================================================
    steady      Poisson-like arrivals at ~70% offered load — the
                well-behaved baseline every policy should sail through
    bursty      dense same-instant bursts (4-64 jobs) separated by quiet
                gaps, ~80% load — stresses queue depth and backfilling
    heavy       ~95% load with log-heavy runtimes up to a day — the
                near-saturation regime of the paper's "heavy traffic"
                scenario class
    ==========  =========================================================

    Determinism: draws depend on ``(profile, m, seed)`` but **not** on
    ``n``, so the 100k-job trace is an exact prefix of the 1M-job trace —
    the property the bounded-memory benchmark leans on when it compares
    peak footprints across scales.
    """
    if profile not in SYNTH_PROFILES:
        raise TraceFormatError(
            f"unknown synthetic trace profile {profile!r}; "
            f"known profiles: {', '.join(SYNTH_PROFILES)}"
        )
    if n < 1:
        raise TraceFormatError("synthetic trace needs at least one job")
    if m < 2:
        raise TraceFormatError("synthetic trace needs m >= 2")
    rng = random.Random(f"synth-swf:{profile}:{m}:{seed}")
    # Bounded draws are inlined rejection sampling over getrandbits —
    # the exact algorithm (and therefore the exact bit stream) of
    # rng.randint(a, b) == a + _randbelow(b - a + 1), minus the
    # per-call randrange plumbing, which at millions of draws per
    # replay is a measurable slice of pipeline cost.  Every existing
    # trace stays bit-identical (a differential test regenerates
    # prefixes and the bench's cross-scale gates lean on it).
    getrandbits = rng.getrandbits
    make_job = Job.trusted
    # widths: powers of two up to m/4 (m/2 for heavy), biased narrow
    width_exp_max = max(1, m.bit_length() - 3)
    n_width = width_exp_max + 1
    k_width = n_width.bit_length()
    n_heavy = max(1, m.bit_length() - 2) + 1
    k_heavy = n_heavy.bit_length()
    load_pct = {"steady": 70, "bursty": 80, "heavy": 95}[profile]
    load_denom = load_pct * m
    heavy = profile == "heavy"
    bursty = profile == "bursty"
    t = 0
    burst_left = 0
    owed_area = 0
    for i in range(1, n + 1):
        if heavy:
            exp = getrandbits(k_heavy)
            while exp >= n_heavy:
                exp = getrandbits(k_heavy)
            q = min(m, 2 ** exp)
            # log-uniform runtimes: 30 s .. 1 day
            p = int(math.exp(rng.uniform(math.log(30), math.log(86_400))))
        else:
            r = getrandbits(k_width)
            while r >= n_width:
                r = getrandbits(k_width)
            q = 2 ** r
            p = getrandbits(12)  # randint(60, 3600): 3541 values
            while p >= 3541:
                p = getrandbits(12)
            p += 60
        area = p * q
        if bursty:
            if burst_left == 0:
                burst_left = getrandbits(6)  # randint(4, 64): 61 values
                while burst_left >= 61:
                    burst_left = getrandbits(6)
                burst_left += 4
                # quiet gap repaying the previous burst's backlog at the
                # target load, with +-100% jitter
                mean_gap = (owed_area * 100) // load_denom
                gap = 2 * mean_gap
                n_gap = (gap if gap > 2 else 2) + 1
                k_gap = n_gap.bit_length()
                r = getrandbits(k_gap)
                while r >= n_gap:
                    r = getrandbits(k_gap)
                t += r
                owed_area = 0
            burst_left -= 1
            owed_area += area
        else:
            # per-job gap with mean area/(load * m): offered load ~ target
            mean_gap = (area * 100) // load_denom
            gap = 2 * mean_gap
            n_gap = (gap if gap > 2 else 2) + 1
            k_gap = n_gap.bit_length()
            r = getrandbits(k_gap)
            while r >= n_gap:
                r = getrandbits(k_gap)
            t += r
        yield make_job(i, p, q, t)


def synth_swf_instance(profile: str, n: int = 1000, m: int = 256,
                       seed: int = 0) -> RigidInstance:
    """The materialised (in-memory) instance of a synthetic trace —
    the registry-facing face of the pack, for grids at paper scale."""
    return RigidInstance(
        m=m,
        jobs=tuple(synth_swf_jobs(profile, n, m=m, seed=seed)),
        name=f"swf-{profile}(n={n},m={m},seed={seed})",
    )


#: A small embedded trace (8 jobs on 32 processors) used by tests and the
#: quickstart example; the format mirrors real SWF archives.
SAMPLE_SWF = """\
; Sample trace for the repro library
; MaxProcs: 32
; Jobs below: number submit wait run procs avgcpu mem reqprocs reqtime ...
1 0 0 120 4 -1 -1 4 150 -1 1 1 1 1 1 -1 -1 -1
2 10 0 60 8 -1 -1 8 80 -1 1 1 1 1 1 -1 -1 -1
3 25 0 300 16 -1 -1 16 360 -1 1 1 1 2 1 -1 -1 -1
4 30 5 45 1 -1 -1 1 60 -1 1 1 2 1 1 -1 -1 -1
5 42 0 600 32 -1 -1 32 700 -1 1 1 2 3 1 -1 -1 -1
6 55 12 90 2 -1 -1 2 100 -1 1 1 3 1 1 -1 -1 -1
7 61 0 15 4 -1 -1 4 20 -1 1 1 3 2 1 -1 -1 -1
8 70 3 200 8 -1 -1 8 240 -1 1 1 4 1 1 -1 -1 -1
"""
