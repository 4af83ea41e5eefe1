"""Crash-safe journaled replay: chunked ``run_slice`` + the journal.

The driver wraps the replay engine *outside* its hot loops — the engine
itself is untouched, which is what makes the journal's cost zero when
disabled.  The arrival stream is cut into chunks of
``snapshot_interval`` jobs (each cut pushed past ties in release time,
so every boundary is frontier-quiescent), and each chunk runs through
:meth:`~repro.simulation.replay.ReplayEngine.run_slice`:

* after a non-final chunk, the engine's
  :class:`~repro.simulation.replay.ReplayCheckpoint` is snapshotted and
  the chunk's window rows are journaled;
* the final chunk drains, journals its rows plus the totals row, and
  writes the commit record.

``resume=True`` repairs the journal with
:meth:`~repro.durability.journal.Journal.recover` (the routine
``repro serve`` resumes through too), truncates the rows after the last
snapshot marker, loads that snapshot, **rewrites the JSONL store** to
exactly the committed rows, skips the checkpoint's ``arrived`` jobs of
a freshly re-opened stream, and continues.  Because chunk boundaries are
recomputed identically and ``run_slice`` chaining is byte-identical to
a serial run, the stitched output after any number of kills equals the
uninterrupted run's output byte for byte (the kill-anywhere matrix in
``tests/test_durability.py`` asserts this for every registered
failpoint).

Totals rows written under a journal strip the volatile wall-clock
fields (:data:`~repro.simulation.replay.VOLATILE_TOTAL_FIELDS`) — a
resumed run's wall time is necessarily different, so identity is only
possible over the deterministic fields.  The returned
:class:`~repro.simulation.replay.ReplayResult` still reports
``elapsed_seconds`` for this invocation.
"""

from __future__ import annotations

import pickle
import time as _time
import warnings
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..devtools.failpoints import fire
from ..errors import JournalCorruptError, JournalError, SchedulingError
from ..simulation.replay import (
    CHECKPOINT_VERSION,
    DEFAULT_WINDOW,
    VOLATILE_TOTAL_FIELDS,
    ReplayCheckpoint,
    ReplayEngine,
    ReplayResult,
    open_replay_source,
    resolve_store,
    swf_counters,
)
from .atomic import atomic_write_rows
from .journal import JOURNAL_VERSION, Journal

#: Jobs replayed between snapshots (and journal segment rolls).  At the
#: engine's millions-of-jobs/s throughput this bounds recomputation
#: after a kill to well under a second of lost work.
DEFAULT_SNAPSHOT_INTERVAL = 100_000


def _chunk_stream(
    arrivals: Iterable, interval: int
) -> Iterator[Tuple[List, bool]]:
    """Yield ``(chunk, is_final)`` slices of ``interval`` jobs each.

    Cuts are pushed past runs of equal release times so every boundary
    is frontier-quiescent — the precondition for ``run_slice``
    checkpoint chaining being byte-identical to a serial run.  Because
    each chunk restarts the count at its own boundary, a resumed run
    (which starts at a boundary) reproduces the uninterrupted run's
    boundaries, and therefore its snapshots, exactly.
    """
    it = iter(arrivals)
    pending = next(it, None)
    while True:
        chunk: List = []
        while pending is not None and len(chunk) < interval:
            chunk.append(pending)
            pending = next(it, None)
        if pending is not None:
            last = chunk[-1].release
            while pending is not None and pending.release == last:
                chunk.append(pending)
                pending = next(it, None)
        final = pending is None
        yield chunk, final
        if final:
            return


def _rows(records: List[Dict]) -> List[Dict]:
    """The emitted rows among journal ``records``, in order."""
    return [r["row"] for r in records if r.get("t") == "row"]


def _rewrite_store(store, rows: List[Dict]) -> None:
    """Atomically reset the JSONL store to exactly ``rows``.

    Byte-for-byte what sequential ``JsonlStore.append`` calls produce,
    so a resumed run's file is indistinguishable from an uninterrupted
    run's.
    """
    if store is None:
        return
    path = getattr(store, "path", None)
    if path is None:
        raise JournalError(
            "journaled resume needs a path-backed store (JsonlStore or "
            "a path), got " + type(store).__name__
        )
    atomic_write_rows(path, rows)


def _result_from_rows(
    policy: str, machine: int, window: int, rows: List[Dict], elapsed: float
) -> ReplayResult:
    """Reconstruct a :class:`ReplayResult` from journaled rows."""
    window_rows = [r for r in rows if r.get("key") != "totals"]
    totals_rows = [r for r in rows if r.get("key") == "totals"]
    totals: Dict = dict(totals_rows[-1]) if totals_rows else {}
    totals.pop("key", None)
    totals["elapsed_seconds"] = elapsed
    return ReplayResult(
        policy=policy,
        m=machine,
        window_size=window,
        totals=totals,
        windows=window_rows,
    )


def replay_journaled(
    source,
    journal_dir,
    policy: str = "easy",
    m: Optional[int] = None,
    n: Optional[int] = None,
    max_jobs: Optional[int] = None,
    seed: int = 0,
    store=None,
    resume: bool = False,
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
    fsync: bool = False,
    **engine_kwargs,
) -> ReplayResult:
    """Replay ``source`` under a durable journal at ``journal_dir``.

    ``source``, ``m``, ``n``, ``max_jobs`` and ``seed`` mean what they
    mean to :func:`~repro.simulation.replay.open_replay_source`; an SWF
    source's totals carry its ``skipped_lines``/``clipped_jobs``
    counters, as on every replay path.

    Fresh runs (``resume=False``) require ``journal_dir`` to hold no
    journal yet; the run's configuration fingerprint is recorded in the
    journal header and validated on every resume — resuming with a
    different trace, policy, window, seed or snapshot interval is a
    loud :class:`~repro.errors.JournalError`, never silent divergence.

    ``store`` (path or :class:`~repro.run.store.JsonlStore`) receives
    the same window rows a plain replay writes plus a totals row with
    volatile fields stripped; a fresh run starts its file empty, and a
    resume rewrites it to the journal's committed prefix before new
    rows append.  Resuming an already-committed journal is a pure read:
    the store is restored and the recorded result returned.

    ``engine_kwargs`` pass through to :class:`ReplayEngine` (window,
    profile_backend, uncertainty, ...); the calendar completion queue is
    required and ``record_starts`` is unsupported (starts are not
    journaled).  Returns the stitched :class:`ReplayResult`.
    """
    started_clock = _time.perf_counter()
    if snapshot_interval < 1:
        raise SchedulingError(
            f"snapshot_interval must be >= 1, got {snapshot_interval!r}"
        )
    if "store" in engine_kwargs:
        raise SchedulingError(
            "pass store= to replay_journaled, not the engine"
        )
    if engine_kwargs.get("record_starts"):
        raise SchedulingError(
            "record_starts is not supported under a journal (start times "
            "are not journaled)"
        )
    if engine_kwargs.get("completion_queue", "calendar") != "calendar":
        raise SchedulingError(
            "journaled replay requires completion_queue='calendar'"
        )
    store = resolve_store(store)
    stream, machine, swf = open_replay_source(
        source, m=m, n=n, max_jobs=max_jobs, seed=seed
    )
    window = engine_kwargs.get("window", DEFAULT_WINDOW)
    # Canonical uncertainty fingerprint: the model changes every journaled
    # row, so resuming under a different model must fail the header check
    # exactly like a different trace would.  The degenerate exact model
    # fingerprints as None — it IS the certain world, and old journals
    # (no key) resume under it unchanged.  A stochastic model also
    # records the draw-stream version: rows drawn by an older stream
    # must not be spliced onto rows drawn by this one.
    from ..workloads.uncertainty import (
        DRAW_STREAM_VERSION,
        resolve_uncertainty,
    )

    u_model = resolve_uncertainty(engine_kwargs.get("uncertainty"))
    stochastic = u_model is not None and not u_model.is_exact
    config = {
        "format": JOURNAL_VERSION,
        "checkpoint": CHECKPOINT_VERSION,
        "source": source if isinstance(source, str) else None,
        "m": machine,
        "policy": policy,
        "window": window,
        "snapshot_interval": snapshot_interval,
        "n": n,
        "max_jobs": max_jobs,
        "seed": seed,
        "uncertainty": u_model.spec if stochastic else None,
    }
    if stochastic:
        config["draw_stream"] = DRAW_STREAM_VERSION

    ckpt: Optional[ReplayCheckpoint] = None
    committed_rows: List[Dict] = []
    if resume:
        journal, recovery = Journal.recover(journal_dir, fsync=fsync)
        stored = recovery.config
        mismatch = {
            key: (stored.get(key), value)
            for key, value in config.items()
            if stored.get(key) != value
        }
        if mismatch:
            journal.close()
            raise JournalError(
                "journal header does not match this invocation "
                f"(journal value, invocation value): {mismatch}"
            )
        if recovery.torn:
            warnings.warn(
                f"journal {journal.directory}: recovered torn tail "
                f"({recovery.torn})"
            )
        if recovery.committed:
            journal.close()
            committed_rows = _rows(recovery.before + recovery.after)
            _rewrite_store(store, committed_rows)
            return _result_from_rows(
                policy, machine, window, committed_rows,
                _time.perf_counter() - started_clock,
            )
        if recovery.snapshot is not None:
            ckpt = pickle.loads(recovery.snapshot)
            if not isinstance(ckpt, ReplayCheckpoint):
                journal.close()
                raise JournalCorruptError(
                    f"journal {journal.directory}: snapshot did not "
                    "deserialize to a ReplayCheckpoint"
                )
        # drop everything after the committed boundary: the resumed run
        # re-emits it deterministically
        committed_rows = _rows(recovery.before)
        journal.truncate(recovery.boundary)
        journal.append({
            "t": "resume",
            "snap": journal.snapshot_count,
            "discarded": len(_rows(recovery.after)),
        })
        _rewrite_store(store, committed_rows)
    else:
        journal = Journal.create(journal_dir, config, fsync=fsync)
        if getattr(store, "path", None) is not None:
            _rewrite_store(store, [])  # a fresh run's rows replace the file's

    skip = int(ckpt.counters["arrived"]) if ckpt is not None else 0
    if skip:
        consumed = sum(1 for _ in islice(stream, skip))
        if consumed != skip:
            journal.close()
            raise JournalError(
                f"trace ended after {consumed} jobs but the journal's "
                f"checkpoint had replayed {skip} — wrong trace for this "
                "journal?"
            )

    all_rows: List[Dict] = list(committed_rows)
    try:
        for chunk, final in _chunk_stream(stream, snapshot_interval):
            fire("replay.slice.start")
            engine = ReplayEngine(machine, policy=policy, **engine_kwargs)
            result = engine.run_slice(chunk, resume=ckpt, drain=final)
            fire("replay.slice.commit")
            emitted = list(result.windows)
            if final:
                totals = {
                    k: v for k, v in result.totals.items()
                    if k not in VOLATILE_TOTAL_FIELDS
                }
                emitted.append({"key": "totals", **totals, **swf_counters(swf)})
            for row in emitted:
                journal.append_row(row)
                if store is not None:
                    store.append(row)
                all_rows.append(row)
            if final:
                journal.commit({"rows": len(all_rows)})
            else:
                ckpt = result.checkpoint
                assert ckpt is not None
                journal.snapshot(
                    pickle.dumps(ckpt, protocol=pickle.HIGHEST_PROTOCOL),
                    {
                        "arrived": int(ckpt.counters["arrived"]),
                        "rows": len(all_rows),
                    },
                )
    finally:
        journal.close()

    return _result_from_rows(
        policy, machine, window, all_rows,
        _time.perf_counter() - started_clock,
    )
