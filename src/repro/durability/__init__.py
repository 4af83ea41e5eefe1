"""Durability layer: crash-safe replay and atomic file publication.

Three pieces, each usable on its own:

* :mod:`repro.durability.atomic` — tmp + ``os.replace`` publication of
  every durable file (enforced by lint rule RPL402);
* :mod:`repro.durability.journal` — an append-only journal of
  CRC-framed records with snapshot-rolled segments and one recovery
  routine, :meth:`~repro.durability.journal.Journal.recover`: it
  truncates a torn tail, checks the committed snapshot and splits the
  records at the last snapshot marker.  Journaled replay drops what
  follows the marker and re-executes it; ``repro serve`` re-applies it;
* :mod:`repro.durability.journaled` — the journaled replay driver
  behind ``repro replay --journal DIR`` / ``--resume``, whose invariant
  is kill-anywhere byte-identity: SIGKILL the process at any registered
  failpoint (:mod:`repro.devtools.failpoints`), resume, and the JSONL
  output equals an uninterrupted run's byte for byte.
"""

from .._lazy import lazy_exports as _lazy_exports

__all__ = [
    "JOURNAL_VERSION",
    "DEFAULT_SNAPSHOT_INTERVAL",
    "Journal",
    "JournalRecovery",
    "JournalScan",
    "atomic_pickle",
    "atomic_write_bytes",
    "atomic_write_text",
    "replay_journaled",
    "scan_journal",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".atomic": ("atomic_pickle", "atomic_write_bytes", "atomic_write_text"),
    ".journal": (
        "JOURNAL_VERSION", "Journal", "JournalRecovery", "JournalScan",
        "scan_journal",
    ),
    ".journaled": ("DEFAULT_SNAPSHOT_INTERVAL", "replay_journaled"),
})
