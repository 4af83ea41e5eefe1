"""Append-only journal: CRC-framed records + snapshot segments.

Journaled replay and ``repro serve`` write the same format.  A journal
directory holds two kinds of files::

    seg-00000000.wal    length-prefixed records (header, rows/ops, markers)
    snap-00000001.ckpt  snapshot bytes (atomic publish)

Each record is framed ``<u32 payload length><u32 CRC32(payload)>`` +
payload, where the payload is canonical JSON (sorted keys).  Segments
roll at snapshots: segment ``0`` starts with the run's header record,
and segment ``k`` (``k >= 1``) is *created atomically* with snapshot
``k``'s marker as its first record — so a snapshot is committed exactly
when its marker is durable, and the first record of a segment can never
be torn.

Crash semantics (the contract of :meth:`Journal.recover`, the one
recovery routine both writers use):

* an incomplete or CRC-failing record **at the tail of the last
  segment** is a torn write — expected after a kill — and is truncated
  back to the last intact record;
* the same damage anywhere else is real corruption and raises
  :class:`~repro.errors.JournalCorruptError` (a mid-file bit flip must
  reject loudly, never "recover" silently);
* the last snapshot marker splits the records into a committed prefix
  and a tail.  Journaled replay drops the tail (its rows are re-emitted
  by deterministic re-execution, which is what makes kill-anywhere
  recovery byte-identical); ``repro serve`` re-applies the tail's op
  records, because an acknowledged op cannot be re-derived;
* a snapshot file without its marker (crash between the two) is simply
  superseded: re-execution reaches the same boundary and atomically
  rewrites the same snapshot index.

Durability is against process death (``kill -9``): appends are flushed
to the OS per record, which survives the process.  Pass ``fsync=True``
to also survive power loss at a per-record fsync cost.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from struct import Struct
from typing import Dict, List, Optional, Tuple

from ..devtools.failpoints import fire
from ..errors import JournalCorruptError, JournalError
from .atomic import atomic_write_bytes

_FRAME = Struct("<II")
_SEG_RE = re.compile(r"seg-(\d{8})\.wal\Z")

#: Journal on-disk format version, recorded in the header.
JOURNAL_VERSION = 1


def _frame(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _encode(record: Dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8")


def _segment_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"seg-{index:08d}.wal")


def _snapshot_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"snap-{index:08d}.ckpt")


@dataclass
class ScannedRecord:
    """One decoded record plus its exact byte span."""

    record: Dict
    segment: int
    offset: int
    end: int


@dataclass
class JournalScan:
    """Outcome of one recovery scan over a journal directory."""

    directory: str
    #: segment indices present, ascending (contiguous from 0)
    segments: List[int]
    records: List[ScannedRecord]
    #: ``(segment index, keep-offset, reason)`` of a torn tail, if any
    torn: Optional[Tuple[int, int, str]] = None


@dataclass
class JournalRecovery:
    """What :meth:`Journal.recover` reconstructed.

    The last snapshot marker (else the header) splits the records:
    journaled replay drops :attr:`after` (:meth:`Journal.truncate`) and
    re-derives its rows from the trace; ``repro serve`` re-applies the
    ``op`` records in it, which nothing else can re-derive.
    """

    config: Dict
    #: latest committed snapshot payload (``None``: restart from scratch)
    snapshot: Optional[bytes]
    snapshot_meta: Optional[Dict]
    #: records between the header and the last marker, in journal order
    before: List[Dict] = field(default_factory=list)
    #: records after the last marker (after the header if none)
    after: List[Dict] = field(default_factory=list)
    #: the run finished (commit record present); nothing to re-execute
    committed: bool = False
    #: byte offset in the tail segment where the committed prefix ends
    boundary: int = 0
    torn: Optional[str] = None


def scan_journal(directory: str) -> JournalScan:
    """Decode every record in ``directory``, classifying tail damage.

    Raises :class:`JournalCorruptError` for damage that is not a torn
    tail of the last segment; raises :class:`JournalError` when the
    directory holds no journal at all.
    """
    directory = os.fspath(directory)
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        raise JournalError(f"no journal directory at {directory!r}") from None
    segments = sorted(
        int(m.group(1)) for m in (_SEG_RE.match(n) for n in names) if m
    )
    if not segments:
        raise JournalError(f"no journal found in {directory!r}")
    if segments != list(range(len(segments))):
        raise JournalCorruptError(
            f"journal {directory!r} has non-contiguous segments {segments}"
        )
    scan = JournalScan(directory=directory, segments=segments, records=[])
    last_segment = segments[-1]
    for index in segments:
        path = _segment_path(directory, index)
        with open(path, "rb") as fh:
            data = fh.read()
        offset = 0
        size = len(data)
        while offset < size:
            def torn_or_corrupt(reason: str, *, tail: bool) -> None:
                if index == last_segment and tail:
                    scan.torn = (index, offset, reason)
                    return
                raise JournalCorruptError(
                    f"{path}: {reason} at byte {offset} "
                    "(not a recoverable tail)"
                )

            if offset + _FRAME.size > size:
                torn_or_corrupt("incomplete record header", tail=True)
                break
            length, crc = _FRAME.unpack_from(data, offset)
            end = offset + _FRAME.size + length
            if end > size:
                torn_or_corrupt("incomplete record payload", tail=True)
                break
            payload = data[offset + _FRAME.size:end]
            if zlib.crc32(payload) != crc:
                # only a mismatch that reaches EOF of the final segment
                # is indistinguishable from a torn write
                torn_or_corrupt("record CRC mismatch", tail=end == size)
                break
            try:
                record = json.loads(payload)
            except json.JSONDecodeError:
                raise JournalCorruptError(
                    f"{path}: CRC-valid record at byte {offset} is not "
                    "JSON — journal corrupt"
                ) from None
            if not isinstance(record, dict):
                raise JournalCorruptError(
                    f"{path}: record at byte {offset} is not an object"
                )
            scan.records.append(ScannedRecord(record, index, offset, end))
            offset = end
    return scan


class Journal:
    """Writer handle for one journal directory.

    Use :meth:`create` for a fresh run and :meth:`recover` to repair
    and continue an interrupted one; the constructor itself performs no
    I/O.
    """

    def __init__(self, directory: str, *, fsync: bool = False):
        self.directory = os.fspath(directory)
        self.fsync = fsync
        self._fh = None
        self._segment_index = 0

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def create(cls, directory: str, config: Dict, *, fsync: bool = False
               ) -> "Journal":
        """Start a fresh journal recording ``config`` in its header."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        if any(_SEG_RE.match(name) for name in os.listdir(directory)):
            raise JournalError(
                f"{directory!r} already contains a journal; resume it "
                "(--resume) or point --journal at a fresh directory"
            )
        journal = cls(directory, fsync=fsync)
        header = {"t": "header", "v": JOURNAL_VERSION, "config": config}
        atomic_write_bytes(_segment_path(directory, 0), _frame(_encode(header)))
        journal._open_segment(0)
        return journal

    @classmethod
    def recover(
        cls, directory: str, *, fsync: bool = False
    ) -> Tuple["Journal", JournalRecovery]:
        """Repair ``directory`` and split it at its last snapshot marker.

        Truncates a torn tail, checks the header, the tail segment's
        marker and the committed snapshot's size and CRC, sweeps
        stranded ``*.tmp.*`` files, and returns the journal (positioned
        to append to the tail segment) plus the
        :class:`JournalRecovery`.  Nothing after the marker is touched:
        the caller decides whether to keep it.
        """
        scan = scan_journal(directory)
        directory = scan.directory
        torn_note: Optional[str] = None
        if scan.torn is not None:
            seg, keep, reason = scan.torn
            path = _segment_path(directory, seg)
            os.truncate(path, keep)
            torn_note = (
                f"{os.path.basename(path)}: {reason}, truncated to {keep} bytes"
            )

        records = scan.records
        if not records or records[0].record.get("t") != "header":
            raise JournalCorruptError(
                f"journal {directory!r} does not start with a header record"
            )
        config = records[0].record.get("config")
        if not isinstance(config, dict):
            raise JournalCorruptError(
                f"journal {directory!r} header carries no config object"
            )

        committed = any(item.record.get("t") == "commit" for item in records)
        split = 0  # index of the header, unless a marker follows
        marker: Optional[ScannedRecord] = None
        for index, item in enumerate(records):
            if item.record.get("t") == "snap":
                split, marker = index, item
        boundary = records[split]
        tail_segment = scan.segments[-1]
        if not committed and boundary.segment != tail_segment:
            # segments are born atomically with their marker as the
            # first record; a tail segment without one is not a crash
            # artefact, it is damage
            raise JournalCorruptError(
                f"journal {directory!r}: segment {tail_segment} has no "
                "snapshot marker"
            )

        snapshot: Optional[bytes] = None
        if marker is not None:
            snap_path = _snapshot_path(directory, int(marker.record["snap"]))
            try:
                with open(snap_path, "rb") as fh:
                    snapshot = fh.read()
            except FileNotFoundError:
                raise JournalCorruptError(
                    f"{snap_path}: snapshot file missing but its "
                    "marker is committed"
                ) from None
            if (
                len(snapshot) != marker.record.get("size")
                or zlib.crc32(snapshot) != marker.record.get("crc")
            ):
                raise JournalCorruptError(
                    f"{snap_path}: snapshot bytes do not match the "
                    "committed marker (size/CRC mismatch)"
                )

        # sweep tmp files stranded by a crash inside an atomic publish
        for name in os.listdir(directory):
            if ".tmp." in name:
                try:
                    os.remove(os.path.join(directory, name))
                except OSError:
                    pass

        journal = cls(directory, fsync=fsync)
        journal._open_segment(tail_segment)
        recovery = JournalRecovery(
            config=config,
            snapshot=snapshot,
            snapshot_meta=None if marker is None else marker.record,
            before=[item.record for item in records[1:split]],
            after=[item.record for item in records[split + 1:]],
            committed=committed,
            boundary=boundary.end,
            torn=torn_note,
        )
        return journal, recovery

    def truncate(self, size: int) -> None:
        """Cut the active segment back to ``size`` bytes — how journaled
        replay drops the records after :attr:`JournalRecovery.boundary`
        before re-executing them."""
        if self._fh is None:
            raise JournalError("journal is closed")
        self._fh.truncate(size)
        self._fh.seek(0, os.SEEK_END)

    def _open_segment(self, index: int) -> None:
        if self._fh is not None:
            self._fh.close()
        self._segment_index = index
        self._fh = open(_segment_path(self.directory, index), "ab")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appends -----------------------------------------------------------
    @property
    def snapshot_count(self) -> int:
        """Snapshots committed so far (== current segment index)."""
        return self._segment_index

    def append(self, record: Dict) -> None:
        """Append one record (framed, flushed) to the active segment."""
        if self._fh is None:
            raise JournalError("journal is closed")
        payload = _encode(record)
        data = _frame(payload)
        fire("journal.record.append")
        # torn-tail simulation: flush a half-written frame, then crash
        fire(
            "journal.record.torn",
            before=lambda: (
                self._fh.write(data[: _FRAME.size + max(1, len(payload) // 2)]),
                self._fh.flush(),
            ),
        )
        self._fh.write(data)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append_row(self, row: Dict) -> None:
        """Record one emitted JSONL row."""
        self.append({"t": "row", "row": row})

    def snapshot(self, data: bytes, meta: Dict) -> int:
        """Commit snapshot bytes and roll to a new segment.

        The snapshot file is published atomically, then the new segment
        appears atomically with the marker record (size + CRC of the
        snapshot) as its first record — the commit point.  Returns the
        snapshot index.
        """
        index = self._segment_index + 1
        fire("journal.snapshot.write")
        atomic_write_bytes(
            _snapshot_path(self.directory, index),
            data,
            failpoint="journal.snapshot.rename",
        )
        marker = {
            "t": "snap",
            "snap": index,
            "size": len(data),
            "crc": zlib.crc32(data),
            **meta,
        }
        fire("journal.snapshot.marker")
        atomic_write_bytes(
            _segment_path(self.directory, index), _frame(_encode(marker))
        )
        self._open_segment(index)
        return index

    def commit(self, meta: Dict) -> None:
        """Mark the run complete (resume becomes a pure read)."""
        fire("journal.commit")
        self.append({"t": "commit", **meta})

    def __repr__(self) -> str:
        return (
            f"<Journal {self.directory!r} segment={self._segment_index}>"
        )
