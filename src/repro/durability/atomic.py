"""Atomic publication of durable files (tmp + ``os.replace``).

Every file another process or a crash-recovery scan may read —
checkpoints, journal segments, snapshot files, rewritten stores — goes
through these helpers, so a reader never observes a half-written file:
either the old content exists or the new content exists, nothing in
between.  Lint rule RPL402 enforces the discipline by flagging direct
truncating writes on durable paths.

The tmp name carries the writer's PID, so concurrent publishers of the
*same* path never collide on the tmp file; when they publish identical
content, the double ``os.replace`` is harmless.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any, Dict, Iterable, Optional

from ..devtools.failpoints import fire


def atomic_write_bytes(
    path: str, data: bytes, *, failpoint: Optional[str] = None
) -> None:
    """Publish ``data`` at ``path`` atomically.

    The payload is fully written, flushed and fsynced to a same-directory
    tmp file, then renamed over ``path``.  ``failpoint`` names a
    :mod:`~repro.devtools.failpoints` site fired between the two steps —
    the window where a crash strands a tmp file but never a torn target.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:  # repro: noqa RPL402 -- the atomic helper's own tmp leg
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    if failpoint is not None:
        fire(failpoint)
    os.replace(tmp, path)


def atomic_write_text(
    path: str, text: str, *, failpoint: Optional[str] = None
) -> None:
    """Publish ``text`` (UTF-8) at ``path`` atomically."""
    atomic_write_bytes(path, text.encode("utf-8"), failpoint=failpoint)


def atomic_write_rows(path: str, rows: Iterable[Dict]) -> None:
    """Publish JSONL ``rows`` at ``path`` atomically, byte for byte what
    sequential :meth:`~repro.run.store.JsonlStore.append` calls write
    (no rows publishes an empty file)."""
    content = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    atomic_write_bytes(path, content.encode("utf-8"))


def atomic_pickle(
    path: str, obj: Any, *, failpoint: Optional[str] = None
) -> None:
    """Publish ``pickle.dumps(obj)`` at ``path`` atomically."""
    atomic_write_bytes(
        path,
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        failpoint=failpoint,
    )
