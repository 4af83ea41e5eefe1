"""RPL503: reach-ins to declared engine internals.

The replay engine's loops (``ReplayEngine._run_fused`` /
``_run_generic``) are implementation twins of one
event-application loop, kept byte-identical by differential tests —
they are not an extension surface.  Code that wants to drive the
scheduler embeds :class:`repro.simulation.SchedulerCore` (or registers
a policy) instead of calling into the loops directly, because a direct
caller silently bypasses the engine's dispatch (fused/backend
selection) and the identity matrix stops protecting it.

Which attribute names are internal, and which files own them, is
repository knowledge::

    [tool.repro-lint]
    engine-internal-names = ["_run_fused", "_run_generic"]
    engine-internal-owners = ["src/repro/simulation/replay.py"]

Any attribute access on a declared name outside an owner file is
flagged.  The check is syntactic (``x._run_fused`` flags regardless of
what ``x`` is): the names are private and engine-specific, so a
collision is overwhelmingly more likely to be a reach-in than an
unrelated API — and a false positive can carry a ``repro: noqa
RPL503`` with its justification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .config import LintConfig
from .model import Violation
from .source import SourceFile


def check_internals(
    source: SourceFile, config: LintConfig
) -> Iterator[Violation]:
    """RPL503 on one module (owner files are exempt)."""
    names = frozenset(config.engine_internal_names)
    if not names or source.in_any(config.engine_internal_owners):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield Violation(
                source.rel, node.lineno, node.col_offset, "RPL503",
                f"reach-in to engine internal {node.attr!r}; drive the "
                "scheduler through repro.simulation.SchedulerCore (or a "
                "registered policy) instead",
            )
