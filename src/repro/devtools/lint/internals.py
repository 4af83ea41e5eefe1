"""RPL503: reach-ins to declared engine internals.

The scheduler core's event loop (``SchedulerCore._event_loop``) is
private: its call contract (look-ahead push-back, the frontier stop,
hot counters written back on return) is kept by the core's verbs, not
an extension surface.  Code that wants to drive the scheduler uses
:class:`repro.simulation.SchedulerCore`'s verbs (or registers a policy)
instead of calling into the loop directly.

Which attribute names are internal, and which files own them, is
repository knowledge::

    [tool.repro-lint]
    engine-internal-names = ["_event_loop"]
    engine-internal-owners = ["src/repro/simulation/scheduler_core.py"]

Any attribute access on a declared name outside an owner file is
flagged.  The check is syntactic (``x._event_loop`` flags regardless of
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
