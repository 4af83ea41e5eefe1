"""RPL1xx — determinism of engine code.

Byte-identical replay (the identity matrix, serial == sharded
multi-policy rows, checkpoint-chained slices, resume-by-key experiment
rows) is only sound while the
code under ``determinism-paths`` never reads a wall clock, OS entropy, or
the process-salted iteration order of a bare ``set``.  ``time.
perf_counter`` stays legal: elapsed-time gauges are stripped from
identity comparisons (``VOLATILE_TOTAL_FIELDS``), whereas ``time.time``
values leak into output.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .config import LintConfig
from .model import Violation
from .source import SourceFile

#: Wall-clock / OS-entropy callables (fully qualified).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
    }
)

#: ``random.SystemRandom`` is OS entropy no matter how it is seeded.
ENTROPY_TYPES = frozenset({"random.SystemRandom"})


def _is_set_expression(node: ast.expr) -> bool:
    """A literal set, a set comprehension, or a ``set()``/``frozenset()``
    call — the expressions whose iteration order is process-salted."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def check_determinism(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    if not source.in_any(config.determinism_paths):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            qualname = source.imports.resolve(node.func)
            if qualname in WALL_CLOCK_CALLS:
                yield Violation(
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    "RPL101",
                    f"call to {qualname}() in deterministic engine code; "
                    "replay output may not depend on wall-clock or OS "
                    "entropy",
                )
            elif qualname in ENTROPY_TYPES:
                yield Violation(
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    "RPL102",
                    f"{qualname} draws OS entropy; use a seeded "
                    "random.Random instance",
                )
            elif qualname == "random.Random" and not (node.args or node.keywords):
                yield Violation(
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    "RPL102",
                    "random.Random() without a seed falls back to OS "
                    "entropy; pass an explicit seed",
                )
            elif (
                qualname is not None
                and qualname.startswith("random.")
                and qualname != "random.Random"
            ):
                yield Violation(
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    "RPL102",
                    f"module-level {qualname}() shares the process-global "
                    "unseeded RNG; use a seeded random.Random instance",
                )
        iter_expr = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = node.iter
        elif isinstance(node, ast.comprehension):
            iter_expr = node.iter
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate", "iter")
            and len(node.args) >= 1
        ):
            iter_expr = node.args[0]
        if iter_expr is not None and _is_set_expression(iter_expr):
            yield Violation(
                source.rel,
                iter_expr.lineno,
                iter_expr.col_offset,
                "RPL103",
                "iterating a bare set: element order is salted per "
                "process; sort it (e.g. sorted(...)) before it can feed "
                "ordered output",
            )
