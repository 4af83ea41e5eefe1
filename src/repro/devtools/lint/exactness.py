"""RPL2xx — integer-grid exactness.

The int64 array kernel (:mod:`repro.core.profiles.array_backend`), the
LCM timebase (:mod:`repro.core.timebase`) and the replay engine's
decision state all promise *exact* arithmetic: every time on the grid is
a machine int, so a single stray float literal, true division or
``float()`` coercion silently detunes byte-identity.  Scopes are declared
in ``[tool.repro-lint]`` — whole modules via ``int-kernel-modules``,
individual functions or classes via ``int-kernel-functions``.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .config import LintConfig, LintConfigError
from .model import Violation
from .source import SourceFile

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def qualified_scopes(
    tree: ast.Module,
) -> Dict[str, List[ast.AST]]:
    """``qualname -> definition nodes`` for every function/class.

    Nesting uses dotted names without the ``<locals>`` marker
    (``SchedulerCore._event_loop``), matching the config syntax.
    """
    scopes: Dict[str, List[ast.AST]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                qualname = f"{prefix}{child.name}"
                scopes.setdefault(qualname, []).append(child)
                visit(child, f"{qualname}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return scopes


def _scan_scope(
    root: ast.AST, source: SourceFile, seen: Set[Tuple[int, int, str]]
) -> Iterator[Violation]:
    for node in ast.walk(root):
        span = None
        code = ""
        message = ""
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            span = (node.lineno, node.col_offset)
            code = "RPL201"
            message = (
                f"float literal {node.value!r} in an integer-kernel scope; "
                "kernel arithmetic must stay on the int grid"
            )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            span = (node.lineno, node.col_offset)
            code = "RPL202"
            message = (
                "true division in an integer-kernel scope produces floats; "
                "use // on the grid (or Fraction for exact ratios)"
            )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            span = (node.lineno, node.col_offset)
            code = "RPL202"
            message = (
                "true division in an integer-kernel scope produces floats; "
                "use //= on the grid (or Fraction for exact ratios)"
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            span = (node.lineno, node.col_offset)
            code = "RPL203"
            message = (
                "float() coercion in an integer-kernel scope; kernel "
                "values are never converted to float"
            )
        if span is not None:
            key = (span[0], span[1], code)
            if key not in seen:
                seen.add(key)
                yield Violation(source.rel, span[0], span[1], code, message)


def check_exactness(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    seen: Set[Tuple[int, int, str]] = set()
    if source.in_any(config.int_kernel_modules):
        yield from _scan_scope(source.tree, source, seen)
        return
    declared = [
        ref.qualname
        for ref in config.int_kernel_functions
        if ref.path == source.rel and ref.qualname is not None
    ]
    if not declared:
        return
    scopes = qualified_scopes(source.tree)
    for qualname in declared:
        for node in scopes.get(qualname, []):
            yield from _scan_scope(node, source, seen)


def check_kernel_scopes(
    config: LintConfig, load: Callable[[str], Optional[SourceFile]]
) -> None:
    """Raise :class:`~.config.LintConfigError` for an
    ``int-kernel-functions`` entry whose module or scope no longer
    exists — a stale entry would silently check nothing."""
    for ref in config.int_kernel_functions:
        source = load(ref.path)
        if source is None:
            raise LintConfigError(
                f"int-kernel scope {ref.path}::{ref.qualname} not found "
                "(module missing or unparsable)"
            )
        if ref.qualname is not None and ref.qualname not in qualified_scopes(
            source.tree
        ):
            raise LintConfigError(
                f"int-kernel scope {ref.path}::{ref.qualname} not found "
                "(function or class missing from the module)"
            )
