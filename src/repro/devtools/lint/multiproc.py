"""RPL401 — multiprocessing pickling safety.

``ProcessPoolExecutor`` ships work to workers by pickling the callable.
Closures, lambdas and functions defined inside another function pickle
by *qualified name lookup* and fail at runtime — but only on the first
sharded run, which is exactly the configuration CI smoke tests skip.
The sharded entry points (``_run_policy_shard``, ``execute_point``)
are module-level for this reason; this rule keeps it that way.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Set

from .config import LintConfig
from .model import Violation
from .source import SourceFile

_EXECUTOR_TYPES = frozenset(
    {
        "concurrent.futures.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)
_DISPATCH_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_executor_ctor(node: ast.expr, source: SourceFile) -> bool:
    return (
        isinstance(node, ast.Call)
        and source.imports.resolve(node.func) in _EXECUTOR_TYPES
    )


def _executor_names(source: SourceFile) -> FrozenSet[str]:
    """Names bound to executor instances anywhere in the module (via
    ``with ... as pool`` or plain assignment)."""
    names: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_executor_ctor(item.context_expr, source) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign):
            if _is_executor_ctor(node.value, source):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return frozenset(names)


def _is_partial(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "partial"
    return isinstance(func, ast.Attribute) and func.attr == "partial"


def _dispatched_callable(node: ast.Call) -> Optional[ast.expr]:
    """The callable argument of an executor dispatch call, unwrapping
    ``functools.partial(...)`` one level."""
    if not node.args:
        return None
    fn = node.args[0]
    if isinstance(fn, ast.Call) and fn.args and _is_partial(fn.func):
        return fn.args[0]
    return fn


def check_multiproc(source: SourceFile, config: LintConfig) -> Iterator[Violation]:
    del config  # rule applies everywhere; pools pickle the same in tests
    executors = _executor_names(source)
    violations: List[Violation] = []
    seen: Set[int] = set()

    def flag(fn: ast.expr, why: str) -> None:
        key = id(fn)
        if key in seen:
            return
        seen.add(key)
        violations.append(
            Violation(
                source.rel,
                fn.lineno,
                fn.col_offset,
                "RPL401",
                f"{why} handed to a process pool; workers unpickle the "
                "callable by module-level name, so this fails at runtime "
                "on the first sharded run — move it to module scope",
            )
        )

    def scan(node: ast.AST, local_defs: FrozenSet[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEF_NODES):
                nested = frozenset(
                    sub.name
                    for sub in ast.walk(child)
                    if isinstance(sub, _DEF_NODES) and sub is not child
                )
                scan(child, local_defs | nested)
                continue
            if isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                receiver = child.func.value
                is_named_pool = (
                    isinstance(receiver, ast.Name) and receiver.id in executors
                )
                is_pool = is_named_pool or _is_executor_ctor(receiver, source)
                if is_pool and child.func.attr in _DISPATCH_METHODS:
                    fn = _dispatched_callable(child)
                    if isinstance(fn, ast.Lambda):
                        flag(fn, "lambda")
                    elif isinstance(fn, ast.Name) and fn.id in local_defs:
                        flag(fn, f"locally-defined function {fn.id!r}")
            scan(child, local_defs)

    scan(source.tree, frozenset())
    yield from violations
