"""Lint engine: file discovery, checker orchestration, reporting.

One :func:`run_lint` call resolves the ``[tool.repro-lint]`` config,
parses every target file once, runs the per-file checkers, then the
cross-file checkers (protocol drift reads the configured backend files
even when they are outside the scanned set), applies ``noqa``
suppressions, and returns a :class:`LintReport`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from .config import LintConfig, resolve_config
from .determinism import check_determinism
from .durable_io import check_durable_io
from .exactness import check_exactness, check_kernel_scopes
from .internals import check_internals
from .model import Violation, expand_rule_selector
from .multiproc import check_multiproc
from .protocol import check_protocol
from .registries import (
    RegisterCall,
    check_register_literals,
    collect_register_calls,
    duplicate_violations,
)
from .source import SourceFile
from .suppress import SuppressionError, is_suppressed

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "build", "dist"})

CheckFn = Callable[[SourceFile, LintConfig], Iterator[Violation]]

#: Per-file checkers, run on every scanned module in order.
PER_FILE_CHECKS: Sequence[CheckFn] = (
    check_determinism,
    check_durable_io,
    check_exactness,
    check_internals,
    check_multiproc,
    check_register_literals,
)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    violations: List[Violation]
    errors: List[str]
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations and not self.errors

    def render_text(self, verbose: bool = False) -> str:
        lines = [violation.render() for violation in self.violations]
        lines.extend(f"error: {message}" for message in self.errors)
        if verbose or not lines:
            noun = "file" if self.files_checked == 1 else "files"
            if self.clean:
                lines.append(f"checked {self.files_checked} {noun}: clean")
            else:
                lines.append(
                    f"checked {self.files_checked} {noun}: "
                    f"{len(self.violations)} violation(s), "
                    f"{len(self.errors)} error(s)"
                )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "files_checked": self.files_checked,
                "clean": self.clean,
                "violations": [v.as_json() for v in self.violations],
                "errors": list(self.errors),
            },
            indent=2,
            sort_keys=True,
        )


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files pass through verbatim),
    deterministic order, cache/VCS directories skipped."""
    found: Set[Path] = set()
    for path in paths:
        resolved = path.resolve()
        if resolved.is_file():
            found.add(resolved)
            continue
        for candidate in resolved.rglob("*.py"):
            parts = candidate.relative_to(resolved).parts
            if any(part in _SKIP_DIRS for part in parts[:-1]):
                continue
            found.add(candidate)
    return sorted(found)


def _rel_to_root(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _selected_codes(rules: Optional[Sequence[str]]) -> Optional[Set[str]]:
    if not rules:
        return None
    selected: Set[str] = set()
    for selector in rules:
        matched = expand_rule_selector(selector)
        if not matched:
            raise ValueError(f"unknown rule {selector!r}")
        selected.update(matched)
    return selected


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[str]] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint ``paths`` and return the report.

    Raises :class:`~.config.LintConfigError` when the pyproject table, a
    configured int-kernel scope or a protocol scope is broken, and
    :class:`ValueError` for an unknown ``--rule`` selector — tool misuse
    is distinct from findings.
    """
    selected = _selected_codes(rules)
    if config is None:
        config = resolve_config(paths)
    files = discover_files(paths)

    errors: List[str] = []
    sources: Dict[str, SourceFile] = {}
    scanned: List[SourceFile] = []
    for abspath in files:
        rel = _rel_to_root(abspath, config.root)
        try:
            source = SourceFile.parse(abspath, rel)
        except SuppressionError as exc:
            errors.append(f"{rel}: {exc}")
            continue
        except OSError as exc:
            errors.append(f"{rel}: unreadable ({exc})")
            continue
        if source is None:
            errors.append(f"{rel}: syntax error, file skipped")
            continue
        sources[rel] = source
        scanned.append(source)

    violations: List[Violation] = []
    register_calls: List[RegisterCall] = []
    for source in scanned:
        for check in PER_FILE_CHECKS:
            violations.extend(check(source, config))
        if source.in_any(config.registry_duplicate_paths):
            register_calls.extend(collect_register_calls(source, config))
    violations.extend(duplicate_violations(register_calls))

    def load(rel: str) -> Optional[SourceFile]:
        if rel in sources:
            return sources[rel]
        abspath = config.root / rel
        if not abspath.is_file():
            return None
        try:
            source = SourceFile.parse(abspath, rel)
        except (SuppressionError, OSError):
            return None
        if source is not None:
            sources[rel] = source
        return source

    check_kernel_scopes(config, load)
    violations.extend(check_protocol(config, load))

    kept: List[Violation] = []
    for violation in violations:
        holder = sources.get(violation.path)
        if holder is not None and is_suppressed(
            holder.suppressions, violation.line, violation.code
        ):
            continue
        if selected is not None and violation.code not in selected:
            continue
        kept.append(violation)
    kept.sort(key=Violation.sort_key)
    return LintReport(violations=kept, errors=errors, files_checked=len(scanned))
