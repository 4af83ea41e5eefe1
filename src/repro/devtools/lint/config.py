"""``[tool.repro-lint]`` configuration.

The linter is contract-driven: *which* files hold the determinism
contract, the integer-kernel contract and the backend protocol is
repository knowledge, so it lives in ``pyproject.toml`` next to the other
tool tables — not in the checker.  All paths are POSIX-style and relative
to the directory containing the ``pyproject.toml`` (the *config root*).

Recognised keys (all optional; a missing table disables the scoped rule
families and leaves only the everywhere-rules RPL4xx/RPL5xx active)::

    [tool.repro-lint]
    determinism-paths = ["src/repro/simulation", ...]   # RPL1xx scope
    int-kernel-modules = ["src/repro/core/timebase.py"] # RPL2xx: whole file
    int-kernel-functions = [                            # RPL2xx: one scope
        "src/repro/simulation/replay.py::ReplayCheckpoint", # (class = all
    ]                                                   #   of its methods)
    registry-register-names = ["register", ...]         # RPL501/RPL502
    registry-duplicate-paths = ["src/repro"]            # RPL502 scope
    durable-write-paths = ["src/repro/durability", ...] # RPL402 scope
    engine-internal-names = ["_event_loop"]             # RPL503: flagged
    engine-internal-owners = ["src/.../scheduler_core.py"] # outside owners

    [tool.repro-lint.protocol]                          # RPL3xx
    base = "src/repro/core/profiles/base.py::ProfileBackend"
    backends = ["src/repro/core/profiles/list_backend.py::ListProfile", ...]
    [tool.repro-lint.protocol.require-override]         # RPL304
    "src/repro/core/profiles/array_backend.py::ArrayProfile" = ["fits", ...]
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ...errors import ReproError


class LintConfigError(ReproError):
    """The ``[tool.repro-lint]`` table is malformed."""


#: Default callable names treated as registry registration points.
DEFAULT_REGISTER_NAMES = (
    "register",
    "register_workload",
    "register_policy",
    "register_metric",
)


@dataclass(frozen=True)
class ScopeRef:
    """A ``path/to/module.py::Qual.Name`` reference (``qualname=None``
    refers to the whole module)."""

    path: str
    qualname: Optional[str] = None

    @classmethod
    def parse(cls, text: str, key: str) -> "ScopeRef":
        if "::" in text:
            path, _, qualname = text.partition("::")
            if not path or not qualname:
                raise LintConfigError(
                    f"{key}: malformed scope {text!r} "
                    "(expected 'path.py::QualName')"
                )
            return cls(path=path, qualname=qualname)
        return cls(path=text)


@dataclass(frozen=True)
class LintConfig:
    """Resolved repo-lint configuration (paths relative to ``root``)."""

    root: Path
    determinism_paths: Tuple[str, ...] = ()
    int_kernel_modules: Tuple[str, ...] = ()
    int_kernel_functions: Tuple[ScopeRef, ...] = ()
    protocol_base: Optional[ScopeRef] = None
    protocol_backends: Tuple[ScopeRef, ...] = ()
    require_override: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    register_names: Tuple[str, ...] = DEFAULT_REGISTER_NAMES
    registry_duplicate_paths: Tuple[str, ...] = ()
    durable_write_paths: Tuple[str, ...] = ()
    engine_internal_names: Tuple[str, ...] = ()
    engine_internal_owners: Tuple[str, ...] = ()


def _string_list(table: Dict[str, object], key: str) -> Tuple[str, ...]:
    raw = table.get(key, [])
    if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
        raise LintConfigError(f"[tool.repro-lint] {key} must be a string list")
    return tuple(raw)


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    probe = start if start.is_dir() else start.parent
    for directory in (probe, *probe.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(pyproject: Path) -> LintConfig:
    """The :class:`LintConfig` declared by one ``pyproject.toml``."""
    with open(pyproject, "rb") as fh:
        document = tomllib.load(fh)
    tool = document.get("tool", {})
    if not isinstance(tool, dict):
        raise LintConfigError("pyproject [tool] is not a table")
    table = tool.get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintConfigError("[tool.repro-lint] is not a table")
    root = pyproject.parent

    kernel_functions = tuple(
        ScopeRef.parse(entry, "int-kernel-functions")
        for entry in _string_list(table, "int-kernel-functions")
    )
    for ref in kernel_functions:
        if ref.qualname is None:
            raise LintConfigError(
                f"int-kernel-functions entry {ref.path!r} names no "
                "::QualName; whole modules go in int-kernel-modules"
            )

    protocol_base: Optional[ScopeRef] = None
    protocol_backends: Tuple[ScopeRef, ...] = ()
    require_override: Dict[str, Tuple[str, ...]] = {}
    protocol = table.get("protocol", {})
    if not isinstance(protocol, dict):
        raise LintConfigError("[tool.repro-lint.protocol] is not a table")
    if protocol:
        base_raw = protocol.get("base")
        if not isinstance(base_raw, str):
            raise LintConfigError("protocol.base must be 'path.py::Class'")
        protocol_base = ScopeRef.parse(base_raw, "protocol.base")
        protocol_backends = tuple(
            ScopeRef.parse(entry, "protocol.backends")
            for entry in _string_list(protocol, "backends")
        )
        for ref in (protocol_base, *protocol_backends):
            if ref.qualname is None:
                raise LintConfigError(
                    f"protocol scope {ref.path!r} names no ::Class"
                )
        overrides = protocol.get("require-override", {})
        if not isinstance(overrides, dict):
            raise LintConfigError(
                "[tool.repro-lint.protocol.require-override] is not a table"
            )
        for scope_text, methods in overrides.items():
            if not isinstance(methods, list) or not all(
                isinstance(name, str) for name in methods
            ):
                raise LintConfigError(
                    f"require-override[{scope_text!r}] must be a string list"
                )
            require_override[scope_text] = tuple(methods)

    register_names = _string_list(table, "registry-register-names")
    return LintConfig(
        root=root,
        determinism_paths=_string_list(table, "determinism-paths"),
        int_kernel_modules=_string_list(table, "int-kernel-modules"),
        int_kernel_functions=kernel_functions,
        protocol_base=protocol_base,
        protocol_backends=protocol_backends,
        require_override=require_override,
        register_names=register_names or DEFAULT_REGISTER_NAMES,
        registry_duplicate_paths=_string_list(table, "registry-duplicate-paths"),
        durable_write_paths=_string_list(table, "durable-write-paths"),
        engine_internal_names=_string_list(table, "engine-internal-names"),
        engine_internal_owners=_string_list(table, "engine-internal-owners"),
    )


def resolve_config(paths: Sequence[Path]) -> LintConfig:
    """Locate and load the config governing ``paths`` (nearest pyproject
    above the first path, then the CWD); empty config when none exists."""
    candidates: List[Path] = [p.resolve() for p in paths]
    candidates.append(Path.cwd())
    for start in candidates:
        pyproject = find_pyproject(start)
        if pyproject is not None:
            return load_config(pyproject)
    return LintConfig(root=Path.cwd())
