"""RPL3xx — backend-protocol drift.

The profile backends must stay method-for-method aligned with the
:class:`~repro.core.profiles.base.ProfileBackend` protocol as it grows
(``try_reserve`` and ``reserve_fitting`` landed in separate PRs; drift
was previously caught by hand).  This checker
compares the *ASTs* of the protocol class and each backend class:

* **RPL301** — a protocol *primitive* (base body is just ``raise
  NotImplementedError``) is missing from a backend;
* **RPL302** — a backend override's parameter names/order/defaults
  differ from the protocol's (annotations are not compared: times are
  duck-typed exact numerics);
* **RPL303** — a backend grew a public method the protocol does not
  declare (new surface lands in ``base.py`` first, so the other
  backends cannot silently miss it);
* **RPL304** — a backend lost a fast-path override that
  ``[tool.repro-lint.protocol.require-override]`` declares required
  (the replay engine's throughput depends on the array backend's
  column-level overrides; losing one falls back to the generic
  implementation with no functional failure).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .config import LintConfig, LintConfigError, ScopeRef
from .model import Violation
from .source import SourceFile

_METHOD_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_KIND_DECORATORS = ("property", "classmethod", "staticmethod")


@dataclass(frozen=True)
class MethodShape:
    """The drift-relevant shape of one method."""

    name: str
    lineno: int
    col: int
    #: "property" / "classmethod" / "staticmethod" / "method"
    kind: str
    #: positional parameter names (implicit self/cls dropped)
    params: Tuple[str, ...]
    #: how many trailing positional parameters carry defaults
    defaults: int
    vararg: Optional[str]
    #: keyword-only (name, has_default) pairs
    kwonly: Tuple[Tuple[str, bool], ...]
    kwarg: Optional[str]
    is_primitive: bool

    def signature_text(self) -> str:
        parts: List[str] = []
        required = len(self.params) - self.defaults
        for i, name in enumerate(self.params):
            parts.append(name if i < required else f"{name}=...")
        if self.vararg:
            parts.append(f"*{self.vararg}")
        elif self.kwonly:
            parts.append("*")
        for name, has_default in self.kwonly:
            parts.append(f"{name}=..." if has_default else name)
        if self.kwarg:
            parts.append(f"**{self.kwarg}")
        return f"({', '.join(parts)})"

    def drifts_from(self, other: "MethodShape") -> bool:
        return (
            self.kind != other.kind
            or self.params != other.params
            or self.defaults != other.defaults
            or self.vararg != other.vararg
            or self.kwonly != other.kwonly
            or self.kwarg != other.kwarg
        )


def _decorator_kind(node: ast.AST) -> str:
    if isinstance(node, _METHOD_NODES):
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Name) and decorator.id in _KIND_DECORATORS:
                return decorator.id
    return "method"


def _is_primitive_body(body: List[ast.stmt]) -> bool:
    statements = list(body)
    if (
        statements
        and isinstance(statements[0], ast.Expr)
        and isinstance(statements[0].value, ast.Constant)
        and isinstance(statements[0].value.value, str)
    ):
        statements = statements[1:]  # docstring
    if len(statements) != 1 or not isinstance(statements[0], ast.Raise):
        return False
    exc = statements[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _method_shape(node: ast.AST) -> Optional[MethodShape]:
    if not isinstance(node, _METHOD_NODES):
        return None
    kind = _decorator_kind(node)
    args = node.args
    params = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if kind in ("method", "property", "classmethod") and params:
        params = params[1:]  # implicit self / cls
    return MethodShape(
        name=node.name,
        lineno=node.lineno,
        col=node.col_offset,
        kind=kind,
        params=tuple(params),
        defaults=len(args.defaults),
        vararg=args.vararg.arg if args.vararg else None,
        kwonly=tuple(
            (a.arg, d is not None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
        ),
        kwarg=args.kwarg.arg if args.kwarg else None,
        is_primitive=_is_primitive_body(node.body),
    )


@dataclass
class ClassShape:
    """Public method shapes of one class, plus its own span."""

    ref: ScopeRef
    lineno: int
    col: int
    methods: Dict[str, MethodShape]


def _class_shape(source: SourceFile, ref: ScopeRef) -> ClassShape:
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ClassDef) and node.name == ref.qualname:
            methods: Dict[str, MethodShape] = {}
            for child in node.body:
                shape = _method_shape(child)
                if shape is not None and not shape.name.startswith("_"):
                    methods[shape.name] = shape
            return ClassShape(
                ref=ref,
                lineno=node.lineno,
                col=node.col_offset,
                methods=methods,
            )
    raise LintConfigError(
        f"protocol scope {ref.path}::{ref.qualname} not found "
        "(class missing from the module)"
    )


def check_protocol(
    config: LintConfig,
    load: Callable[[str], Optional[SourceFile]],
) -> Iterator[Violation]:
    """Run the cross-module drift check.

    ``load`` maps a config-relative path to a parsed :class:`SourceFile`
    (the engine serves scanned files from memory and the rest from
    disk); a ``None`` result raises — a configured protocol file that
    does not parse is itself drift.
    """
    if config.protocol_base is None:
        return
    base_source = load(config.protocol_base.path)
    if base_source is None:
        raise LintConfigError(
            f"protocol base {config.protocol_base.path!r} is missing or "
            "does not parse"
        )
    base = _class_shape(base_source, config.protocol_base)
    primitives = {name for name, shape in base.methods.items() if shape.is_primitive}
    for backend_ref in config.protocol_backends:
        backend_source = load(backend_ref.path)
        if backend_source is None:
            raise LintConfigError(
                f"protocol backend {backend_ref.path!r} is missing or "
                "does not parse"
            )
        backend = _class_shape(backend_source, backend_ref)
        rel = backend_source.rel
        for name in sorted(primitives - set(backend.methods)):
            yield Violation(
                rel,
                backend.lineno,
                backend.col,
                "RPL301",
                f"{backend_ref.qualname} does not implement protocol "
                f"primitive {name}() (base raises NotImplementedError)",
            )
        for name, shape in sorted(backend.methods.items()):
            base_shape = base.methods.get(name)
            if base_shape is None:
                yield Violation(
                    rel,
                    shape.lineno,
                    shape.col,
                    "RPL303",
                    f"{backend_ref.qualname}.{name}() is not part of the "
                    f"{config.protocol_base.qualname} protocol; declare it "
                    f"in {config.protocol_base.path} first so every "
                    "backend stays aligned",
                )
            elif shape.drifts_from(base_shape):
                yield Violation(
                    rel,
                    shape.lineno,
                    shape.col,
                    "RPL302",
                    f"{backend_ref.qualname}.{name}{shape.signature_text()} "
                    "drifts from the protocol signature "
                    f"{base_shape.signature_text()}",
                )
        scope_key = f"{backend_ref.path}::{backend_ref.qualname}"
        for name in config.require_override.get(scope_key, ()):
            if name not in backend.methods:
                yield Violation(
                    rel,
                    backend.lineno,
                    backend.col,
                    "RPL304",
                    f"{backend_ref.qualname} must override {name}() (a "
                    "declared fast-path kernel method; without it the "
                    "generic scalar fallback silently takes over)",
                )
