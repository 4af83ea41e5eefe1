"""``repro lint`` — AST invariant checker for this repository's own
documented contracts.

Five rule families, each grounded in a contract the test suite cannot
cheaply enforce:

* **RPL1xx** determinism — no wall clock / OS entropy / salted set
  order in engine code (byte-identical replay);
* **RPL2xx** int-grid exactness — no floats in declared integer-kernel
  scopes (the integer-grid array kernel and LCM timebase);
* **RPL3xx** backend-protocol drift — profile backends stay aligned
  with :class:`~repro.core.profiles.base.ProfileBackend`;
* **RPL4xx** multiprocessing safety — pool workers are module-level;
* **RPL5xx** registry hygiene — registered names are unique literals.

Suppress with ``# repro: noqa RPL202 -- justification`` inline or a
``# repro: noqa-begin RPL2xx`` / ``# repro: noqa-end`` region.
Scopes are configured in ``[tool.repro-lint]`` in ``pyproject.toml``.
Pure stdlib (:mod:`ast` + :mod:`tokenize` + :mod:`tomllib`); no runtime
dependencies.
"""

from __future__ import annotations

from ..._lazy import lazy_exports as _lazy_exports

__all__ = [
    "LintConfig",
    "LintConfigError",
    "LintReport",
    "RULES",
    "RULES_BY_CODE",
    "Rule",
    "Suppression",
    "SuppressionError",
    "Violation",
    "discover_files",
    "expand_rule_selector",
    "load_config",
    "parse_suppressions",
    "resolve_config",
    "run_lint",
]

__getattr__, __dir__ = _lazy_exports(__name__, globals(), {
    ".config": (
        "LintConfig", "LintConfigError", "load_config", "resolve_config",
    ),
    ".engine": ("LintReport", "discover_files", "run_lint"),
    ".model": (
        "RULES", "RULES_BY_CODE", "Rule", "Violation", "expand_rule_selector",
    ),
    ".suppress": ("Suppression", "SuppressionError", "parse_suppressions"),
})
