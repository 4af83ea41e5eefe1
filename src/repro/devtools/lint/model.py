"""Rule metadata and the violation record every checker emits.

The linter's unit of output is a :class:`Violation` — an exact
``file:line:col`` span plus a rule code — and its unit of documentation
is a :class:`Rule`.  The :data:`RULES` catalog is the single source of
truth: ``repro list --kind lint-rules`` prints it, the engine validates
``--rule`` filters against it, and the README's rule table is generated
from the same wording.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: A rule code: ``RPL`` + family digit + two digits (``RPL203``).
CODE_RE = re.compile(r"RPL\d{3}\Z")

#: A family pattern as accepted by ``--rule`` and ``noqa``: ``RPL2xx``.
FAMILY_RE = re.compile(r"RPL\d(?:xx|XX)\Z")


@dataclass(frozen=True)
class Rule:
    """One checkable invariant."""

    code: str
    #: short kebab-case handle (stable; used in messages and docs)
    name: str
    #: one-line "what it catches" for listings
    summary: str
    #: which documented contract the rule enforces
    contract: str


@dataclass(frozen=True)
class Violation:
    """One rule hit at an exact source span."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


RULES: Tuple[Rule, ...] = (
    # -- RPL1xx: determinism ------------------------------------------------
    Rule(
        "RPL101",
        "wall-clock-call",
        "wall-clock or OS-entropy call in deterministic engine code",
        "byte-identical replay: engine output may not depend on when or "
        "where it runs (time.time / datetime.now / os.urandom)",
    ),
    Rule(
        "RPL102",
        "unseeded-rng",
        "module-level random.* call (or seedless random.Random())",
        "byte-identical replay: every RNG must be a seeded random.Random "
        "instance",
    ),
    Rule(
        "RPL103",
        "unordered-set-iteration",
        "iteration over a bare set feeding ordered output",
        "byte-identical replay: set iteration order is salted per process; "
        "sort first",
    ),
    # -- RPL2xx: int-grid exactness ----------------------------------------
    Rule(
        "RPL201",
        "float-literal",
        "float literal inside a declared integer-kernel scope",
        "ArrayProfile/timebase int64-grid contract: kernel arithmetic stays "
        "exact",
    ),
    Rule(
        "RPL202",
        "true-division",
        "true division (/) inside a declared integer-kernel scope",
        "ArrayProfile/timebase int64-grid contract: use // or Fraction, "
        "never float division",
    ),
    Rule(
        "RPL203",
        "float-coercion",
        "float() coercion inside a declared integer-kernel scope",
        "ArrayProfile/timebase int64-grid contract: kernel values are never "
        "coerced to float",
    ),
    # -- RPL3xx: backend-protocol drift ------------------------------------
    Rule(
        "RPL301",
        "missing-primitive",
        "backend does not implement a protocol primitive",
        "ProfileBackend protocol: every method whose base body is `raise "
        "NotImplementedError` must exist in each backend",
    ),
    Rule(
        "RPL302",
        "signature-drift",
        "backend override's signature differs from the protocol's",
        "ProfileBackend protocol: overrides keep the protocol's parameter "
        "names, order and defaults",
    ),
    Rule(
        "RPL303",
        "unprotocoled-method",
        "backend grew a public method the protocol does not declare",
        "ProfileBackend protocol: backends stay method-for-method aligned; "
        "new surface lands in base.py first",
    ),
    Rule(
        "RPL304",
        "missing-kernel-override",
        "backend lost a fast-path override the config declares required",
        "replay-engine kernel contract: the array backend's vectorised "
        "overrides may not silently fall back to the generic scalar loop",
    ),
    # -- RPL4xx: multiprocessing safety ------------------------------------
    Rule(
        "RPL401",
        "unpicklable-worker",
        "lambda or nested function handed to a process pool",
        "sharded replay/runner contract: worker callables are module-level "
        "so ProcessPoolExecutor can pickle them",
    ),
    Rule(
        "RPL402",
        "non-atomic-durable-write",
        "truncating write to a durable file outside the atomic helper",
        "crash-safety contract: files a crash-recovery scan or another "
        "process may read are published via repro.durability.atomic "
        "(tmp + os.replace), never open(..., 'w'/'wb') in place",
    ),
    # -- RPL5xx: registry hygiene ------------------------------------------
    Rule(
        "RPL501",
        "non-literal-registry-name",
        "registry register call whose name is not a string literal",
        "registry contract: names are greppable literals (forwarding a "
        "parameter through a wrapper is exempt)",
    ),
    Rule(
        "RPL502",
        "duplicate-registry-name",
        "the same literal name registered at two different sites",
        "registry contract: one name, one owner — accidental collisions "
        "were previously invisible",
    ),
    Rule(
        "RPL503",
        "engine-internal-reach-in",
        "attribute access on a declared engine-internal name outside "
        "its owner file",
        "engine embedding contract: drivers program against "
        "repro.simulation.SchedulerCore's verbs, never its private "
        "event loop (_event_loop)",
    ),
)

RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}


def expand_rule_selector(selector: str) -> List[str]:
    """Rule codes matched by ``selector`` (exact ``RPL203`` or family
    ``RPL2xx``); empty when nothing matches, raises on malformed input."""
    token = selector.strip()
    if CODE_RE.match(token):
        return [token] if token in RULES_BY_CODE else []
    if FAMILY_RE.match(token):
        prefix = token[:4]
        return [rule.code for rule in RULES if rule.code.startswith(prefix)]
    raise ValueError(
        f"malformed rule selector {selector!r} (expected RPLnnn or RPLnxx)"
    )
