"""Runtime-uncertainty models: what the scheduler believes vs what happens.

Every trace job carries one runtime ``p`` — and everything upstream of
this module treats it as the truth.  Real batch systems never get that
luxury: requested walltimes are routinely 2–10x the actual runtimes,
jobs die and are resubmitted, and reserved capacity goes unused.  An
:class:`UncertaintyModel` is the seeded, deterministic description of
that gap.  The scheduler keeps planning with the *estimated* runtime
(the job's ``p``); the model decides per job what *actually* happens:

======================  ====================================================
model                   actual runtime
======================  ====================================================
``exact``               ``p`` — the degenerate model; with zero failure and
                        no-show rates it is byte-identical to no model at all
``overestimate``        ``p * u`` with ``u ~ U[1/factor, 1]`` — users pad
                        their requests, jobs finish early
``underestimate``       ``p * u`` with ``u ~ U[1, factor]`` — jobs overrun
                        their estimates (kill or grace policy applies)
``lognormal``           ``p * exp(sigma * N(0, 1))`` — two-sided error
``early-exit``          ``p * u`` with ``u ~ U(0, 1)`` — crashes-on-startup
                        and instant-failure jobs
======================  ====================================================

On top of the estimate error every *stochastic* model injects, by
default, a small **job failure** rate (``failure_rate``, default
:data:`DEFAULT_FAILURE_RATE`; the ``exact`` model defaults to 0): a
failed job releases its processors at the failure instant and re-enters
the queue after ``backoff`` time units, at most ``max_retries`` times
(the attempt after the last retry always runs to completion, so the
stream always drains).  ``no_show_rate`` makes committed reservations
no-shows: the hole is released at its start instant.  Overruns follow
the ``overrun`` policy: ``"kill"`` terminates the job at its estimate
(the walltime-kill every production scheduler applies), ``"grace"``
tries to extend the allocation by up to ``grace * p`` extra time —
capacity-checked, killing only when the extension does not fit.

Determinism is the whole design: every draw takes the values of a
:class:`DrawStream`, a counter-based uniform stream cut straight out of
SHA-256 of ``(model seed, job id, attempt)`` (the built-in models read
them straight off its first block) — independent of
processing order, process identity and where a run was sliced, which
is what makes a serial stochastic replay and a chain of checkpointed
slices byte-identical and the exact model a true no-op.  Changing the
stream changes every stochastic row, so :data:`DRAW_STREAM_VERSION`
joins the identity of every stochastic replay journal, serve journal
and experiment-store key: nothing resumes into rows drawn from two
different streams.

Models are name-addressable through :data:`UNCERTAINTY_MODELS` (the
same registry pattern as workloads); ``repro replay
--uncertainty lognormal:sigma=0.5:overrun=grace`` and the experiment
layer's ``uncertainties`` factor both go through
:func:`parse_uncertainty`.  Third-party models subclass
:class:`UncertaintyModel`, override :meth:`UncertaintyModel._actual`
and register a factory via :func:`register_uncertainty_model`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Callable, FrozenSet, Optional, Tuple

from ..core.registry import Registry
from ..errors import InvalidInstanceError

__all__ = [
    "DEFAULT_FAILURE_RATE",
    "DRAW_STREAM_VERSION",
    "DrawStream",
    "UNCERTAINTY_MODELS",
    "UncertaintyModel",
    "available_uncertainty_models",
    "parse_uncertainty",
    "register_uncertainty_model",
    "resolve_uncertainty",
]

#: Failure probability per execution attempt that stochastic models
#: inject unless the spec says otherwise (``failure_rate=0`` turns it
#: off); the ``exact`` model defaults to 0 so it stays degenerate.
DEFAULT_FAILURE_RATE = 0.02

#: Default retry budget of a failing job (re-entries, not attempts).
DEFAULT_MAX_RETRIES = 3

#: Default requeue backoff (time units between failure and re-entry).
DEFAULT_BACKOFF = 60

#: Default over/under-estimation factor.
DEFAULT_FACTOR = 2.0

#: Default lognormal error magnitude.
DEFAULT_SIGMA = 0.5

#: Default grace-extension budget, as a fraction of the estimate.
DEFAULT_GRACE = 0.25

#: Recognised overrun policies.
OVERRUN_POLICIES = ("kill", "grace")

#: Version of the :class:`DrawStream` draws.  Stochastic replay journals,
#: serve journals and experiment-store keys record it, so state drawn
#: from an older stream (version 1: a ``random.Random`` seeded per draw)
#: fails loudly or recomputes instead of resuming into mixed rows.
DRAW_STREAM_VERSION = 2

_FLOAT_KEYS = frozenset(
    {"factor", "sigma", "failure_rate", "no_show_rate", "grace"}
)
_INT_KEYS = frozenset({"max_retries", "backoff", "seed"})
_COMMON_KEYS = frozenset(
    {"failure_rate", "max_retries", "backoff", "no_show_rate",
     "overrun", "grace", "seed"}
)


#: The models with an actual-runtime rule in :meth:`UncertaintyModel.draw`.
_BUILTIN_MODELS = frozenset(
    {"exact", "overestimate", "underestimate", "lognormal", "early-exit"}
)

_WORDS = struct.Struct(">4Q").unpack
_TWO_PI = 2.0 * math.pi
_INV_2_53 = 1.0 / (1 << 53)


def _fail_at(actual, p, u: float):
    """The failure instant of a failing attempt, from the uniform ``u``:
    within ``[1, min(actual, p)]`` on the integer grid, else in
    ``(0, min(actual, p)]``."""
    horizon = actual if actual < p else p
    if isinstance(horizon, int):
        return 1 + int(u * (horizon - 1)) if horizon > 1 else 1
    return horizon * max(u, 1e-9)


class DrawStream:
    """Counter-based uniform stream keyed by one SHA-256 basis string.

    Block 0 is ``SHA-256(basis)``, block ``k > 0`` is
    ``SHA-256(f"{basis}:{k}")``; each 32-byte block is four big-endian
    64-bit words whose top 53 bits give four uniforms in ``[0, 1)``.
    Every value is a pure function of the basis and its position, so a
    draw needs no generator state beyond one digest.
    """

    __slots__ = ("_basis", "_block", "_words", "_next")

    def __init__(self, basis: str):
        self._basis = basis
        self._block = 0
        self._words = _WORDS(sha256(basis.encode()).digest())
        self._next = 0

    def random(self) -> float:
        """The next uniform in ``[0, 1)`` (a multiple of ``2**-53``)."""
        i = self._next
        if i == 4:
            self._block += 1
            self._words = _WORDS(
                sha256(f"{self._basis}:{self._block}".encode()).digest()
            )
            i = 0
        self._next = i + 1
        return (self._words[i] >> 11) * _INV_2_53

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """A normal variate from exactly two uniforms (Box–Muller)."""
        radius = math.sqrt(-2.0 * math.log(1.0 - self.random()))
        return mu + sigma * radius * math.cos(_TWO_PI * self.random())


@dataclass(frozen=True)
class UncertaintyModel:
    """One fully-parameterised uncertainty scenario (picklable, frozen).

    ``draw`` is a pure function of ``(seed, job id, attempt)``; see the
    module docs for the field semantics.
    """

    model: str = "exact"
    factor: float = DEFAULT_FACTOR
    sigma: float = DEFAULT_SIGMA
    failure_rate: float = 0.0
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff: int = DEFAULT_BACKOFF
    no_show_rate: float = 0.0
    overrun: str = "kill"
    grace: float = DEFAULT_GRACE
    seed: int = 0

    def __post_init__(self):
        if self.factor < 1.0:
            raise InvalidInstanceError(
                f"uncertainty factor must be >= 1, got {self.factor!r}"
            )
        if self.sigma < 0.0:
            raise InvalidInstanceError(
                f"uncertainty sigma must be >= 0, got {self.sigma!r}"
            )
        for name, rate in (
            ("failure_rate", self.failure_rate),
            ("no_show_rate", self.no_show_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise InvalidInstanceError(
                    f"uncertainty {name} must be in [0, 1], got {rate!r}"
                )
        if self.max_retries < 0:
            raise InvalidInstanceError(
                f"uncertainty max_retries must be >= 0, "
                f"got {self.max_retries!r}"
            )
        if self.backoff < 1:
            raise InvalidInstanceError(
                f"uncertainty backoff must be >= 1 (re-entry is an event "
                f"strictly after the failure), got {self.backoff!r}"
            )
        if self.overrun not in OVERRUN_POLICIES:
            raise InvalidInstanceError(
                f"uncertainty overrun policy must be one of "
                f"{OVERRUN_POLICIES}, got {self.overrun!r}"
            )
        if self.grace <= 0.0:
            raise InvalidInstanceError(
                f"uncertainty grace must be > 0, got {self.grace!r}"
            )

    # -- identity -----------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """Whether the model is fully degenerate — engines treat an
        exact model as no model at all (the byte-identity contract)."""
        return (
            self.model == "exact"
            and self.failure_rate == 0.0
            and self.no_show_rate == 0.0
        )

    @property
    def spec(self) -> str:
        """Canonical spec string — the checkpoint/journal fingerprint
        (two models with equal specs behave identically)."""
        parts = [self.model]
        if self.model in ("overestimate", "underestimate"):
            parts.append(f"factor={self.factor:g}")
        if self.model == "lognormal":
            parts.append(f"sigma={self.sigma:g}")
        parts.append(f"failure_rate={self.failure_rate:g}")
        parts.append(f"max_retries={self.max_retries}")
        parts.append(f"backoff={self.backoff}")
        parts.append(f"no_show_rate={self.no_show_rate:g}")
        parts.append(f"overrun={self.overrun}")
        parts.append(f"grace={self.grace:g}")
        parts.append(f"seed={self.seed}")
        return ":".join(parts)

    # -- seeded draws -------------------------------------------------------
    def _grid(self, value, p):
        """Clamp a drawn runtime back onto the trace's time grid:
        integer estimates yield integer actuals (the replay engine's
        int fast path), and every runtime stays positive."""
        if isinstance(p, int):
            v = int(value)
            return v if v >= 1 else 1
        return value if value > 0 else p

    def _actual(self, rng: DrawStream, p):
        """The model's actual-runtime draw (third-party override point).

        ``rng`` is the attempt's :class:`DrawStream`, which offers
        exactly two methods: ``rng.random()``, the next uniform in
        ``[0, 1)``, and ``rng.gauss(mu=0.0, sigma=1.0)``, a normal
        variate that consumes two uniforms.  The failure test and the
        failure instant of :meth:`draw` are the next uniforms on the
        same stream.  The built-in models' rules live in :meth:`draw`;
        a model without one must override this method."""
        raise InvalidInstanceError(
            f"uncertainty model {self.model!r} has no actual-runtime rule "
            "(third-party models must override _actual)"
        )

    def draw(self, job_id, p, attempt: int = 0):
        """The fate of one execution attempt: ``(actual, fail_at)``.

        ``actual`` is the attempt's real runtime; ``fail_at`` is the
        failure instant relative to the start (``None``: the attempt
        does not fail).  Failures happen strictly within the window the
        job would actually occupy (``[1, min(actual, estimate)]``), and
        an attempt past the retry budget never fails — bounded requeue
        with guaranteed completion.

        The built-in models take at most two uniforms of the attempt's
        :class:`DrawStream` for the actual runtime (``lognormal`` a
        Box–Muller normal), and the failure test and instant the next
        two, so a whole fate lies in the stream's first SHA-256 block.
        This method reads that block's words directly — the values a
        :class:`DrawStream` yields, without the stream object and its
        calls (one draw per job start is the stochastic replay's hot
        path).  A model that overrides :meth:`_actual` draws through a
        :class:`DrawStream`.
        """
        basis = f"{self.seed}:job:{job_id}:{attempt}"
        model = self.model
        if type(self)._actual is not _BASE_ACTUAL or model not in _BUILTIN_MODELS:
            return self._stream_draw(DrawStream(basis), p, attempt)
        words = _WORDS(sha256(basis.encode()).digest())
        if model == "exact":
            actual = p
            used = 0
        else:
            u = (words[0] >> 11) * _INV_2_53
            used = 1
            if model == "lognormal":
                # DrawStream.gauss: Box-Muller on the first two uniforms
                gauss = math.sqrt(-2.0 * math.log(1.0 - u)) * math.cos(
                    _TWO_PI * ((words[1] >> 11) * _INV_2_53)
                )
                value = p * math.exp(self.sigma * gauss)
                used = 2
            elif model == "overestimate":
                lo = 1.0 / self.factor
                value = p * (lo + (1.0 - lo) * u)
            elif model == "underestimate":
                value = p * (1.0 + (self.factor - 1.0) * u)
            else:  # early-exit
                value = p * u
            # `_grid`, inline
            if isinstance(p, int):
                actual = int(value)
                if actual < 1:
                    actual = 1
            else:
                actual = value if value > 0 else p
        if (
            self.failure_rate > 0.0
            and attempt < self.max_retries
            and (words[used] >> 11) * _INV_2_53 < self.failure_rate
        ):
            return actual, _fail_at(actual, p, (words[used + 1] >> 11) * _INV_2_53)
        return actual, None

    def _stream_draw(self, rng: DrawStream, p, attempt: int):
        """:meth:`draw` for a model overriding :meth:`_actual`: the
        failure test and instant are the uniforms after its own."""
        actual = self._actual(rng, p)
        if (
            self.failure_rate > 0.0
            and attempt < self.max_retries
            and rng.random() < self.failure_rate
        ):
            return actual, _fail_at(actual, p, rng.random())
        return actual, None

    def is_no_show(self, index: int) -> bool:
        """Whether the ``index``-th committed reservation is a no-show
        (deterministic per reservation-acceptance order)."""
        if self.no_show_rate <= 0.0:
            return False
        return (
            DrawStream(f"{self.seed}:resv:{index}").random()
            < self.no_show_rate
        )

    def grace_budget(self, p):
        """Maximum extension past the estimate under ``overrun="grace"``."""
        if isinstance(p, int):
            extra = int(p * self.grace)
            return extra if extra >= 1 else 1
        return p * self.grace


#: The base :meth:`UncertaintyModel._actual`: a model that keeps it runs
#: a built-in rule, read straight off one block by
#: :meth:`UncertaintyModel.draw`.
_BASE_ACTUAL = UncertaintyModel._actual


# ---------------------------------------------------------------------------
# registry + spec parsing
# ---------------------------------------------------------------------------

#: Uncertainty-model registry: name -> factory(**params) -> model.
UNCERTAINTY_MODELS: Registry[Callable[..., UncertaintyModel]] = Registry(
    "uncertainty model", error=InvalidInstanceError
)


def register_uncertainty_model(
    name: str,
    factory: Optional[Callable[..., UncertaintyModel]] = None,
    *,
    overwrite: Optional[bool] = None,
):
    """Register a model factory under ``name`` (usable as decorator)."""
    return UNCERTAINTY_MODELS.register(name, factory, overwrite=overwrite)


def available_uncertainty_models():
    """Sorted names of all registered uncertainty models."""
    return UNCERTAINTY_MODELS.names()


def _coerce(name: str, key: str, value):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except (TypeError, ValueError):
        raise InvalidInstanceError(
            f"uncertainty model {name!r}: parameter {key}={value!r} is not "
            f"a number"
        ) from None
    return value


def _builtin_factory(name: str, extra_keys: FrozenSet[str]):
    allowed = _COMMON_KEYS | extra_keys

    def factory(**params) -> UncertaintyModel:
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise InvalidInstanceError(
                f"uncertainty model {name!r} has unknown parameter(s) "
                f"{unknown}; known parameters: {sorted(allowed)}"
            )
        kwargs = {k: _coerce(name, k, v) for k, v in params.items()}
        if "failure_rate" not in kwargs and name != "exact":
            kwargs["failure_rate"] = DEFAULT_FAILURE_RATE
        return UncertaintyModel(model=name, **kwargs)

    return factory


for _name, _extra in (
    ("exact", frozenset()),
    ("overestimate", frozenset({"factor"})),
    ("underestimate", frozenset({"factor"})),
    ("lognormal", frozenset({"sigma"})),
    ("early-exit", frozenset()),
):
    UNCERTAINTY_MODELS.register(
        _name,  # repro: noqa RPL501 -- one factory per built-in model name
        _builtin_factory(_name, _extra),
        overwrite=True,
    )


def parse_uncertainty(
    spec: str, default_seed: Optional[int] = None
) -> UncertaintyModel:
    """Parse ``model[:key=value]*`` (the ``--uncertainty`` grammar).

    ``default_seed`` seeds the model when the spec itself names no
    ``seed=`` — how the experiment layer gives every grid point its
    derived per-point seed.
    """
    name, _, rest = spec.partition(":")
    factory = UNCERTAINTY_MODELS.get(name)
    params = {}
    if rest:
        for item in rest.split(":"):
            key, eq, value = item.partition("=")
            if not eq:
                raise InvalidInstanceError(
                    f"uncertainty spec {spec!r}: malformed option {item!r} "
                    "(expected key=value)"
                )
            params[key] = value
    if default_seed is not None and "seed" not in params:
        params["seed"] = default_seed
    return factory(**params)


def resolve_uncertainty(
    spec, default_seed: Optional[int] = None
) -> Optional[UncertaintyModel]:
    """Normalise an engine-facing uncertainty argument.

    ``None`` stays ``None``; a model passes through; a spec string is
    parsed.  Anything else is a loud error.
    """
    if spec is None:
        return None
    if isinstance(spec, UncertaintyModel):
        return spec
    if isinstance(spec, str):
        return parse_uncertainty(spec, default_seed=default_seed)
    raise InvalidInstanceError(
        f"uncertainty must be None, a spec string or an UncertaintyModel, "
        f"got {type(spec).__name__}"
    )
