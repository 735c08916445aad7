"""The unified engine API.

Every verification technique of the reproduction — the eight engines the
paper compares — implements the same contract, :class:`Engine`:

* one constructor shape ``Engine(system, **options)`` where the options are
  the engine's declared keyword parameters,
* one entry point ``verify(property_name, timeout) ->``
  :class:`repro.engines.result.VerificationResult`,
* declared :class:`EngineCapabilities` (can it *prove* safety, can it
  *refute* with a counterexample, which design representations does it
  accept), held by the engine's registration in :mod:`repro.engines.registry`,
  so that the ``repro-verify`` CLI, the budget ladder of
  :mod:`repro.engines.ladder` and the process-based portfolio of
  :mod:`repro.engines.portfolio` can select and combine engines without
  importing them or knowing their internals.

This mirrors the architecture of portfolio verifiers such as CPAchecker,
where many analyses sit behind one algorithm interface and a driver races or
sequences them.
"""

from __future__ import annotations

import functools
import inspect
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.engines.result import VerificationResult
from repro.faults import injection as _fault_injection
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry


class EngineOptionError(ValueError):
    """Raised when an engine is instantiated with options it does not accept."""


def _run_verify(self, inner, property_name, timeout):
    """The fault-injection half of the verify wrapper (plan installed)."""
    _fault_injection.on_engine_start(self, property_name)
    try:
        result = inner(self, property_name, timeout)
    finally:
        _fault_injection.on_engine_finish()
    forged = _fault_injection.maybe_forge(self, property_name, result)
    return forged if forged is not None else result


def _instrument_verify(inner):
    """Wrap a concrete ``verify`` with fault-injection and telemetry.

    With no fault plan installed and telemetry off (the production default)
    the wrapper is two global reads, a ``process_time`` delta and a tail
    call.  Under a fault plan it fires start-of-verify faults (slow-start,
    crash, SIGKILL, solver wedge) before the engine runs and may replace
    the result with a forged-certificate lie afterwards.  With telemetry on
    it times the run under an ``engine.verify`` span and attaches the
    counter deltas the run produced to ``result.telemetry``.

    The CPU-time delta is taken unconditionally: engines time their own
    wall clocks per site, but ``VerificationResult.cpu_time`` is sourced
    here so ladder CPU accounting needs no parallel timers.
    """

    @functools.wraps(inner)
    def verify(self, property_name=None, timeout=None):
        faulted = _fault_injection.current() is not None
        recorder = _telemetry.get_recorder()
        cpu0 = time.process_time()
        if recorder is None:
            if faulted:
                result = _run_verify(self, inner, property_name, timeout)
            else:
                result = inner(self, property_name, timeout)
            if isinstance(result, VerificationResult) and not result.cpu_time:
                result.cpu_time = time.process_time() - cpu0
            return result

        counters_before = dict(recorder.counters)
        with _telemetry.span(
            "engine.verify",
            engine=self.name,
            design=getattr(self.system, "name", "?"),
            property=property_name or "",
        ) as verify_span:
            if faulted:
                result = _run_verify(self, inner, property_name, timeout)
            else:
                result = inner(self, property_name, timeout)
            if isinstance(result, VerificationResult):
                if not result.cpu_time:
                    result.cpu_time = time.process_time() - cpu0
                verify_span.set_outcome(result.status)
                deltas = {
                    name: value - counters_before.get(name, 0)
                    for name, value in recorder.counters.items()
                    if value != counters_before.get(name, 0)
                }
                telemetry = dict(result.telemetry or {})
                telemetry["counters"] = deltas
                result.telemetry = telemetry
        return result

    verify._fault_instrumented = True
    return verify


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can conclude and on which design representations.

    ``can_prove``/``can_refute`` describe the *definitive* answers the engine
    is able to return (``SAFE`` respectively ``UNSAFE``); every engine may
    additionally return ``UNKNOWN``/``TIMEOUT``.  ``representations`` lists
    the frame encodings the engine supports (``"word"`` and/or ``"bit"``,
    see :class:`repro.engines.encoding.FrameEncoder`).  ``complete`` marks
    engines that terminate with a definitive answer on every finite-state
    design given enough resources.

    ``cost`` is the engine's scheduling tier: ``"cheap"`` engines (random
    simulation, abstract interpretation) answer or give up within
    milliseconds, ``"medium"`` engines (the k-induction family, and BMC,
    whose work is k-induction's base case) usually settle within a
    moderate budget, ``"heavy"`` engines (fixpoint provers) may need the
    full budget.  The budget ladder of :mod:`repro.engines.ladder` maps
    tiers onto rungs: cheap engines run first at a small budget and the
    ladder escalates tier by tier.
    """

    COST_TIERS = ("cheap", "medium", "heavy")

    can_prove: bool
    can_refute: bool
    representations: Tuple[str, ...] = ("word",)
    complete: bool = False
    #: scheduling tier used by the budget ladder ("cheap"/"medium"/"heavy")
    cost: str = "heavy"

    @property
    def cost_rank(self) -> int:
        """The ladder rung index of the engine's cost tier."""
        return self.COST_TIERS.index(self.cost)

    def describe(self) -> str:
        """Short human-readable capability tag, e.g. ``prove+refute [word,bit]``."""
        verbs = [v for v, ok in (("prove", self.can_prove), ("refute", self.can_refute)) if ok]
        return f"{'+'.join(verbs) or 'none'} [{','.join(self.representations)}]"


class _RegisteredCapabilities:
    """``Engine.capabilities``: read from the engine's registration.

    The registry holds the one copy of every engine's capabilities, so the
    ladder and the CLI can read them without importing the engine and the
    class can never drift from them.
    """

    def __get__(self, instance, owner) -> EngineCapabilities:
        from repro.engines.registry import get_registration

        return get_registration(owner.name).capabilities


class Engine(ABC):
    """Abstract base class of all verification engines.

    Subclasses must set the class attribute :attr:`name` (a name or alias
    of the engine's registration in :mod:`repro.engines.registry`, which
    declares its :attr:`capabilities`), accept the design as the first
    positional constructor argument, and implement :meth:`verify`.
    """

    #: canonical engine name (registry key, ``VerificationResult.engine``)
    name: str = ""
    #: what the engine can conclude; see :class:`EngineCapabilities`
    capabilities = _RegisteredCapabilities()

    def __init__(self, system: TransitionSystem) -> None:
        self.system = system

    def __init_subclass__(cls, **kwargs) -> None:
        """Instrument every concrete ``verify`` with fault-injection + telemetry.

        Threading the injection through the base class means *all* engines —
        registry-made, hand-constructed, future ones — are chaos-testable
        without per-engine changes, and the portfolio/batch/cache layers
        above see injected faults only through the ordinary result taxonomy.
        """
        super().__init_subclass__(**kwargs)
        verify = cls.__dict__.get("verify")
        if verify is not None and not getattr(verify, "_fault_instrumented", False):
            cls.verify = _instrument_verify(verify)

    # ------------------------------------------------------------------
    @abstractmethod
    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        """Verify ``property_name`` (default: the design's first property).

        ``timeout`` is a wall-clock budget in seconds; engines return a
        ``TIMEOUT`` result instead of raising when it expires.
        """

    # ------------------------------------------------------------------
    # uniform option handling
    # ------------------------------------------------------------------
    @classmethod
    def option_names(cls) -> Tuple[str, ...]:
        """The keyword options the engine constructor accepts (besides the design)."""
        parameters = inspect.signature(cls.__init__).parameters
        names = []
        for index, (name, parameter) in enumerate(parameters.items()):
            if index < 2:  # self, system
                continue
            if parameter.kind in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            ):
                names.append(name)
        return tuple(names)

    @classmethod
    def validate_options(
        cls, options: Dict[str, object], ignore_unknown: bool = False
    ) -> Dict[str, object]:
        """Return the subset of ``options`` the engine accepts.

        Unknown options raise :class:`EngineOptionError` naming the engine and
        its supported options — unless ``ignore_unknown`` is set, in which
        case they are silently dropped (the *routing* mode used by drivers
        that hand one common option bag to heterogeneous engines).  A
        ``representation`` outside the engine's declared capabilities is
        always an error.
        """
        supported = cls.option_names()
        accepted: Dict[str, object] = {}
        unknown = []
        for key, value in options.items():
            if key in supported:
                accepted[key] = value
            else:
                unknown.append(key)
        if unknown and not ignore_unknown:
            raise EngineOptionError(
                f"engine {cls.name!r} does not accept option(s) "
                f"{', '.join(repr(u) for u in sorted(unknown))}; "
                f"supported: {', '.join(supported) or '(none)'}"
            )
        representation = accepted.get("representation")
        if representation is not None and representation not in cls.capabilities.representations:
            raise EngineOptionError(
                f"engine {cls.name!r} does not support representation "
                f"{representation!r}; supported: "
                f"{', '.join(cls.capabilities.representations)}"
            )
        return accepted

    # ------------------------------------------------------------------
    def default_property(self, property_name: Optional[str] = None) -> str:
        """Resolve ``property_name``, defaulting to the design's first property."""
        if property_name is not None:
            return property_name
        if not self.system.properties:
            raise ValueError(f"design {self.system.name!r} declares no properties")
        return self.system.properties[0].name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.system.name!r})"
