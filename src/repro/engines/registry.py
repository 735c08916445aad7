"""Registry of engines by name, used by the CLI, ladder, portfolio and bench.

Each engine is declared here once, as an :class:`EngineRegistration`
carrying its canonical name, accepted aliases, a one-line summary, its
portfolio and ladder flags and its :class:`EngineCapabilities` — the one
copy of them (``Engine.capabilities`` reads it back from here).  The
registration names the engine's module and class instead of holding the
class: :attr:`EngineRegistration.engine_class` imports the module on first
use, so building the ladder, the portfolio fan-out or ``--list-engines``
imports no engine, and a query imports only the engines it runs.

Drivers look engines up with :func:`get_registration` / :func:`make_engine`
and enumerate them with :func:`list_engines`; options are validated against
the engine's declared constructor signature so a typo'd or misrouted option
produces a targeted :class:`repro.engines.base.EngineOptionError` instead of
an opaque ``TypeError`` from deep inside a constructor.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Tuple, Type

from repro.engines.base import Engine, EngineCapabilities, EngineOptionError
from repro.netlist import TransitionSystem
from repro.records import Frozen


class EngineRegistration(Frozen):
    """Metadata for one registered engine.

    ``module`` and ``class_name`` locate the engine class inside
    :mod:`repro.engines`; it is imported on first use.  The registration is
    callable with the constructor signature of the engine
    (``registration(system, **options)``), so code that used to treat the
    registry as a name -> constructor map keeps working.
    """

    def __init__(
        self,
        name: str,
        module: str,
        class_name: str,
        capabilities: EngineCapabilities,
        aliases: Tuple[str, ...] = (),
        summary: str = "",
        portfolio: bool = False,
        ladder: Optional[bool] = None,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "class_name", class_name)
        object.__setattr__(self, "capabilities", capabilities)
        object.__setattr__(self, "aliases", aliases)
        object.__setattr__(self, "summary", summary)
        #: included in the default process-parallel portfolio
        object.__setattr__(self, "portfolio", portfolio)
        #: scheduled by the default budget ladder (None: same as ``portfolio``)
        object.__setattr__(self, "ladder", ladder)

    @property
    def in_ladder(self) -> bool:
        return self.portfolio if self.ladder is None else self.ladder

    @property
    def engine_class(self) -> Type[Engine]:
        """The engine class, importing its module on first use."""
        module = importlib.import_module(f"repro.engines.{self.module}")
        return getattr(module, self.class_name)

    @property
    def option_names(self) -> Tuple[str, ...]:
        return self.engine_class.option_names()

    def __call__(self, system: TransitionSystem, **options) -> Engine:
        return self.engine_class(system, **options)


_REGISTRATIONS: List[EngineRegistration] = [
    EngineRegistration(
        "bmc",
        "bmc",
        "BMCEngine",
        EngineCapabilities(
            can_prove=False, can_refute=True, representations=("word", "bit"), cost="medium"
        ),
        summary="incremental bounded model checking (refutation only)",
        portfolio=True,
    ),
    EngineRegistration(
        "k-induction",
        "kinduction",
        "KInductionEngine",
        EngineCapabilities(
            can_prove=True, can_refute=True, representations=("word", "bit"), cost="medium"
        ),
        aliases=("kind", "kinduction"),
        summary="k-induction with optional simple-path constraints",
        portfolio=True,
    ),
    EngineRegistration(
        "interpolation",
        "interpolation",
        "InterpolationEngine",
        EngineCapabilities(
            can_prove=True, can_refute=True, representations=("word", "bit")
        ),
        aliases=("itp",),
        summary="McMillan-style interpolation-based reachability",
        portfolio=True,
    ),
    EngineRegistration(
        "pdr",
        "pdr",
        "PDREngine",
        EngineCapabilities(
            can_prove=True, can_refute=True, representations=("word", "bit")
        ),
        aliases=("ic3",),
        summary="IC3/PDR over the register bits",
        portfolio=True,
    ),
    EngineRegistration(
        "kiki",
        "kiki",
        "KikiEngine",
        EngineCapabilities(
            can_prove=True, can_refute=True, representations=("word", "bit"), cost="medium"
        ),
        summary="kIkI: BMC + k-induction + interval k-invariants (2LS)",
        portfolio=True,
    ),
    EngineRegistration(
        "impact",
        "impact",
        "ImpactEngine",
        EngineCapabilities(can_prove=True, can_refute=True, representations=("word",)),
        summary="lazy abstraction with interpolants (IMPACT/IMPARA)",
    ),
    EngineRegistration(
        "predabs",
        "predabs",
        "PredicateAbstractionEngine",
        EngineCapabilities(can_prove=True, can_refute=True, representations=("word",)),
        aliases=("predicate-abstraction",),
        summary="Boolean predicate abstraction with CEGAR",
    ),
    EngineRegistration(
        "absint",
        "absint",
        "AbstractInterpretationEngine",
        EngineCapabilities(
            can_prove=True, can_refute=False, representations=("word",), cost="cheap"
        ),
        aliases=("abstract-interpretation", "intervals"),
        summary="interval abstract interpretation (may raise false alarms)",
        # not raced by the all-at-once portfolio (too incomplete to spend a
        # process on), but a near-free first rung for the budget ladder
        ladder=True,
    ),
    EngineRegistration(
        "rsim",
        "rsim",
        "RandomSimulationEngine",
        EngineCapabilities(
            can_prove=False, can_refute=True, representations=("word",), cost="cheap"
        ),
        aliases=("random-sim", "random-simulation"),
        summary="bit-parallel random-simulation falsification (refutation only)",
        # not worth a portfolio process (BMC subsumes it there), but the
        # cheapest first rung of the budget ladder: milliseconds to a real
        # scalar-confirmed witness on the shallow-bug designs
        ladder=True,
    ),
    EngineRegistration(
        "oracle",
        "oracle",
        "OracleEngine",
        EngineCapabilities(
            can_prove=True, can_refute=True, representations=("word", "bit"), cost="cheap"
        ),
        summary="fault injection: claims a fixed verdict with a forged certificate",
    ),
]


#: every engine name and alias -> its registration (case-insensitive keys)
ENGINE_REGISTRY: Dict[str, EngineRegistration] = {}
for _registration in _REGISTRATIONS:
    for _key in (_registration.name, *_registration.aliases):
        if _key in ENGINE_REGISTRY:  # pragma: no cover - registration-time guard
            raise ValueError(f"duplicate engine registration {_key!r}")
        ENGINE_REGISTRY[_key] = _registration


def list_engines(
    portfolio_only: bool = False, ladder_only: bool = False
) -> List[EngineRegistration]:
    """Return the deduplicated registrations, in registration order.

    Each entry carries the canonical name and its aliases; with
    ``portfolio_only`` the list is restricted to the engines raced by the
    default portfolio, with ``ladder_only`` to the engines scheduled by the
    default budget ladder.
    """
    return [
        registration
        for registration in _REGISTRATIONS
        if (not portfolio_only or registration.portfolio)
        and (not ladder_only or registration.in_ladder)
    ]


def get_registration(name: str) -> EngineRegistration:
    """Look up an engine registration by (case-insensitive) name or alias."""
    key = name.lower()
    if key not in ENGINE_REGISTRY:
        canonical = ", ".join(registration.name for registration in _REGISTRATIONS)
        raise KeyError(f"unknown engine {name!r}; available: {canonical}")
    return ENGINE_REGISTRY[key]


def make_engine(
    name: str,
    system: TransitionSystem,
    ignore_unknown_options: bool = False,
    **options,
) -> Engine:
    """Instantiate an engine by (case-insensitive) name.

    Options are validated against the engine's declared constructor
    signature: unknown options raise
    :class:`repro.engines.base.EngineOptionError` naming the supported ones,
    unless ``ignore_unknown_options`` routes them away (used by drivers that
    pass one shared option bag to heterogeneous engines, keeping only what
    each engine understands).
    """
    engine_class = get_registration(name).engine_class
    accepted = engine_class.validate_options(
        options, ignore_unknown=ignore_unknown_options
    )
    return engine_class(system, **accepted)


__all__ = [
    "ENGINE_REGISTRY",
    "EngineRegistration",
    "EngineOptionError",
    "get_registration",
    "list_engines",
    "make_engine",
]
