"""Unbounded verification engines.

Every engine analyses the same word-level transition system (the software
netlist's semantics) and returns a :class:`repro.engines.result.VerificationResult`.
The engines implement the technique families the paper compares:

==================  ============================================  ==============================
family              module                                        paper tools emulated
==================  ============================================  ==============================
bounded search      :mod:`repro.engines.bmc`                      (substrate for the others)
k-induction         :mod:`repro.engines.kinduction`               ABC-kind, EBMC-kind, CBMC-kind
interpolation       :mod:`repro.engines.interpolation`            ABC-interpolation, CPA-interp.
IMPACT              :mod:`repro.engines.impact`                   IMPARA
IC3 / PDR           :mod:`repro.engines.pdr`                      ABC-pdr, SeaHorn-pdr
predicate abstr.    :mod:`repro.engines.predabs`                  CPAChecker predicate abstraction
abstract interp.    :mod:`repro.engines.absint`                   Astrée
kIkI                :mod:`repro.engines.kiki`                     2LS
==================  ============================================  ==============================
"""

from repro.engines.result import Status, VerificationResult, Counterexample
from repro.engines.base import Engine, EngineCapabilities, EngineOptionError
from repro.engines.encoding import FrameEncoder
from repro.engines.bmc import BMCEngine
from repro.engines.kinduction import KInductionEngine
from repro.engines.interpolation import InterpolationEngine
from repro.engines.pdr import PDREngine
from repro.engines.impact import ImpactEngine
from repro.engines.predabs import PredicateAbstractionEngine
from repro.engines.absint import AbstractInterpretationEngine
from repro.engines.kiki import KikiEngine
from repro.engines.oracle import OracleEngine
from repro.engines.rsim import RandomSimulationEngine
from repro.engines.registry import (
    ENGINE_REGISTRY,
    EngineRegistration,
    get_registration,
    list_engines,
    make_engine,
)
from repro.engines.portfolio import (
    LadderRung,
    PortfolioConfig,
    PortfolioResult,
    PortfolioRunner,
    VerificationTask,
    WorkerOutcome,
    default_budget_ladder,
    default_portfolio_configs,
    learn_priors,
)
from repro.engines.batch import BatchItem, BatchReport, BatchRunner
from repro.engines.supervision import (
    RetryPolicy,
    SupervisedOutcome,
    WorkerSupervisor,
)

__all__ = [
    "Status",
    "VerificationResult",
    "Counterexample",
    "Engine",
    "EngineCapabilities",
    "EngineOptionError",
    "FrameEncoder",
    "BMCEngine",
    "KInductionEngine",
    "InterpolationEngine",
    "PDREngine",
    "ImpactEngine",
    "PredicateAbstractionEngine",
    "AbstractInterpretationEngine",
    "KikiEngine",
    "OracleEngine",
    "RandomSimulationEngine",
    "ENGINE_REGISTRY",
    "EngineRegistration",
    "get_registration",
    "list_engines",
    "make_engine",
    "LadderRung",
    "PortfolioConfig",
    "PortfolioResult",
    "PortfolioRunner",
    "VerificationTask",
    "WorkerOutcome",
    "default_budget_ladder",
    "default_portfolio_configs",
    "learn_priors",
    "BatchItem",
    "BatchReport",
    "BatchRunner",
    "RetryPolicy",
    "SupervisedOutcome",
    "WorkerSupervisor",
]
