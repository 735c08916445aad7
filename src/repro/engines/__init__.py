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

Every public name below is importable from the package, but the package
imports nothing up front: :data:`_EXPORTS` maps each name to its submodule,
which is imported on first access.  A bare ``repro-verify`` query therefore
loads the ladder and the engines it runs, not the portfolio race, the
supervisor or the batch pool.
"""

import importlib

#: public name -> submodule of :mod:`repro.engines` that defines it
_EXPORTS = {
    "Status": "result",
    "VerificationResult": "result",
    "Counterexample": "result",
    "Engine": "base",
    "EngineCapabilities": "base",
    "EngineOptionError": "base",
    "FrameEncoder": "encoding",
    "BMCEngine": "bmc",
    "KInductionEngine": "kinduction",
    "InterpolationEngine": "interpolation",
    "PDREngine": "pdr",
    "ImpactEngine": "impact",
    "PredicateAbstractionEngine": "predabs",
    "AbstractInterpretationEngine": "absint",
    "KikiEngine": "kiki",
    "OracleEngine": "oracle",
    "RandomSimulationEngine": "rsim",
    "ENGINE_REGISTRY": "registry",
    "EngineRegistration": "registry",
    "get_registration": "registry",
    "list_engines": "registry",
    "make_engine": "registry",
    "LadderRung": "ladder",
    "PortfolioConfig": "ladder",
    "VerificationTask": "ladder",
    "default_budget_ladder": "ladder",
    "default_portfolio_configs": "ladder",
    "learn_priors": "ladder",
    "PortfolioResult": "portfolio",
    "PortfolioRunner": "portfolio",
    "WorkerOutcome": "portfolio",
    "BatchItem": "batch",
    "BatchReport": "batch",
    "BatchRunner": "batch",
    "SupervisedOutcome": "supervision",
    "WorkerSupervisor": "supervision",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
