"""Bounded model checking.

BMC is the bounded substrate underneath several unbounded techniques in the
paper (the base case of k-induction, the counterexample checks of the
interpolation and kIkI engines).  On its own it can only refute properties —
exactly the limitation the paper's unbounded techniques remove — so the
stand-alone engine returns ``UNKNOWN`` when no violation is found within the
bound.

With ``persistent_session=True`` (the default) one solver serves the whole
deepening run: each bound extends the unrolling of the previous one, so the
learned clauses, variable activities and saved phases accumulated at bound
``k`` accelerate the check at ``k + 1``.  The legacy path
(``persistent_session=False``) rebuilds a fresh solver per bound — the
quadratic re-encode/re-solve behaviour of a non-incremental implementation —
and is kept for cross-checking and as the benchmark baseline.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.certs import witness_from_counterexample
from repro.engines.base import Engine, EngineCapabilities
from repro.engines.encoding import FrameEncoder
from repro.engines.result import Budget, Status, VerificationResult
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.sat.solver import SolverStats
from repro.smt import BVResult


class BMCEngine(Engine):
    """Incremental bounded model checker.

    Parameters
    ----------
    system:
        The design under verification.
    max_bound:
        Deepest unrolling to try.
    representation:
        ``"word"`` or ``"bit"`` (see :class:`repro.engines.encoding.FrameEncoder`).
    persistent_session:
        Reuse one solver across all bounds (default).  ``False`` rebuilds a
        fresh solver per bound (cross-check / benchmark baseline).
    """

    name = "bmc"
    capabilities = EngineCapabilities(
        can_prove=False, can_refute=True, representations=("word", "bit"), cost="medium"
    )

    def __init__(
        self,
        system: TransitionSystem,
        max_bound: int = 128,
        representation: str = "word",
        incremental_template: bool = True,
        persistent_session: bool = True,
    ) -> None:
        super().__init__(system)
        self.max_bound = max_bound
        self.representation = representation
        self.incremental_template = incremental_template
        self.persistent_session = persistent_session

    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        """Search for a violation of ``property_name`` up to ``max_bound`` cycles."""
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        stats = SolverStats()

        encoder: Optional[FrameEncoder] = None
        for bound in range(self.max_bound + 1):
            with _telemetry.span("engine.bmc.bound", k=bound) as bound_span:
                if budget.expired():
                    if encoder is not None:
                        stats.add(encoder.solver.stats)
                    bound_span.set_outcome("timeout")
                    return self._timeout(property_name, budget, bound, stats)
                if self.persistent_session:
                    if encoder is None:
                        encoder = self._new_encoder(budget)
                        encoder.assert_init(0)
                else:
                    # legacy: a fresh solver per bound, re-unrolled from scratch
                    if encoder is not None:
                        stats.add(encoder.solver.stats)
                    encoder = self._new_encoder(budget)
                    encoder.assert_init(0)
                    for frame in range(bound):
                        encoder.assert_trans(frame)
                property_literal = encoder.property_literal(property_name, bound)
                outcome = encoder.solver.check(assumptions=[-property_literal])
                if outcome == BVResult.SAT:
                    stats.add(encoder.solver.stats)
                    cex = encoder.extract_counterexample(property_name, bound)
                    bound_span.set_outcome("unsafe")
                    return VerificationResult(
                        Status.UNSAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        counterexample=cex,
                        detail={"bound": bound, "solver_stats": stats.as_dict()},
                        certificate=witness_from_counterexample(self.system, self.name, cex),
                    )
                if outcome == BVResult.UNKNOWN:
                    stats.add(encoder.solver.stats)
                    bound_span.set_outcome("timeout")
                    return self._timeout(property_name, budget, bound, stats)
                if self.persistent_session:
                    encoder.assert_trans(bound)

        if encoder is not None:
            stats.add(encoder.solver.stats)
        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            detail={"bound_reached": self.max_bound, "solver_stats": stats.as_dict()},
            reason=f"no counterexample within {self.max_bound} cycles",
        )

    # ------------------------------------------------------------------
    def _new_encoder(self, budget: Budget) -> FrameEncoder:
        encoder = FrameEncoder(
            self.system,
            representation=self.representation,
            incremental_template=self.incremental_template,
        )
        encoder.solver.set_deadline(budget.deadline)
        return encoder

    def _timeout(
        self, property_name: str, budget: Budget, bound: int, stats: SolverStats
    ) -> VerificationResult:
        return VerificationResult(
            Status.TIMEOUT,
            self.name,
            property_name,
            runtime=budget.elapsed(),
            detail={"bound_reached": bound, "solver_stats": stats.as_dict()},
        )
