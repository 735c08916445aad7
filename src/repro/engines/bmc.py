"""Bounded model checking.

BMC is the bounded substrate underneath several unbounded techniques in the
paper (the base case of k-induction, the counterexample checks of the
interpolation and kIkI engines).  On its own it can only refute properties —
exactly the limitation the paper's unbounded techniques remove — so the
stand-alone engine returns ``UNKNOWN`` when no violation is found within the
bound.

One solver serves the whole deepening run: each bound extends the unrolling
of the previous one, so the learned clauses, variable activities and saved
phases accumulated at bound ``k`` accelerate the check at ``k + 1``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.certs import witness_from_counterexample
from repro.engines.base import Engine
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
    """

    name = "bmc"

    def __init__(
        self,
        system: TransitionSystem,
        max_bound: int = 128,
        representation: str = "word",
    ) -> None:
        super().__init__(system)
        self.max_bound = max_bound
        self.representation = representation

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
                if encoder is None:
                    encoder = FrameEncoder(self.system, representation=self.representation)
                    encoder.solver.set_deadline(budget.deadline)
                    encoder.assert_init(0)
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
