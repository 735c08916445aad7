"""k-induction (Sheeran, Singh, Stålmarck FMCAD 2000).

The engine interleaves the base case (BMC of depth ``k``) and the inductive
step (``P`` holding in ``k`` consecutive states implies ``P`` in the next),
increasing ``k`` until one of them concludes.  Optionally the step case is
strengthened with *simple path* constraints (all states in the induction
window pairwise distinct), which makes the method complete for finite-state
systems — this is what the hardware k-induction engines (ABC, EBMC) do, while
the software implementations (CBMC, 2LS) typically run without it, one of the
behavioural differences visible in Figure 3 of the paper.

The engine can also be strengthened with externally supplied invariants
(used by the kIkI combination of :mod:`repro.engines.kiki`).

The base and step solvers live for the whole run: bound ``k + 1`` extends
the unrollings of bound ``k``, so the conflict clauses, VSIDS activities and
saved phases learned at earlier bounds keep working at the deeper ones.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Tuple

from repro.certs import KInductiveCertificate, witness_from_counterexample
from repro.engines.base import Engine
from repro.engines.encoding import FrameEncoder
from repro.engines.result import Budget, Status, VerificationResult
from repro.exprs import Expr, bool_or, bv_ne
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.sat.solver import SolverStats
from repro.smt import BVResult


class KInductionEngine(Engine):
    """Incremental k-induction engine."""

    name = "k-induction"

    def __init__(
        self,
        system: TransitionSystem,
        max_k: int = 64,
        simple_path: bool = True,
        representation: str = "word",
        strengthening_invariants: Optional[Iterable[Expr]] = None,
    ) -> None:
        super().__init__(system)
        self.max_k = max_k
        self.simple_path = simple_path
        self.representation = representation
        #: extra invariants over (unstamped) state variables assumed in every frame
        self.strengthening_invariants: List[Expr] = list(strengthening_invariants or [])

    # ------------------------------------------------------------------
    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        self._stats = SolverStats()

        base, step = self._fresh_pair(budget)

        for k in range(self.max_k + 1):
            with _telemetry.span("engine.kinduction.k", k=k) as bound_span:
                if budget.expired():
                    self._retire_pair(base, step)
                    bound_span.set_outcome("timeout")
                    return self._timeout(property_name, budget, k)

                # ---- base case: a violation within k steps of the initial state?
                base_property = base.property_literal(property_name, k)
                outcome = base.solver.check(assumptions=[-base_property])
                if outcome == BVResult.SAT:
                    self._retire_pair(base, step)
                    cex = base.extract_counterexample(property_name, k)
                    bound_span.set_outcome("unsafe")
                    return VerificationResult(
                        Status.UNSAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        counterexample=cex,
                        detail={"k": k, "solver_stats": self._stats.as_dict()},
                        certificate=witness_from_counterexample(self.system, self.name, cex),
                    )
                if outcome == BVResult.UNKNOWN:
                    self._retire_pair(base, step)
                    bound_span.set_outcome("timeout")
                    return self._timeout(property_name, budget, k)

                # ---- step case: P in frames 0..k implies P in frame k+1
                self._extend_step_frame(step, k, property_name)
                step_property_next = step.property_literal(property_name, k + 1)
                outcome = step.solver.check(assumptions=[-step_property_next])
                if outcome == BVResult.UNSAT:
                    self._retire_pair(base, step)
                    bound_span.set_outcome("safe")
                    return VerificationResult(
                        Status.SAFE,
                        self.name,
                        property_name,
                        runtime=time.monotonic() - start,
                        detail={
                            "k": k + 1,
                            "simple_path": self.simple_path,
                            "solver_stats": self._stats.as_dict(),
                        },
                        reason=f"property is {k + 1}-inductive",
                        certificate=KInductiveCertificate(
                            property_name,
                            self.name,
                            k=k + 1,
                            simple_path=self.simple_path,
                            invariants=tuple(self.strengthening_invariants),
                        ),
                    )
                if outcome == BVResult.UNKNOWN:
                    self._retire_pair(base, step)
                    bound_span.set_outcome("timeout")
                    return self._timeout(property_name, budget, k)

                # neither case concluded: deepen the unrolling
                base.assert_trans(k)

        self._retire_pair(base, step)
        return VerificationResult(
            Status.UNKNOWN,
            self.name,
            property_name,
            runtime=time.monotonic() - start,
            detail={"max_k": self.max_k, "solver_stats": self._stats.as_dict()},
            reason=f"property is not k-inductive for k <= {self.max_k}",
        )

    # ------------------------------------------------------------------
    # session plumbing
    # ------------------------------------------------------------------
    def _fresh_pair(self, budget: Budget) -> Tuple[FrameEncoder, FrameEncoder]:
        """Build the base-case and step-case encoders."""
        base = FrameEncoder(self.system, representation=self.representation)
        base.solver.set_deadline(budget.deadline)
        base.assert_init(0)
        step = FrameEncoder(self.system, representation=self.representation)
        step.solver.set_deadline(budget.deadline)
        self._assert_invariants(step, 0)
        return base, step

    def _retire_pair(self, base: FrameEncoder, step: FrameEncoder) -> None:
        """Fold the encoders' solver counters into the run totals."""
        for encoder in (base, step):
            self._stats.add(encoder.solver.stats)

    def _extend_step_frame(self, step: FrameEncoder, k: int, property_name: str) -> None:
        """Grow the step-case window by one frame (frame ``k`` -> ``k + 1``)."""
        step.assert_trans(k)
        self._assert_invariants(step, k + 1)
        if self.simple_path:
            self._assert_simple_path(step, k + 1)
        step_property_now = step.property_literal(property_name, k)
        step.solver.solver.add_clause([step_property_now])  # assume P at frame k

    # ------------------------------------------------------------------
    def _assert_invariants(self, encoder: FrameEncoder, frame: int) -> None:
        for invariant in self.strengthening_invariants:
            encoder.solver.assert_expr(encoder.rename_to_frame(invariant, frame))

    def _assert_simple_path(self, encoder: FrameEncoder, new_frame: int) -> None:
        """Require the new frame's state to differ from every earlier frame."""
        state_vars = encoder.state_vars()
        for other in range(new_frame):
            differences = []
            for name, width in state_vars.items():
                differences.append(
                    bv_ne(encoder.var_at(name, other), encoder.var_at(name, new_frame))
                )
            encoder.solver.assert_expr(bool_or(*differences))

    def _timeout(self, property_name: str, budget: Budget, k: int) -> VerificationResult:
        return VerificationResult(
            Status.TIMEOUT,
            self.name,
            property_name,
            runtime=budget.elapsed(),
            detail={"k_reached": k, "solver_stats": self._stats.as_dict()},
        )
