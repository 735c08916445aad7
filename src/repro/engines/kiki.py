"""kIkI: combined k-induction, BMC and k-invariants (2LS; Brain et al. SAS 2015).

2LS, one of the software verifiers evaluated in the paper (Figures 3 and 5),
interleaves three ingredients in one incremental loop:

* incremental BMC refutes the property if a counterexample exists,
* invariant inference over a template domain (here: intervals per register,
  from :mod:`repro.engines.absint`) provides auxiliary facts,
* k-induction, strengthened with those invariants, proves the property.

The combination solves designs whose properties are not k-inductive on their
own but become so once the interval invariants prune unreachable states — the
behaviour that lets 2LS solve more benchmarks than plain k-induction in the
paper's Figure 5.

The candidates are the bounds of absint's interval fixpoint, which
over-approximates the reachable states, so no sampled reachable state can
refute one and they are not screened against samples.  The SAT loop of
:meth:`KikiEngine._certified_invariants` decides which are assumed, and the
inner k-induction runs without simple-path constraints.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.engines.absint import AbstractInterpretationEngine
from repro.engines.base import Engine
from repro.engines.encoding import FrameEncoder, flattened_cached
from repro.engines.kinduction import KInductionEngine
from repro.engines.result import Budget, Status, VerificationResult
from repro.exprs import Expr
from repro.netlist import TransitionSystem
from repro.obs import telemetry as _telemetry
from repro.smt import BVResult


class KikiEngine(Engine):
    """BMC + k-induction + k-invariant combination."""

    name = "kiki"

    def __init__(
        self,
        system: TransitionSystem,
        max_k: int = 64,
        representation: str = "word",
    ) -> None:
        super().__init__(system)
        self.max_k = max_k
        self.representation = representation

    def verify(
        self, property_name: Optional[str] = None, timeout: Optional[float] = None
    ) -> VerificationResult:
        budget = Budget(timeout)
        property_name = self.default_property(property_name)
        start = time.monotonic()
        self._certification_stats = None

        # phase 1: infer interval invariants (cheap, template-based)
        with _telemetry.span("engine.kiki.intervals"):
            analysis = AbstractInterpretationEngine(self.system)
            intervals = analysis.compute_invariants(budget)
            invariants = analysis.invariant_exprs(intervals)
        interval_detail = {"interval_invariants": len(invariants)}
        if budget.expired():
            return VerificationResult(
                Status.TIMEOUT,
                self.name,
                property_name,
                runtime=budget.elapsed(),
                detail=interval_detail,
            )

        # phase 2: the invariants must themselves be inductive to be assumed
        # in the step case; the interval fixpoint guarantees this, but a
        # defensive check keeps the engine sound even if widening was applied.
        with _telemetry.span(
            "engine.kiki.certify", candidates=len(invariants)
        ) as certify_span:
            invariants = self._certified_invariants(invariants, budget)
            certify_span.annotate(certified=len(invariants))

        # phase 3: k-induction strengthened with the certified invariants,
        # interleaved with BMC through the shared base case
        engine = KInductionEngine(
            self.system,
            max_k=self.max_k,
            simple_path=False,
            representation=self.representation,
            strengthening_invariants=invariants,
        )
        result = engine.verify(property_name, timeout=budget.remaining())
        # the inner engine's certificate (witness or k-inductive claim with
        # the strengthening invariants) is re-tagged as ours
        certificate = result.certificate
        if certificate is not None:
            certificate = certificate.replace(engine=self.name)
        detail = {
            **result.detail,
            **interval_detail,
            "certified_invariants": len(invariants),
        }
        if self._certification_stats is not None:
            # fold the certification session's counters into the inner run's
            from repro.sat.solver import SolverStats

            merged = SolverStats(**detail.get("solver_stats", {}))
            merged.add(self._certification_stats)
            detail["solver_stats"] = merged.as_dict()
        result = VerificationResult(
            status=result.status,
            engine=self.name,
            property_name=result.property_name,
            runtime=time.monotonic() - start,
            counterexample=result.counterexample,
            detail=detail,
            reason=result.reason,
            certificate=certificate,
        )
        return result

    # ------------------------------------------------------------------
    def _certified_invariants(self, invariants: List[Expr], budget: Budget) -> List[Expr]:
        """Keep only invariants that hold initially and are jointly inductive.

        The whole pruning loop runs on *one* solver: the transition relation
        is stamped once, each iteration's candidate set is asserted under a
        fresh activation literal, and dropping invariants retracts the group
        instead of rebuilding the solver — the learned clauses about the
        (unchanging) transition relation survive every iteration.
        """
        if not invariants:
            return []
        from repro.exprs import bool_and, bool_not, evaluate

        flat = flattened_cached(self.system)
        init_env = {name: evaluate(expr, {}) for name, expr in flat.init.items()}
        certified = [inv for inv in invariants if evaluate(inv, init_env) == 1]
        if not certified:
            return []

        encoder = FrameEncoder(self.system, representation=self.representation)
        solver = encoder.solver
        solver.set_deadline(budget.deadline)
        encoder.assert_trans(0)
        try:
            while certified:
                if budget.expired():
                    return []
                activation = encoder.new_activation()
                for invariant in certified:
                    solver.assert_guarded(
                        encoder.rename_to_frame(invariant, 0), activation
                    )
                conjunction = bool_and(
                    *[encoder.rename_to_frame(inv, 1) for inv in certified]
                )
                solver.assert_guarded(bool_not(conjunction), activation)
                outcome = solver.check(assumptions=[activation])
                if outcome == BVResult.UNSAT:
                    return certified
                if outcome == BVResult.UNKNOWN:
                    return []
                # drop the invariants violated in the counterexample to induction
                surviving = [
                    invariant
                    for invariant in certified
                    if solver.value_of_expr(encoder.rename_to_frame(invariant, 1)) == 1
                ]
                encoder.retire(activation)
                if len(surviving) == len(certified):
                    # no progress (should not happen); give up on strengthening
                    return []
                certified = surviving
            return certified
        finally:
            self._certification_stats = solver.stats
